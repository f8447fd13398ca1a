"""CLI surface: exit codes, JSON stream, spec files, expression errors."""

import json

from goldmankit.cli import run


def test_verify_casimir_g2(capsys):
    assert run(["verify", "casimir", "--group", "g2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "casimir-closed-form" in out


def test_verify_bracket_json(capsys):
    code = run(["--json", "verify", "bracket", "--group", "sp", "--n", "2",
                "--trials", "10", "--seed", "7"])
    assert code == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert all(r["pass"] for r in reports)
    assert reports[0]["params"]["group"] == "sp"
    assert reports[0]["seed"] == 7


def test_verify_normalization_single_size(capsys):
    assert run(["verify", "normalization", "--group", "su", "--n", "4"]) == 0
    assert "normalization" in capsys.readouterr().out


def test_usage_error_exit_code():
    assert run(["verify", "nonsense"]) == 2


def test_bracket_command(capsys):
    code = run(["bracket", "--lhs", "tr(a)", "--rhs", "tr(b)", "--check-closure"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(a.b)" in out and "(a.~b)" in out
    assert "F(r=1, n1=1, s=0, n2=0, t=1)" in out


def test_bracket_parse_error(capsys):
    assert run(["bracket", "--lhs", "tr(", "--rhs", "tr(b)"]) == 2
    assert "expression error" in capsys.readouterr().err


def test_bracket_shared_loop_error(capsys):
    assert run(["bracket", "--lhs", "tr(a)", "--rhs", "tr(a.b)"]) == 2
    assert "bracket error" in capsys.readouterr().err


def test_exotic_validate_and_evaluate(tmp_path, capsys):
    spec = {"r": 1, "n1": 1, "s": 0, "n2": 0, "t": 1, "K": [[1]], "Q": []}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["exotic", "validate", "--spec", str(path)]) == 0
    assert run(["--json", "exotic", "evaluate", "--spec", str(path), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "value" in out


def test_exotic_invariance(tmp_path, capsys):
    spec = {"r": 1, "n1": 1, "s": 0, "n2": 0, "t": 1, "K": [[1]], "Q": []}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["exotic", "invariance", "--spec", str(path), "--trials", "5"]) == 0


def test_exotic_malformed_spec_reported_with_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"r": 1, "n1": 1, "s": 0, "n2": 0, "t": 1,
                                "K": [[5]], "Q": []}))
    code = run(["exotic", "validate", "--spec", str(path)])
    assert code == 2
    assert "$.K[0][0]" in capsys.readouterr().err


def test_exotic_invalid_spec_exit_one(tmp_path, capsys):
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({"r": 2, "n1": 2, "s": 0, "n2": 0, "t": 2,
                                "K": [[1, 0], [0, 0]], "Q": []}))
    code = run(["exotic", "validate", "--spec", str(path)])
    assert code == 1
    assert "column 2 of K" in capsys.readouterr().out


def test_exotic_requires_spec_file(capsys):
    assert run(["exotic", "evaluate"]) == 2


def test_exotic_enumerate(capsys):
    code = run(["--json", "exotic", "enumerate", "--r", "2", "--n1", "2",
                "--s", "0", "--n2", "1", "--t", "2"])
    assert code == 0
    out = capsys.readouterr()
    specs = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    assert len(specs) == 16


def test_json_determinism(capsys):
    argv = ["--json", "verify", "octonion", "--trials", "5", "--seed", "42"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out

    def bodies(text):
        rows = [json.loads(line) for line in text.splitlines()]
        for r in rows:
            r.pop("elapsed_ms", None)
        return rows

    assert bodies(first) == bodies(second)


def test_failed_check_exits_one_but_reports(capsys):
    # an impossible tolerance forces a failure; the report is still emitted
    code = run(["--json", "--tol-abs", "1e-30", "verify", "normalization",
                "--group", "g2"])
    assert code == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows and not rows[0]["pass"]


def test_exotic_evaluate_embedded_instance(tmp_path, capsys):
    import numpy as np

    from goldmankit import observables as obs

    spec = obs.ObservableSpec.make(1, 1, 0, 0, 1, [[1]], [])
    inst = obs.random_instance(spec, seed=6)
    obj = obs.spec_to_json_dict(spec)
    obj["monodromies"] = [m.ravel().tolist() for m in inst.monodromies]
    obj["alphas"] = []
    obj["betas"] = []
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    assert run(["--json", "exotic", "evaluate", "--spec", str(path)]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert abs(value - obs.evaluate(inst)) < 1e-12


def test_verify_octonion_refuses_zero_trials(capsys):
    assert run(["verify", "octonion", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: trials must be >= 1")


def test_verify_all_ignores_group_and_n(capsys):
    def bodies(argv):
        assert run(["--json", "verify", "all", "--trials", "2", "--seed", "4"] + argv) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        for row in rows:
            row.pop("elapsed_ms")
        return rows

    everything = bodies([])
    assert len(everything) == 68
    assert bodies(["--group", "sp"]) == everything
    assert bodies(["--group", "gl", "--n", "5"]) == everything


def test_numeric_error_exits_2_without_traceback(monkeypatch, capsys):
    from goldmankit import goldman
    from goldmankit.linalg import NumericError

    def failing_exp(x):
        raise NumericError("mat_exp did not converge")

    monkeypatch.setattr(goldman, "mat_exp", failing_exp)
    assert run(["verify", "bracket", "--group", "su", "--n", "2", "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: mat_exp did not converge")
    assert "Traceback" not in captured.err


def test_verify_defect_refuses_group_outside_sp_so(capsys):
    for argv in (["--group", "gl", "--trials", "3"], ["--group", "g2", "--n", "1"]):
        assert run(["verify", "defect"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --group {argv[1]} is not supported")


def test_verify_suite_refuses_flags_it_does_not_take(capsys):
    refused = [("tensor-lemmas", "--n", "9"), ("tensor-lemmas", "--group", "su"),
               ("octonion", "--group", "g2"), ("octonion", "--n", "2"),
               ("exotic", "--n", "1"), ("symbolic", "--group", "g2"),
               ("symplectic-inverse", "--group", "sp")]
    for what, flag, value in refused:
        assert run(["verify", what, flag, value, "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: verify {what} does not take {flag}")
    assert run(["verify", "symplectic-inverse", "--n", "1", "--trials", "2"]) == 0
