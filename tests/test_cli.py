"""CLI surface: exit codes, JSON stream, spec files, expression errors."""

import json
import shlex
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from goldmankit import goldman
from goldmankit import observables as obs
from goldmankit.cli import build_parser, run
from goldmankit.goldman import sample_element
from goldmankit.octonions import unit_matrices


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
    assert capsys.readouterr().err.startswith("error: parse error at offset")


def test_bracket_shared_loop_error(capsys):
    assert run(["bracket", "--lhs", "tr(a)", "--rhs", "tr(a.b)"]) == 2
    assert capsys.readouterr().err.startswith("error: expressions share base loops")


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


def test_failed_check_exits_one_but_reports(monkeypatch, capsys):
    # a residual far above the pinned tolerance forces a failure; the report
    # is still emitted
    from goldmankit import bases

    monkeypatch.setattr(bases, "normalization_residual", lambda basis: 1.0)
    code = run(["--json", "verify", "normalization", "--group", "g2"])
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
    assert captured.err.startswith("error: trials must be >= 1, got 0")


@pytest.mark.parametrize("flag", [["--group", "sp"], ["--n", "5"]])
def test_verify_all_refuses_group_and_n(flag, capsys):
    # `all` runs every suite over its full grid, so it takes no cell
    assert run(["--json", "verify", "all", "--trials", "2", "--seed", "4"] + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: goldmankit")
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


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
        assert f"argument --group: invalid choice: '{argv[1]}'" in captured.err


def test_verify_suite_refuses_flags_it_does_not_take(capsys):
    refused = [("tensor-lemmas", "--n", "9"), ("tensor-lemmas", "--group", "su"),
               ("octonion", "--group", "g2"), ("octonion", "--n", "2"),
               ("exotic", "--n", "1"), ("exotic", "--trials", "0"), ("symbolic", "--group", "g2"),
               ("symplectic-inverse", "--group", "sp")]
    for what, flag, value in refused:
        assert run(["verify", what, flag, value, "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert run(["verify", "symplectic-inverse", "--n", "1", "--trials", "2"]) == 0


def test_exotic_invariance_refuses_zero_trials(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"r": 1, "n1": 1, "s": 0, "n2": 0, "t": 1, "K": [[1]], "Q": []}))
    assert run(["exotic", "invariance", "--spec", str(path), "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: trials must be >= 1, got 0")


def test_bracket_closure_refuses_nothing_to_check(monkeypatch, capsys):
    from dataclasses import replace

    from goldmankit import symbolic

    def refused(lhs, rhs):
        assert run(["bracket", "--lhs", lhs, "--rhs", rhs, "--check-closure"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: closure check has no monomial to check")

    refused("tr(a)", "tr(a)")  # the bracket is 0
    bracket = symbolic.bracket
    monkeypatch.setattr(symbolic, "bracket", lambda lhs, rhs: symbolic.Expression(tuple(
        replace(m, extended=True) for m in bracket(lhs, rhs).monomials)))
    refused("tr(a)", "tr(b)")  # every monomial quarantined as extended


# (argv, exit code): each command refuses, through argparse and before any
# file is read or check run, every flag it does not honour
FLAG_CASES = [(argv, 2) for argv in (
    ["verify", "casimir", "--group", "su", "--n", "2", "--trials", "-3"],
    ["verify", "normalization", "--group", "su", "--n", "2", "--trials", "0", "--seed", "5"],
    ["verify", "split", "--trials", "2"],
    ["verify", "tensor-lemmas", "--trials", "2"],
    ["verify", "symbolic", "--trials", "2"],
    ["verify", "octonion", "--tri", "2"],
    ["verify", "octonion", "--n", "2"],
    ["--tol-abs", "1e-30", "verify", "normalization"],
    ["--tol-rel", "1e300", "verify", "bracket", "--group", "su", "--n", "2", "--trials", "2"],
    ["verify", "bracket", "--group", "su", "--n", "2", "--trials", "2", "--tol-rel", "1e300"],
    ["verify", "defect", "--group", "so", "--n", "3", "--tol-abs", "0", "--trials", "2"],
    ["verify", "all", "--tol-abs", "0"],
    ["--quiet", "verify", "all", "--group", "sp", "--trials", "2"],
    ["exotic", "enumerate", "--r", "1", "--n1", "1", "--t", "1", "--seed", "5"],
    ["exotic", "enumerate", "--r", "1", "--n1", "1", "--t", "1", "--trials", "-1"],
    ["exotic", "enumerate", "--r", "1", "--n1", "1"],
    ["exotic", "evaluate", "--spec", "spec.json", "--trials", "3"],
    ["exotic", "evaluate", "--spec", "spec.json", "--r", "1"],
    ["exotic", "validate", "--spec", "spec.json", "--seed", "1"],
    ["exotic", "invariance", "--spec", "spec.json", "--tol-rel", "1"],
    ["bracket", "--lhs", "tr(a)", "--rhs", "tr(b)", "--trials", "2"],
    ["bracket", "--lhs", "tr(a)", "--rhs", "tr(b)", "--check"],
)] + [(argv, 0) for argv in (
    ["verify", "split", "--seed", "1"],
    ["verify", "tensor-lemmas", "--seed", "3"],
    ["verify", "casimir", "--group", "su", "--n", "2", "--json", "--quiet"],
)]


@pytest.mark.parametrize("argv, code", FLAG_CASES, ids=[" ".join(a) for a, _ in FLAG_CASES])
def test_each_command_takes_only_the_flags_it_honours(argv, code, capsys):
    assert run(argv) == code
    if code == 2:
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: goldmankit")


def test_readme_cli_examples_parse():
    # every `goldmankit ...` line of the sh block under "## CLI" in README.md
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line, comments=True) for line in lines if line.strip()]
    assert len(examples) >= 10
    parser = build_parser()
    for argv in examples:
        assert argv[0] == "goldmankit"
        parser.parse_args(argv[1:])


@pytest.mark.parametrize("argv, message", [
    (["verify", "bracket", "--group", "g2", "--n", "5", "--trials", "2"],
     "g2 has no size parameter: n must be 1, got 5"),
    (["verify", "casimir", "--group", "g2", "--n", "5"],
     "g2 has no size parameter: n must be 1, got 5"),
    # a sweep over every family is refused before its first report
    (["verify", "normalization", "--n", "3"], "g2 has no size parameter: n must be 1, got 3"),
    (["verify", "bracket", "--n", "1", "--trials", "2"], "so(n) requires n >= 2, got 1"),
])
def test_verify_refuses_a_size_a_family_does_not_take(argv, message, capsys):
    for _ in range(2):  # check_size is memoized, and a refusal is never stored
        assert run(["--json", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_exotic_evaluate_takes_more_indices_than_einsum_labels(tmp_path, capsys):
    # r = n1 = t = 53 with K the identity: 53 pairs tr(M_j O_i) tr(N_j O_i)
    obj = {"r": 53, "n1": 53, "s": 0, "n2": 0, "t": 53,
           "K": [[int(i == j) for j in range(53)] for i in range(53)], "Q": []}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    assert run(["--json", "exotic", "evaluate", "--spec", str(path), "--seed", "3"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    mats = obs.random_instance(obs.spec_from_json_dict(obj), seed=3).monodromies
    reference = np.prod([sum(np.trace(m @ o) * np.trace(n @ o) for o in unit_matrices())
                         for m, n in zip(mats[:53], mats[53:])])
    assert abs(value - reference) <= 1e-12 * abs(reference)


def test_exotic_evaluate_takes_a_26_letter_word(tmp_path, capsys):
    # one 26-letter word whose 13 betas are all-ones: tr(M (sum_i O_i)^26)
    m = sample_element("g2", 1, seed=9).matrix
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"r": 0, "n1": 0, "s": 0, "n2": 13, "t": 1,
                                "K": [[]], "Q": [[1] * 26], "monodromies": [m.ravel().tolist()],
                                "alphas": [], "betas": [[1.0] * 49] * 13}))
    assert run(["--json", "exotic", "evaluate", "--spec", str(path)]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    reference = np.trace(m @ np.linalg.matrix_power(unit_matrices().sum(axis=0), 26))
    assert abs(value - reference) <= 1e-12 * abs(reference)


def test_bracket_closure_of_scrambled_words_runs_in_time(capsys):
    # two traces of one 6-letter word in a scrambled order: numpy's greedy
    # path left their bracket with tr(z) in one einsum that ran for minutes
    start = time.perf_counter()
    assert run(["bracket", "--lhs", "tr(z)", "--rhs", "sum i j k l m n: tr(a; O i O j O k O l "
                "O m O n) * tr(b; O k O i O n O j O m O l)", "--check-closure"]) == 0
    assert time.perf_counter() - start < 10.0
    assert "[PASS] symbolic-closure" in capsys.readouterr().out


def test_exotic_evaluate_length_nine_word(tmp_path, capsys):
    from goldmankit import observables as obs

    obj = {"r": 0, "n1": 1, "s": 0, "n2": 4, "t": 1, "K": [[1]], "Q": [[1] * 8]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    assert run(["--json", "exotic", "evaluate", "--spec", str(path), "--seed", "3"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    spec = obs.spec_from_json_dict(obj)
    assert value == obs.evaluate(obs.random_instance(spec, seed=3))


def test_verify_all_reports_a_raising_suite_and_goes_on(monkeypatch, capsys):
    from goldmankit import cli

    def octonion(trials, seed):
        yield from cli._octonion(trials, seed)
        raise RuntimeError("boom")

    argv = ["--json", "verify", "all", "--trials", "2", "--seed", "4"]
    assert run(argv) == 0
    clean = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    monkeypatch.setitem(cli.VERIFY_SUITES, "octonion", (octonion, ("trials", "seed")))
    assert run(argv) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    at = [r["check"] for r in clean].index("octonion-conjugation") + 1
    error = rows[at]
    assert error["check"] == "suite-error" and not error["pass"]
    assert error["params"]["suite"] == "octonion"
    assert error["params"]["error"] == "RuntimeError: boom"
    assert error["params"]["at"].startswith("test_cli.py:")
    assert error["params"]["at"].endswith(" in octonion")
    assert [r["check"] for r in rows[:at] + rows[at + 1:]] == [r["check"] for r in clean]


FIRST_SPEC = {"r": 1, "n1": 1, "s": 0, "n2": 0, "t": 1, "K": [[1]], "Q": []}

# (name, argv with {dir} for a scratch directory, spec file text, expected
# start of the reason): every refusal after argument parsing
REFUSALS = [
    ("missing spec file", ["exotic", "validate", "--spec", "{dir}/missing.json"], None,
     "[Errno 2] No such file or directory: '{dir}/missing.json'"),
    ("malformed JSON", ["exotic", "evaluate", "--spec", "{dir}/spec.json"], '{"r": 1,',
     "malformed JSON in {dir}/spec.json: "),
    ("bad spec field", ["exotic", "validate", "--spec", "{dir}/spec.json"],
     json.dumps(dict(FIRST_SPEC, K=[[5]])), "$.K[0][0]: "),
    ("boolean spec entry", ["exotic", "validate", "--spec", "{dir}/spec.json"],
     json.dumps(dict(FIRST_SPEC, K=[[True]])), "$.K[0][0]: K entry must be an integer, got True"),
    ("float spec entry", ["exotic", "evaluate", "--spec", "{dir}/spec.json"],
     json.dumps(dict(FIRST_SPEC, K=[[1.0]])), "$.K[0][0]: K entry must be an integer, got 1.0"),
    ("bad instance matrix", ["exotic", "invariance", "--spec", "{dir}/spec.json"],
     json.dumps(dict(FIRST_SPEC, monodromies=[[1, 2], [0] * 49], alphas=[], betas=[])),
     "$.monodromies[0]: "),
    ("null instance entry", ["exotic", "evaluate", "--spec", "{dir}/spec.json"],
     json.dumps(dict(FIRST_SPEC, monodromies=[[0] * 49, [None] * 49], alphas=[], betas=[])),
     "$.monodromies[1]: expected 49 finite row-major entries"),
    ("NaN instance entry", ["exotic", "invariance", "--spec", "{dir}/spec.json"],
     json.dumps(dict(FIRST_SPEC, monodromies=[[float("nan")] * 49, [0] * 49], alphas=[],
                     betas=[])), "$.monodromies[0]: expected 49 finite row-major entries"),
    ("string entry", ["exotic", "evaluate", "--spec", "{dir}/spec.json"],
     json.dumps(dict(FIRST_SPEC, monodromies=[["0.5"] * 49, [0] * 49], alphas=[], betas=[])),
     "$.monodromies[0]: expected 49 finite row-major entries"),
    ("boolean entry", ["exotic", "evaluate", "--spec", "{dir}/spec.json"],
     json.dumps(dict(FIRST_SPEC, monodromies=[[0] * 49, [True] * 49], alphas=[], betas=[])),
     "$.monodromies[1]: expected 49 finite row-major entries"),
    ("negative seed, verify bracket", ["verify", "bracket", "--group", "su", "--n", "2",
                                       "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1"),
    ("negative seed, exotic invariance", ["exotic", "invariance", "--spec", "{dir}/spec.json",
                                          "--seed", "-1"], json.dumps(FIRST_SPEC),
     "seed must be a non-negative integer, got -1"),
    ("negative seed, closure", ["bracket", "--lhs", "tr(a)", "--rhs", "tr(b)", "--check-closure",
                                "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1"),
    ("negative seed, verify all", ["verify", "all", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1"),
    ("zero trials, verify all", ["verify", "all", "--trials", "0"], None,
     "trials must be >= 1, got 0"),
    ("negative seed, verify octonion", ["verify", "octonion", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1"),
    ("negative seed, verify tensor-lemmas", ["verify", "tensor-lemmas", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1"),
    ("too many specs", ["exotic", "enumerate", "--n1", "11", "--t", "3"], None,
     "parameters (0, 11, 0, 0, 3) give 177147 specs, over the budget of 100000"),
    ("parse error", ["bracket", "--lhs", "tr(a", "--rhs", "tr(b)"], None,
     "parse error at offset 4"),
    ("unexpected character", ["bracket", "--lhs", "tr(a) $", "--rhs", "tr(b)"], None,
     "parse error at offset 6 near 'tr(a) $': unexpected character"),
    ("empty word", ["bracket", "--lhs", "tr(a;)", "--rhs", "tr(b)"], None,
     "parse error at offset 5 near 'tr(a;)': expected at least one 'O <index>'"),
    ("reserved loop name", ["bracket", "--lhs", "tr(sum)", "--rhs", "tr(b)"], None,
     "parse error at offset 3 near 'tr(sum)': 'sum' is reserved"),
    ("octonion over the work budget", ["verify", "octonion", "--trials", "600000"], None,
     "--trials 600000 needs 1.44e+09 trials x side^4 over the requested cells, "
     "over the budget of 1e+09"),
    ("verify all over the work budget", ["verify", "all", "--trials", "700000"], None,
     "--trials 700000 needs 6.1e+09 trials x side^4 over the requested cells, "
     "over the budget of 1e+09"),
    ("invariance over the sampling budget", ["exotic", "invariance", "--spec", "{dir}/spec.json",
                                             "--trials", "700000"], json.dumps(FIRST_SPEC),
     "700000 draws of g2(1) need 262 MiB, over the 256 MiB sampling budget"),
    ("ties over the walk budget", ["bracket", "--lhs", "tr(z)",
                                   "--rhs", "sum i: " + " * ".join(["tr(a; O i)"] * 12)], None,
     "canonical encoding may take 39916800 walks, over the budget of 100000"),
    ("operands over the budget", ["exotic", "evaluate", "--spec", "{dir}/spec.json"],
     json.dumps({"r": 10 ** 4, "n1": 10 ** 4, "s": 0, "n2": 0, "t": 1, "K": [[1] * 10 ** 4],
                 "Q": []}), "the contraction has 30001 operands, over the budget of 256"),
    ("shared base loops", ["bracket", "--lhs", "tr(a)", "--rhs", "tr(a.b)", "--check-closure"],
     None, "expressions share base loops"),
]


@pytest.mark.parametrize("name, argv, text, reason", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_every_refusal_is_one_error_line(name, argv, text, reason, tmp_path, capsys):
    if text is not None:
        (tmp_path / "spec.json").write_text(text)
    assert run([a.format(dir=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + reason.format(dir=tmp_path))
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("argv", [["verify", "octonion"],
                                  ["exotic", "invariance", "--spec", "{dir}/spec.json"]])
def test_oversize_draws_are_refused_before_any_key(argv, tmp_path, capsys, monkeypatch):
    # 700 000 g2 draws would fill 262 MiB, and building their keys about 60 MiB; the
    # work budget is raised to their price so that the draw refusal is what stops them
    monkeypatch.setattr("goldmankit.cli._VERIFY_WORK", 700_000 * 7 ** 4)
    (tmp_path / "spec.json").write_text(json.dumps(FIRST_SPEC))
    argv = [a.format(dir=tmp_path) for a in argv] + ["--trials", "700000"]
    assert run(argv[:-1] + ["0"]) == 2  # builds the parser outside the trace
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == "" and peak < 1 << 20
    assert captured.err == ("error: 700000 draws of g2(1) need 262 MiB, "
                            "over the 256 MiB sampling budget\n")


def test_verify_octonion_is_priced_before_any_draw(monkeypatch, capsys):
    # 600 000 trials fit the sampling budget, but 600 000 x 7^4 is over the work budget
    def draw(*args):
        raise AssertionError("verify octonion drew before its work was priced")

    monkeypatch.setattr(goldman, "sample_substreams", draw)
    assert run(["verify", "octonion", "--trials", "600000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: --trials 600000 needs 1.44e+09 trials x side^4")


def test_quiet_hides_a_passing_invariance_report(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(FIRST_SPEC))
    assert run(["--quiet", "exotic", "invariance", "--spec", str(path), "--trials", "3"]) == 0
    assert capsys.readouterr().out == ""


def test_quiet_shows_a_failing_closure_report(capsys):
    # each monomial of this bracket holds an index once, so none is recognized
    argv = ["bracket", "--lhs", "sum i: tr(a; O i)", "--rhs", "tr(b)", "--check-closure"]
    assert run(["--quiet", "--json", *argv]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out.splitlines()[-1])
    assert report["check"] == "symbolic-closure" and not report["pass"]
    assert captured.err.count("closure failure: unrecognized monomial") == 3


def _nested(shape, depth):
    """An --lhs nesting ``depth`` levels of one kind."""
    return {
        "parentheses": "(" * depth + "tr(a)" + ")" * depth,
        "loop chain": "tr(" + ".".join(f"a{k}" for k in range(depth + 1)) + ")",
        "loop parentheses": "tr(" + "(" * depth + "a" + ")" * depth + ")",
        "sum binders": "".join(f"sum i{k}: " for k in range(depth)) + "tr(a)",
    }[shape]


NESTINGS = [("parentheses", 400), ("loop chain", 399), ("loop parentheses", 1000),
            ("sum binders", 1000)]


@pytest.mark.parametrize("shape, depth", NESTINGS, ids=[s for s, _ in NESTINGS])
def test_bracket_refuses_deep_nesting(shape, depth, capsys):
    assert run(["bracket", "--lhs", _nested(shape, depth), "--rhs", "tr(b)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parse error at offset ")
    assert captured.err.endswith(": nesting deeper than 100 levels\n")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("shape", [s for s, _ in NESTINGS])
def test_bracket_parses_nesting_at_the_bound(shape, capsys):
    assert run(["bracket", "--lhs", _nested(shape, 100), "--rhs", "tr(b)"]) == 0
    assert capsys.readouterr().err == ""
    assert run(["bracket", "--lhs", _nested(shape, 101), "--rhs", "tr(b)"]) == 2
