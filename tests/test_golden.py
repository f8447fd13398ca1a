"""Report bodies against the ones recorded in tests/golden.

Two files are compared: the bodies of `--json verify all --seed 42`
(``verify_all_seed42.jsonl``) and the 261 `closure_check` bodies of
acceptance criterion 9's sweep (``criterion9_closures.jsonl``).  After a
change meant to move the results, regenerate both with::

    PYTHONPATH=src python tests/test_golden.py

Checks, seeds, trial counts, pass flags, params keys and every non-float
param must match exactly; floats within 1e-12 + 1e-9 * |golden|, so a change
in round-off alone passes.
"""

import contextlib
import io
import json
from pathlib import Path

from goldmankit import observables as obs
from goldmankit import symbolic as sym
from goldmankit.cli import run

GOLDEN = Path(__file__).parent / "golden"
VERIFY_ALL = GOLDEN / "verify_all_seed42.jsonl"
CRITERION9 = GOLDEN / "criterion9_closures.jsonl"


def _verify_all_bodies():
    """The run's report bodies, ``elapsed_ms`` removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["--json", "verify", "all", "--seed", "42"])
    assert code == 0
    return [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
            for line in out.getvalue().splitlines()]


def _criterion9_bodies():
    """The closure bodies of criterion 9's sweep, {tr z, F} for every spec with
    0 < n1 + 2 n2 <= 3, in its order and with its seeds."""
    canon = sym.parse_expr("tr(z)")
    specs = [spec for n1 in range(4) for n2 in range(2) if 0 < n1 + 2 * n2 <= 3
             for r in range(n1 + 1) for s in range(n2 + 1) for t in range(1, n1 + 2 * n2 + 1)
             for spec in obs.enumerate_specs(r, n1, s, n2, t)]
    return [sym.closure_check(sym.bracket(canon, sym.build_f_expression(spec)),
                              seed=5_000 + k, gauge_trials=2).report.body()
            for k, spec in enumerate(specs)]


def _close(got, want) -> bool:
    return abs(got - want) <= 1e-12 + 1e-9 * abs(want)


def _assert_matches(got, path, count):
    want = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(got) == len(want) == count
    for k, (g, w) in enumerate(zip(got, want)):
        where = f"report {k} ({w['check']} {w['params']})"
        assert set(g) == set(w), where
        for field in ("check", "seed", "trials", "pass"):
            assert g[field] == w[field], (where, field)
        assert set(g["params"]) == set(w["params"]), where
        floats = [(name, g[name], w[name]) for name in ("max_abs_err", "max_rel_err")]
        for name, value in w["params"].items():
            if isinstance(value, float):
                floats.append((name, g["params"][name], value))
            else:
                assert g["params"][name] == value, (where, name)
        for name, got_value, want_value in floats:
            assert isinstance(got_value, float) and _close(got_value, want_value), (where, name)


def test_verify_all_seed42_matches_golden():
    _assert_matches(_verify_all_bodies(), VERIFY_ALL, 68)


def test_criterion9_closures_match_golden():
    _assert_matches(_criterion9_bodies(), CRITERION9, 261)


if __name__ == "__main__":
    for path, bodies in ((VERIFY_ALL, _verify_all_bodies), (CRITERION9, _criterion9_bodies)):
        path.write_text("".join(json.dumps(body, sort_keys=True) + "\n" for body in bodies()))
