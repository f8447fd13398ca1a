"""`--json verify all --seed 42` against report bodies recorded in tests/golden.

After a change meant to move the results, regenerate the file with::

    PYTHONPATH=src python tests/test_golden.py

Checks, seeds, trial counts, pass flags, params keys and every non-float
param must match exactly; floats within 1e-12 + 1e-9 * |golden|, so a change
in round-off alone passes.
"""

import contextlib
import io
import json
from pathlib import Path

from goldmankit.cli import run

GOLDEN = Path(__file__).parent / "golden" / "verify_all_seed42.jsonl"


def _bodies():
    """The run's report bodies, ``elapsed_ms`` removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["--json", "verify", "all", "--seed", "42"])
    assert code == 0
    return [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
            for line in out.getvalue().splitlines()]


def _close(got, want) -> bool:
    return abs(got - want) <= 1e-12 + 1e-9 * abs(want)


def test_verify_all_seed42_matches_golden():
    got = _bodies()
    want = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(got) == len(want) == 68
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


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(body, sort_keys=True) + "\n" for body in _bodies()))
