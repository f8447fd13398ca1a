"""Reference figures: the ROADMAP baseline rows, re-measured (about 2 minutes).

    python3 perfbench/figures.py

Times `verify all --seed 42`, the acceptance criterion-9 sweep, bracket
checks on su(4) and gl(16) at 400 trials, and `normalize` on one product
of 5 and of 6 tied decorated pairs.  Fast rows are medians of three runs,
slow rows single runs.  BLAS runs on one thread unless OPENBLAS_NUM_THREADS
is already set, so the effect of BLAS threads can be measured by setting it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from goldmankit import cli, goldman, observables  # noqa: E402
from goldmankit import symbolic as sym  # noqa: E402


def timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def verify_all():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["--json", "verify", "all", "--seed", "42"]) == 0


def criterion_9():
    canon = sym.parse_expr("tr(z)")
    k = 0
    for n1 in range(4):
        for n2 in range(2):
            if not 0 < n1 + 2 * n2 <= 3:
                continue
            for r in range(n1 + 1):
                for s in range(n2 + 1):
                    for t in range(1, n1 + 2 * n2 + 1):
                        for spec in observables.enumerate_specs(r, n1, s, n2, t):
                            expr = sym.bracket(canon, sym.build_f_expression(spec))
                            res = sym.closure_check(expr, seed=5_000 + k, gauge_trials=2)
                            assert res.report.passed
                            k += 1
    assert k == 261


def tied(pairs: int):
    names = " ".join(f"x{i}" for i in range(pairs))
    atoms = " * ".join(f"tr(a; O x{i}) * tr(b; O x{i})" for i in range(pairs))
    return sym.parse_expr(f"sum {names}: {atoms}")


def main():
    rows = [
        ("`verify all --seed 42`", lambda: verify_all(), 3),
        ("criterion-9 sweep (261 closures)", criterion_9, 1),
        ("`verify_bracket` su(4), 400 trials",
         lambda: goldman.verify_bracket("su", 4, trials=400, seed=1), 3),
        ("`verify_bracket` gl(16), 400 trials",
         lambda: goldman.verify_bracket("gl", 16, trials=400, seed=1), 3),
        ("`normalize`, 5 tied pairs", lambda e=tied(5): sym.normalize(e), 3),
        ("`normalize`, 6 tied pairs", lambda e=tied(6): sym.normalize(e), 1),
    ]
    print(f"BLAS threads: {os.environ['OPENBLAS_NUM_THREADS']}")
    print("| What | Time |\n|---|---|")
    for label, fn, repeats in rows:
        print(f"| {label} | {timed(fn, repeats):.3g} s |", flush=True)


if __name__ == "__main__":
    main()
