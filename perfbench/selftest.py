"""Self-test of the benchmark harness at tiny size (about a minute).

    python3 perfbench/selftest.py

Runs every workload at ``--size tiny`` with tracing off and on, and checks
the output contract against BENCHMARK.json: the JSON keys, the metric names
and units, zero failed operations, and identical result bodies with and
without tracing.  It also corrupts one result of each workload part and
requires the part's check to notice, and runs the benchmark in a directory
without the goldmankit sources, where it must exit non-zero without a
result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def info_line(stdout: str, key: str) -> str:
    prefix = f"# {key}: "
    return next(line[len(prefix):] for line in stdout.splitlines() if line.startswith(prefix))


def check_contract(bench: dict) -> list:
    problems = []
    for name in sorted(_workload_names(bench)):
        digests = {}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace), "--size", "tiny")
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: {result['correct']=} {result['attempted']=} "
                                f"{result['failed']=}")
            want = {m["name"]: m["unit"] for m in bench[group]}
            if trace == 0:
                # A tiny round has fewer than 40 operations, so no tail.
                want.pop("op_tail_ms")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            digests[trace] = info_line(proc.stdout, "bodies_sha256")
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{name}: result bodies differ between traced and untraced runs")
        print(f"contract {name}: {'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def _workload_names(bench: dict) -> list:
    return [w["name"] for w in bench["workloads"]]


def _corrupt(workload, results: list) -> list:
    """One wrong result per workload part, of a kind its check must catch."""
    bad = list(results)
    k = next(i for i, op in enumerate(workload.ops)
             if op.kind in ("bracket", "closure", "normalize", "evaluate"))
    op = workload.ops[k]
    if op.kind == "bracket":
        bad[k] = copy.copy(results[k])
        bad[k].trials += 1
    elif op.kind == "closure":
        expr, res = results[k]
        bad[k] = (expr, copy.copy(res))
        bad[k][1].failures = [(None, "unrecognized monomial")]
    elif op.kind == "normalize":
        bad[k] = type(results[k])(results[k].monomials[1:])
    else:
        bad[k] = results[k] * (1 + 1e-9)
    return bad


def check_checks(bench: dict) -> list:
    """The checks pass on true results and fail on a corrupted one."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import refs
    import workloads

    problems = []
    gk = workloads.load_goldmankit()
    for name in _workload_names(bench):
        workload = workloads.WORKLOADS[name](gk, 5, True)
        results = [op.call() for op in workload.ops]
        if workload.check(results):
            problems.append(f"{name}: check fails on true results: {workload.check(results)}")
        start = 0
        for part in getattr(workload, "members", [workload]):
            own = results[start:start + len(part.ops)]
            start += len(part.ops)
            if not part.check(_corrupt(part, own)):
                problems.append(f"{name}: the {part.name} check misses a corrupted result")
    gamma = gk.casimir.casimir_tensor(gk.bases.build_basis("gl", 3)).tensor
    if abs(refs.casimir("sl", 3) - gamma).max() < 1e-3:
        problems.append("reference Casimir does not tell sl(3) from gl(3)")
    print(f"checks catch corrupted results: {'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def check_bare_directory() -> list:
    """Without the goldmankit sources the benchmark exits non-zero, printing no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "numeric", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"bare directory: {'ok' if ok else 'FAILED'} (exit {proc.returncode})", flush=True)
    return [] if ok else [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_contract(bench) + check_checks(bench) + check_bare_directory()
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    print("selftest:", "PASS" if not problems else f"FAIL ({len(problems)} problems)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
