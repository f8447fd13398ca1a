"""Benchmark runner for goldmankit: one workload, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, repeats whole rounds of its
operations until S seconds of operation time have passed (at least one
round), checks every result against the references in ``refs.py`` and
prints the metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones from
spans recorded around goldmankit's public functions (see ``tracing.py``).
Exit code 0 when every check passes, 1 when a check fails, 2 when the
goldmankit sources are missing.
"""

from __future__ import annotations

import os

# One BLAS thread: runs stay comparable on a shared machine, and the trial
# loops call BLAS on small matrices where extra threads only contend.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The trial-thread budget stays at its default.
os.environ.pop("GOLDMANKIT_THREADS", None)

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 15
TAIL_BEYOND = 10   # operations beyond the tail percentile
TAIL_MIN_OPS = 40  # fewer operations than this per round: no tail reported


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few operations per workload, for the harness self-test")
    return p.parse_args(argv)


def process_age() -> float | None:
    """Seconds since this process started, from /proc (None where unavailable)."""
    try:
        start_ticks = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[19])
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def tail(latencies: list) -> float:
    """Latency at the highest percentile with TAIL_BEYOND operations beyond it."""
    return sorted(latencies)[-(TAIL_BEYOND + 1)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "goldmankit" / "__init__.py").is_file():
        print(f"error: goldmankit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import ROUNDS, SETUP, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    tracer = Tracer() if args.trace else None

    def set_up(traced=False):
        """One set-up: fresh goldmankit import, inputs from the seed, warm-up."""
        gc.collect()  # no collection of earlier imports' garbage inside the timing
        t0 = time.perf_counter()
        gk = workloads.load_goldmankit()
        if not Path(gk.package.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported goldmankit from {gk.package.__file__}, not {SRC}",
                  file=sys.stderr)
            sys.exit(2)
        if traced:
            tracer.install()
            tracer.phase = SETUP
        workload = make(gk, args.seed, tiny)
        workloads.warm_up(gk)
        return time.perf_counter() - t0, workload

    def set_up_aside():
        """A timed set-up whose modules are dropped again, so that the
        operations and their lazy imports keep using the run's own modules."""
        saved = workloads.goldmankit_modules()
        try:
            return set_up()[0]
        finally:
            for name in workloads.goldmankit_modules():
                del sys.modules[name]
            sys.modules.update(saved)

    # Set-up, SETUP_REPEATS times.  A traced run traces the last of them,
    # all before the rounds.  An untraced run keeps the first and spreads the
    # others over the rounds (outside their timing), so that the median
    # samples the machine's speed over the whole run, not over its first
    # seconds.
    if tracer is not None:
        for _ in range(SETUP_REPEATS - 1):
            set_up()
        spread = 0
        dt, workload = set_up(traced=True)
    else:
        dt, workload = set_up()
        spread = SETUP_REPEATS - 1
    setups = [dt]
    age_at_first_op = process_age()

    ops = workload.ops
    rounds = []            # per round: list of operation latencies
    bodies = []            # round 1 result bodies
    results = []           # round 1 results (None where the operation failed)
    attempted = failed = mismatched = 0
    mc_trials = 0          # Monte-Carlo trials per round
    is_mc = [False] * len(ops)
    spent = 0.0
    # Each round runs pinned to the next of the CPUs this process may use.
    # The vCPUs of a shared host slow down one at a time, each for seconds
    # to minutes (README, "Steadiness"); taking turns lets every operation
    # meet a CPU in its fast phase during the run.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    while not rounds or spent < args.seconds:
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
        lat = []
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.phase = ROUNDS
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # counted as a failed operation
                result, error = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.phase = None
            lat.append(dt)
            if error is not None or workload.op_failed(op, result):
                failed += 1
                if error is not None and not rounds:
                    traceback.print_exception(error, file=sys.stderr)
                body, result = f"failed: {op.label}", None
            else:
                body = workload.body(op, result)
                trials = workload.trials(op, result)
                if trials and not rounds:
                    mc_trials += trials
                    is_mc[k] = True
            if not rounds:
                bodies.append(body)
                results.append(result)
            elif body != bodies[k]:
                mismatched += 1
        rounds.append(lat)
        spent += sum(lat)
        while len(setups) <= spread and spent >= args.seconds * len(setups) / (spread + 1):
            setups.append(set_up_aside())
    while len(setups) <= spread:
        setups.append(set_up_aside())
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus)

    errors = workload.check(results)
    if mismatched:
        errors.append(f"{mismatched} results differ from the first round's")
    # Each operation's latency is its best over the run's rounds (see README,
    # "Steadiness"); the round-level figures are built from those.
    best = [min(lat[k] for lat in rounds) for k in range(len(ops))]
    info = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "ops_per_round": len(ops), "bodies_sha256":
            hashlib.sha256("\n".join(bodies).encode()).hexdigest(),
    }
    if age_at_first_op is not None:
        info["process_start_to_first_op_s"] = round(age_at_first_op, 3)

    if tracer is None:
        mc_best = sum(t for t, mc in zip(best, is_mc) if mc)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(best), "unit": "s"},
            "trials_per_s": {"value": mc_trials / mc_best if mc_best else 0.0, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(best), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        if len(ops) >= TAIL_MIN_OPS:
            metrics["op_tail_ms"] = {"value": 1e3 * tail(best), "unit": "ms"}
            info["op_tail"] = (f"p{100 * (len(ops) - TAIL_BEYOND) / len(ops):.1f} of "
                               f"{len(ops)} operations, each at its best of "
                               f"{len(rounds)} rounds ({attempted} operations run)")
    else:
        metrics, sums = tracer.layer_metrics(len(rounds))
        wall_mean = sum(map(sum, rounds)) / len(rounds)
        info.update(traced_setup_s=setups[-1], traced_wall_s=sum(best),
                    self_s_setup=sums["setup"], self_s_round=sums["round"])
        if sums["setup"] > setups[-1] or sums["round"] > wall_mean:
            errors.append(f"self times {sums} exceed traced set-up {setups[-1]:.4f} s "
                          f"or mean round {wall_mean:.4f} s")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.json.gz"
        tracer.write(path)
        info["spans"] = f"{len(tracer.spans)} spans in {path.relative_to(ROOT)}"

    for err in errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
