"""Verification report records shared by every suite and the CLI."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """One named check: parameters, residuals, and a pass flag.

    ``max_abs_err``/``max_rel_err`` are the largest residuals seen over all
    trials; ``passed`` reflects the check's stated tolerance.  ``elapsed_ms``
    is excluded from the deterministic body (it is timing noise).
    """

    check: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    trials: int = 1
    max_abs_err: float = 0.0
    max_rel_err: float = 0.0
    passed: bool = True
    elapsed_ms: float = 0.0

    def body(self) -> dict:
        """Deterministic portion: everything except the wall-clock field."""
        return {
            "check": self.check,
            "params": {k: _plain(v) for k, v in sorted(self.params.items())},
            "seed": int(self.seed),
            "trials": int(self.trials),
            "max_abs_err": float(self.max_abs_err),
            "max_rel_err": float(self.max_rel_err),
            "pass": bool(self.passed),
        }

    def to_json(self, include_elapsed: bool = True) -> str:
        obj = self.body()
        if include_elapsed:
            obj["elapsed_ms"] = round(self.elapsed_ms, 3)
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (
            f"[{status}] {self.check:28s} {params:32s} "
            f"abs={self.max_abs_err:.3e} rel={self.max_rel_err:.3e}"
        )


def _plain(v):
    """Plain-Python scalar for JSON (numpy scalars are not serializable)."""
    if hasattr(v, "item"):
        return v.item()
    return v if isinstance(v, (int, float, str)) else str(v)


class CheckRun:
    """Times one named check and builds its report.

    ::

        with CheckRun("name", seed=seed, trials=trials) as run:
            ...  # the measured work
            run.record(passed=worst < tol, max_abs_err=worst, params={...})
        return run.report

    The block calls ``record`` once and states how ``passed`` is
    computed; ``elapsed_ms`` covers the whole block.
    """

    def __init__(self, check: str, seed: int = 0, trials: int = 1):
        self.check = check
        self.seed = seed
        self.trials = trials
        self.report: VerificationReport | None = None

    def __enter__(self) -> "CheckRun":
        self._start = time.perf_counter()
        return self

    def record(self, *, passed: bool, max_abs_err: float, max_rel_err: float = 0.0,
               params: dict | None = None) -> None:
        self.report = VerificationReport(
            check=self.check, params=params or {}, seed=self.seed, trials=self.trials,
            max_abs_err=max_abs_err, max_rel_err=max_rel_err, passed=passed,
        )

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        if self.report is None:
            raise RuntimeError(f"check {self.check!r} recorded no result")
        self.report.elapsed_ms = (time.perf_counter() - self._start) * 1000.0
