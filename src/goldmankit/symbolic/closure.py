"""Numeric instantiation of symbolic expressions and the closure check.

Base loop symbols are instantiated with random group elements, composites
with the corresponding matrix products (``a.b -> M_a M_b``, ``a.~b ->
M_a M_b^-1``), and abstract coefficient symbols with independent random
group elements.  A monomial passes the closure check when its wiring earns a
legal observable signature and its numeric value is invariant, to a pinned
relative tolerance, under simultaneous conjugation of every loop and
coefficient matrix by random group elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..bases import Family
from ..goldman import sample_substreams
from ..observables import ObservableSpec, contract, index_layout, require_valid
from ..reports import CheckRun, VerificationReport
from .core import Composite, Expression, Loop, Monomial, TraceAtom, CoeffAtom, symbols
from .signature import recognize


def instantiate(expr: Expression, seed: int = 0):
    """Random group matrices for every base loop and coefficient symbol."""
    loops, syms = symbols(expr)
    keys = [(10, k) for k in range(len(loops))] + [(11, k) for k in range(len(syms))]
    mats, _, _ = sample_substreams(Family.G2, 1, seed, keys)
    return dict(zip([("loop", name) for name in loops] + [("sym", name) for name in syms], mats))


def _loop_value(term, env) -> np.ndarray:
    if isinstance(term, Loop):
        return env[("loop", term.name)]
    left = _loop_value(term.left, env)
    right = _loop_value(term.right, env)
    if isinstance(term, Composite) and term.invert_right:
        right = np.linalg.inv(right)
    return left @ right


def conjugate_env(env, g: np.ndarray):
    gi = g.T
    return {key: g @ m @ gi for key, m in env.items()}


def evaluate_monomial(m: Monomial, env) -> float:
    """Contract one monomial numerically (indices summed over 1..7)."""
    traces = [(_loop_value(t.loop, env), t.word) for t in m.traces]
    coeffs = [(env[("sym", c.sym)], c.row, c.col) for c in m.coeffs]
    return contract(traces, coeffs, float(m.coeff))


def evaluate_expression(expr: Expression, env) -> float:
    return sum(evaluate_monomial(m, env) for m in expr.monomials)


@dataclass
class ClosureResult:
    report: VerificationReport
    signatures: list = field(default_factory=list)
    failures: list = field(default_factory=list)


_CLOSURE_TOL = 1e-7  # relative change of a monomial under conjugation


def closure_check(expr: Expression, seed: int = 0, gauge_trials: int = 3) -> ClosureResult:
    """Signature validity plus per-monomial numeric gauge invariance.

    Monomials flagged ``extended`` (outputs of the extrapolated long-word
    rule) are quarantined: listed in the failures with a note, neither
    checked nor failing the check.  An expression with no monomial outside
    that quarantine (0 included) is refused: it would pass vacuously.
    """
    if gauge_trials < 1:
        raise ValueError("gauge_trials must be >= 1")
    if all(m.extended for m in expr.monomials):
        raise ValueError("closure check has no monomial to check "
                         "(the expression is 0 or every monomial is extended)")
    trials = len(expr.monomials) * gauge_trials
    with CheckRun("symbolic-closure", seed=seed, trials=trials) as run:
        signatures = []
        failures = []
        unrecognized = False
        worst = 0.0
        env = instantiate(expr, seed)
        gauges, _, _ = sample_substreams(Family.G2, 1, seed, [(12, k) for k in range(gauge_trials)])
        moved_envs = [conjugate_env(env, g) for g in gauges]
        for m in expr.monomials:
            sig = recognize(m)
            signatures.append(sig)
            if m.extended:
                failures.append((m, "extended rule output, quarantined"))
                continue
            if not sig.valid:
                unrecognized = True
                failures.append((m, f"unrecognized monomial: {sig.reason}\n  {m}"))
                continue
            base = evaluate_monomial(m, env)
            scale_ref = max(1.0, abs(base))
            for moved_env in moved_envs:
                moved = evaluate_monomial(m, moved_env)
                worst = max(worst, abs(moved - base) / scale_ref)
        run.record(passed=worst < _CLOSURE_TOL and not unrecognized,
                   max_abs_err=worst, max_rel_err=worst,
                   params={"monomials": len(expr.monomials), "gauge_trials": gauge_trials})
    return ClosureResult(run.report, signatures, failures)


def build_f_expression(spec: ObservableSpec) -> Expression:
    """The symbolic observable for a spec, on fresh base loops.

    Loops are g1..g{n1+t} (simple slots first, then word rows); coefficient
    symbols are ca1.. for the alpha block and cb1.. for the beta block.
    """
    require_valid(spec)
    simple, words, alphas, betas = index_layout(spec)
    words = [(i,) for i in simple] + [tuple(w) for w in words]
    traces = [TraceAtom(Loop(f"g{k + 1}"), w) for k, w in enumerate(words)]
    coeffs = [CoeffAtom(f"ca{m + 1}", row, col) for m, (row, col) in enumerate(alphas)]
    coeffs += [CoeffAtom(f"cb{k + 1}", row, col) for k, (row, col) in enumerate(betas)]
    return Expression((Monomial(Fraction(1), tuple(traces), tuple(coeffs)),))
