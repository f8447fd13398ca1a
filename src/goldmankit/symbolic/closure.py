"""Numeric instantiation of symbolic expressions and the closure check.

Base loop symbols are instantiated with random group elements, composites
with the corresponding matrix products (``a.b -> M_a M_b``, ``a.~b ->
M_a M_b^-1``), and abstract coefficient symbols with independent random
group elements.  A monomial passes the closure check when its wiring earns a
legal observable signature and its numeric value is invariant, to a pinned
relative tolerance, under ``observables.gauge_drift``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..bases import Family, check_int
from ..goldman import sample_substreams
from ..observables import (ObservableSpec, contract, gauge_drift, index_layout,
                           require_valid)
from ..reports import CheckRun, VerificationReport
from .core import Composite, Expression, Loop, Monomial, TraceAtom, CoeffAtom, symbols
from .signature import recognize


def _draw(expr: Expression, seed: int, gauges: int = 0):
    """``instantiate``'s names and matrices (loops from stream (10,), symbols from (11,)),
    then gauges from stream (12,), in one draw."""
    loops, syms = symbols(expr)
    names = [("loop", name) for name in loops] + [("sym", name) for name in syms]
    streams = [((10,), len(loops)), ((11,), len(syms)), ((12,), gauges)]
    mats, _, _ = sample_substreams(Family.G2, 1, seed, streams)
    return names, mats[:len(names)], mats[len(names):]


def instantiate(expr: Expression, seed: int = 0):
    """Random group matrices for every base loop and coefficient symbol."""
    return dict(zip(*_draw(expr, seed)[:2]))


def _loop_value(term, env) -> np.ndarray:
    if isinstance(term, Loop):
        return env[("loop", term.name)]
    left = _loop_value(term.left, env)
    right = _loop_value(term.right, env)
    if isinstance(term, Composite) and term.invert_right:
        right = np.linalg.inv(right)
    return left @ right


def evaluate_monomial(m: Monomial, env):
    """Contract one monomial (indices summed over 1..7); stacks in ``env`` give a value per row."""
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
    """Signature validity plus per-monomial gauge invariance (``gauge_drift``).

    Monomials flagged ``extended`` (outputs of the extrapolated long-word
    rule) are quarantined: listed in the failures with a note, neither
    checked nor failing the check.  An expression that would pass vacuously,
    with no monomial outside that quarantine but constants (0 included), is
    refused, and so are more gauges than ``check_draws`` allows.  The
    negative control is reported in the params.
    """
    gauge_trials = check_int(gauge_trials, "gauge_trials", 1)
    if all(m.extended or not (m.traces or m.coeffs) for m in expr.monomials):
        raise ValueError("closure check has no monomial to check (the expression is 0 "
                         "or a constant, or every monomial is extended)")
    with CheckRun("symbolic-closure", seed=seed, trials=len(expr.monomials) * gauge_trials) as run:
        signatures = [recognize(m) for m in expr.monomials]
        pairs = list(zip(expr.monomials, signatures))
        failures = [(m, "extended rule output, quarantined" if m.extended
                     else f"unrecognized monomial: {sig.reason}\n  {m}")
                    for m, sig in pairs if m.extended or not sig.valid]
        checked = [m for m, sig in pairs if sig.valid and not m.extended]
        unrecognized = any(not (m.extended or sig.valid) for m, sig in pairs)
        names, mats, gauges = _draw(expr, seed, gauge_trials)

        def values(moved):
            env = dict(zip(names, moved))
            return [evaluate_monomial(m, env) for m in checked]

        passed, drift, worst, control = gauge_drift(mats, gauges, values, _CLOSURE_TOL)
        run.record(passed=passed and not unrecognized, max_abs_err=drift, max_rel_err=worst,
                   params={"monomials": len(expr.monomials), "gauge_trials": gauge_trials,
                           "negative_control": control})
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
