"""Numeric instantiation of symbolic expressions and the closure check.

Base loops are instantiated with random group elements, composites with the
matching products (``a.b -> M_a M_b``, ``a.~b -> M_a M_b^-1``) and coefficient
symbols with independent random group elements.  For g in G2,
g^T O_i g = sum_j g_ij O_j moves every slot (a word letter, a coefficient row
or column) as a vector, and an id on two slots contracts to g^T g = I: a
monomial whose ids each fill two slots is invariant, legal or not.  So the
closure verdict is recognition, and its numeric part checks that covariance
of the O_i once per call; no monomial is contracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..bases import Family, check_int
from ..goldman import sample_substreams
from ..observables import (ObservableSpec, contract, index_layout, negative_control,
                           require_valid)
from ..octonions import conjugation_residual
from ..reports import CheckRun, VerificationReport
from .core import Composite, Expression, Loop, Monomial, TraceAtom, CoeffAtom, symbols
from .signature import recognize


def instantiate(expr: Expression, seed: int = 0):
    """Random group matrices for every base loop (row k of stream (10,)) and coefficient
    symbol (row k of stream (11,)), in one draw."""
    loops, syms = symbols(expr)
    mats, _, _ = sample_substreams(Family.G2, 1, seed, [((10,), len(loops)), ((11,), len(syms))])
    return dict(zip([("loop", name) for name in loops] + [("sym", name) for name in syms], mats))


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


_CLOSURE_TOL = 1e-7  # covariance residual |g O_i g^T - sum_k O_k g_ki| of the O_i


def closure_check(expr: Expression, seed: int = 0, gauge_trials: int = 3) -> ClosureResult:
    """Signature validity of every monomial plus one covariance check of the O_i.

    One draw: the control, row 0 of stream (10,) (the matrix ``instantiate``
    gives the first base loop), then the gauges, rows of stream (12,).  Fails
    on an unrecognized monomial, a ``conjugation_residual`` of the gauges
    over ``_CLOSURE_TOL`` or a ``negative_control`` of the control that
    fails.  An entry of sum_k O_k g_ki is +-g_ki, so max(1, |rhs|) is 1 and
    the residual is both ``max_abs_err`` and ``max_rel_err``.
    ``trials`` counts the (monomial, gauge) pairs that covariance covers.
    Monomials flagged ``extended`` (outputs of the extrapolated long-word
    rule) are quarantined: listed in the failures, neither checked nor
    failing.  An expression with no monomial outside that quarantine but
    constants (0 included) is refused, as are more gauges than
    ``check_draws`` allows.  Params hold the negative control and the
    recognized, unrecognized and extended counts.
    """
    gauge_trials = check_int(gauge_trials, "gauge_trials", 1)
    if all(m.extended or not (m.traces or m.coeffs) for m in expr.monomials):
        raise ValueError("closure check has no monomial to check (the expression is 0 "
                         "or a constant, or every monomial is extended)")
    with CheckRun("symbolic-closure", seed=seed, trials=len(expr.monomials) * gauge_trials) as run:
        signatures = [recognize(m) for m in expr.monomials]
        failures = [(m, "extended rule output, quarantined" if m.extended
                     else f"unrecognized monomial: {sig.reason}\n  {m}")
                    for m, sig in zip(expr.monomials, signatures) if m.extended or not sig.valid]
        extended = sum(m.extended for m in expr.monomials)
        unrecognized = len(failures) - extended
        drawn, _, _ = sample_substreams(Family.G2, 1, seed, [((10,), 1), ((12,), gauge_trials)])
        residual = float(np.max(conjugation_residual(drawn[1:])))
        moved, control = negative_control(drawn[0], drawn[1:])
        run.record(passed=not unrecognized and residual < _CLOSURE_TOL and moved,
                   max_abs_err=residual, max_rel_err=residual,
                   params={"monomials": len(expr.monomials), "gauge_trials": gauge_trials,
                           "negative_control": control, "extended": extended,
                           "recognized": len(expr.monomials) - len(failures),
                           "unrecognized": unrecognized})
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
