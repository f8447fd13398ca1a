"""Monte-Carlo verification of the trace-bracket identities.

For sampled group elements A, B the reduced bracket

    lhs = (1/2) tr_12[(A (x) B) Gamma]

must equal the family's resolved-loop form:

    GL, U :  tr(AB)
    SL, SU:  tr(AB) - (1/n) tr(A) tr(B)
    SP, SO:  (1/2) (tr(AB) - tr(A B^-1))
    G2    :  (1/2) (tr(AB) - tr(A B^-1) + (1/3) sum_i tr(A O_i) tr(B O_i))

Composite monodromies of the two intersection resolutions are realised
algebraically as AB and AB^-1; only a single transversal intersection is
modelled (reports carry an ``intersections`` field for a future summation
hook).  Elements are drawn as exp(sum_a c_a t_a) with c_a uniform on
[-1, 1] (on [-0.7, 0.7] in the split harness).  Every sampled check draws
row k from its own substream (seed, key) through ``sample_substreams``, so
results do not depend on the batch: a check draws all its trials as one
stack, exponentiates it in one call and contracts it with Gamma in O(d^4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import Family, LieBasis, as_family, build_basis, symplectic_form
from .casimir import casimir_tensor, defect_matrix
from .linalg import NumericError, mat_exp, trace12_pairs
from .octonions import automorphism_residual, unit_matrices
from .reports import CheckRun, VerificationReport

_RESAMPLE_LIMIT = 8
_MEMBERSHIP_TOL = 1e-8
_REL_FLOOR = 1e-12  # relative errors divide by max(|rhs|, _REL_FLOOR)
_BRACKET_TOL = 1e-9  # relative
_DEFECT_TOL = 1e-10  # absolute
_SYMPLECTIC_INVERSE_TOL = 1e-9  # absolute
_SPLIT_TOL = 1e-9  # absolute, on the trace and bracket deviations


@dataclass(frozen=True)
class GroupElement:
    family: Family
    n: int
    matrix: np.ndarray
    membership_residual: float


def membership_residual(family, n: int, g: np.ndarray):
    """Distance from the family's defining relations (0 means on the group).

    ``g`` is one matrix, giving a float, or a (T, d, d) stack, giving one
    residual per matrix.
    """
    family = as_family(family)
    g = np.asarray(g)
    stack = g if g.ndim == 3 else g[None]
    gt = np.swapaxes(stack, 1, 2)
    if family is Family.GL:
        res = np.where(np.abs(np.linalg.det(stack)) > 1e-8, 0.0, np.inf)
    elif family is Family.SL:
        res = np.abs(np.linalg.det(stack) - 1.0)
    elif family in (Family.U, Family.SU):
        res = np.abs(gt.conj() @ stack - np.eye(n)).max(axis=(1, 2))
        if family is Family.SU:
            res = np.maximum(res, np.abs(np.linalg.det(stack) - 1.0))
    elif family is Family.SP:
        j = symplectic_form(n)
        res = np.abs(gt @ j @ stack - j).max(axis=(1, 2))
    elif family is Family.SO:
        res = np.maximum(np.abs(gt @ stack - np.eye(n)).max(axis=(1, 2)),
                         np.abs(np.linalg.det(stack) - 1.0))
    else:
        res = automorphism_residual(stack)
    return float(res[0]) if g.ndim == 2 else res


def sample_elements(family, n: int, seeds, scale: float = 1.0,
                    basis: LieBasis | None = None):
    """(T, d, d) stack of exp(sum_a c_a t_a), c_a ~ U[-scale, scale], one row per seed.

    Row t draws from its own generator seeded by ``seeds[t]`` (an int or a
    SeedSequence), so it is bitwise ``sample_element`` on that seed whatever
    the batch: the unoptimized einsum sums the generators in order and
    ``mat_exp`` exponentiates each row alone.  Rows outside the 1e-8
    membership band (none at these scales) are redrawn from their own
    generators a handful of times, then NumericError is raised.  Returns the
    stack, its membership residuals and the number of redraws.
    """
    if not 0.0 < scale <= 2.0:
        raise ValueError(f"scale must lie in (0, 2], got {scale}")
    family = as_family(family)
    if basis is None:
        basis = build_basis(family, n)
    gens = np.stack(basis.generators)
    rngs = [np.random.default_rng(s) for s in seeds]
    mats = np.empty((len(rngs), basis.side, basis.side), dtype=gens.dtype)
    res = np.empty(len(rngs))
    pending = np.arange(len(rngs))
    draws = 0
    for _ in range(_RESAMPLE_LIMIT):
        coeffs = np.reshape(
            [rngs[t].uniform(-scale, scale, size=len(basis)) for t in pending],
            (len(pending), len(basis)),
        )
        draws += len(pending)
        mats[pending] = mat_exp(np.einsum("ta,aij->tij", coeffs, gens))
        res[pending] = membership_residual(family, basis.n, mats[pending])
        pending = pending[~(res[pending] < _MEMBERSHIP_TOL)]
        if not pending.size:
            return mats, res, draws - len(rngs)
    raise NumericError(
        f"could not sample a {family.value} element within residual "
        f"{_MEMBERSHIP_TOL:.1e} (last residual {res[pending].max():.3e})"
    )


def sample_element(family, n: int, seed, scale: float = 1.0,
                   basis: LieBasis | None = None) -> GroupElement:
    """Random group element exp(sum_a c_a t_a), c_a ~ U[-scale, scale].

    ``seed`` may be an int or a numpy SeedSequence, such as a row's substream
    from ``sample_substreams``.  The one-row case of ``sample_elements``.
    """
    basis = build_basis(family, n) if basis is None else basis
    mats, res, _ = sample_elements(family, n, [seed], scale, basis)
    return GroupElement(basis.family, basis.n, mats[0], float(res[0]))


def sample_substreams(family, n: int, seed: int, keys, scale: float = 1.0,
                      basis: LieBasis | None = None):
    """``sample_elements``, row k drawn from SeedSequence(entropy=seed, spawn_key=keys[k])."""
    streams = [np.random.SeedSequence(entropy=seed, spawn_key=key) for key in keys]
    return sample_elements(family, n, streams, scale, basis)


def _trial_draws(family, basis: LieBasis, seed: int, trials: int, count: int,
                 scale: float = 1.0):
    """``count`` (trials, d, d) stacks (row t of stack k from substream (t, k)), redraws."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    keys = [(t, k) for k in range(count) for t in range(trials)]
    mats, _, resamples = sample_substreams(family, basis.n, seed, keys, scale, basis)
    return mats.reshape(count, trials, basis.side, basis.side), resamples


def _bracket_stack(family: Family, a: np.ndarray, b: np.ndarray, gamma: np.ndarray):
    """(lhs, rhs) of the bracket identity for every pair of rows of two stacks."""
    lhs = 0.5 * trace12_pairs(a, b, gamma)
    tr_ab = np.einsum("tij,tji->t", a, b)
    if family in (Family.GL, Family.U):
        return lhs, tr_ab
    if family in (Family.SL, Family.SU):
        traces = lambda m: np.trace(m, axis1=1, axis2=2)
        return lhs, tr_ab - traces(a) * traces(b) / a.shape[-1]
    resolved = tr_ab - np.einsum("tij,tji->t", a, np.linalg.inv(b))
    if family in (Family.SP, Family.SO):
        return lhs, 0.5 * resolved
    o = unit_matrices()
    oct_sum = np.sum(np.einsum("tij,mji->tm", a, o) * np.einsum("tij,mji->tm", b, o), axis=1)
    return lhs, 0.5 * (resolved + oct_sum / 3.0)


def bracket_sides(family, a: GroupElement, b: GroupElement,
                  gamma: np.ndarray | None = None):
    """(lhs, rhs) of the bracket identity for one sampled pair."""
    family = as_family(family)
    if not (a.family is family and b.family is family and a.n == b.n):
        raise ValueError("bracket_sides needs two elements of the same family and size")
    if gamma is None:
        gamma = casimir_tensor(build_basis(family, a.n)).tensor
    lhs, rhs = _bracket_stack(family, a.matrix[None], b.matrix[None], gamma)
    return lhs[0], rhs[0]


def _reduce(lhs: np.ndarray, rhs: np.ndarray):
    """(trial with the largest absolute error, that error, largest relative error)."""
    err = np.abs(lhs - rhs)
    worst = int(np.argmax(err))
    rel = err / np.maximum(np.abs(rhs), _REL_FLOOR)
    return worst, float(err[worst]), float(np.max(rel))


def verify_bracket(family, n: int = 1, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Bracket identity on ``trials`` independently sampled pairs.

    ``params["worst_trial"]`` is the trial t with the largest absolute error
    (substreams (t, 0), (t, 1)); ``params["resamples"]`` counts redraws.
    """
    family = as_family(family)
    with CheckRun("goldman-bracket", seed=seed, trials=trials) as run:
        basis = build_basis(family, n)
        gamma = casimir_tensor(basis).tensor
        (a, b), resamples = _trial_draws(family, basis, seed, trials, 2)
        worst, worst_abs, worst_rel = _reduce(*_bracket_stack(family, a, b, gamma))
        run.record(passed=worst_rel < _BRACKET_TOL, max_abs_err=worst_abs, max_rel_err=worst_rel,
                   params={"group": family.value, "n": basis.n, "intersections": 1,
                           "worst_trial": worst, "resamples": resamples})
    return run.report


def verify_defect(family, n: int = 1, trials: int = 100, seed: int = 0) -> VerificationReport:
    """tr_12[(A (x) B) chi] = -tr(A B^-1) for the SP/SO defect matrices."""
    family = as_family(family)
    if family not in (Family.SP, Family.SO):
        raise ValueError(f"defect lemma applies to sp/so only, got {family.value}")
    with CheckRun("defect-lemma", seed=seed, trials=trials) as run:
        basis = build_basis(family, n)
        chi = defect_matrix(family, n)
        (a, b), resamples = _trial_draws(family, basis, seed, trials, 2)
        lhs = trace12_pairs(a, b, chi)
        worst, worst_abs, worst_rel = _reduce(lhs, -np.einsum("tij,tji->t", a, np.linalg.inv(b)))
        run.record(passed=worst_abs < _DEFECT_TOL, max_abs_err=worst_abs, max_rel_err=worst_rel,
                   params={"group": family.value, "n": basis.n,
                           "worst_trial": worst, "resamples": resamples})
    return run.report


def symplectic_inverse_residual(b: np.ndarray, n: int):
    """Worst deviation over the full entry-relation table for B in Sp(2n,R).

    The relations express B^-1 through transposed blocks of B with signs:
    for all 1 <= i, j <= n, (B^-1)_ij = B_{j+n,i+n}, (B^-1)_{i,j+n} =
    -B_{j,i+n}, (B^-1)_{i+n,j} = -B_{j+n,i} and (B^-1)_{i+n,j+n} = B_ji; the
    inverse on the left is computed by dense inversion.  ``b`` may also be a
    (T, 2n, 2n) stack, giving one residual per matrix.
    """
    b = np.asarray(b)
    stack = b if b.ndim == 3 else b[None]
    blk = lambda rows, cols: np.swapaxes(stack[:, rows, cols], 1, 2)
    top, bottom = slice(0, n), slice(n, 2 * n)
    relations = np.block([[blk(bottom, bottom), -blk(top, bottom)],
                          [-blk(bottom, top), blk(top, top)]])
    res = np.abs(np.linalg.inv(stack) - relations).max(axis=(1, 2))
    return float(res[0]) if b.ndim == 2 else res


def verify_symplectic_inverse(n: int = 1, trials: int = 100, seed: int = 0) -> VerificationReport:
    """The entry relations of B^-1 on ``trials`` sampled B in Sp(2n,R)."""
    with CheckRun("symplectic-inverse", seed=seed, trials=trials) as run:
        basis = build_basis(Family.SP, n)
        (b,), resamples = _trial_draws(Family.SP, basis, seed, trials, 1)
        worst, worst_abs, _ = _reduce(symplectic_inverse_residual(b, n), np.zeros(trials))
        run.record(passed=worst_abs < _SYMPLECTIC_INVERSE_TOL, max_abs_err=worst_abs,
                   params={"n": n, "worst_trial": worst, "resamples": resamples})
    return run.report


_SPLIT_SCALE = 0.7  # A and B multiply three draws; smaller draws keep the absolute round-off low


def split_harness(family, n: int = 1, seed: int = 0) -> VerificationReport:
    """Basepoint-split invariance of the bracket reduction.

    A loop's monodromy is split as M = T(x1, x2) Mtilde with the composition
    convention T(x1, x2) = T(x1, 0) T(0, x2).  The reduced bracket works on
    the cyclic rearrangement A = T(0, x2) Mtilde T(x1, 0), a group element
    which must carry the same trace as M and still satisfy the bracket
    identity; loop 2 gives B likewise.
    """
    family = as_family(family)
    with CheckRun("split-harness", seed=seed) as run:
        basis = build_basis(family, n)
        gamma = casimir_tensor(basis).tensor
        mats, _ = _trial_draws(family, basis, seed, 1, 6, _SPLIT_SCALE)
        t_x1_0, t_0_x2, mtilde1, t_y1_0, t_0_y2, mtilde2 = mats[:, 0]
        a = t_0_x2 @ mtilde1 @ t_x1_0
        b = t_0_y2 @ mtilde2 @ t_y1_0
        trace_dev = max(
            abs(np.trace(a) - np.trace(t_x1_0 @ t_0_x2 @ mtilde1)),
            abs(np.trace(b) - np.trace(t_y1_0 @ t_0_y2 @ mtilde2)),
        )
        (lhs,), (rhs,) = _bracket_stack(family, a[None], b[None], gamma)
        worst = max(trace_dev, abs(lhs - rhs))
        run.record(passed=worst < _SPLIT_TOL, max_abs_err=worst,
                   max_rel_err=worst / max(abs(rhs), _REL_FLOOR),
                   params={"group": family.value, "n": basis.n})
    return run.report
