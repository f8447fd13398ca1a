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
[-1, 1] (on [-0.7, 0.7] in the split harness).  Every draw takes one path:
``check_draws`` refuses an oversize stack before any key is built, numpy's
SeedSequence mixes the seed once, ``_substream_words`` continues its hashing
over the spawn keys of all rows in one array pass, and ``_draw`` turns the
words into coefficients bitwise as ``default_rng(SeedSequence(seed,
spawn_key=key)).uniform(-scale, scale)`` draws them, then exponentiates and
membership-tests the rows in small chunks.  Results do not depend on the
batch: a check draws all its trials as one stack (``sample_substreams``) and
contracts it with Gamma in O(d^4); ``sample_element`` draws a single row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bases import (Family, LieBasis, as_family, build_basis, check_size, matrix_side,
                    symplectic_form)
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


def sample_element(family, n: int, seed, scale: float = 1.0,
                   basis: LieBasis | None = None) -> GroupElement:
    """Random group element exp(sum_a c_a t_a), c_a ~ U[-scale, scale].

    ``seed`` is an int (the empty spawn key) or a numpy SeedSequence with int
    entropy and pool size 4, such as a row's substream; the element is the
    row ``sample_substreams`` draws for that entropy and spawn key, from the
    basis of (family, n).  A ``basis`` of another (family, n) is refused.
    """
    own = build_basis(family, n)
    if basis is not None and (basis.family, basis.n) != (own.family, own.n):
        raise ValueError(f"a {basis.family.value}({basis.n}) basis was given "
                         f"for {own.family.value}({own.n})")
    key = ()
    if isinstance(seed, np.random.SeedSequence):
        if seed.pool_size != 4:  # _substream_words continues numpy's default four-word pool
            raise ValueError(f"a SeedSequence seed needs pool_size 4, got {seed.pool_size}")
        seed, key = seed.entropy, seed.spawn_key
    mats, res, _ = _draw(own, _substream_words(seed, [key]), scale)
    return GroupElement(own.family, own.n, mats[0], float(res[0]))


_SAMPLE_BYTES = 1 << 28  # sampling refuses a result stack larger than 256 MiB


def sample_substreams(family, n: int, seed: int, keys, scale: float = 1.0):
    """(T, d, d) stack of exp(sum_a c_a t_a), row t from SeedSequence(seed, spawn_key=keys[t]).

    ``keys`` is a rectangular (T, W) array-like of ints in [0, 2^32), such as
    a list of equal-length tuples.  Row t's coefficients are bitwise those
    ``default_rng(SeedSequence(seed, spawn_key=keys[t])).uniform(-scale,
    scale)`` draws, whatever the batch.  Refused with ValueError before
    anything is drawn: more rows than ``check_draws`` allows (callers that
    build many keys ask it first), a seed that is not a non-negative int, and
    ragged, negative or too large keys.  Returns the stack, its membership
    residuals and the number of redraws (``_draw``).
    """
    check_draws(family, n, len(keys))
    return _draw(build_basis(family, n), _substream_words(seed, keys), scale)


def check_seed(seed) -> int:
    """``seed`` as an int if it is a non-negative integer; ValueError otherwise."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def check_draws(family, n: int, rows: int) -> None:
    """ValueError unless a stack of ``rows`` family(n) elements fits ``_SAMPLE_BYTES``
    (256 MiB) and ``check_size`` takes n."""
    family = as_family(family)
    side = matrix_side(family, check_size(family, n))
    size = rows * side * side * (16 if family in (Family.U, Family.SU) else 8)
    if size > _SAMPLE_BYTES:
        raise ValueError(
            f"{rows} draws of {family.value}({n}) need {size / 2 ** 20:.0f} MiB, "
            f"over the {_SAMPLE_BYTES >> 20} MiB sampling budget")


# numpy.random.SeedSequence's hash and mix constants (a pool of four 32-bit words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix, on uint32 arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


@lru_cache(maxsize=64)
def _entropy_pool(seed: int):
    """(4, 1) uint32 pool of numpy's SeedSequence(seed), and the hashmix calls it made.

    With a spawn key, SeedSequence zero-pads the seed's 32-bit words to four;
    without one it hashes the same zeros.  So spawn-key words continue this
    pool's mixing, at hash constant 4 * max(4, seed words)."""
    return np.random.SeedSequence(seed).pool[:, None], 4 * max(4, -(-seed.bit_length() // 32))


@lru_cache(maxsize=64)
def _constant_arrays(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """(2, count, 1) uint32 (xor, multiply) constants of hashmix calls start, start + 1, ...

    Call k xors with init * mult^k and multiplies by init * mult^(k+1), mod 2^32.
    """
    consts = [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(start, start + count + 1)]
    return np.array([consts[:-1], consts[1:]], np.uint32)[:, :, None]


def _key_array(keys) -> np.ndarray:
    """``keys`` as a (T, W) uint32 array; ValueError unless rectangular ints in [0, 2^32)."""
    try:
        arr = np.asarray(keys)
    except ValueError:  # ragged rows
        arr = None
    if arr is not None and arr.shape == (0,):  # no rows
        arr = arr.reshape(0, 0)
    if arr is None or arr.ndim != 2 or arr.size and not (
            arr.dtype.kind in "iu" and arr.min() >= 0 and arr.max() <= _MASK32):
        raise ValueError("spawn keys must be a rectangular (T, W) array of ints in [0, 2^32)")
    return arr.astype(np.uint32)


def _substream_words(seed: int, keys) -> np.ndarray:
    """(T, 4) uint64 PCG64 seed words of SeedSequence(seed, spawn_key=keys[t]), all rows at once.

    ``check_seed`` and ``_key_array`` check the seed and keys.  numpy mixes
    the seed once (``_entropy_pool``).  Each key word is then hashed and mixed
    into all four pool words of every row as uint32 arrays, and the pool is
    hashed out as ``generate_state(4, np.uint64)`` does.
    """
    shared, start = _entropy_pool(check_seed(seed))
    words = _key_array(keys)
    xor, mult = _constant_arrays(_INIT_A, _MULT_A, start, 4 * words.shape[1]).reshape(2, -1, 4, 1)
    pool = np.repeat(shared, len(words), axis=1)  # (4, T)
    for hashed in _hashmix(words.T[:, None], xor, mult):  # each key word for each pool word
        pool = _mix(pool, hashed)
    state = _hashmix(np.concatenate([pool, pool]), *_constant_arrays(_INIT_B, _MULT_B, 0, 8))
    state = state.astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T.copy()


class _StateWords(ISeedSequence):
    """Hands PCG64 four precomputed seed words in place of a SeedSequence."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _uniforms(words: np.ndarray, attempt: int, count: int, scale: float) -> np.ndarray:
    """(T, count) coefficients: each row's ``attempt``-th ``Generator.uniform(-scale, scale,
    count)`` draw, from a PCG64 on the row's seed words advanced past the earlier draws."""
    raw = np.empty((len(words), count), dtype=np.uint64)
    for t, row in enumerate(words):
        bits = np.random.PCG64(_StateWords(row))
        if attempt:
            bits.advance(attempt * count)
        raw[t] = bits.random_raw(count)
    # Generator.uniform: low + (high - low) * (53 random bits) / 2^53
    return -scale + (2 * scale) * ((raw >> np.uint64(11)) * (1.0 / 9007199254740992.0))


_DRAW_CHUNK_ENTRIES = 1 << 14  # matrix entries drawn at once: 128 KiB of float64


def _draw(basis: LieBasis, words: np.ndarray, scale: float):
    """exp(sum_a c_a t_a) for each row of (T, 4) PCG64 seed words: (stack, residuals, redraws).

    The one chunk loop of a draw: the generator sum, ``mat_exp`` and
    ``membership_residual`` see at most ``_DRAW_CHUNK_ENTRIES`` matrix entries
    (or one row) at a time, and each works row by row, so no row depends on
    its chunk.  Rows outside the 1e-8 membership band (none at these scales)
    are redrawn from their own generators a handful of times, then
    NumericError is raised.
    """
    if not 0.0 < scale <= 2.0:
        raise ValueError(f"scale must lie in (0, 2], got {scale}")
    gens = np.stack(basis.generators)
    mats = np.empty((len(words), basis.side, basis.side), dtype=gens.dtype)
    res = np.empty(len(words))
    step = max(1, _DRAW_CHUNK_ENTRIES // basis.side ** 2)
    pending = np.arange(len(words))
    draws = 0
    for attempt in range(_RESAMPLE_LIMIT):
        for lo in range(0, len(pending), step):
            rows = pending[lo:lo + step]
            coeffs = _uniforms(words[rows], attempt, len(basis), scale)
            mats[rows] = mat_exp(np.einsum("ta,aij->tij", coeffs, gens))
            res[rows] = membership_residual(basis.family, basis.n, mats[rows])
        draws += len(pending)
        pending = pending[~(res[pending] < _MEMBERSHIP_TOL)]
        if not pending.size:
            return mats, res, draws - len(words)
    raise NumericError(
        f"could not sample a {basis.family.value} element within residual "
        f"{_MEMBERSHIP_TOL:.1e} (last residual {res[pending].max():.3e})"
    )


def _trial_draws(basis: LieBasis, seed: int, trials: int, count: int, scale: float = 1.0):
    """``count`` (trials, d, d) stacks (row t of stack k from substream (t, k)), redraws."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_draws(basis.family, basis.n, trials * count)
    keys = np.stack([np.tile(np.arange(trials), count), np.repeat(np.arange(count), trials)],
                    axis=1)
    mats, _, resamples = sample_substreams(basis.family, basis.n, seed, keys, scale)
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
        (a, b), resamples = _trial_draws(basis, seed, trials, 2)
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
        (a, b), resamples = _trial_draws(basis, seed, trials, 2)
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
        (b,), resamples = _trial_draws(basis, seed, trials, 1)
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
        mats, _ = _trial_draws(basis, seed, 1, 6, _SPLIT_SCALE)
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
