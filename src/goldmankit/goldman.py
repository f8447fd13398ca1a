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
``check_draws`` refuses an oversize stack before anything is drawn, and
``_draw`` reads each stream's rows bitwise as the counter-based generator
``Generator(Philox(SeedSequence(seed, spawn_key=stream)))`` (Salmon et al.,
SC 2011) yields them in order, then exponentiates and membership-tests them
in small chunks.  A read starts a Philox at the stream's cached key and
the row's counter (``_read``), so opening a stream hashes no seed.  Row t
of stream s sits at a fixed counter offset, so it does not depend on the
batch or the chunk, and ``sample_element`` replays it alone from
``SeedSequence(seed, spawn_key=(t, *s))``.  A check draws all its trials
as one stack and contracts it with Gamma in O(d^4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bases import (Family, LieBasis, as_family, build_basis, check_size, entry_bytes,
                    generator_stack, matrix_side, symplectic_form)
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
        try:
            res = automorphism_residual(stack)
        except ValueError:  # it takes rows within 1e-8 of orthogonal; the rest keep that distance
            res = np.abs(gt @ stack - np.eye(stack.shape[-1])).max(axis=(1, 2))
            near = res <= 1e-8
            res[near] = automorphism_residual(stack[near])
    return float(res[0]) if g.ndim == 2 else res


def sample_element(family, n: int, seed, scale: float = 1.0,
                   basis: LieBasis | None = None) -> GroupElement:
    """Random group element exp(sum_a c_a t_a), c_a ~ U[-scale, scale].

    ``seed`` is an int, standing for row 0 of stream (), or a numpy
    SeedSequence with int entropy and spawn key (t, *stream): the element is
    then row t of that stream, bitwise as ``sample_substreams`` draws it, from
    ``build_basis(family, n)``.  Any other ``basis`` is refused, of any size.
    """
    own = build_basis(family, n)
    if basis is not None and basis is not own:
        raise ValueError(f"a {basis.family.value}({basis.n}) basis was given for "
                         f"{own.family.value}({own.n}), which draws only from build_basis's")
    key = (0,)
    if isinstance(seed, np.random.SeedSequence):
        if seed.pool_size != 4 or not seed.spawn_key:  # streams are keyed by four-word pools
            raise ValueError("a SeedSequence seed needs pool_size 4 and a spawn key (t, *stream)")
        seed, key = seed.entropy, seed.spawn_key
    (stream, _), = _check_streams([(key[1:], 1)])
    mats, res, _ = _draw(own, check_seed(seed), [(stream, key[0], 1)], scale)
    return GroupElement(own.family, own.n, mats[0], float(res[0]))


_SAMPLE_BYTES = 1 << 28  # sampling refuses a result stack larger than 256 MiB


def sample_substreams(family, n: int, seed: int, streams, scale: float = 1.0):
    """(T, d, d) stack of exp(sum_a c_a t_a): rows 0.. of each (stream, rows) pair in turn.

    Stream ids are all () or all one int in [0, 2^32).  A stream's rows are
    read in order from ``Generator(Philox(SeedSequence(seed,
    spawn_key=stream))).uniform(-scale, scale)``, ``len(basis)`` values a row,
    so row t of stream s is ``sample_element``'s draw for ``SeedSequence(seed,
    spawn_key=(t, *s))`` whatever the batch.  Refused with ValueError before
    anything is drawn: more rows than ``check_draws`` allows, a seed that is
    not a non-negative int, and negative, non-int, ragged or repeated stream
    ids or row counts.  Returns the stack, its membership residuals and the
    number of redraws (``_draw``).
    """
    streams = _check_streams(streams)
    check_draws(family, n, sum(rows for _, rows in streams))
    return _draw(build_basis(family, n), check_seed(seed),
                 [(stream, 0, rows) for stream, rows in streams if rows], scale)


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
    size = rows * side * side * entry_bytes(family)
    if size > _SAMPLE_BYTES:
        raise ValueError(
            f"{rows} draws of {family.value}({n}) need {size / 2 ** 20:.0f} MiB, "
            f"over the {_SAMPLE_BYTES >> 20} MiB sampling budget")


def _check_streams(streams) -> list:
    """``streams`` as (id, rows) pairs; ValueError unless the ids are distinct tuples, all
    empty or all of one int in [0, 2^32), and every row count is an int >= 0."""
    ints = lambda *vs: all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                           and v >= 0 for v in vs)
    try:
        pairs = [(tuple(stream), rows) for stream, rows in streams]
        ok = (len({s for s, _ in pairs}) == len(pairs) and len({len(s) for s, _ in pairs}) <= 1
              and all(len(s) <= 1 and ints(rows, *s) and max(s, default=0) < 1 << 32
                      for s, rows in pairs))
    except (TypeError, ValueError):  # not pairs, or unhashable ids
        ok = False
    if not ok:
        raise ValueError("streams must be (id, rows) pairs: distinct ids, all () or all one int "
                         "in [0, 2^32), and int row counts >= 0")
    return [(tuple(map(int, s)), int(rows)) for s, rows in pairs]


_KEY_CACHE_SIZE = 1024  # stream keys kept; a `numeric` benchmark round uses 36 and no redraw


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _stream_key(seed: int, stream: tuple) -> np.ndarray:
    """The read-only key ``Philox(SeedSequence(seed, spawn_key=stream))`` derives, for a
    first-draw or a redraw id alike; the least recently used of ``_KEY_CACHE_SIZE`` go first."""
    key = np.random.SeedSequence(seed, spawn_key=stream).generate_state(2, np.uint64)
    key.setflags(write=False)
    return key


class _Key(ISeedSequence):
    """A seed sequence whose state is one cached key: ``Philox`` takes its key from
    ``generate_state(2, uint64)``, so it starts at that key with no hashing."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _read(seed: int, stream: tuple, row: int, rows: int, count: int, scale: float):
    """Rows ``row``.. of ``stream``, ``count`` values each: a (rows, count) uniform stack.

    A Philox at the stream's key and the counter step of ``row`` skips to the
    row's first word: Philox makes four 64-bit words per counter step, and
    ``uniform`` takes one word a value.
    """
    start = row * count
    bits = np.random.Philox(_Key(_stream_key(seed, stream)), counter=start // 4)
    if start % 4:
        bits.random_raw(start % 4)
    return np.random.Generator(bits).uniform(-scale, scale, (rows, count))


_DRAW_CHUNK_ENTRIES = 1 << 14  # matrix entries drawn at once: 128 KiB of float64


def _draw(basis: LieBasis, seed: int, streams, scale: float):
    """exp(sum_a c_a t_a) for (stream, first row, rows) triples: (stack, residuals, redraws).

    The one chunk loop of a draw: a chunk reads the next rows of the streams
    it spans (``_read``), and the generator sum, ``mat_exp`` and
    ``membership_residual`` see at most ``_DRAW_CHUNK_ENTRIES`` matrix entries
    (or one row) at a time, each row by row, so no row depends on its chunk.
    A row t of stream s outside the 1e-8 membership band (none at these
    scales) is redrawn alone from stream (t, *s, attempt) a handful of times,
    then NumericError is raised.  Redraw ids have two or three words and
    first-draw ids at most one, so no redraw repeats a first draw.
    """
    if not 0.0 < scale <= 2.0:
        raise ValueError(f"scale must lie in (0, 2], got {scale}")
    gens, count = generator_stack(basis), len(basis)
    starts = list(accumulate((rows for _, _, rows in streams), initial=0))
    mats = np.empty((starts[-1], basis.side, basis.side), dtype=gens.dtype)
    res = np.empty(len(mats))
    step = max(1, _DRAW_CHUNK_ENTRIES // basis.side ** 2)
    pending, todo, draws = range(len(mats)), streams, 0
    for attempt in range(1, _RESAMPLE_LIMIT + 1):
        bounds = list(accumulate((rows for _, _, rows in todo), initial=0))
        for lo in range(0, len(pending), step):
            hi = min(lo + step, len(pending))
            parts = [_read(seed, stream, first + max(lo, a) - a, min(hi, b) - max(lo, a),
                           count, scale)
                     for (stream, first, _), a, b in zip(todo, bounds, bounds[1:])
                     if a < hi and b > lo]
            coeffs = parts[0] if len(parts) == 1 else np.concatenate(parts)
            rows = slice(lo, hi) if attempt == 1 else pending[lo:hi]  # first draws are in order
            mats[rows] = mat_exp(np.einsum("ta,aij->tij", coeffs, gens))
            res[rows] = membership_residual(basis.family, basis.n, mats[rows])
        draws += len(pending)
        pending = np.flatnonzero(~(res < _MEMBERSHIP_TOL))
        if not pending.size:
            return mats, res, draws - len(mats)
        which = np.searchsorted(starts, pending, "right") - 1
        todo = [((int(streams[j][1] + i - starts[j]), *streams[j][0], attempt), 0, 1)
                for i, j in zip(pending, which)]
    raise NumericError(
        f"could not sample a {basis.family.value} element within residual "
        f"{_MEMBERSHIP_TOL:.1e} (last residual {res[pending].max():.3e})"
    )


def _trial_draws(basis: LieBasis, seed: int, trials: int, count: int, scale: float = 1.0):
    """``count`` (trials, d, d) stacks (stack k is rows 0..trials-1 of stream (k,)), redraws."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    streams = [((k,), trials) for k in range(count)]
    mats, _, resamples = sample_substreams(basis.family, basis.n, seed, streams, scale)
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


def _reduce(lhs: np.ndarray, rhs: np.ndarray, relative: bool):
    """(trial with the largest relative error if ``relative``, else absolute, the largest
    absolute error, the largest relative error): the trial is the one the verdict reads."""
    err = np.abs(lhs - rhs)
    rel = err / np.maximum(np.abs(rhs), _REL_FLOOR)
    return int(np.argmax(rel if relative else err)), float(err.max()), float(rel.max())


def verify_bracket(family, n: int = 1, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Bracket identity on ``trials`` independently sampled pairs.

    ``params["worst_trial"]`` is the trial t with the largest relative error,
    the one the verdict reads (row t of streams (0,) and (1,));
    ``params["resamples"]`` counts redraws.  For sides above 2 that trial,
    replayed alone through ``bracket_sides``, matches its error here only to
    round-off, since ``trace12_pairs`` sums the stack in another order.
    """
    family = as_family(family)
    with CheckRun("goldman-bracket", seed=seed, trials=trials) as run:
        basis = build_basis(family, n)
        gamma = casimir_tensor(basis).tensor
        (a, b), resamples = _trial_draws(basis, seed, trials, 2)
        worst, worst_abs, worst_rel = _reduce(*_bracket_stack(family, a, b, gamma), relative=True)
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
        worst, worst_abs, worst_rel = _reduce(lhs, -np.einsum("tij,tji->t", a, np.linalg.inv(b)),
                                             relative=False)
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
        worst, worst_abs, _ = _reduce(symplectic_inverse_residual(b, n), np.zeros(trials), False)
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
