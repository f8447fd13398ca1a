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
modelled.  Elements are drawn as exp(sum_a c_a t_a) with c_a uniform on [-1, 1]
(on [-0.7, 0.7] in the split harness).  Row t of stream s is read bitwise as
``Generator(Philox(SeedSequence(seed, spawn_key=s)))`` (Salmon et al., SC 2011)
yields it, so no row depends on the batch or the chunk, and ``sample_element``
replays it alone from ``SeedSequence(seed, spawn_key=(t, *s))``.  One ``verify``
draws its suites' declared streams once, up front (``draw_scope``).  Each
sampled check is a ``SampledCheck`` record that ``run_check`` draws, reduces
with one rule (relative error = err / max(|rhs|, ``_REL_FLOOR``)) and reports.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby
from operator import itemgetter

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bases import (Family, LieBasis, as_family, build_basis, check_int, check_size,
                    entry_bytes, generator_stack, matrix_side, symplectic_form)
from .casimir import casimir_tensor, defect_matrix
from .linalg import NumericError, mat_exp, trace12_pairs
from .octonions import product_residual, unit_matrices
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
    else:  # rows within 1e-8 of orthogonal take the automorphism residual; the rest keep that gap
        res = np.abs(gt @ stack - np.eye(7)).max(axis=(1, 2))
        near = res <= 1e-8
        res[near] = np.maximum(product_residual(stack[near]), res[near])
    return float(res[0]) if g.ndim == 2 else res


def sample_element(family, n: int, seed, scale: float = 1.0,
                   basis: LieBasis | None = None) -> GroupElement:
    """Random group element exp(sum_a c_a t_a), c_a ~ U[-scale, scale].

    ``seed`` is an int, standing for row 0 of stream (), or a numpy
    SeedSequence with int entropy and spawn key (t, *stream): the element is
    then row t of that stream, bitwise as ``sample_substreams`` draws it, from
    ``build_basis(family, n)``.  Any other ``basis`` is refused, of any size;
    the seed and spawn key are checked before the basis is built.
    """
    key = (0,)
    if isinstance(seed, np.random.SeedSequence):
        if seed.pool_size != 4 or not seed.spawn_key:  # streams are keyed by four-word pools
            raise ValueError("a SeedSequence seed needs pool_size 4 and a spawn key (t, *stream)")
        seed, key = seed.entropy, seed.spawn_key
    (stream, _), = _check_streams([(key[1:], 1)])
    seed, own = check_int(seed, "seed", 0), build_basis(family, n)
    if basis is not None and basis is not own:
        raise ValueError(f"a {basis.family.value}({basis.n}) basis was given for "
                         f"{own.family.value}({own.n}), which draws only from build_basis's")
    mats, res, _ = _draw(own, seed, [(stream, key[0], 1)], scale)
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
    number of redraws (``_draw``); inside ``draw_scope``, rows drawn up front
    may be served instead, bitwise the same and read-only.
    """
    streams = _check_streams(streams)
    check_draws(family, n, sum(rows for _, rows in streams))
    seed, basis = check_int(seed, "seed", 0), build_basis(family, n)
    request = [(stream, 0, rows) for stream, rows in streams if rows]
    if request and (planned := _kept.get()):
        held = [planned.get((basis, seed, scale, s), (None, None, 0, 0)) for s, _, _ in request]
        starts = list(accumulate((rows for _, _, rows in request), initial=0))
        mats, res, lo, _ = held[0]
        if all(h[0] is mats and h[2] == lo + a and h[3] >= b - a
               for h, a, b in zip(held, starts, starts[1:])):
            return mats[lo:lo + starts[-1]], res[lo:lo + starts[-1]], 0  # planned: no redraw
    return _draw(basis, seed, request, scale)


Draw = namedtuple("Draw", "family n seed streams scale", defaults=(1.0,))  # a declared request
_KEEP_BYTES = 1 << 24  # a draw scope draws its plan up front only if the plan fits 16 MiB
_kept = ContextVar("kept", default=None)  # the planned stacks of this thread's open scope


@contextmanager
def draw_scope(draws=()):
    """Draw the union of the ``Draw`` requests, each checked by ``check_draws``, up front: each
    (basis, seed, scale, stream) once to the most rows asked for, if that fits ``_KEEP_BYTES``.
    In the block ``sample_substreams`` serves rows end to end in a stack with no redraw as views."""
    union = {}
    for family, n, seed, streams, scale in draws:
        check_draws(family, n, sum(rows for _, rows in streams))
        most = union.setdefault(build_basis(family, n), {}).setdefault((seed, scale), {})
        most.update((stream, max(rows, most.get(stream, 0))) for stream, rows in streams)
    plan = [(basis, seed, scale, [(stream, 0, rows) for stream, rows in most.items()])
            for basis, by_draw in union.items() for (seed, scale), most in by_draw.items()]
    size = sum(sum(rows for *_, rows in streams) * (basis.side ** 2 * entry_bytes(basis.family) + 8)
               for basis, _, _, streams in plan)
    drawn = _draw_all(plan) if size <= _KEEP_BYTES else []
    planned = {(basis, seed, scale, stream): (mats, res, lo, rows)
               for (basis, seed, scale, streams), (mats, res, redraws) in zip(plan, drawn)
               if not redraws for (stream, _, rows), lo in zip(streams, accumulate(
                   (k for *_, k in streams), initial=0))}
    for mats, res, _ in drawn:
        mats.flags.writeable = res.flags.writeable = False
    token = _kept.set(planned)
    try:
        yield
    finally:
        _kept.reset(token)


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
    try:
        pairs = [(tuple(check_int(v, "stream id", 0) for v in stream), check_int(rows, "rows", 0))
                 for stream, rows in streams]
        ok = (len({s for s, _ in pairs}) == len(pairs) and len({len(s) for s, _ in pairs}) <= 1
              and all(len(s) <= 1 and max(s, default=0) < 1 << 32 for s, _ in pairs))
    except (TypeError, ValueError):  # not pairs, or not non-negative integers
        ok = False
    if not ok:
        raise ValueError("streams must be (id, rows) pairs: distinct ids, all () or all one int "
                         "in [0, 2^32), and int row counts >= 0")
    return pairs


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
_SPLIT_SCALE = 0.7  # A and B multiply three draws; smaller draws keep the absolute round-off low


def _draw(basis: LieBasis, seed: int, streams, scale: float):
    """``_draw_all`` of one request: exp(sum_a c_a t_a), residuals and redraws."""
    return _draw_all([(basis, seed, scale, streams)])[0]


def _joined(parts: list) -> np.ndarray:
    """The arrays of ``parts`` end to end: its one array itself, or their concatenation."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _draw_all(requests) -> list:
    """(stack, residuals, redraws) of each (basis, seed, scale, (stream, first row, rows)) request.

    The one chunk loop of a draw: the requests of one matrix side and dtype are drawn as one
    stack, streams end to end.  A chunk of ``_DRAW_CHUNK_ENTRIES`` matrix entries (or one row)
    is read (``_read``), summed with each basis's generators, exponentiated by one ``mat_exp``
    and tested by basis (``membership_residual``), all row by row.  A row t of stream s outside
    the 1e-8 membership band is redrawn alone from stream (t, *s, attempt) a few times, then
    NumericError is raised; redraw ids have two or three words and first-draw ids at most one.
    """
    groups, out = {}, [None] * len(requests)
    for i, (basis, _, scale, _) in enumerate(requests):
        if not 0.0 < scale <= 2.0:
            raise ValueError(f"scale must lie in (0, 2], got {scale}")
        groups.setdefault((basis.side, generator_stack(basis).dtype), []).append(i)
    for (side, dtype), members in groups.items():
        # (basis, seed, scale, stream, first row, rows) pieces, end to end in the group's stack
        pieces = [(*requests[i][:3], *stream) for i in members for stream in requests[i][3]]
        starts = list(accumulate((piece[-1] for piece in pieces), initial=0))
        mats, res = np.empty((starts[-1], side, side), dtype=dtype), np.empty(starts[-1])
        step = max(1, _DRAW_CHUNK_ENTRIES // side ** 2)
        pending, todo, redrawn = range(len(res)), pieces, []
        for attempt in range(1, _RESAMPLE_LIMIT + 1):
            bounds = list(accumulate((piece[-1] for piece in todo), initial=0))
            for lo in range(0, len(pending), step):
                hi = min(lo + step, len(pending))
                cut = todo if hi - lo == bounds[-1] else [  # the spans of the chunk
                    (*key, first + max(lo, a) - a, min(hi, b) - max(lo, a))
                    for (*key, first, _), a, b in zip(todo, bounds, bounds[1:])
                    if a < hi and b > lo]
                runs = [(basis, list(run)) for basis, run in groupby(cut, itemgetter(0))]
                exps = mat_exp(_joined([np.einsum("ta,aij->tij", _joined(
                    [_read(seed, s, t, k, len(basis), scale) for _, seed, scale, s, t, k in run]),
                    generator_stack(basis)) for basis, run in runs]))
                rows = slice(lo, hi) if attempt == 1 else pending[lo:hi]  # first draws are in order
                mats[rows] = exps
                ends = list(accumulate((sum(c[-1] for c in run) for _, run in runs), initial=0))
                res[rows] = _joined([membership_residual(basis.family, basis.n, exps[a:b])
                                     for (basis, _), a, b in zip(runs, ends, ends[1:])])
            pending = np.flatnonzero(~(res < _MEMBERSHIP_TOL))
            if not pending.size:
                break
            redrawn.append(pending)
            which = np.searchsorted(starts, pending, "right") - 1
            todo = [(*pieces[j][:3], (int(pieces[j][4] + t - starts[j]), *pieces[j][3], attempt),
                     0, 1) for t, j in zip(pending, which)]
        else:
            family = pieces[np.searchsorted(starts, pending[0], "right") - 1][0].family
            raise NumericError(f"could not sample a {family.value} element within residual "
                               f"{_MEMBERSHIP_TOL:.1e} (last residual {res[pending].max():.3e})")
        edges = list(accumulate((sum(c[-1] for c in requests[i][3]) for i in members), initial=0))
        for i, a, b in zip(members, edges, edges[1:]):
            out[i] = mats[a:b], res[a:b], sum(int(((p >= a) & (p < b)).sum()) for p in redrawn)
    return out


class SampledCheck(namedtuple("SampledCheck", "name streams tol relative residuals scale",
                              defaults=(1.0,))):
    """A Monte-Carlo check for ``run_check``: operand k of trial t is row t of ``streams[k]`` at
    ``scale``; ``residuals(family, n, operands)`` maps the (operands, trials, d, d) stack to
    per-trial errors and the rhs they are relative to, or None.  The verdict reads relative
    error if ``relative``, else absolute, against ``tol``."""

    def draw(self, family, n: int, seed: int, trials: int = 1) -> Draw:
        trials = check_int(trials, "trials", 1)
        return Draw(family, n, seed, tuple((s, trials) for s in self.streams), self.scale)


def run_check(check, family, n: int, seed: int, trials: int = 1) -> VerificationReport:
    """Run ``check`` on ``trials`` trials.  A trial's relative error is err / max(|rhs|,
    ``_REL_FLOOR``), or 0.0 with no rhs.  Params: ``group``, ``n``, ``worst_trial`` (the
    trial the verdict reads, row t of each stream) and ``resamples`` (redraws)."""
    family = as_family(family)
    with CheckRun(check.name, seed=seed, trials=trials) as run:
        mats, _, resamples = sample_substreams(*check.draw(family, n, seed, trials))
        n = build_basis(family, n).n
        err, rhs = check.residuals(family, n, mats.reshape(-1, trials, *mats.shape[1:]))
        rel = np.zeros_like(err) if rhs is None else err / np.maximum(np.abs(rhs), _REL_FLOOR)
        verdict = rel if check.relative else err
        worst = int(np.argmax(verdict))
        run.record(passed=bool(verdict[worst] < check.tol), max_abs_err=float(err.max()),
                   max_rel_err=float(rel.max()), params={"group": family.value, "n": n,
                   "worst_trial": worst, "resamples": resamples})
    return run.report


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


def _bracket_residuals(family, n, operands):
    lhs, rhs = _bracket_stack(family, *operands, casimir_tensor(build_basis(family, n)).tensor)
    return np.abs(lhs - rhs), rhs


def _defect_residuals(family, n, operands):
    a, b = operands
    rhs = -np.einsum("tij,tji->t", a, np.linalg.inv(b))
    return np.abs(trace12_pairs(a, b, defect_matrix(family, n)) - rhs), rhs


BRACKET_CHECK = SampledCheck("goldman-bracket", ((0,), (1,)), _BRACKET_TOL, True,
                             _bracket_residuals)
DEFECT_CHECK = SampledCheck("defect-lemma", ((0,), (1,)), _DEFECT_TOL, False, _defect_residuals)


def verify_bracket(family, n: int = 1, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Bracket identity on ``trials`` independently sampled pairs.  For sides above 2 the
    worst trial, replayed alone through ``bracket_sides``, matches its error here only to
    round-off, since ``trace12_pairs`` sums the stack in another order."""
    return run_check(BRACKET_CHECK, family, n, seed, trials)


def verify_defect(family, n: int = 1, trials: int = 100, seed: int = 0) -> VerificationReport:
    """tr_12[(A (x) B) chi] = -tr(A B^-1) for the SP/SO defect matrices."""
    if as_family(family) not in (Family.SP, Family.SO):
        raise ValueError(f"defect lemma applies to sp/so only, got {as_family(family).value}")
    return run_check(DEFECT_CHECK, family, n, seed, trials)


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


SYMPLECTIC_INVERSE_CHECK = SampledCheck(
    "symplectic-inverse", ((0,),), _SYMPLECTIC_INVERSE_TOL, False,
    lambda _, n, operands: (symplectic_inverse_residual(*operands, n), None))


def verify_symplectic_inverse(n: int = 1, trials: int = 100, seed: int = 0) -> VerificationReport:
    """The entry relations of B^-1 on ``trials`` sampled B in Sp(2n,R)."""
    return run_check(SYMPLECTIC_INVERSE_CHECK, Family.SP, n, seed, trials)


def _split_residuals(family, n, operands):
    """max(trace deviation, bracket error) of each trial, and the bracket's rhs."""
    t_x1_0, t_0_x2, mtilde1, t_y1_0, t_0_y2, mtilde2 = operands
    a, b = t_0_x2 @ mtilde1 @ t_x1_0, t_0_y2 @ mtilde2 @ t_y1_0
    trace = lambda m: np.trace(m, axis1=1, axis2=2)
    lhs, rhs = _bracket_stack(family, a, b, casimir_tensor(build_basis(family, n)).tensor)
    return np.max([np.abs(trace(a) - trace(t_x1_0 @ t_0_x2 @ mtilde1)),
                   np.abs(trace(b) - trace(t_y1_0 @ t_0_y2 @ mtilde2)), np.abs(lhs - rhs)], 0), rhs


SPLIT_CHECK = SampledCheck("split-harness", tuple((k,) for k in range(6)), _SPLIT_TOL, False,
                           _split_residuals, scale=_SPLIT_SCALE)


def split_harness(family, n: int = 1, seed: int = 0) -> VerificationReport:
    """Basepoint-split invariance of the bracket reduction.

    A loop's monodromy is split as M = T(x1, x2) Mtilde with the composition
    convention T(x1, x2) = T(x1, 0) T(0, x2).  The reduced bracket works on
    the cyclic rearrangement A = T(0, x2) Mtilde T(x1, 0), a group element
    which must carry the same trace as M and still satisfy the bracket
    identity; loop 2 gives B likewise.
    """
    return run_check(SPLIT_CHECK, family, n, seed)
