"""Normalized generator sets t_a with signs f(a) for the seven gauge families.

Every basis satisfies (1/2) tr(t_a t_b) = f(a) delta_ab with f(a) = +-1:

* gl(n,R)/u(n)/sl(n,R)/su(n) are assembled from generalized Gell-Mann
  matrices (``gell_mann``); f(a) = -1 exactly on the antisymmetric
  directions (for the unitary families, on everything).
* sp(2n,R) uses the seven-row table of (anti)symmetrized block matrices;
  the sign column alternates with the symmetrization.
* so(n) uses e_{ij} - e_{ji} for i < j, all f(a) = -1.
* g2 uses the fourteen 7x7 matrices C_1..C_14 with 1/sqrt(2) and 1/sqrt(6)
  entries, hard-coded below; all f(a) = -1 (the sign set is not spelled out
  in closed form anywhere, but the normalization check pins it numerically).

Generator ordering is fixed and documented per family so that Casimir sums
and verification reports are reproducible; the Casimir tensor itself is
order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, wraps

import numpy as np

from .linalg import max_abs, unit_matrix
from .reports import CheckRun, VerificationReport


class Family(str, Enum):
    """Gauge-group family tags.  Matrix side is n (GL/U/SL/SU/SO), 2n (SP), 7 (G2)."""

    GL = "gl"
    U = "u"
    SL = "sl"
    SU = "su"
    SP = "sp"
    SO = "so"
    G2 = "g2"


def as_family(f) -> Family:
    if isinstance(f, Family):
        return f
    return Family(str(f).lower())


@dataclass(frozen=True, eq=False)
class LieBasis:
    """Ordered generators with their normalization signs, read-only all the way down, equal
    and hashed by identity: a basis keys the memos built from it (``generator_stack``, Gamma).
    A generator that could change (writable, a view, not an array) is kept as a read-only copy."""

    family: Family
    n: int
    side: int
    generators: tuple
    signs: tuple

    def __post_init__(self):
        if len(self.generators) != len(self.signs):
            raise ValueError("generator and sign lists must have equal length")
        gens = tuple(g if isinstance(g, np.ndarray) and not g.flags.writeable and g.base is None
                     else np.array(g) for g in self.generators)
        for g in gens:
            g.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    def __len__(self) -> int:
        return len(self.generators)


def algebra_dim(family: Family, n: int) -> int:
    family = as_family(family)
    return {
        Family.GL: n * n,
        Family.U: n * n,
        Family.SL: n * n - 1,
        Family.SU: n * n - 1,
        Family.SP: n * (2 * n + 1),
        Family.SO: n * (n - 1) // 2,
        Family.G2: 14,
    }[family]


def matrix_side(family: Family, n: int) -> int:
    family = as_family(family)
    if family is Family.G2:
        return 7
    if family is Family.SP:
        return 2 * n
    return n


def entry_bytes(family) -> int:
    """Bytes a matrix entry of the family takes: 16 for the complex u and su, 8 otherwise."""
    return 16 if as_family(family) in (Family.U, Family.SU) else 8


def check_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int if it is an int or numpy integer (a bool or float is refused, not
    truncated) of at least ``minimum``, if given; else ValueError naming ``what``."""
    kind = "a non-negative integer" if minimum == 0 else "an integer"
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or minimum == 0 and value < 0):
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return int(value)


_BUILD_BYTES = 1 << 28  # check_size refuses generators or a Casimir tensor over 256 MiB


@lru_cache(maxsize=256, typed=True)  # typed: 3.0 must not find the entry of 3
def check_size(family: Family, n: int) -> int:
    """``n`` as an int if the family takes that size; ValueError otherwise.

    ``n`` must pass ``check_int``.  G2 has no size parameter, so it takes
    n = 1 only.  Refuses a size whose generators or Casimir tensor (about
    side^4 entries each, complex for u and su) would exceed ``_BUILD_BYTES``,
    so nothing that large is built.  A refusal raises, so it is never cached.
    """
    family = as_family(family)
    n = check_int(n, f"{family.value} size")
    if family is Family.G2 and n != 1:
        raise ValueError(f"g2 has no size parameter: n must be 1, got {n}")
    if n < 1:
        raise ValueError(f"{family.value} requires n >= 1, got {n}")
    if family is Family.SO and n < 2:
        raise ValueError(f"so(n) requires n >= 2, got {n}")
    side = matrix_side(family, n)
    size = max(algebra_dim(family, n) * side ** 2, side ** 4) * entry_bytes(family)
    if size > _BUILD_BYTES:
        raise ValueError(f"{family.value}({n}) needs {size / 2 ** 20:.0f} MiB for its generators "
                         f"or Casimir tensor, over the {_BUILD_BYTES >> 20} MiB budget")
    return n


_BASIS_CACHE_SIZE = 64  # kept per memo, keyed by size or basis; `verify all` builds 14 bases


def memoize_per_size(build):
    """``build`` memoized as ``build_basis`` is: one read-only array per argument tuple (a
    size ``check_size`` took, or a basis, hashed by identity), at most ``_BASIS_CACHE_SIZE``
    kept.  A raise is never stored, so a refused argument is refused on every call."""
    @lru_cache(maxsize=_BASIS_CACHE_SIZE)
    @wraps(build)
    def cached(*key):
        out = build(*key)
        out.setflags(write=False)
        return out
    return cached


def gell_mann(n: int):
    """Generalized Gell-Mann matrices in n dimensions, in a fixed order.

    Returns the n^2 matrices [h_1, h_2..h_n, f_{k,j} (k<j), f_{k,j} (k>j)]:

        h_1   = sqrt(2/n) sum_i e_ii
        h_k   = sqrt(2/(k(k-1))) sum_{i<k} e_ii - sqrt(2 - 2/k) e_kk
        f_kj  = e_kj + e_jk                      for k < j
        f_kj  = -i (e_jk - e_kj)                 for k > j

    Off-diagonal pairs are enumerated lexicographically.  dtype is complex
    (the k > j family is imaginary).
    """
    n = check_int(n, "gell_mann n", 1)
    mats = []
    h1 = math.sqrt(2.0 / n) * np.eye(n, dtype=complex)
    mats.append(h1)
    for k in range(2, n + 1):
        h = np.zeros((n, n), dtype=complex)
        c = math.sqrt(2.0 / (k * (k - 1)))
        for i in range(1, k):
            h += c * unit_matrix(i, i, n)
        h -= math.sqrt(2.0 - 2.0 / k) * unit_matrix(k, k, n)
        mats.append(h)
    for k in range(1, n + 1):
        for j in range(k + 1, n + 1):
            mats.append((unit_matrix(k, j, n) + unit_matrix(j, k, n)).astype(complex))
    for k in range(1, n + 1):
        for j in range(1, k):
            mats.append(-1j * (unit_matrix(j, k, n) - unit_matrix(k, j, n)))
    return mats


def _real(mats):
    out = []
    for m in mats:
        if max_abs(m.imag) != 0.0:
            raise ValueError("expected an exactly real matrix")
        out.append(np.ascontiguousarray(m.real))
    return out


def _gl_basis(n: int):
    gm = gell_mann(n)
    n_h = n
    n_off = n * (n - 1) // 2
    sym = gm[n_h:n_h + n_off]
    anti = [1j * m for m in gm[n_h + n_off:]]
    gens = _real(gm[:n_h]) + _real(sym) + _real(anti)
    signs = [1] * (n_h + n_off) + [-1] * n_off
    return gens, signs


def _u_basis(n: int):
    gens = [1j * m for m in gell_mann(n)]
    return gens, [-1] * len(gens)


def symplectic_form(n: int) -> np.ndarray:
    """J = sum_k (e_{k,n+k} - e_{n+k,k}); the form every sp(2n,R) generator kills.

    Built once per n that ``check_size`` takes for sp, read-only.
    """
    return _symplectic_form(check_size(Family.SP, n))


@memoize_per_size
def _symplectic_form(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    for k in range(1, n + 1):
        j += unit_matrix(k, n + k, 2 * n) - unit_matrix(n + k, k, 2 * n)
    return j


def _sp_basis(n: int):
    """Seven table rows in a fixed order; within a row, (i, j) resp. k lexicographic."""
    d = 2 * n
    e = lambda i, j: unit_matrix(i, j, d)
    s2 = 1.0 / math.sqrt(2.0)
    gens, signs = [], []

    def pairs():
        return ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))

    for i, j in pairs():
        gens.append(s2 * (e(i, j + n) + e(j, i + n) + e(j + n, i) + e(i + n, j)))
        signs.append(1)
    for i, j in pairs():
        gens.append(s2 * (e(i, j + n) + e(j, i + n) - e(j + n, i) - e(i + n, j)))
        signs.append(-1)
    for k in range(1, n + 1):
        gens.append(e(k, n + k) + e(n + k, k))
        signs.append(1)
    for k in range(1, n + 1):
        gens.append(e(k, n + k) - e(n + k, k))
        signs.append(-1)
    for i, j in pairs():
        gens.append(s2 * (e(i, j) + e(j, i) - e(i + n, j + n) - e(j + n, i + n)))
        signs.append(1)
    for i, j in pairs():
        gens.append(s2 * (e(i, j) - e(j, i) + e(i + n, j + n) - e(j + n, i + n)))
        signs.append(-1)
    for k in range(1, n + 1):
        gens.append(e(k, k) - e(k + n, k + n))
        signs.append(1)
    return gens, signs


def _so_basis(n: int):
    gens = [
        unit_matrix(i, j, n) - unit_matrix(j, i, n)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    return gens, [-1] * len(gens)


# C_1..C_14 as signed e_{ij} combinations; prefactor 1/sqrt(2) for the first
# seven, 1/sqrt(6) for the rest (where the long entries carry weight 2).
_G2_ENTRIES = (
    ((4, 7, -1), (5, 6, -1), (6, 5, 1), (7, 4, 1)),
    ((4, 6, 1), (5, 7, -1), (6, 4, -1), (7, 5, 1)),
    ((4, 5, -1), (5, 4, 1), (6, 7, -1), (7, 6, 1)),
    ((2, 7, 1), (3, 6, 1), (6, 3, -1), (7, 2, -1)),
    ((2, 6, -1), (3, 7, 1), (6, 2, 1), (7, 3, -1)),
    ((2, 5, 1), (3, 4, -1), (4, 3, 1), (5, 2, -1)),
    ((2, 4, -1), (3, 5, -1), (4, 2, 1), (5, 3, 1)),
    ((2, 3, -2), (3, 2, 2), (4, 5, 1), (5, 4, -1), (6, 7, -1), (7, 6, 1)),
    ((1, 2, -2), (2, 1, 2), (4, 7, 1), (5, 6, -1), (6, 5, 1), (7, 4, -1)),
    ((1, 3, -2), (3, 1, 2), (4, 6, -1), (5, 7, -1), (6, 4, 1), (7, 5, 1)),
    ((1, 4, -2), (2, 7, -1), (3, 6, 1), (4, 1, 2), (6, 3, -1), (7, 2, 1)),
    ((1, 5, -2), (2, 6, 1), (3, 7, 1), (5, 1, 2), (6, 2, -1), (7, 3, -1)),
    ((1, 6, -2), (2, 5, -1), (3, 4, -1), (4, 3, 1), (5, 2, 1), (6, 1, 2)),
    ((1, 7, -2), (2, 4, 1), (3, 5, -1), (4, 2, -1), (5, 3, 1), (7, 1, 2)),
)


def _g2_basis():
    gens = []
    for idx, entries in enumerate(_G2_ENTRIES):
        pref = 1.0 / math.sqrt(2.0) if idx < 7 else 1.0 / math.sqrt(6.0)
        m = np.zeros((7, 7))
        for (i, j, w) in entries:
            m += w * unit_matrix(i, j, 7)
        gens.append(pref * m)
    return gens, [-1] * 14


def build_basis(family, n: int = 1) -> LieBasis:
    """Construct the normalized generator set for a family.

    Ordering: Gell-Mann families follow ``gell_mann`` order (GL keeps the
    real forms h, f_sym, i*f_anti; SL/SU drop the h_1 direction); SP follows
    the table rows; SO is lexicographic in (i, j); G2 is C_1..C_14.
    Memoized per (family, n): every call for one size returns the same
    basis, its generators read-only.
    """
    family = as_family(family)
    return _build_basis(family, check_size(family, n))


@memoize_per_size
def generator_stack(basis: LieBasis) -> np.ndarray:
    """The (dim, d, d) stack of the generators, built once per basis, read-only."""
    return np.stack(basis.generators)


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _build_basis(family: Family, n: int) -> LieBasis:
    if family is Family.GL:
        gens, signs = _gl_basis(n)
    elif family is Family.U:
        gens, signs = _u_basis(n)
    elif family is Family.SL:
        gens, signs = _gl_basis(n)
        del gens[0], signs[0]
    elif family is Family.SU:
        gens, signs = _u_basis(n)
        del gens[0], signs[0]
    elif family is Family.SP:
        gens, signs = _sp_basis(n)
    elif family is Family.SO:
        gens, signs = _so_basis(n)
    else:
        gens, signs = _g2_basis()
    for g in gens:
        g.setflags(write=False)
    basis = LieBasis(family, n, matrix_side(family, n), tuple(gens), tuple(signs))
    if len(basis) != algebra_dim(family, n):
        raise AssertionError(
            f"{family.value} basis has {len(basis)} generators, "
            f"expected {algebra_dim(family, n)}"
        )
    return basis


def normalization_residual(basis: LieBasis) -> float:
    """max_{a,b} |(1/2) tr(t_a t_b) - f(a) delta_ab|."""
    gens = generator_stack(basis)
    flat = gens.reshape(len(basis), -1)
    gram = 0.5 * (flat @ np.swapaxes(gens, 1, 2).reshape(len(basis), -1).T)
    target = np.diag(np.asarray(basis.signs, dtype=float))
    return max_abs(gram - target)


_NORMALIZATION_TOL = 1e-12  # absolute, on normalization_residual


def check_normalization(basis: LieBasis) -> VerificationReport:
    """Normalization condition (1/2) tr(t_a t_b) = f(a) delta_ab as a report."""
    with CheckRun("normalization", trials=len(basis) ** 2) as run:
        residual = normalization_residual(basis)
        run.record(passed=residual < _NORMALIZATION_TOL, max_abs_err=residual,
                   params={"group": basis.family.value, "n": basis.n})
    return run.report


_RANK_TOL = 1e-8  # singular values below it count as zero in closure_rank


def closure_rank(basis: LieBasis) -> int:
    """Rank of span({t_a} union {[t_a, t_b]}); equals dim for a closed algebra."""
    gens = [np.asarray(g, dtype=complex) for g in basis.generators]
    vecs = [g.ravel() for g in gens]
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            vecs.append((gens[a] @ gens[b] - gens[b] @ gens[a]).ravel())
    stack = np.array(vecs)
    return int(np.linalg.matrix_rank(stack, tol=_RANK_TOL))
