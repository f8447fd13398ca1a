"""Dense tensor-space primitives.

Everything downstream works on the n^2-dimensional tensor space R^n (x) R^n,
realised concretely as Kronecker blocks of square numpy arrays.  The helpers
here are thin, contract-checked wrappers over numpy kernels; ``mat_exp`` is a
stacked scaling-and-squaring Pade exponential in numpy that exponentiates a
whole stack in one pass, leaving chunking to its caller (this package does
not import scipy, which the tests keep as an oracle).

Index convention: formulas in docstrings use 1-based entries e_{ij} (the
matrix with a single 1 at row i, column j); storage is ordinary 0-based numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class NumericError(RuntimeError):
    """A numeric kernel produced non-finite output or failed to converge."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative comparison thresholds used by the verification suites."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.abs_tol) and self.abs_tol >= 0):
            raise ValueError(f"abs_tol must be finite and >= 0, got {self.abs_tol}")
        if not (np.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")


def unit_matrix(i: int, j: int, n: int, dtype=np.float64) -> np.ndarray:
    """e_{ij}: the n x n matrix with a 1 in (1-based) entry (i, j)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"unit matrix index ({i},{j}) out of range 1..{n}")
    m = np.zeros((n, n), dtype=dtype)
    m[i - 1, j - 1] = 1
    return m


def _require_square(a: np.ndarray, name: str, stack: bool = False) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{name} must be a square matrix or stack, got shape {a.shape}")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B of two square matrices.

    Block convention: entry ((i-1)m+k, (j-1)m+l) equals A[i,j] * B[k,l]
    with 1-based i,j over A and k,l over the m x m factor B.
    """
    a = _require_square(a, "A")
    b = _require_square(b, "B")
    return np.kron(a, b)


def trace12(m: np.ndarray):
    """Trace on the tensor space (tr_12); plain matrix trace of the n^2 block.

    The argument is normally an n^2 x n^2 tensor-space operator, but the
    operation itself is the ordinary trace.
    """
    m = _require_square(m, "M")
    return np.trace(m)


def trace12_pairs(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """tr_12[(A_t (x) B_t) M] = sum A[t,i,j] B[t,k,l] M[(j,l),(i,k)] for two (T, d, d) stacks.

    O(d^4) per pair (one matrix product over k, l), where kron(A, B) @ M costs O(d^6).
    """
    t, d = b.shape[0], b.shape[-1]
    m4 = _require_square(m, "M").reshape(d, d, d, d)
    half = b.reshape(t, d * d) @ m4.transpose(3, 1, 0, 2).reshape(d * d, d * d)
    return np.einsum("tij,tji->t", a, half.reshape(t, d, d))


def permutation_matrix(n: int) -> np.ndarray:
    """The tensor-swap operator P = sum_{k,j} e_{jk} (x) e_{kj}.

    Satisfies P(A (x) B)P = B (x) A, tr_12[(A (x) B)P] = tr(AB), P^2 = I,
    P^T = P.
    """
    if n < 1:
        raise ValueError(f"permutation_matrix requires n >= 1, got {n}")
    p = np.zeros((n * n, n * n))
    for j in range(n):
        for k in range(n):
            p[j * n + k, k * n + j] = 1.0
    return p


# [13/13] Pade coefficients b_0..b_13 of exp over b_0, so exp(0) is exactly I
# (Higham 2005, "The scaling and squaring method for the matrix exponential
# revisited"); _THETA_13 is the 1-norm up to which r_13 needs no scaling.
_PADE_13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA_13 = 5.371920351148152


def mat_exp(x: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Pade approximant.

    ``x`` may be a (T, d, d) stack, exponentiated in one pass with
    temporaries a few times its size; callers chunk large stacks (``_draw``
    does).  Each row is scaled by 2^-s, with s the smallest power that brings
    its own 1-norm under theta_13 = 5.37 (Higham 2005), approximated by r_13
    and squared back s times, so a row's result is bitwise the same whatever
    the stack holding it.  Samplers feed this arguments with norm O(1), where
    the result is accurate to ~1e-15 relative.  Raises NumericError if the
    result is not finite.
    """
    x = _require_square(x, "X", stack=True)
    if not np.isfinite(x).all():
        raise NumericError("mat_exp input has non-finite entries")
    e = _pade_13_scaled(x.reshape(-1, *x.shape[-2:]))
    if not np.isfinite(e).all():
        raise NumericError(
            f"mat_exp did not converge: input norm {np.linalg.norm(x):.3e}, "
            "output has non-finite entries"
        )
    return e.reshape(x.shape)


@lru_cache(maxsize=32)
def _pade_terms(d: int):
    """r_13's coefficients as (3, 4, 1, 1, 1) weights of x^6, x^4, x^2 in the even sums
    [u_hi, v_hi, u_lo, v_lo], and the (2, 1, d, d) identity terms of u_lo and v_lo."""
    b = _PADE_13
    weights = np.array([[b[13], b[12], b[7], b[6]], [b[11], b[10], b[5], b[4]],
                        [b[9], b[8], b[3], b[2]]])[:, :, None, None, None]
    return weights, np.array([b[1], b[0]])[:, None, None, None] * np.eye(d)


def _pade_13_scaled(x: np.ndarray) -> np.ndarray:
    """exp of each row of a (T, d, d) stack: r_13 = q^-1 p of the scaled row, squared back.

    With u and v the odd and even parts of r_13's numerator p = v + u, the
    denominator is q = v - u.
    """
    norm = np.abs(x).sum(axis=1).max(axis=1)
    powers = None
    if norm.max(initial=0.0) > _THETA_13:
        powers = np.ceil(np.log2(np.maximum(norm, _THETA_13) / _THETA_13)).astype(int)
        x = x * np.ldexp(1.0, -powers)[:, None, None]
    weights, eye_terms = _pade_terms(x.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    sums = weights[0] * x6 + weights[1] * x4 + weights[2] * x2
    sums[2:] += eye_terms
    uv = x6 @ sums[:2] + sums[2:]
    u = x @ uv[0]
    e = np.linalg.solve(uv[1] - u, uv[1] + u)
    for k in range(0 if powers is None else int(powers.max())):
        rows = powers > k
        e[rows] = e[rows] @ e[rows]
    return e


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; the residual norm used across the suites."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


_IMAG_TOL = 1e-12  # real_part drops imaginary entries below it as noise


def real_part(a: np.ndarray) -> np.ndarray:
    """Drop an imaginary part that is certified to be numerical noise."""
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        return a
    imag = max_abs(a.imag)
    if imag >= _IMAG_TOL:
        raise NumericError(f"imaginary part {imag:.3e} exceeds tolerance {_IMAG_TOL:.1e}")
    return a.real.copy()
