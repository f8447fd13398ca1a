"""Casimir tensors Gamma = sum_a f(a) t_a (x) t_a and their closed forms.

Closed forms, per family (P is the tensor swap, I the n^2 x n^2 identity):

    GL, U :  Gamma = 2P
    SL, SU:  Gamma = 2P - (2/n) I
    SP    :  Gamma = P + chi      (chi the symplectic defect matrix)
    SO    :  Gamma = P + chi,     chi = - sum_{ij} e_ij (x) e_ij
    G2    :  Gamma = P - sum_{ij} e_ij (x) e_ij + (1/3) sum_i O_i (x) O_i

Comparison against the generator sum is entrywise on the full tensor so that
failures localize; the sizes involved (<= 49 x 49) make dense storage free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import (
    Family, LieBasis, as_family, build_basis, check_size, gell_mann, generator_stack,
    matrix_side, memoize_per_size, normalization_residual,
)
from .linalg import kron, max_abs, permutation_matrix, real_part, unit_matrix
from .octonions import unit_matrices
from .reports import CheckRun, VerificationReport


class NormalizationError(ValueError):
    """Raised when a basis fails its normalization precondition."""

    def __init__(self, basis: LieBasis, residual: float):
        self.residual = residual
        super().__init__(
            f"{basis.family.value} (n={basis.n}) basis fails normalization: "
            f"residual {residual:.3e}"
        )


@dataclass(frozen=True)
class CasimirTensor:
    family: Family
    side: int  # side of the tensor itself, i.e. (matrix side)^2
    tensor: np.ndarray


_NORMALIZATION_TOL = 1e-12  # absolute, as check_normalization; casimir_tensor refuses above it
_CLOSED_FORM_TOL = 1e-12  # absolute, entrywise
_LEMMA_TOL = 1e-13  # absolute, worst of the three tensor lemmas


def casimir_tensor(basis: LieBasis) -> CasimirTensor:
    """Gamma = sum_a f(a) kron(t_a, t_a); real even for complex generators.

    One contraction over the stacked generators, in kron's block layout
    Gamma4[i,k,j,l] = sum_a f(a) t_a[i,j] t_a[k,l].  Built once per basis,
    read-only; a basis that fails normalization is refused on every call
    (NormalizationError), as a raise is never memoized.
    """
    return CasimirTensor(basis.family, basis.side ** 2, _gamma(basis))


@memoize_per_size
def _gamma(basis: LieBasis) -> np.ndarray:
    residual = normalization_residual(basis)
    if residual >= _NORMALIZATION_TOL:
        raise NormalizationError(basis, residual)
    d = basis.side
    flat = generator_stack(basis).reshape(len(basis), d * d)
    signs = np.asarray(basis.signs, dtype=float)
    gamma4 = ((flat.T * signs) @ flat).reshape(d, d, d, d)
    return real_part(gamma4.transpose(0, 2, 1, 3).reshape(d * d, d * d))


def defect_matrix(family, n: int) -> np.ndarray:
    """chi = Gamma - P for the SP and SO families, built from its literal sums.

    SO: chi = -sum_{ij} e_ij (x) e_ij.  SP: the four signed terms below over
    all 1 <= i, j <= n (the i < j terms, their i <-> j mirrors and the k
    terms).  A term e_ij (x) e_kl is the entry ((i-1)m+k, (j-1)m+l) of the
    block layout (m the matrix side), added in place.  Built once per (family,
    n), read-only.
    """
    family = as_family(family)
    if family not in (Family.SP, Family.SO):
        raise ValueError(f"defect matrix is defined for sp/so only, got {family.value}")
    return _defect_matrix(family, check_size(family, n))


@memoize_per_size
def _defect_matrix(family: Family, n: int) -> np.ndarray:
    m = matrix_side(family, n)
    chi = np.zeros((m * m, m * m))

    def add(sign, i, j, k, l):  # sign * e_ij (x) e_kl, 1-based
        chi[(i - 1) * m + k - 1, (j - 1) * m + l - 1] += sign

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if family is Family.SO:
                add(-1, i, j, i, j)
                continue
            add(1, i, j + n, i + n, j)
            add(1, j + n, i, j, i + n)
            add(-1, i, j, i + n, j + n)
            add(-1, j + n, i + n, j, i)
    return chi


def closed_form(family, n: int) -> np.ndarray:
    """The family's closed-form Casimir tensor, built once per (family, n), read-only."""
    family = as_family(family)
    return _closed_form(family, check_size(family, n))


@memoize_per_size
def _closed_form(family: Family, n: int) -> np.ndarray:
    side = matrix_side(family, n)
    p = permutation_matrix(side)
    if family in (Family.GL, Family.U):
        return 2.0 * p
    if family in (Family.SL, Family.SU):
        return 2.0 * p - (2.0 / n) * np.eye(side * side)
    if family in (Family.SP, Family.SO):
        return p + _defect_matrix(family, n)
    # g2: P - sum e_ij (x) e_ij + (1/3) sum O_i (x) O_i, the middle sum being so(7)'s chi
    o = unit_matrices()
    oct_term = sum(kron(o[i], o[i]) for i in range(7))
    return p + _defect_matrix(Family.SO, 7) + oct_term / 3.0


def verify_closed_form(family, n: int = 1) -> VerificationReport:
    """Entrywise |Gamma_from_basis - closed form| < _CLOSED_FORM_TOL."""
    family = as_family(family)
    with CheckRun("casimir-closed-form") as run:
        basis = build_basis(family, n)
        gamma = casimir_tensor(basis).tensor
        residual = max_abs(gamma - closed_form(family, n))
        run.record(passed=residual < _CLOSED_FORM_TOL, max_abs_err=residual,
                   params={"group": family.value, "n": basis.n})
    return run.report


def tensor_lemma_residuals(n: int, rng: np.random.Generator | None = None) -> dict:
    """Residuals of the three tensor identities behind the GL/U closed form.

    h-lemma:   h_1 (x) h_1 + sum_{k>=2} h_k (x) h_k = 2 sum_k e_kk (x) e_kk
    f-lemma:   sum_{k!=j} f_kj (x) f_kj = 2 sum_{k!=j} e_jk (x) e_kj
    polarization: (a+b)(x)(a+b) - (a-b)(x)(a-b) = 2(a (x) b + b (x) a)
    """
    if n < 2:
        raise ValueError(f"tensor lemmas need n >= 2, got {n}")
    gm = gell_mann(n)
    hs = gm[:n]
    offs = gm[n:]
    h_lhs = sum(kron(h, h) for h in hs)
    h_rhs = 2.0 * sum(
        kron(unit_matrix(k, k, n), unit_matrix(k, k, n)) for k in range(1, n + 1)
    )
    f_lhs = sum(kron(f, f) for f in offs)
    f_rhs = np.zeros((n * n, n * n), dtype=complex)
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            if k != j:
                f_rhs += 2.0 * kron(unit_matrix(j, k, n), unit_matrix(k, j, n))
    if rng is None:
        rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    pol_lhs = kron(a + b, a + b) - kron(a - b, a - b)
    pol_rhs = 2.0 * (kron(a, b) + kron(b, a))
    return {
        "h_lemma": max_abs(h_lhs - h_rhs),
        "f_lemma": max_abs(f_lhs - f_rhs),
        "polarization": max_abs(pol_lhs - pol_rhs),
    }


def verify_tensor_lemmas(n: int, seed: int = 0) -> VerificationReport:
    with CheckRun("tensor-lemmas", seed=seed, trials=3) as run:
        res = tensor_lemma_residuals(n, np.random.default_rng(np.random.SeedSequence(seed)))
        worst = max(res.values())
        run.record(passed=worst < _LEMMA_TOL, max_abs_err=worst, params={"n": n})
    return run.report
