"""Tensor-space primitive checks, with dense-multiplication oracles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from goldmankit import linalg
from goldmankit.bases import Family, build_basis
from goldmankit.linalg import (
    NumericError,
    Tolerance,
    kron,
    mat_exp,
    max_abs,
    permutation_matrix,
    trace12,
    unit_matrix,
)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_elementary():
    e11 = unit_matrix(1, 1, 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.array_equal(kron(e11, e11), expected)


def test_kron_mixed_product_oracle():
    # kron(A,B) @ kron(C,D) == kron(AC, BD), checked by direct dense products
    rng = np.random.default_rng(1)
    a, b, c, d = (rng.standard_normal((3, 3)) for _ in range(4))
    assert max_abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)) < 1e-12


def test_kron_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        kron(np.ones((2, 3)), np.eye(2))


def test_kron_associative():
    rng = np.random.default_rng(2)
    a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
    assert max_abs(kron(kron(a, b), c) - kron(a, kron(b, c))) < 1e-15


def test_trace12_identity():
    assert trace12(np.eye(9)) == 9


def test_trace12_factorizes_over_kron():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    assert abs(trace12(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_basics(n):
    p = permutation_matrix(n)
    assert trace12(p) == n
    assert max_abs(p @ p - np.eye(n * n)) == 0.0
    assert max_abs(p - p.T) == 0.0


def test_permutation_n1():
    assert np.array_equal(permutation_matrix(1), np.eye(1))


def test_permutation_rejects_zero():
    with pytest.raises(ValueError):
        permutation_matrix(0)


def test_permutation_swaps_factors():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    p = permutation_matrix(3)
    assert max_abs(p @ kron(a, b) @ p - kron(b, a)) < 1e-14
    assert abs(trace12(kron(a, b) @ p) - np.trace(a @ b)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2 ** 31))
def test_trace12_cyclic(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n * n, n * n))
    k = rng.standard_normal((n * n, n * n))
    assert abs(trace12(m @ k) - trace12(k @ m)) < 1e-9 * max(1.0, abs(trace12(m @ k)))


def test_mat_exp_zero():
    assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))


def test_mat_exp_diagonal():
    d = np.diag([0.3, -1.2, 2.0])
    assert max_abs(mat_exp(d) - np.diag(np.exp([0.3, -1.2, 2.0]))) < 1e-14


def test_mat_exp_skew_is_orthogonal():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 5))
    x = (x - x.T) / max(1.0, np.linalg.norm(x - x.T))
    e = mat_exp(x)
    assert max_abs(e.T @ e - np.eye(5)) < 1e-10


def test_mat_exp_inverse_pairing():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 4))
    x /= max(1.0, np.linalg.norm(x))
    assert max_abs(mat_exp(x) @ mat_exp(-x) - np.eye(4)) < 1e-10


EXP_FAMILIES = [(Family.GL, 3), (Family.SL, 3), (Family.U, 2), (Family.SU, 3), (Family.SP, 2),
                (Family.SO, 4), (Family.G2, 1), (Family.GL, 12)]


def _exponents(family, n, scale, rows=48):
    """(rows, d, d) stack of sum_a c_a t_a with c_a ~ U[-scale, scale], as the samplers draw it."""
    gens = np.stack(build_basis(family, n).generators)
    coeffs = np.random.default_rng(31).uniform(-scale, scale, size=(rows, len(gens)))
    return np.einsum("ta,aij->tij", coeffs, gens)


def _long_double_exp(x):
    """exp of each row by a 30-term Taylor series in long double at 1-norm <= 1/2, squared back."""
    x = x.astype(np.clongdouble if np.iscomplexobj(x) else np.longdouble)
    squarings = max(0, int(np.ceil(np.log2(2 * np.abs(x).sum(axis=1).max()))))
    x = x / 2 ** squarings
    term = np.broadcast_to(np.eye(x.shape[-1], dtype=x.dtype), x.shape)
    total = term.copy()
    for k in range(1, 30):
        term = term @ x / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def _row_err(a, b, size):
    return np.abs(a - b).max(axis=(1, 2)) / size


@pytest.mark.parametrize("scale", [0.7, 1.0, 2.0])
@pytest.mark.parametrize("family,n", EXP_FAMILIES)
def test_mat_exp_matches_scipy_and_a_long_double_series(family, n, scale):
    x = _exponents(family, n, scale)
    e, ref, theirs = mat_exp(x), _long_double_exp(x), scipy.linalg.expm(x)
    size = np.abs(theirs).max(axis=(1, 2))
    assert _row_err(e, ref, size).max() < 1e-14
    if scale < 2.0:
        assert _row_err(e, theirs, size).max() < 1e-13
    else:
        # scipy's expm is itself up to ~7e-13 off the series for gl, sl and sp rows at
        # scale 2; beyond 1e-13 the two may differ only by scipy's own error
        assert np.all(_row_err(e, theirs, size) < 1e-13 + _row_err(theirs, ref, size))


@pytest.mark.parametrize("family,n", [(Family.GL, 3), (Family.SU, 3), (Family.G2, 1)])
def test_mat_exp_rows_do_not_depend_on_stack_or_chunk(family, n):
    x = _exponents(family, n, 2.0, rows=40)
    norms = np.abs(x).sum(axis=1).max(axis=1)
    # some rows are scaled and squared back, some are not
    assert (norms > linalg._THETA_13).any() and (norms <= linalg._THETA_13).any()
    whole = mat_exp(x)
    for t in range(len(x)):
        assert np.array_equal(mat_exp(x[t]), whole[t])
    assert np.array_equal(mat_exp(x[::3]), whole[::3])


def test_mat_exp_rejects_nonfinite():
    with pytest.raises(NumericError):
        mat_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_tolerance_validation():
    Tolerance()  # defaults fine
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rel_tol=float("inf"))
