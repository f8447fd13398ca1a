"""Generator-set construction: dimensions, normalization, signs, closure."""

import re

import numpy as np
import pytest

from goldmankit.bases import (
    Family,
    algebra_dim,
    build_basis,
    check_normalization,
    closure_rank,
    gell_mann,
    normalization_residual,
    symplectic_form,
)
from goldmankit.linalg import max_abs, unit_matrix

FAMILY_GRID = (
    [(Family.GL, n) for n in range(2, 6)]
    + [(Family.U, n) for n in range(2, 6)]
    + [(Family.SL, n) for n in range(2, 6)]
    + [(Family.SU, n) for n in range(2, 6)]
    + [(Family.SP, n) for n in range(1, 4)]
    + [(Family.SO, n) for n in range(2, 7)]
    + [(Family.G2, 1)]
)


def test_gell_mann_n2_values():
    h1, h2, f12, f21 = gell_mann(2)
    assert max_abs(h1 - np.eye(2)) == 0.0  # sqrt(2/2) (e11 + e22)
    assert max_abs(h2 - np.diag([1.0, -1.0])) == 0.0
    assert max_abs(f12 - np.array([[0, 1], [1, 0]])) == 0.0
    assert max_abs(f21 - np.array([[0, -1j], [1j, 0]])) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_gell_mann_count(n):
    assert len(gell_mann(n)) == n * n


@pytest.mark.parametrize("family,n", FAMILY_GRID)
def test_dimension_counts(family, n):
    basis = build_basis(family, n)
    assert len(basis) == algebra_dim(family, n)


@pytest.mark.parametrize("family,n", FAMILY_GRID)
def test_normalization(family, n):
    report = check_normalization(build_basis(family, n))
    assert report.passed
    assert report.max_abs_err < 1e-12


def test_gl_sign_bookkeeping():
    # f(a) = -1 exactly on the (n^2 - n)/2 antisymmetric directions
    for n in (2, 3, 4):
        signs = build_basis(Family.GL, n).signs
        assert signs.count(-1) == n * (n - 1) // 2
        assert signs[: n + n * (n - 1) // 2] == (1,) * (n + n * (n - 1) // 2)


def test_unitary_families_all_minus_one():
    for family in (Family.U, Family.SU):
        assert set(build_basis(family, 3).signs) == {-1}


def test_sp_table_counts_and_example_sign():
    basis = build_basis(Family.SP, 2)
    assert len(basis) == 10  # n(2n+1)
    # the row e_{k,n+k} + e_{n+k,k} carries f(a) = +1
    g = unit_matrix(1, 2, 2) + unit_matrix(2, 1, 2)  # n = 1 case
    b1 = build_basis(Family.SP, 1)
    idx = next(k for k, m in enumerate(b1.generators) if max_abs(m - g) == 0.0)
    assert b1.signs[idx] == 1
    assert 0.5 * np.trace(g @ g) == 1.0


def test_sp_generators_kill_symplectic_form():
    for n in (1, 2, 3):
        j = symplectic_form(n)
        for x in build_basis(Family.SP, n).generators:
            assert max_abs(x.T @ j + j @ x) == 0.0


def test_so_basis_shape():
    basis = build_basis(Family.SO, 4)
    assert len(basis) == 6
    for m in basis.generators:
        assert max_abs(m + m.T) == 0.0
    assert max_abs(basis.generators[0] - (unit_matrix(1, 2, 4) - unit_matrix(2, 1, 4))) == 0.0


def test_g2_generators_skew_and_traceless():
    basis = build_basis(Family.G2)
    assert len(basis) == 14
    for c in basis.generators:
        assert c.shape == (7, 7)
        assert max_abs(c + c.T) == 0.0
        assert abs(np.trace(c)) == 0.0
    # hand computation: C_1 has four entries of magnitude 1/sqrt(2), so
    # tr(C_1^2) = -2 and the normalization sign is -1
    c1 = basis.generators[0]
    assert abs(0.5 * np.trace(c1 @ c1) + 1.0) < 1e-15
    assert set(basis.signs) == {-1}


def test_sl_su_drop_identity_direction():
    for family in (Family.SL, Family.SU):
        for m in build_basis(family, 3).generators:
            assert abs(np.trace(m)) < 1e-15


@pytest.mark.parametrize("family,n", [
    (Family.GL, 2), (Family.U, 2), (Family.SL, 3), (Family.SU, 2),
    (Family.SP, 2), (Family.SO, 3), (Family.SO, 6), (Family.G2, 1),
])
def test_closure_rank_equals_dimension(family, n):
    basis = build_basis(family, n)
    assert closure_rank(basis) == len(basis)


def test_bad_sizes_rejected():
    with pytest.raises(ValueError):
        build_basis(Family.SO, 1)
    with pytest.raises(ValueError):
        build_basis(Family.GL, 0)


@pytest.mark.parametrize("n", [0, 2, 5])
def test_g2_refuses_a_size_other_than_one(n):
    with pytest.raises(ValueError, match=f"g2 has no size parameter: n must be 1, got {n}"):
        build_basis(Family.G2, n)


def test_sizes_over_the_build_budget_are_refused_before_building(monkeypatch, capsys):
    from goldmankit import bases, casimir
    from goldmankit.cli import run

    monkeypatch.setattr(bases, "_build_basis", lambda *a: pytest.fail("built before refusing"))
    monkeypatch.setattr(casimir, "permutation_matrix", lambda *a: pytest.fail("built P first"))
    monkeypatch.setattr(casimir, "_defect_matrix", lambda *a: pytest.fail("built chi first"))
    # gl(200): 40000^2 doubles for each of the generator stack and the Casimir tensor
    for build in (build_basis, casimir.closed_form):
        with pytest.raises(ValueError, match=r"gl\(200\) needs 12207 MiB .* the 256 MiB budget"):
            build(Family.GL, 200)
    with pytest.raises(ValueError, match=r"so\(200\) needs 12207 MiB .* the 256 MiB budget"):
        casimir.defect_matrix(Family.SO, 200)
    assert run(["verify", "casimir", "--group", "gl", "--n", "200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: gl(200) needs 12207 MiB")
    # the largest sizes at or under 256 MiB, real and complex, and one past each
    for family, largest in ((Family.GL, 76), (Family.U, 64), (Family.SP, 38), (Family.SO, 76)):
        assert bases.check_size(family, largest) == largest
        with pytest.raises(ValueError, match="256 MiB budget"):
            bases.check_size(family, largest + 1)


def test_check_size_is_memoized_and_refuses_every_time():
    from goldmankit import bases

    bases.check_size.cache_clear()
    assert bases.check_size("so", 4) == 4 and bases.check_size("so", 4) == 4
    assert bases.check_size.cache_info().hits == 1
    for _ in range(2):
        with pytest.raises(ValueError, match=r"so\(n\) requires n >= 2, got 1"):
            bases.check_size("so", 1)
    assert bases.check_size.cache_info().currsize == 1


@pytest.mark.parametrize("n", [3.7, 2.0, True, np.float64(3.0)])
def test_a_size_that_is_not_an_integer_is_refused(n):
    from goldmankit import bases, casimir, goldman

    assert bases.check_size("so", 3) == 3  # cached, so np.float64(3.0) must not find it
    for check in (build_basis, casimir.closed_form, casimir.defect_matrix,
                  lambda family, n: goldman.verify_bracket(family, n, trials=1)):
        with pytest.raises(ValueError, match=re.escape(f"so size must be an integer, got {n!r}")):
            check("so", n)


def test_a_numpy_integer_size_is_taken():
    from goldmankit import casimir, goldman

    n = np.int64(3)
    assert build_basis("so", n) is build_basis("so", 3)
    assert casimir.closed_form("so", n) is casimir.closed_form("so", 3)
    assert casimir.defect_matrix("so", n) is casimir.defect_matrix("so", 3)
    report = goldman.verify_bracket("su", np.int64(2), trials=2)
    assert report.params["n"] == 2 and type(report.params["n"]) is int


def test_residual_helper_matches_report():
    basis = build_basis(Family.SU, 4)
    assert normalization_residual(basis) == check_normalization(basis).max_abs_err


def test_build_basis_is_memoized_and_read_only():
    basis = build_basis(Family.G2)
    assert build_basis("g2", 1) is basis
    assert build_basis(Family.SU, 3) is build_basis("su", 3) is not build_basis(Family.SU, 4)
    with pytest.raises(ValueError, match="read-only"):
        basis.generators[0][0, 0] = 1.0
