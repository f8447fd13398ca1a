"""Casimir tensors: closed forms, defect matrices, tensor lemmas."""

import contextlib
import io

import numpy as np
import pytest

from goldmankit.bases import Family, build_basis, gell_mann
from goldmankit.casimir import (
    NormalizationError,
    casimir_tensor,
    closed_form,
    defect_matrix,
    tensor_lemma_residuals,
    verify_closed_form,
    verify_tensor_lemmas,
)
from goldmankit.linalg import kron, max_abs, permutation_matrix, trace12, unit_matrix
from goldmankit.octonions import structure_residual, unit_matrices

GRID = (
    [(f, n) for f in (Family.GL, Family.U, Family.SL, Family.SU) for n in range(2, 6)]
    + [(Family.SP, n) for n in range(1, 4)]
    + [(Family.SO, n) for n in range(2, 7)]
    + [(Family.G2, 1)]
)


def test_gl2_closed_form_entrywise():
    gamma = casimir_tensor(build_basis(Family.GL, 2)).tensor
    assert max_abs(gamma - 2.0 * permutation_matrix(2)) < 1e-12


def test_sl2_closed_form_entrywise():
    gamma = casimir_tensor(build_basis(Family.SL, 2)).tensor
    assert max_abs(gamma - (2.0 * permutation_matrix(2) - np.eye(4))) < 1e-12


@pytest.mark.parametrize("family,n", GRID)
def test_closed_forms(family, n):
    report = verify_closed_form(family, n)
    assert report.passed, f"{family} n={n}: residual {report.max_abs_err}"


@pytest.mark.parametrize("family,n", GRID + [(Family.GL, 12), (Family.SP, 5)])
def test_contraction_matches_kron_sum(family, n):
    # reference: the generator sum term by term, one kron per generator
    basis = build_basis(family, n)
    literal = sum(s * kron(g, g) for s, g in zip(basis.signs, basis.generators))
    assert max_abs(casimir_tensor(basis).tensor - literal) < 1e-14


@pytest.mark.parametrize("family,n", GRID)
def test_swap_symmetry(family, n):
    tensor = casimir_tensor(build_basis(family, n))
    p = permutation_matrix(int(np.sqrt(tensor.side)))
    assert max_abs(p @ tensor.tensor @ p - tensor.tensor) < 1e-12


@pytest.mark.parametrize("family,n", GRID)
def test_tensor_trace_values(family, n):
    # Independent oracle: the literal generator sum.  Only the h_1 direction
    # of the GL/U bases carries trace, giving 2n; every other family is
    # traceless generator by generator, giving 0.
    gamma = casimir_tensor(build_basis(family, n)).tensor
    expected = 2.0 * n if family in (Family.GL, Family.U) else 0.0
    assert abs(trace12(gamma) - expected) < 1e-10
    assert abs(trace12(closed_form(family, n)) - expected) < 1e-10


def test_sl_su_are_shifted_gl_u():
    for n in (2, 3, 4):
        gl = casimir_tensor(build_basis(Family.GL, n)).tensor
        sl = casimir_tensor(build_basis(Family.SL, n)).tensor
        u = casimir_tensor(build_basis(Family.U, n)).tensor
        su = casimir_tensor(build_basis(Family.SU, n)).tensor
        shift = (2.0 / n) * np.eye(n * n)
        assert max_abs(sl - (gl - shift)) < 1e-12
        assert max_abs(su - (u - shift)) < 1e-12


def test_sp1_defect_matrix_explicit():
    e = lambda i, j: unit_matrix(i, j, 2)
    expected = (
        kron(e(1, 2), e(2, 1)) + kron(e(2, 1), e(1, 2))
        - kron(e(1, 1), e(2, 2)) - kron(e(2, 2), e(1, 1))
    )
    assert max_abs(defect_matrix(Family.SP, 1) - expected) == 0.0


def _literal_defect_matrix(family, n):
    # reference: the paper's sums term by term, one kron per term
    if family is Family.SO:
        return -sum(kron(unit_matrix(i, j, n), unit_matrix(i, j, n))
                    for i in range(1, n + 1) for j in range(1, n + 1))
    d = 2 * n
    e = lambda i, j: unit_matrix(i, j, d)
    chi = np.zeros((d * d, d * d))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            chi += (
                kron(e(i, j + n), e(i + n, j)) + kron(e(j, i + n), e(j + n, i))
                + kron(e(j + n, i), e(j, i + n)) + kron(e(i + n, j), e(i, j + n))
                - kron(e(i, j), e(i + n, j + n)) - kron(e(j + n, i + n), e(j, i))
                - kron(e(j, i), e(j + n, i + n)) - kron(e(i + n, j + n), e(i, j))
            )
    for k in range(1, n + 1):
        chi += (
            kron(e(k, n + k), e(n + k, k)) + kron(e(n + k, k), e(k, n + k))
            - kron(e(k, k), e(k + n, k + n)) - kron(e(k + n, k + n), e(k, k))
        )
    return chi


@pytest.mark.parametrize("family,n", [(Family.SP, n) for n in range(1, 5)]
                         + [(Family.SO, n) for n in (2, 3, 7)])
def test_defect_matrix_matches_literal_sums(family, n):
    assert np.array_equal(defect_matrix(family, n), _literal_defect_matrix(family, n))


def test_defect_traces():
    for n in (2, 3, 5):
        assert trace12(defect_matrix(Family.SO, n)) == -n
    assert trace12(defect_matrix(Family.SP, 1)) == -2
    for n in (2, 3):
        assert trace12(defect_matrix(Family.SP, n)) == -2 * n


def test_defect_rejects_other_families():
    with pytest.raises(ValueError):
        defect_matrix(Family.GL, 2)


def test_g2_tensor_trace_zero():
    assert abs(trace12(closed_form(Family.G2, 1))) < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_tensor_lemmas(n):
    report = verify_tensor_lemmas(n)
    assert report.passed
    assert report.max_abs_err < 1e-13


def test_polarization_identity_random():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    lhs = kron(a + b, a + b) - kron(a - b, a - b)
    rhs = 2.0 * (kron(a, b) + kron(b, a))
    assert max_abs(lhs - rhs) < 1e-13


def _loop_lemma_residuals(n, rng):
    """The three lemma residuals with each side a Python sum of kron calls: the reference."""
    gm = gell_mann(n)
    e = lambda i, j: unit_matrix(i, j, n)
    h_rhs = 2.0 * sum(kron(e(k, k), e(k, k)) for k in range(1, n + 1))
    f_rhs = 2.0 * sum(kron(e(j, k), e(k, j))
                      for k in range(1, n + 1) for j in range(1, n + 1) if k != j)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return {"h_lemma": max_abs(sum(kron(h, h) for h in gm[:n]) - h_rhs),
            "f_lemma": max_abs(sum(kron(f, f) for f in gm[n:]) - f_rhs),
            "polarization": max_abs(kron(a + b, a + b) - kron(a - b, a - b)
                                    - 2.0 * (kron(a, b) + kron(b, a)))}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_lemma_sides_equal_the_kron_loop(n):
    for seed in range(5):
        got = tensor_lemma_residuals(n, np.random.default_rng(seed))
        assert got == _loop_lemma_residuals(n, np.random.default_rng(seed))


def _flip_one_product_sign(monkeypatch):
    from goldmankit import octonions

    unit_matrices()  # the operators are built and cross-checked from the intact table
    eps = octonions.eps_table().copy()
    eps[0, 1, 2] = -1  # e_1 e_2 = -e_3
    monkeypatch.setattr(octonions, "eps_table", lambda: eps)
    return structure_residual()


def _scale_one_gell_mann_matrix(monkeypatch):
    from goldmankit import casimir

    worst = []
    for k in range(9):
        scaled = lambda n, k=k: [1.01 * m if i == k else m for i, m in enumerate(gell_mann(n))]
        monkeypatch.setattr(casimir, "gell_mann", scaled)
        res = tensor_lemma_residuals(3)
        worst.append(max(res["h_lemma"], res["f_lemma"]))
    return min(worst)


@pytest.mark.parametrize("mutate, floor", [(_flip_one_product_sign, 0.0),
                                           (_scale_one_gell_mann_matrix, 1e-3)])
def test_a_broken_rule_leaves_a_residual(mutate, floor, monkeypatch):
    # the stacked checks cannot pass vacuously: one wrong sign or one scaled matrix shows
    assert mutate(monkeypatch) > floor


def test_lemma_residual_fields():
    res = tensor_lemma_residuals(3)
    assert set(res) == {"h_lemma", "f_lemma", "polarization"}


def test_refuses_broken_normalization():
    basis = build_basis(Family.SO, 3)
    broken = type(basis)(
        basis.family, basis.n, basis.side,
        (2.0 * basis.generators[0],) + basis.generators[1:], basis.signs,
    )
    with pytest.raises(NormalizationError):
        casimir_tensor(broken)


def test_memoized_constants_are_shared_and_read_only():
    from goldmankit.bases import generator_stack, symplectic_form

    basis = build_basis(Family.SP, 2)
    for build in (lambda: casimir_tensor(build_basis("sp", 2)).tensor,
                  lambda: defect_matrix("sp", 2), lambda: closed_form("sp", 2),
                  lambda: symplectic_form(2), lambda: generator_stack(build_basis("sp", 2))):
        array = build()
        assert build() is array
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    assert generator_stack(basis).shape == (len(basis), 4, 4)
    with pytest.raises(ValueError, match="sp requires n >= 1"):
        symplectic_form(0)


def test_a_hand_built_basis_is_not_served_the_memoized_tensor():
    from goldmankit import casimir

    basis = build_basis(Family.SO, 4)
    gamma = casimir_tensor(basis).tensor
    broken = type(basis)(
        basis.family, basis.n, basis.side,
        (2.0 * basis.generators[0],) + basis.generators[1:], basis.signs,
    )
    for _ in range(2):  # a refusal is never memoized, so it recurs
        with pytest.raises(NormalizationError):
            casimir_tensor(broken)
    copy = type(basis)(basis.family, basis.n, basis.side, basis.generators, basis.signs)
    misses = casimir._gamma.cache_info().misses
    fresh = casimir_tensor(copy).tensor
    assert fresh is not gamma and np.array_equal(fresh, gamma)
    assert casimir_tensor(copy).tensor is fresh
    assert casimir._gamma.cache_info().misses == misses + 1


def test_a_hand_built_basis_keeps_read_only_copies_so_its_tensor_never_goes_stale():
    basis = build_basis(Family.SO, 3)
    gens = [np.array(g) for g in basis.generators]  # writable
    view = gens[1][:]
    view.setflags(write=False)  # read-only, but over writable memory
    own = type(basis)(basis.family, basis.n, basis.side, (gens[0], view, gens[2]), basis.signs)
    assert own != type(basis)(basis.family, basis.n, basis.side, own.generators, own.signs)
    assert own == own and len({own, own}) == 1
    assert all(g is not h and not g.flags.writeable for g, h in zip(own.generators, gens))
    gamma = casimir_tensor(own).tensor.copy()
    gens[0] *= 2.0
    gens[1] *= 2.0  # through the view's memory too: the basis and its tensor stay as they were
    assert all(np.array_equal(g, h) for g, h in zip(own.generators, basis.generators))
    assert np.array_equal(casimir_tensor(own).tensor, gamma)
    with pytest.raises(ValueError, match="read-only"):
        own.generators[0][0, 1] = 1.0
    # the arrays build_basis made read-only are kept as they are
    kept = type(basis)(basis.family, basis.n, basis.side, basis.generators, basis.signs)
    assert all(g is h for g, h in zip(kept.generators, basis.generators))


def test_verify_all_builds_each_casimir_tensor_once():
    # the casimir, bracket and split suites share one tensor per (family, n)
    from goldmankit import casimir
    from goldmankit.cli import run

    casimir._gamma.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["verify", "all", "--trials", "10"]) == 0
    assert casimir._gamma.cache_info().misses == casimir._gamma.cache_info().currsize == 13


# The seven commuting-pair expressions: the six off-diagonal unit-matrix
# positions each pair touches, and the combination whose square carries the
# 1/3 term.  Their sum must reproduce the full 14-generator Casimir sum.
_PAIR_DATA = [
    (1, 9, [(1, 2), (2, 1), (4, 7), (5, 6), (6, 5), (7, 4)],
     [(1, 2, 1), (2, 1, -1), (4, 7, 1), (7, 4, -1), (6, 5, 1), (5, 6, -1)]),
    (2, 10, [(1, 3), (3, 1), (4, 6), (6, 4), (5, 7), (7, 5)],
     [(3, 1, 1), (1, 3, -1), (4, 6, 1), (6, 4, -1), (5, 7, 1), (7, 5, -1)]),
    (3, 8, [(2, 3), (3, 2), (4, 5), (5, 4), (6, 7), (7, 6)],
     [(3, 2, -1), (2, 3, 1), (5, 4, -1), (4, 5, 1), (6, 7, -1), (7, 6, 1)]),
    (4, 11, [(1, 4), (4, 1), (2, 7), (7, 2), (3, 6), (6, 3)],
     [(1, 4, 1), (4, 1, -1), (3, 6, 1), (6, 3, -1), (7, 2, 1), (2, 7, -1)]),
    (5, 12, [(1, 5), (5, 1), (2, 6), (6, 2), (3, 7), (7, 3)],
     [(5, 1, 1), (1, 5, -1), (6, 2, 1), (2, 6, -1), (7, 3, 1), (3, 7, -1)]),
    (6, 13, [(1, 6), (6, 1), (2, 5), (5, 2), (3, 4), (4, 3)],
     [(6, 1, 1), (1, 6, -1), (2, 5, 1), (5, 2, -1), (3, 4, 1), (4, 3, -1)]),
    (7, 14, [(1, 7), (7, 1), (2, 4), (4, 2), (3, 5), (5, 3)],
     [(1, 7, 1), (7, 1, -1), (2, 4, 1), (4, 2, -1), (5, 3, 1), (3, 5, -1)]),
]


def _pair_expression(support, combo):
    e = lambda i, j: unit_matrix(i, j, 7)
    out = np.zeros((49, 49))
    for (a, b) in support:
        out -= kron(e(a, b), e(a, b))
        out += kron(e(a, b), e(b, a))
    v = sum(w * e(a, b) for (a, b, w) in combo)
    return out + kron(v, v) / 3.0


def test_commuting_pair_decomposition():
    basis = build_basis(Family.G2)
    gens = basis.generators
    total = np.zeros((49, 49))
    for (i, j, support, combo) in _PAIR_DATA:
        pair = _pair_expression(support, combo)
        direct = -(kron(gens[i - 1], gens[i - 1]) + kron(gens[j - 1], gens[j - 1]))
        assert max_abs(pair - direct) < 1e-12, f"pair ({i},{j})"
        total += pair
    full = sum(-kron(c, c) for c in gens)
    assert max_abs(total - full) < 1e-12
    assert max_abs(total - closed_form(Family.G2, 1)) < 1e-12
