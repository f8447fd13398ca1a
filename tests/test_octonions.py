"""Octonion table, unit operators, automorphism and conjugation identities."""

import numpy as np
import pytest

from goldmankit.bases import Family, build_basis
from goldmankit.goldman import sample_substreams
from goldmankit.linalg import mat_exp, max_abs
from goldmankit.octonions import (
    EPS_TRIPLES,
    Octonion,
    automorphism_residual,
    conjugation_residual,
    eps_table,
    oct_mul,
    structure_residual,
    unit_matrices,
    _hardcoded_unit_matrices,
    _rebuilt_unit_matrices,
)


def _unit(i):
    return Octonion.unit(i)


def test_unit_products():
    assert oct_mul(_unit(1), _unit(2)).im == _unit(3).im  # triple 123
    sq = oct_mul(_unit(1), _unit(1))
    assert sq.re == -1.0 and sq.im == (0.0,) * 7
    swapped = oct_mul(_unit(2), _unit(1))
    assert swapped.im == tuple(-x for x in _unit(3).im)


def test_eps_antisymmetric_and_supported():
    eps = eps_table()
    assert np.array_equal(eps, -np.swapaxes(eps, 0, 1))
    assert np.array_equal(eps, -np.swapaxes(eps, 1, 2))
    assert int(np.sum(eps == 1)) == 3 * len(EPS_TRIPLES)
    assert int(np.sum(eps != 0)) == 6 * len(EPS_TRIPLES)


def test_full_multiplication_table_against_eps():
    eps = eps_table()
    for i in range(1, 8):
        for j in range(1, 8):
            prod = oct_mul(_unit(i), _unit(j))
            assert prod.re == (-1.0 if i == j else 0.0)
            assert np.array_equal(np.asarray(prod.im), eps[i - 1, j - 1].astype(float))


def test_identity_element():
    one = Octonion(1.0)
    x = Octonion(0.5, (1, 2, 3, 4, 5, 6, 7))
    for prod in (oct_mul(one, x), oct_mul(x, one)):
        assert prod.re == x.re and prod.im == x.im


def test_hardcoded_entries():
    o = unit_matrices()
    assert o[0][2, 1] == 1.0 and o[0][1, 2] == -1.0  # e_32 - e_23 block of O_1
    for i in range(7):
        assert max_abs(o[i] + o[i].T) == 0.0
        assert np.trace(o[i]) == 0.0


def test_rebuild_matches_hardcoded_exactly():
    assert np.array_equal(_hardcoded_unit_matrices(), _rebuilt_unit_matrices())


def test_columns_match_multiplication_table():
    # column j of O_i is the imaginary part of e_i e_j; note the
    # orientation (the transpose of a "multiply on the right" reading).
    o = unit_matrices()
    for i in range(1, 8):
        for j in range(1, 8):
            col = o[i - 1][:, j - 1]
            prod = oct_mul(_unit(i), _unit(j))
            assert np.array_equal(col, np.asarray(prod.im))


def test_structure_residual_exact_zero():
    assert structure_residual() == 0.0


def test_structure_example_entries():
    o = unit_matrices()
    # i = j = 1: both sides are -1 (pure real)
    assert max_abs(o[0][:, 0]) == 0.0
    # i = 1, j = 2: LHS e_3, RHS column 2 of O_1
    assert np.array_equal(o[0][:, 1], np.asarray(_unit(3).im))


def test_automorphism_identity_and_group_elements():
    assert automorphism_residual(np.eye(7)) == 0.0
    c = build_basis(Family.G2).generators
    assert automorphism_residual(mat_exp(0.3 * c[0])) < 1e-10
    assert automorphism_residual(mat_exp(0.1 * c[8])) < 1e-10


def test_automorphism_negative_control():
    # a generic rotation is orthogonal but no octonion automorphism
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal((7, 7))
        g = mat_exp(0.4 * (x - x.T) / np.linalg.norm(x - x.T))
        if automorphism_residual(g) > 1e-2:
            return
    pytest.fail("no generic rotation exceeded the automorphism residual floor")


def test_automorphism_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        automorphism_residual(2.0 * np.eye(7))


def test_conjugation_identity():
    assert conjugation_residual(np.eye(7)) == 0.0
    c = build_basis(Family.G2).generators
    assert conjugation_residual(mat_exp(0.1 * c[8])) < 1e-10


def test_conjugation_rejects_non_automorphism():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 7))
    g = mat_exp(0.5 * (x - x.T) / np.linalg.norm(x - x.T))
    with pytest.raises(ValueError, match="automorphism"):
        conjugation_residual(g)


def test_stacked_conjugation_residual_equals_per_matrix_values():
    # reference: the identity's two sides for one matrix at a time, as plain einsums
    o = unit_matrices()
    gs, _, _ = sample_substreams(Family.G2, 1, 5, [((), 300)])  # past one 256-row chunk
    single = [max_abs(np.einsum("ab,ibc,dc->iad", g, o, g) - np.einsum("kad,ki->iad", o, g))
              for g in gs]
    stacked = conjugation_residual(gs)
    assert stacked.shape == (300,)
    assert max_abs(stacked - single) <= 1e-15
    assert max_abs(np.array([conjugation_residual(g) for g in gs]) - single) <= 1e-15


def test_conjugation_rejects_a_stack_holding_a_non_automorphism():
    gs, _, _ = sample_substreams(Family.G2, 1, 5, [((), 300)])
    x = np.random.default_rng(3).standard_normal((7, 7))
    rotation = mat_exp(0.5 * (x - x.T) / np.linalg.norm(x - x.T))
    for at in (2, 280):  # in the first 256-row chunk and past it
        with pytest.raises(ValueError, match="automorphism"):
            conjugation_residual(np.concatenate([gs[:at], rotation[None], gs[at:]]))


def test_conjugation_monte_carlo():
    from goldmankit.goldman import sample_element

    worst = 0.0
    for trial in range(100):
        stream = np.random.SeedSequence(entropy=123, spawn_key=(trial,))
        g = sample_element(Family.G2, 1, stream).matrix
        worst = max(worst, conjugation_residual(g))
    assert worst < 1e-8


def test_octonion_validation():
    with pytest.raises(ValueError):
        Octonion(0.0, (1.0,) * 6)
    with pytest.raises(ValueError):
        Octonion(float("nan"))
    with pytest.raises(ValueError):
        Octonion.unit(8)


def test_unit_matrices_refuse_a_table_that_disagrees_with_the_rebuild(monkeypatch):
    # one flipped sign in O_1's entry e_32 is named as (operator, row, col) = (1, 3, 2)
    from goldmankit import octonions

    table = list(octonions._UNIT_MATRIX_ENTRIES)
    table[0] = ((3, 2, -1),) + table[0][1:]
    monkeypatch.setattr(octonions, "_UNIT_MATRIX_ENTRIES", tuple(table))
    unit_matrices.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=r"\(operator, row, col\) = \[\[1 3 2\]\]"):
            unit_matrices()
    finally:
        unit_matrices.cache_clear()
