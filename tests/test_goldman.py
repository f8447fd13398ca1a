"""Bracket identities over sampled monodromies, defect lemmas, split harness."""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from goldmankit.bases import Family, build_basis
from goldmankit.casimir import casimir_tensor, defect_matrix
from goldmankit.goldman import (
    GroupElement,
    bracket_sides,
    membership_residual,
    sample_element,
    sample_substreams,
    split_harness,
    symplectic_inverse_residual,
    verify_bracket,
    verify_defect,
    verify_symplectic_inverse,
)
from goldmankit.linalg import mat_exp, max_abs, trace12
from goldmankit.octonions import unit_matrices

ALL_FAMILIES = [
    (Family.GL, 3), (Family.U, 3), (Family.SL, 3), (Family.SU, 3),
    (Family.SP, 2), (Family.SO, 5), (Family.G2, 1),
]


@pytest.mark.parametrize("family,n", ALL_FAMILIES)
def test_sampler_membership(family, n):
    g = sample_element(family, n, seed=5)
    assert g.membership_residual < 1e-8


def test_sampler_small_scale_near_identity():
    g = sample_element(Family.SO, 4, seed=1, scale=1e-6)
    assert max_abs(g.matrix - np.eye(4)) < 1e-4


def test_sampler_symplectic_condition():
    from goldmankit.bases import symplectic_form

    g = sample_element(Family.SP, 2, seed=9).matrix
    j = symplectic_form(2)
    assert max_abs(g.T @ j @ g - j) < 1e-9


def test_sampler_g2_automorphism():
    from goldmankit.octonions import automorphism_residual

    g = sample_element(Family.G2, 1, seed=9).matrix
    assert automorphism_residual(g) < 1e-9


def test_sampler_scale_validation():
    with pytest.raises(ValueError):
        sample_element(Family.SO, 3, seed=0, scale=3.0)


def test_bracket_identity_elements_g2():
    e = GroupElement(Family.G2, 1, np.eye(7), 0.0)
    lhs, rhs = bracket_sides(Family.G2, e, e)
    # tr_12(Gamma)/2 = 0 and (tr I - tr I)/2 + 0 = 0
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12


def test_bracket_gl_matches_product_trace():
    a = sample_element(Family.GL, 3, seed=2)
    b = sample_element(Family.GL, 3, seed=3)
    lhs, _ = bracket_sides(Family.GL, a, b)
    assert abs(lhs - np.trace(a.matrix @ b.matrix)) < 1e-10


def test_bracket_g2_octonion_term():
    a = sample_element(Family.G2, 1, seed=4)
    b = sample_element(Family.G2, 1, seed=5)
    lhs, rhs = bracket_sides(Family.G2, a, b)
    assert abs(lhs - rhs) / abs(rhs) < 1e-9
    # the octonion sum genuinely contributes: dropping it breaks the identity
    partial = 0.5 * (np.trace(a.matrix @ b.matrix)
                     - np.trace(a.matrix @ np.linalg.inv(b.matrix)))
    assert abs(lhs - partial) > 1e-6


def test_bracket_sides_rejects_mismatch():
    a = sample_element(Family.GL, 2, seed=0)
    b = sample_element(Family.SO, 3, seed=0)
    with pytest.raises(ValueError):
        bracket_sides(Family.GL, a, b)


@pytest.mark.parametrize("family,n", ALL_FAMILIES)
def test_verify_bracket(family, n):
    report = verify_bracket(family, n, trials=25, seed=11)
    assert report.passed, report.summary_line()


def test_bracket_conjugation_invariance():
    # both sides are invariant under simultaneous conjugation by a group element
    basis = build_basis(Family.G2)
    gamma = casimir_tensor(basis).tensor
    a = sample_element(Family.G2, 1, seed=21)
    b = sample_element(Family.G2, 1, seed=22)
    g = sample_element(Family.G2, 1, seed=23).matrix
    conj = lambda e: GroupElement(e.family, e.n, g @ e.matrix @ g.T, e.membership_residual)
    lhs0, rhs0 = bracket_sides(Family.G2, a, b, gamma)
    lhs1, rhs1 = bracket_sides(Family.G2, conj(a), conj(b), gamma)
    assert abs(lhs1 - lhs0) < 1e-9 and abs(rhs1 - rhs0) < 1e-9


def test_single_octonion_term_not_invariant():
    # negative control from the remark: tr(M O_i) itself moves under gauge
    o = unit_matrices()
    m = sample_element(Family.G2, 1, seed=31).matrix
    g = sample_element(Family.G2, 1, seed=32).matrix
    moved = max(
        abs(np.trace(g @ m @ g.T @ o[i]) - np.trace(m @ o[i])) for i in range(7)
    )
    assert moved > 1e-3


def test_defect_identity_at_identity():
    chi = defect_matrix(Family.SP, 1)
    assert abs(trace12(chi) + np.trace(np.eye(2))) < 1e-14


@pytest.mark.parametrize("family,n", [(Family.SP, 1), (Family.SP, 3), (Family.SO, 4)])
def test_verify_defect(family, n):
    report = verify_defect(family, n, trials=25, seed=13)
    assert report.passed
    assert report.max_abs_err < 1e-11


def test_defect_rejects_gl():
    with pytest.raises(ValueError):
        verify_defect(Family.GL, 2, trials=1, seed=0)


def test_symplectic_inverse_identity():
    for n in (1, 2, 3):
        assert symplectic_inverse_residual(np.eye(2 * n), n) == 0.0


def _literal_symplectic_residual(b, n):
    # reference: the entry-relation table, one relation at a time
    inv = np.linalg.inv(b)
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            relations += [
                (inv[i, j], b[j + n, i + n]), (inv[j, i], b[i + n, j + n]),
                (inv[i, j + n], -b[j, i + n]), (inv[j, i + n], -b[i, j + n]),
                (inv[n + i, j], -b[j + n, i]), (inv[j + n, i], -b[n + i, j]),
                (inv[i + n, j + n], b[j, i]), (inv[j + n, i + n], b[i, j]),
            ]
    for k in range(n):
        relations += [(inv[k, k], b[k + n, k + n]), (inv[k, n + k], -b[k, n + k]),
                      (inv[n + k, k], -b[n + k, k]), (inv[k + n, k + n], b[k, k])]
    assert len(relations) == 4 * n * n
    return max(abs(l - r) for l, r in relations)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_symplectic_residual_matches_relation_table(n):
    mats, _, _ = sample_substreams(Family.SP, n, 0, [((), 6)])
    stacked = symplectic_inverse_residual(mats, n)
    for t in range(6):
        assert stacked[t] == symplectic_inverse_residual(mats[t], n)
        assert stacked[t] == _literal_symplectic_residual(mats[t], n)
    # a perturbed entry shows up in the residual
    bent = mats[0].copy()
    bent[0, -1] += 1e-3
    assert symplectic_inverse_residual(bent, n) > 1e-4


def test_symplectic_inverse_diag_relation():
    b = sample_element(Family.SP, 1, seed=8).matrix
    inv = np.linalg.inv(b)
    assert abs(inv[0, 0] - b[1, 1]) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_symplectic_inverse(n):
    report = verify_symplectic_inverse(n, trials=25, seed=5)
    assert report.passed


def test_split_trivial_transitions_reduce_to_bracket():
    basis = build_basis(Family.GL, 3)
    gamma = casimir_tensor(basis).tensor
    m1 = sample_element(Family.GL, 3, seed=1)
    m2 = sample_element(Family.GL, 3, seed=2)
    lhs, rhs = bracket_sides(Family.GL, m1, m2, gamma)
    assert abs(lhs - rhs) < 1e-10  # transitions = identity case


@pytest.mark.parametrize("family,n", [(Family.GL, 3), (Family.SP, 2), (Family.G2, 1)])
def test_split_harness(family, n):
    report = split_harness(family, n, seed=3)
    assert report.passed
    assert report.max_abs_err < 1e-9


def test_membership_residual_families():
    assert membership_residual(Family.GL, 2, np.eye(2)) == 0.0
    assert membership_residual(Family.SL, 2, 2.0 * np.eye(2)) == 3.0
    assert membership_residual(Family.SO, 3, np.eye(3)) == 0.0


def test_g2_membership_measures_rows_off_the_orthogonal_group():
    # a row further than 1e-8 from orthogonal keeps that distance; the others are unchanged
    assert membership_residual(Family.G2, 1, 2.0 * np.eye(7)) == 3.0
    g = sample_element(Family.G2, 1, 3).matrix
    res = membership_residual(Family.G2, 1, np.stack([g, 1.01 * g]))
    assert res[0] == membership_residual(Family.G2, 1, g) < 1e-14
    assert abs(res[1] - 0.0201) < 1e-12


def test_a_g2_draw_redraws_a_row_off_the_orthogonal_group(monkeypatch):
    from goldmankit import goldman

    exp = goldman.mat_exp
    monkeypatch.setattr(goldman, "mat_exp", lambda a: exp(a) * [[[1.0]], [[2.0]], [[1.0]]]
                        if len(a) == 3 else exp(a))
    mats, residuals, resamples = sample_substreams(Family.G2, 1, 5, [((), 3)])
    assert resamples == 1 and residuals.max() < 1e-8


@pytest.mark.parametrize("family,n", ALL_FAMILIES)
def test_sampler_residual_sweep(family, n):
    # 10^4 draws per family at scale 1 never leave the 1e-8 membership band
    _, residuals, resamples = sample_substreams(family, n, 99, [((), 10_000)])
    assert residuals.shape == (10_000,) and resamples == 0
    assert residuals.max() < 1e-8


@pytest.mark.parametrize("family,n", ALL_FAMILIES)
def test_batched_rows_equal_single_draws(family, n):
    # row t of stream s in a stacked draw is bitwise the element drawn alone
    # from spawn key (t, *s)
    basis = build_basis(family, n)
    for streams in ([((k,), 9) for k in range(2)], [((), 3)]):
        mats, residuals, _ = sample_substreams(family, n, 6, streams)
        keys = [(t, *stream) for stream, rows in streams for t in range(rows)]
        for row, key in enumerate(keys):
            alone = sample_element(family, n, np.random.SeedSequence(entropy=6, spawn_key=key),
                                   1.0, basis)
            assert np.array_equal(mats[row], alone.matrix), key
            assert residuals[row] == alone.membership_residual < 1e-8
    assert np.array_equal(mats[0], sample_element(family, n, 6).matrix)  # row 0 of stream ()


def test_verify_bracket_report_is_reproducible():
    first = verify_bracket(Family.SO, 4, trials=24, seed=6)
    second = verify_bracket(Family.SO, 4, trials=24, seed=6)
    assert first.body() == second.body()


@pytest.mark.parametrize("family,n", [(Family.G2, 1), (Family.GL, 12), (Family.SU, 3)])
def test_worst_trial_replays_alone(family, n):
    # the named pair, drawn alone, is bitwise the pair the check contracted; its
    # relative error, contracted alone, is the reported one up to round-off
    report = verify_bracket(family, n, trials=30, seed=4)
    worst = report.params["worst_trial"]
    assert 0 <= worst < 30 and report.params["resamples"] == 0
    basis = build_basis(family, n)
    a, b = (sample_element(family, n, np.random.SeedSequence(entropy=4, spawn_key=(worst, k)),
                           1.0, basis) for k in range(2))
    mats, _, _ = sample_substreams(family, n, 4, [((0,), 30), ((1,), 30)])
    assert np.array_equal(a.matrix, mats[worst]) and np.array_equal(b.matrix, mats[30 + worst])
    lhs, rhs = bracket_sides(family, a, b)
    assert abs(abs(lhs - rhs) / abs(rhs) - report.max_rel_err) <= 1e-14


def test_worst_trial_is_the_one_the_relative_verdict_reads():
    # su(2) rhs values spread over orders of magnitude, so the largest relative
    # error (which decides the verdict) falls on another trial than the largest
    # absolute one; replayed alone, the named trial gives the reported value
    report = verify_bracket(Family.SU, 2, trials=2000, seed=1)
    worst = report.params["worst_trial"]
    a, b = (sample_element(Family.SU, 2, np.random.SeedSequence(entropy=1, spawn_key=(worst, k)))
            for k in range(2))
    lhs, rhs = bracket_sides(Family.SU, a, b)
    assert abs(lhs - rhs) / abs(rhs) == pytest.approx(report.max_rel_err, rel=1e-9)
    assert abs(lhs - rhs) < report.max_abs_err


@pytest.mark.parametrize("family,n", [(Family.SU, 3), (Family.G2, 1), (Family.GL, 4)])
def test_sample_element_redraws_the_pairs_verify_bracket_checked(family, n, monkeypatch):
    # the benchmark's correctness pass re-draws a checked pair through
    # sample_element(fam, n, SeedSequence(entropy=seed, spawn_key=(t, k)), 1.0, basis)
    from goldmankit import goldman

    stacks = []
    bracket_stack = goldman._bracket_stack
    monkeypatch.setattr(goldman, "_bracket_stack",
                        lambda *args: stacks.append(args[1:3]) or bracket_stack(*args))
    trials = 2000
    verify_bracket(family, n, trials=trials, seed=17)
    basis = build_basis(family, n)
    past_one_chunk = goldman._DRAW_CHUNK_ENTRIES // basis.side ** 2 + 3
    assert past_one_chunk < trials
    for t in (0, past_one_chunk, trials - 1):
        for k, stack in enumerate(stacks[0]):
            seed = np.random.SeedSequence(entropy=17, spawn_key=(t, k))
            assert np.array_equal(sample_element(family, n, seed, 1.0, basis).matrix, stack[t])


def test_defect_and_symplectic_report_worst_trial():
    defect = verify_defect(Family.SO, 4, trials=12, seed=3)
    chi = defect_matrix(Family.SO, 4)
    t = defect.params["worst_trial"]
    a, b = (sample_element(Family.SO, 4, np.random.SeedSequence(entropy=3, spawn_key=(t, k))).matrix
            for k in range(2))
    err = abs(trace12(np.kron(a, b) @ chi) + np.trace(a @ np.linalg.inv(b)))
    assert abs(err - defect.max_abs_err) <= 1e-13 and defect.params["resamples"] == 0
    inverse = verify_symplectic_inverse(2, trials=12, seed=3)
    t = inverse.params["worst_trial"]
    b = sample_element(Family.SP, 2, np.random.SeedSequence(entropy=3, spawn_key=(t, 0))).matrix
    assert symplectic_inverse_residual(b, 2) == inverse.max_abs_err


def test_verify_rejects_zero_trials():
    with pytest.raises(ValueError):
        verify_defect(Family.SO, 3, trials=0)
    with pytest.raises(ValueError):
        verify_symplectic_inverse(1, trials=0)


def test_stacked_residuals_match_single():
    for family, n in ALL_FAMILIES:
        mats, residuals, _ = sample_substreams(family, n, 0, [((), 4)])
        for t in range(4):
            assert abs(membership_residual(family, n, mats[t]) - residuals[t]) <= 1e-15


SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, int(np.random.default_rng(12).integers(2 ** 63))]
# (stream id, rows) sets: the empty id, one-int ids up to 2^32 - 1, an empty
# stream among others, and ids given as numpy ints
STREAM_SETS = [[((), 1)], [((0,), 1), ((2 ** 32 - 1,), 2)], [((k,), 40) for k in range(2)],
               [((7,), 0), ((3,), 5)], [(np.array([k]), np.int64(3)) for k in (4, 9)]]
# bad stream ids, one pair of one row each: negative, non-int, too large,
# ragged, of more than one int, or not a tuple at all
BAD_KEYS = [[(0,), (1, 2)], [(2 ** 32, 5)], [(3, 2 ** 40 + 1)], [(2 ** 64 + 9,)], [(-1,)],
            [(0.5,)], [0, 1], [(), (0,)]]


def _generator(seed, stream):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=stream)))


@pytest.mark.parametrize("keys", BAD_KEYS, ids=str)
def test_sample_substreams_refuses_keys_that_are_not_rectangular_words(keys, monkeypatch):
    from goldmankit import goldman

    monkeypatch.setattr(goldman, "_draw", lambda *a: pytest.fail("drew before refusing"))
    with pytest.raises(ValueError, match=r"streams must be \(id, rows\) pairs: distinct ids"):
        sample_substreams(Family.G2, 1, 0, [(key, 1) for key in keys])


@pytest.mark.parametrize("streams", [[((), -1)], [((0,), 1.5)], [((0,), True)], [((0,), "2")],
                                     [((1,), 2), ((1,), 3)], [((),)], [(0, 1)], 5, [([[1]], 1)]],
                         ids=str)
def test_sample_substreams_refuses_bad_row_counts_and_pairs(streams, monkeypatch):
    # negative or non-int row counts, a repeated or unhashable id, and pairs that are not pairs
    from goldmankit import goldman

    monkeypatch.setattr(goldman, "_draw", lambda *a: pytest.fail("drew before refusing"))
    with pytest.raises(ValueError, match=r"streams must be \(id, rows\) pairs"):
        sample_substreams(Family.G2, 1, 0, streams)


def _stacks_fed_to_mat_exp(monkeypatch):
    from goldmankit import goldman

    fed = []
    monkeypatch.setattr(goldman, "mat_exp", lambda x: fed.append(x.copy()) or mat_exp(x))
    return fed


@pytest.mark.parametrize("scale", [1.0, 0.7])
@pytest.mark.parametrize("family,n", [(Family.G2, 1), (Family.SU, 3), (Family.SP, 2)])
def test_exponent_stack_is_the_default_rng_draw(family, n, scale, monkeypatch):
    # X = sum_a c_a t_a is bitwise the stack of each stream's
    # Generator(Philox(SeedSequence(seed, spawn_key=stream))).uniform, rows in order
    fed = _stacks_fed_to_mat_exp(monkeypatch)
    basis = build_basis(family, n)
    gens = np.stack(basis.generators)
    for seed in SEEDS:
        for streams in STREAM_SETS:
            sample_substreams(family, n, seed, streams, scale)
            coeffs = [_generator(seed, tuple(int(w) for w in stream))
                      .uniform(-scale, scale, size=(rows, len(basis))) for stream, rows in streams]
            want = np.einsum("ta,aij->tij", np.concatenate(coeffs), gens)
            assert np.array_equal(np.concatenate(fed), want)
            fed.clear()


def _reject_rows_once(monkeypatch, rows):
    """Make the first membership test of a draw fail the given rows."""
    from goldmankit import goldman

    calls = []

    def reject(family, n, g):
        calls.append(len(g))
        res = membership_residual(family, n, g)
        if len(calls) == 1:
            res[rows] = np.inf
        return res

    monkeypatch.setattr(goldman, "membership_residual", reject)
    return calls


def test_redraws_continue_each_row_own_stream(monkeypatch):
    # a rejected row t of stream s is redrawn alone from stream (t, *s, 1)
    fed = _stacks_fed_to_mat_exp(monkeypatch)
    calls = _reject_rows_once(monkeypatch, [1, 3])
    mats, residuals, resamples = sample_substreams(Family.SO, 4, 8, [((0,), 5)])
    assert calls == [5, 2] and resamples == 2 and residuals.max() < 1e-8
    gens = np.stack(build_basis(Family.SO, 4).generators)
    for redraw, t in enumerate((1, 3)):
        second = np.einsum("a,aij->ij", _generator(8, (t, 0, 1)).uniform(-1.0, 1.0, len(gens)),
                           gens)
        assert np.array_equal(fed[1][redraw], second)
        assert np.array_equal(mats[t], mat_exp(second[None])[0])


def test_redraw_streams_never_repeat_a_first_draw_stream(monkeypatch):
    # every stream a check draws first has at most one id word; every redraw
    # stream (t, *s, attempt) has two or three, so no redraw repeats a first draw
    from goldmankit import goldman
    from goldmankit import observables as obs
    from goldmankit import symbolic as sym
    from goldmankit.cli import run

    opened = []
    read = goldman._read
    monkeypatch.setattr(goldman, "_read",
                        lambda seed, s, *a: opened.append(s) or read(seed, s, *a))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["verify", "all", "--seed", "3"]) == 0
    inst = obs.random_instance(obs.enumerate_specs(1, 1, 0, 0, 1)[0], seed=3)
    obs.invariance_test(inst, trials=3, seed=3)
    sym.closure_check(sym.worked_example_bracket(), seed=3)
    first = set(opened)
    assert {(), (0,), (1,), (10,), (11,), (12,)} <= first and max(map(len, first)) == 1
    opened.clear()
    _reject_rows_once(monkeypatch, [0, 2])
    sample_substreams(Family.G2, 1, 3, [((1,), 3)])
    sample_element(Family.G2, 1, np.random.SeedSequence(3, spawn_key=(4,)))
    redraws = set(opened) - {(1,), ()}
    assert redraws == {(0, 1, 1), (2, 1, 1)} and not redraws & first


def test_draw_chunks_do_not_change_rows(monkeypatch):
    # row t of stream s is bitwise the same whatever the chunk, and equals
    # sample_element's draw for spawn key (t, *s) with small chunks too
    from goldmankit import goldman

    streams = [((k,), 9) for k in range(2)]
    for family, n in ((Family.SU, 3), (Family.G2, 1)):
        mats, residuals, _ = sample_substreams(family, n, 2, streams)
        side = build_basis(family, n).side
        monkeypatch.setattr(goldman, "_DRAW_CHUNK_ENTRIES", 2 * side ** 2)  # two rows a chunk
        chunked, chunked_residuals, _ = sample_substreams(family, n, 2, streams)
        assert np.array_equal(chunked, mats) and np.array_equal(chunked_residuals, residuals)
        for t in range(9):
            for k in range(2):
                alone = sample_element(family, n, np.random.SeedSequence(2, spawn_key=(t, k)))
                assert np.array_equal(alone.matrix, mats[9 * k + t])
        monkeypatch.undo()


@pytest.mark.parametrize("count", [14, 3])  # g2; so(3) and sp(1)
def test_the_reader_matches_a_fresh_generator_at_every_word_offset(count):
    # a row starts at word row * count; with 3 values a row it starts at every
    # offset 0..3 within Philox's four-word block, with 14 at offsets 0 and 2
    from goldmankit import goldman

    for seed in (0, 2 ** 64 + 3):
        for stream in ((), (7,), (2, 7, 1)):
            for row in range(9):
                want = _generator(seed, stream).uniform(-0.7, 0.7, (row + 2) * count)
                got = goldman._read(seed, stream, row, 2, count, 0.7)
                assert np.array_equal(got, want[row * count:].reshape(2, count))


@pytest.mark.parametrize("family,n", [(Family.G2, 1), (Family.SO, 3), (Family.SP, 1)])
def test_chunks_read_each_stream_at_its_own_counter(family, n, monkeypatch):
    # three rows a chunk: the first holds parts of three streams, and later chunks
    # start mid-stream, mid-block; each part still reads its stream's own words
    from goldmankit import goldman

    basis = build_basis(family, n)
    monkeypatch.setattr(goldman, "_DRAW_CHUNK_ENTRIES", 3 * basis.side ** 2)
    fed = _stacks_fed_to_mat_exp(monkeypatch)
    streams = [((0,), 1), ((1,), 1), ((2,), 5), ((3,), 5)]
    sample_substreams(family, n, 11, streams, 0.7)
    coeffs = np.concatenate([_generator(11, stream).uniform(-0.7, 0.7, (rows, len(basis)))
                             for stream, rows in streams])
    want = np.einsum("ta,aij->tij", coeffs, np.stack(basis.generators))
    assert [len(x) for x in fed] == [3, 3, 3, 3] and np.array_equal(np.concatenate(fed), want)


def test_stream_keys_are_cached_bounded_and_read_only():
    from goldmankit import goldman

    key = goldman._stream_key
    key.cache_clear()
    assert np.array_equal(key(5, (3,)), np.random.Philox(
        np.random.SeedSequence(5, spawn_key=(3,))).state["state"]["key"])
    with pytest.raises(ValueError, match="read-only"):
        key(5, (3,))[0] = 1
    assert key(5, (3,)) is key(5, (3,))
    for k in range(goldman._KEY_CACHE_SIZE + 5):
        key(6, (k,))
    assert key.cache_info().currsize == key.cache_info().maxsize == goldman._KEY_CACHE_SIZE


def test_trial_counts_and_rows_may_be_numpy_ints():
    # a numpy int trial count or row draws what the Python int does
    from goldmankit import goldman

    for check, args in [(verify_bracket, (Family.SO, 3)), (verify_defect, (Family.SP, 1)),
                        (goldman.verify_symplectic_inverse, (1,))]:
        assert (check(*args, trials=np.int64(10), seed=5).body()
                == check(*args, trials=10, seed=5).body())
    assert np.array_equal(goldman._read(5, (2,), np.int64(3), 2, 3, 1.0),
                          goldman._read(5, (2,), 3, 2, 3, 1.0))


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_sample_substreams_refuses_a_seed_that_is_not_a_non_negative_int(seed, monkeypatch):
    from goldmankit import goldman

    monkeypatch.setattr(goldman, "_draw", lambda *a: pytest.fail("drew before refusing"))
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        sample_substreams(Family.G2, 1, seed, [((0,), 1)])


def test_sampling_refuses_a_stack_over_the_byte_budget(monkeypatch):
    from goldmankit import goldman

    monkeypatch.setattr(goldman, "_draw", lambda *a: pytest.fail("drew before refusing"))
    monkeypatch.setattr(goldman, "_stream_key", lambda *a: pytest.fail("keyed first"))
    monkeypatch.setattr(goldman, "_read", lambda *a: pytest.fail("read first"))
    rows = goldman._SAMPLE_BYTES // (16 * 16 * 8) + 1  # one gl(16) row past 256 MiB
    with pytest.raises(ValueError, match=r"need 256 MiB, over the 256 MiB sampling budget"):
        sample_substreams(Family.GL, 16, 0, [((), rows)])
    with pytest.raises(ValueError, match="sampling budget"):
        sample_substreams(Family.GL, 16, 0, [((0,), rows // 2), ((1,), rows // 2 + 1)])
    with pytest.raises(ValueError, match="sampling budget"):
        verify_bracket(Family.U, 16, trials=rows // 4 + 1)  # complex pairs: four times the bytes
    monkeypatch.setattr(goldman, "_draw", lambda *a: "drawn")
    assert sample_substreams(Family.GL, 16, 0, [((), rows - 1)]) == "drawn"


def test_draw_chunks_bound_every_stack_it_computes_on(monkeypatch):
    # a 400-row g2 draw holds 19 600 entries; no stack handed on may exceed 2^14
    from goldmankit import goldman

    sizes = []
    seen = lambda f: lambda *a: sizes.append(a[-1].size) or f(*a)
    monkeypatch.setattr(goldman, "mat_exp", seen(mat_exp))
    monkeypatch.setattr(goldman, "membership_residual", seen(membership_residual))
    mats, _, _ = sample_substreams(Family.G2, 1, 3, [((), 400)])
    assert len(sizes) == 4 and sum(sizes) == 2 * mats.size and max(sizes) <= 1 << 14


def test_sample_element_refuses_a_seed_sequence_without_int_entropy(monkeypatch):
    from goldmankit import goldman

    monkeypatch.setattr(goldman, "_draw", lambda *a: pytest.fail("drew before refusing"))
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got \\[1, 2\\]"):
        sample_element(Family.G2, 1, np.random.SeedSequence([1, 2], spawn_key=(0,)))
    for seed in (np.random.SeedSequence(1, spawn_key=(0,), pool_size=8),
                 np.random.SeedSequence(1)):
        with pytest.raises(ValueError, match=r"needs pool_size 4 and a spawn key \(t, \*stream\)"):
            sample_element(Family.G2, 1, seed)
    with pytest.raises(ValueError, match="streams must be"):
        sample_element(Family.G2, 1, np.random.SeedSequence(1, spawn_key=(0, 2 ** 32)))


def test_zero_keys_draw_an_empty_stack():
    for streams in ([], [((), 0)], [((0,), 0), ((1,), 0)]):
        mats, residuals, resamples = sample_substreams("g2", 1, 0, streams)
        assert mats.shape == (0, 7, 7) and residuals.shape == (0,) and resamples == 0


def test_sample_element_refuses_a_basis_of_another_group(monkeypatch):
    from goldmankit import goldman

    monkeypatch.setattr(goldman, "_draw", lambda *a: pytest.fail("drew before refusing"))
    with pytest.raises(ValueError, match=r"a so\(5\) basis was given for gl\(3\)"):
        sample_element("gl", 3, 0, 1.0, build_basis("so", 5))


def test_sample_element_refuses_a_hand_built_basis_of_its_own_group(monkeypatch):
    from goldmankit import goldman

    basis = build_basis("so", 3)
    negated = type(basis)(basis.family, basis.n, basis.side,
                          tuple(-g for g in basis.generators), basis.signs)
    assert sample_element("so", 3, 5, 1.0, basis).matrix.shape == (3, 3)
    monkeypatch.setattr(goldman, "_draw", lambda *a: pytest.fail("drew before refusing"))
    with pytest.raises(ValueError, match=r"a so\(3\) basis was given for so\(3\)"):
        sample_element("so", 3, 5, 1.0, negated)


def test_check_draws_refuses_before_anything_is_built(monkeypatch):
    from goldmankit import bases, goldman

    monkeypatch.setattr(bases, "_build_basis", lambda *a: pytest.fail("built a basis"))
    rows = goldman._SAMPLE_BYTES // (7 * 7 * 8)
    goldman.check_draws("g2", 1, rows)
    with pytest.raises(ValueError, match=r"684785 draws of g2\(1\) need 256 MiB"):
        goldman.check_draws("g2", 1, rows + 1)
    with pytest.raises(ValueError, match=r"over the 256 MiB sampling budget"):
        goldman.check_draws("su", 16, rows // 4)  # complex entries: 16 bytes
    with pytest.raises(ValueError, match="g2 has no size parameter"):
        goldman.check_draws("g2", 2, 1)


# SHA-256 of the sample_substreams stacks at seed 5, one size of each family,
# in the layouts the checks draw: verify_bracket (20 rows of streams (0,) and
# (1,)), split_harness (one row of each of (0,)..(5,) at scale 0.7) and
# closure_check ((10,), (11,), (12,)).  The goldens allow 1e-9 relative
# drift; these pin every bit of the draw path (on one numpy and BLAS build).
DRAW_LAYOUTS = (
    ([((0,), 20), ((1,), 20)], 1.0),
    ([((k,), 1) for k in range(6)], 0.7),
    ([((10,), 2), ((11,), 1), ((12,), 3)], 1.0),
)
DRAW_SHA256 = {
    "gl": ("f5be2b16c0c5949b9282b5df437d4e71d5a90646711f650000af3d1cded4e5f3",
           "cf1d5bac3a5b255e12ee6c8c81b2b0d43ca7e0f2635341de4423b0e63636e6fe",
           "904147ad2e084f95eec2ad0a976f4af8d980ab9138a2954ff343cbd29d582ddf"),
    "u": ("c7890a4816fbc1dc24e63336efc42746a0bdc4b3802a9fb9db9a74a322d1056f",
          "1c9941510faf50f98f336436f3823e2912020aae29c6c189e88132f536863f6e",
          "860ac314df8c211c7632f7069c46fbfd4640b448ab9aaffb622339f4a085fc2b"),
    "sl": ("4492227120452bfe8525acfffdcfea33afd9295105d0ba5fc305d714f7b8de8f",
           "9b0e3dcf9796d9cf5c665998c077b2517b0d2f320d87c0a25664ab39a381a59d",
           "2772ee8cab26922e1b25831da75ecc13de8c1db4af19cd61074eb0e91dbbd840"),
    "su": ("56a00fae8a2563ca19ef157c136a96ac696473d92ecb79e3af4fa464bf10f760",
           "f5be3f2c0fdb68a14ed6a7d140bd1ed51692af37249968c545eb7795ba8bdd6c",
           "615adfb289667944cbc7c7ecda1275d15fd1e2f4395a06a88004d2da32f1faa5"),
    "sp": ("1eef633872b143125e6e0d9367e64c98f4a9b76f154d808a3cad5afd8fad84a7",
           "9bd9666ebca0d1805124cb59d2c822d0d4af6fb96fcfe52e818c01566f9e8415",
           "cd986a991b507d7c73dc077baa428011837fe664130358d03663f11b8e869eb5"),
    "so": ("8c05db6bdbcf97232206ef4779f5679a286e43d32a1f67115114388b390a1884",
           "d51ee5757204b3feec90b5ae865ff8f6f0b56fd1362126b5c352e60be43410ed",
           "99862fc994860323294405ab431d1ee10e0fe7998fa9b0c92bd6ec6c57365d9b"),
    "g2": ("a799c4bc6ba99079c9dd2b5a26d94a7e12dc6e79cba3c8faf433758c2ccbb821",
           "8cfd86d802804624e2a51f1ff74150d39abcb671cba07d1b2b6d32561e20fcff",
           "3d7b1a50e49a569d1dc6e5862cd403271f32cfc2bf7e6d35911e2172eef72b99"),
}
G2_PAST_ONE_CHUNK_SHA256 = "ee319c8f6c80cc7507447a9da6f08c820ace9993ad8c76fe293b6b1462302e06"


def _sha256(mats):
    return hashlib.sha256(np.ascontiguousarray(mats).tobytes()).hexdigest()


@pytest.mark.parametrize("family,n", ALL_FAMILIES)
def test_draw_bits_are_pinned(family, n):
    got = tuple(_sha256(sample_substreams(family, n, 5, streams, scale)[0])
                for streams, scale in DRAW_LAYOUTS)
    assert got == DRAW_SHA256[family.value]


def test_a_g2_draw_past_one_chunk_is_pinned():
    from goldmankit import goldman

    mats, _, _ = sample_substreams(Family.G2, 1, 5, [((), 400)])
    assert mats.size > goldman._DRAW_CHUNK_ENTRIES
    assert _sha256(mats) == G2_PAST_ONE_CHUNK_SHA256
