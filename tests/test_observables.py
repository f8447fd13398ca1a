"""Exotic observables: validation, enumeration, both evaluators, invariance."""

import itertools
import json
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import _prefixed, _specs

from goldmankit import observables as obs
from goldmankit.goldman import sample_element
from goldmankit.octonions import unit_matrices

FIRST = obs.ObservableSpec.make(1, 1, 0, 0, 1, [[1]], [])
ROW_K = obs.ObservableSpec.make(1, 2, 0, 0, 1, [[1, 1]], [])
THIRD = obs.ObservableSpec.make(2, 2, 0, 1, 2, [[1, 0], [0, 1]], [[1, 0], [0, 1]])


def test_worked_example_specs_validate():
    assert obs.validate_spec(FIRST) == []
    assert obs.validate_spec(ROW_K) == []
    assert obs.validate_spec(THIRD) == []


def test_zero_column_reported_with_index():
    bad = obs.ObservableSpec.make(2, 2, 0, 0, 2, [[1, 0], [0, 0]], [])
    errors = obs.validate_spec(bad)
    assert any("column 2 of K has 0 ones" in e for e in errors)


def test_parameter_violations():
    bad = obs.ObservableSpec.make(3, 2, 0, 0, 1, [[1, 1]], [])
    assert any("r=3 exceeds n1=2" in e for e in obs.validate_spec(bad))
    bad_t = obs.ObservableSpec.make(1, 1, 0, 0, 4, [[1], [0], [0], [0]], [])
    assert any("t=4 exceeds" in e for e in obs.validate_spec(bad_t))


def test_degenerate_parameters_accepted():
    # n2 = 0 means empty Q; r = n1 means no alpha factors; s = n2 no betas
    spec = obs.ObservableSpec.make(1, 1, 1, 1, 2, [[1], [0]], [[1], [1]])
    assert obs.validate_spec(spec) == []
    inst = obs.random_instance(spec, seed=2)
    assert inst.alphas == () and inst.betas == ()


def test_make_accepts_lists_tuples_and_arrays():
    for k, q in (([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
                 (((1, 0), (0, 1)), ((1, 0), (0, 1))),
                 (np.eye(2, dtype=int), np.eye(2, dtype=int))):
        assert obs.ObservableSpec.make(2, 2, 0, 1, 2, k, q) == THIRD
    empty = obs.ObservableSpec.make(1, 1, 0, 0, 2, [[1], [0]], np.zeros((2, 0), int))
    assert empty.Q == ((), ()) == obs.ObservableSpec.make(1, 1, 0, 0, 2, [[1], [0]], []).Q


def test_shape_violations_reported():
    short = obs.ObservableSpec.make(2, 2, 0, 0, 2, [[1, 1]], [])
    assert obs.validate_spec(short) == ["K has shape (1, 2), expected (2, 2)"]
    ragged = obs.ObservableSpec(2, 2, 0, 1, 2, ((1, 0), (0, 1)), ((1, 0), (1,)))
    assert obs.validate_spec(ragged) == ["Q has shape (2, [1, 2]), expected (2, 2)"]


def test_enumerate_refuses_bad_parameters():
    with pytest.raises(ValueError, match="invalid parameters: r=3 exceeds n1=2$"):
        obs.enumerate_specs(3, 2, 0, 0, 1)


def test_enumerate_refuses_more_specs_than_the_budget(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(obs.ObservableSpec, "from_columns",
                  classmethod(lambda *a: pytest.fail("built a spec before refusing")))
        with pytest.raises(ValueError, match=r"give 8916100448256 specs, over the budget of 100000"):
            obs.enumerate_specs(0, 12, 0, 0, 12)  # exotic enumerate --n1 12 --t 12
    monkeypatch.setattr(obs, "_SPEC_BUDGET", 27)
    assert len(obs.enumerate_specs(0, 3, 0, 0, 3)) == 27  # at the budget
    with pytest.raises(ValueError, match="give 81 specs, over the budget of 27"):
        obs.enumerate_specs(0, 4, 0, 0, 3)


def test_enumerate_forced_cases():
    only = obs.enumerate_specs(1, 1, 0, 0, 1)
    assert len(only) == 1 and only[0] == FIRST
    row = obs.enumerate_specs(1, 2, 0, 0, 1)
    assert len(row) == 1 and row[0] == ROW_K


def test_enumerate_contains_identity_wiring():
    specs = obs.enumerate_specs(2, 2, 0, 1, 2)
    assert len(specs) == 16  # 2^2 K choices x 2^2 Q choices
    assert THIRD in specs


@settings(max_examples=40, deadline=None)
@given(
    n1=st.integers(0, 3), n2=st.integers(0, 2), t=st.integers(1, 3),
    r_frac=st.integers(0, 3), s_frac=st.integers(0, 2),
)
def test_enumerate_count_matches_closed_form(n1, n2, t, r_frac, s_frac):
    r = min(r_frac, n1)
    s = min(s_frac, n2)
    if t > n1 + 2 * n2:
        return
    expected = obs.spec_count(r, n1, s, n2, t)
    if expected > 2000:
        return
    assert len(obs.enumerate_specs(r, n1, s, n2, t)) == expected


def test_index_layout_third_example():
    simple, words, alphas, betas = obs.index_layout(THIRD)
    assert simple == [0, 1]
    assert words == [(0, 2), (1, 3)]
    assert alphas == [] and betas == [(2, 3)]


def test_evaluate_identity_monodromies_is_zero():
    # sum_i tr(O_i)^2 = 0 since every operator is traceless
    inst = obs.ObservableInstance(FIRST, (np.eye(7), np.eye(7)), (), ())
    assert obs.evaluate(inst) == 0.0
    assert obs.evaluate_brute(inst) == 0.0


def test_first_example_inverse_pair_oracle():
    m = sample_element("g2", 1, seed=41).matrix
    inst = obs.ObservableInstance(FIRST, (m, np.linalg.inv(m)), (), ())
    o = unit_matrices()
    oracle = sum(
        np.trace(m @ o[i]) * np.trace(np.linalg.inv(m) @ o[i]) for i in range(7)
    )
    assert abs(obs.evaluate(inst) - oracle) < 1e-12
    assert abs(obs.evaluate_brute(inst) - oracle) < 1e-12


def test_third_example_quadruple_loop_oracle():
    inst = obs.random_instance(THIRD, seed=7)
    m = inst.monodromies
    beta = inst.betas[0]
    o = unit_matrices()
    total = 0.0
    for i in range(7):
        for j in range(7):
            for l in range(7):
                for k in range(7):
                    total += (
                        np.trace(m[2] @ o[i] @ o[l]) * np.trace(m[3] @ o[j] @ o[k])
                        * np.trace(m[0] @ o[i]) * np.trace(m[1] @ o[j]) * beta[l, k]
                    )
    value = obs.evaluate(inst)
    assert abs(value - total) < 1e-9 * max(1.0, abs(total))
    assert abs(obs.evaluate_brute(inst) - total) < 1e-9 * max(1.0, abs(total))


def test_multilinearity_in_each_slot():
    inst = obs.random_instance(THIRD, seed=9)
    base = obs.evaluate(inst)
    for slot in range(inst.spec.n_loops):
        monos = list(inst.monodromies)
        monos[slot] = 2.5 * monos[slot]
        scaled = obs.ObservableInstance(inst.spec, tuple(monos), inst.alphas, inst.betas)
        assert abs(obs.evaluate(scaled) - 2.5 * base) < 1e-9 * max(1.0, abs(base))


def test_brute_budget_refusal():
    spec = obs.ObservableSpec.make(0, 3, 0, 1, 1, [[1, 1, 1]], [[1, 1]])
    assert obs.validate_spec(spec) == []
    inst = obs.random_instance(spec, seed=1)
    assert spec.n_indices == 8
    with pytest.raises(ValueError, match="7\\^8"):
        obs.evaluate_brute(inst)
    obs.evaluate(inst)  # factorized engine handles it


def test_contract_takes_more_ids_than_einsum_labels(monkeypatch):
    # 53 ids, each on a pair tr(M_j O_i) tr(N_j O_i): the product of 53 sums
    mats = [sample_element("g2", 1, seed=200 + k).matrix for k in range(106)]
    o = unit_matrices()
    reference = np.prod([sum(np.trace(m @ o[i]) * np.trace(n @ o[i]) for i in range(7))
                         for m, n in zip(mats[:53], mats[53:])])
    monkeypatch.setattr(obs, "word_trace_table", lambda *a: pytest.fail("table built"))
    value = obs.contract([(m, (j,)) for j, m in enumerate(mats[:53])]
                         + [(n, (j,)) for j, n in enumerate(mats[53:])], [])
    assert abs(value - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("second, order", [(None, (0, 1, 2, 3, 4, 5)), (7, (2, 0, 5, 1, 4, 3))])
def test_contract_contracts_long_rings_alone_when_bond_labels_overflow(second, order, monkeypatch):
    # 46 chain ids, 6 word ids and the two rings' 14 bond labels: 66 labels
    # in one network.  The second word, on the same ids in the given order,
    # is traced with I or with a sampled element.
    m = sample_element("g2", 1, seed=5).matrix
    n = np.eye(7) if second is None else sample_element("g2", 1, seed=second).matrix
    chain = [(sample_element("g2", 1, seed=100 + k).matrix, k, k + 1) for k in range(45)]
    word = tuple(100 + k for k in range(6))
    ends = np.ones(7) @ np.linalg.multi_dot([c for c, _, _ in chain]) @ np.ones(7)
    reference = ends * np.einsum(obs.word_trace_table(m, 6), range(6),
                                 obs.word_trace_table(n, 6), order)
    monkeypatch.setattr(obs, "word_trace_table", lambda *a: pytest.fail("table built"))
    value = obs.contract([(m, word), (n, tuple(word[k] for k in order))], chain)
    assert abs(value - reference) <= 1e-12 * abs(reference)


def test_contract_takes_a_26_letter_ring():
    # a ring on distinct ids sums each letter on its own: tr(M (sum_i O_i)^k)
    m = sample_element("g2", 1, seed=11).matrix
    for length in (25, 26):
        power = np.linalg.matrix_power(unit_matrices().sum(axis=0), length)
        assert obs.contract([(m, tuple(range(length)))], []) == pytest.approx(
            np.trace(m @ power), rel=1e-12)


def _traces_by_matrix_products(m, length):
    """tr(M O_i1 ... O_ik) for every index tuple, by stacked 7x7 matrix products."""
    prod = m
    for _ in range(length):
        prod = prod[..., None, :, :] @ unit_matrices()
    return np.trace(prod, axis1=-2, axis2=-1)


SCRAMBLED = [(2, 0, 5, 1, 4, 3), (2, 0, 7, 1, 5, 3, 6, 4), (2, 0, 9, 1, 7, 3, 8, 5, 6, 4)]


@pytest.mark.parametrize("order", SCRAMBLED, ids=lambda order: f"length{len(order)}")
def test_contract_takes_two_traces_of_one_word_in_a_scrambled_order(order):
    # numpy's greedy path left these in one einsum over every label: the
    # 6-letter pair never finished, and the longer ones raised
    m = sample_element("g2", 1, seed=14).matrix
    n = sample_element("g2", 1, seed=15).matrix
    value = obs.contract([(m, tuple(range(len(order)))), (n, order)], [])
    assert np.isfinite(value)
    if len(order) == 6:
        reference = np.einsum(_traces_by_matrix_products(m, 6), range(6),
                              _traces_by_matrix_products(n, 6), order)
        assert abs(value - reference) <= 1e-12 * abs(reference)


def test_contract_reduces_a_lone_coefficient():
    c = sample_element("g2", 1, seed=16).matrix
    stack = np.stack([c, sample_element("g2", 1, seed=17).matrix, np.eye(7)])
    for mat in (c, stack):
        total, trace = obs.contract([], [(mat, 0, 1)]), obs.contract([], [(mat, 0, 0)])
        assert np.shape(total) == np.shape(trace) == mat.shape[:-2]
        assert np.allclose(total, mat.sum(axis=(-2, -1)), rtol=1e-14, atol=0)
        assert np.allclose(trace, np.trace(mat, axis1=-2, axis2=-1), rtol=1e-14, atol=0)


def _forbid(monkeypatch, *names):
    """Make np.einsum and each named function of ``observables`` fail the test."""
    for name in names:
        monkeypatch.setattr(obs, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    monkeypatch.setattr(np, "einsum", lambda *a, **k: pytest.fail("einsum called"))


def test_contract_refuses_more_operands_than_the_budget_before_planning(monkeypatch):
    # 64 ids, each on two traces tr(M O_j): 256 operands, at the budget
    m = sample_element("g2", 1, seed=18).matrix
    pairs = [(m, (j,)) for j in range(obs._OPERAND_BUDGET // 4) for _ in range(2)]
    square = sum(np.trace(m @ o) ** 2 for o in unit_matrices())
    assert obs.contract(pairs, []) == pytest.approx(square ** (obs._OPERAND_BUDGET // 4), rel=1e-12)
    _forbid(monkeypatch, "_plan", "_run")
    with pytest.raises(ValueError, match="^the contraction has 257 operands, over the budget "
                                         "of 256$"):
        obs.contract(pairs + [(m, ())], [(m, 0, 0)])


def test_contract_refuses_more_multiply_adds_than_the_budget_before_any_einsum(monkeypatch):
    word, order = tuple(range(10)), SCRAMBLED[2]
    _, cost = obs._plan((word, order), ())
    rows = obs._MULTIPLY_ADD_BUDGET // cost  # one more row is over the budget
    stack = np.broadcast_to(np.eye(7), (rows + 1, 7, 7))
    _forbid(monkeypatch, "_run")
    message = f"the contraction needs {cost:.3g} multiply-adds x {rows + 1} rows, over the budget"
    with pytest.raises(ValueError, match=re.escape(message + " of 1e+09")):
        obs.contract([(stack, word), (np.eye(7), order)], [])
    # two rings of 127 letters, one scrambled: 256 operands, planned up to
    # a step over more than einsum's 52 labels
    scrambled = tuple(np.random.default_rng(0).permutation(127).tolist())
    assert len(obs._plan((tuple(range(127)), scrambled), ())[0]) < 255
    with pytest.raises(ValueError, match=r"multiply-adds x 1 rows, over the budget"):
        obs.contract([(np.eye(7), tuple(range(127))), (np.eye(7), scrambled)], [])


def test_plan_cache_hits_on_a_renamed_copy():
    inst = obs.random_instance(THIRD, seed=3)
    traces, coeffs = obs._factors(inst.spec, inst.monodromies + inst.alphas + inst.betas)
    rename = {0: 9, 1: 4, 2: 7, 3: 1}  # out of the ids' numeric order
    renamed = [(mat, tuple(rename[i] for i in word)) for mat, word in traces]
    renamed_coeffs = [(mat, rename[row], rename[col]) for mat, row, col in coeffs]
    obs._plan.cache_clear()
    value = obs.contract(traces, coeffs)
    assert obs._plan.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert obs.contract(renamed, renamed_coeffs) == value
    assert obs._plan.cache_info()[:2] == (1, 1)


def test_stacked_and_single_contraction_share_one_plan():
    inst = obs.random_instance(THIRD, seed=3)
    stack = np.stack([np.eye(7), sample_element("g2", 1, seed=4).matrix])
    obs._plan.cache_clear()
    single = obs.evaluate(inst)
    rows = obs.evaluate(inst.conjugated(stack))
    assert obs._plan.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert isinstance(single, float) and rows.shape == (2,)
    assert abs(rows[0] - single) <= 1e-14 * max(1.0, abs(single))


def test_conjugated_stack_rows_equal_single_conjugations():
    inst = obs.random_instance(THIRD, seed=5)
    stack = np.stack([sample_element("g2", 1, seed=6 + b).matrix for b in range(3)])
    moved = inst.conjugated(stack)
    for b in range(3):
        single = inst.conjugated(stack[b])
        for x, y in zip(moved.monodromies + moved.alphas + moved.betas,
                        single.monodromies + single.alphas + single.betas):
            assert np.array_equal(x[b], y)


def test_contract_stacks_rings_contracted_alone(monkeypatch):
    # 46 chain ids and two 6-letter rings, 66 labels in one network, on a
    # stack of three matrices per word
    stack = lambda seed: np.stack([sample_element("g2", 1, seed=seed + b).matrix for b in range(3)])
    m, n = stack(5), stack(8)
    chain = [(sample_element("g2", 1, seed=100 + k).matrix, k, k + 1) for k in range(45)]
    word = tuple(100 + k for k in range(6))
    traces = lambda rows: [(m[rows], word), (n[rows], word[::-1])]
    monkeypatch.setattr(obs, "word_trace_table", lambda *a: pytest.fail("table built"))
    values = obs.contract(traces(slice(None)), chain)
    assert values.shape == (3,)
    for b in range(3):
        single = obs.contract(traces(b), chain)
        assert abs(values[b] - single) <= 1e-14 * max(1.0, abs(single))
    assert np.array_equal(obs.contract(traces(slice(0, 2)), chain), values[:2])


def test_plan_cache_is_bounded():
    obs._plan.cache_clear()
    size = obs._plan.cache_info().maxsize
    assert size == obs._PLAN_CACHE_SIZE
    structures = [((), ((i, j),)) for i in range(40) for j in range(40)][: size + 8]
    for structure in structures:
        obs._plan(*structure)
    info = obs._plan.cache_info()
    assert info.misses == size + 8 and info.currsize == size
    obs._plan.cache_clear()


def _paired_word_oracle(inst):
    """One word trace summed by explicit 7x7 matrix products, without einsum.

    Every beta pairs two letters of the word: the loop runs over the first
    id of each pair, the second letter being sum_v beta[x, v] O_v.  Every
    alpha joins a simple trace to a letter, which weighs that letter's id.
    So a length-k word costs 7^(k/2) products.
    """
    o = unit_matrices()
    spec = inst.spec
    simple, (word,), alphas, betas = obs.index_layout(spec)
    weight = {}
    for j, ((row, col), alpha) in enumerate(zip(alphas, inst.alphas)):
        assert row == simple[j]
        traces = [np.trace(inst.monodromies[j] @ o[u]) for u in range(7)]
        weight[col] = [sum(traces[u] * alpha[u, v] for u in range(7)) for v in range(7)]
    partner = {}
    for (row, col), beta in zip(betas, inst.betas):
        partner[col] = (row, [sum(beta[x, v] * o[v] for v in range(7)) for x in range(7)])
    free = [i for i in word if i not in partner]
    assert len(free) + len(partner) == len(word) == spec.n_indices - spec.n1
    total = 0.0
    for values in itertools.product(range(7), repeat=len(free)):
        x = dict(zip(free, values))
        prod = inst.monodromies[spec.n1]
        for i in word:
            prod = prod @ (partner[i][1][x[partner[i][0]]] if i in partner else o[x[i]])
        term = np.trace(prod)
        for i, w in weight.items():
            term *= w[x[i]]
        total += term
    return total


LONG_WORDS = [
    obs.ObservableSpec.make(0, 1, 0, 4, 1, [[1]], [[1] * 8]),  # length 9
    obs.ObservableSpec.make(0, 0, 0, 5, 1, [[]], [[1] * 10]),  # length 10
]


@pytest.mark.parametrize("spec", LONG_WORDS, ids=["length9", "length10"])
def test_long_words_match_an_explicit_loop(spec):
    assert obs.validate_spec(spec) == []
    inst = obs.random_instance(spec, seed=41)
    value = obs.evaluate(inst)
    assert abs(value - _paired_word_oracle(inst)) <= 1e-12 * max(1.0, abs(value))
    report = obs.invariance_test(inst, trials=5, seed=43)
    assert report.passed and report.max_rel_err < 1e-8


def _plan_keys(monkeypatch, run):
    """The distinct ``_plan`` keys that ``run()`` asks for, in first-asked order."""
    keys, plan = [], obs._plan
    monkeypatch.setattr(obs, "_plan", lambda *key: keys.append(key) or plan(*key))
    run()
    monkeypatch.undo()
    return list(dict.fromkeys(keys))


def _largest(steps) -> int:
    """Entries of a plan's largest intermediate, per network."""
    return max(7 ** len(subscripts.split("->")[1].replace("...", "")) for _, subscripts in steps)


def test_a_length_10_word_holds_at_most_343_entries(monkeypatch):
    inst = obs.random_instance(LONG_WORDS[1], seed=41)
    (key,) = _plan_keys(monkeypatch, lambda: obs.evaluate(inst))
    assert _largest(obs._plan(*key)[0]) == 343


def _numpy_greedy(rings, plain):
    """(multiply-adds, largest intermediate) of numpy's greedy path for a ``_plan`` key."""
    operands, free = [], 1 + max((x for labels in rings + plain for x in labels), default=-1)
    for word in rings:  # the ring layout of ``_plan``
        bond = [free + j for j in range(len(word) + 1)] + [free]
        operands.append((bond[0], bond[1]))
        operands += [(i, bond[j], bond[j + 1]) for j, i in enumerate(word, 1)]
        free += len(word) + 1
    operands += plain
    args = [x for labels in operands for x in (np.broadcast_to(0.0, (7,) * len(labels)), labels)]
    path = np.einsum_path(*args, (), optimize="greedy")[0][1:]
    sets, cost, largest = [set(labels) for labels in operands], 0, 0
    for positions in path:
        taken = [sets.pop(p) for p in sorted(positions, reverse=True)]
        union = set().union(*taken)
        sets.append(union & set().union(*sets))
        cost, largest = cost + 7 ** len(union), max(largest, 7 ** len(sets[-1]))
    return cost, largest


def _criterion9_closures():
    from goldmankit import symbolic as sym

    canon = sym.parse_expr("tr(z)")
    for k, spec in enumerate(_specs(3)):
        sym.closure_check(sym.bracket(canon, sym.build_f_expression(spec)),
                          seed=5_000 + k, gauge_trials=2)


def _f_by_f_evaluations():
    """Evaluate every monomial, recognized or not, of F x G on disjoint names for every
    third of the 23 specs with n1 + 2 n2 <= 2: 64 of the F x F sweep's 529 brackets."""
    from goldmankit import symbolic as sym

    fs = [sym.build_f_expression(spec) for spec in _specs(2)[::3]]
    for f in fs:
        for g in fs:
            expr = sym.bracket(f, _prefixed(g, "R"))
            env = sym.instantiate(expr)
            for m in expr.monomials:
                sym.evaluate_monomial(m, env)


# the acceptance universe of exotic specs, then the benchmark's longer words
SPEC_TUPLES = sorted({(r, n1, s, n2, t) for n1, n2 in ((1, 0), (2, 0), (0, 1))
                      for r in range(n1 + 1) for s in range(n2 + 1)
                      for t in range(1, n1 + 2 * n2 + 1)}
                     | {(1, 2, 0, 0, 1), (2, 2, 0, 1, 2), (0, 3, 0, 0, 1), (0, 2, 0, 1, 1)})
SPEC_TUPLES += [(1, 1, 0, 2, 1), (0, 1, 0, 2, 1), (0, 0, 0, 3, 1)]


def test_plans_are_no_worse_than_numpy_greedy_path(monkeypatch):
    keys = _plan_keys(monkeypatch, _criterion9_closures)
    assert len(keys) == 523
    keys += _plan_keys(monkeypatch, lambda: [
        obs.evaluate(obs.random_instance(spec)) for tup in SPEC_TUPLES
        for spec in obs.enumerate_specs(*tup)])
    f_by_f = _plan_keys(monkeypatch, _f_by_f_evaluations)
    assert len(f_by_f) == 567
    keys += f_by_f
    keys += [(((0,),) * 6, ()), (((0, 1), (0, 2), (0,)), ((1, 2),))]  # ids held three times
    for key in keys:
        steps, cost = obs._plan(*key)
        numpy_cost, numpy_largest = _numpy_greedy(*key)
        assert cost <= numpy_cost and _largest(steps) <= numpy_largest, key


@pytest.mark.parametrize("key", [
    (((0,) * (obs._OPERAND_BUDGET - 1),), ()),  # one id held by every letter
    ((), tuple((2 * j, 2 * j + 1) for j in range(obs._OPERAND_BUDGET))),  # all disjoint
], ids=["one-id", "disjoint"])
def test_the_largest_admitted_network_plans_within_a_second(key):
    obs._plan.cache_clear()
    start = time.perf_counter()
    steps, _ = obs._plan(*key)
    assert time.perf_counter() - start < 1.0
    assert len(steps) == obs._OPERAND_BUDGET - 1


@pytest.mark.parametrize("spec", [FIRST, ROW_K, THIRD])
def test_brute_matches_factorized(spec):
    inst = obs.random_instance(spec, seed=13)
    a = obs.evaluate(inst)
    b = obs.evaluate_brute(inst)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def _letter_chain(m, length):
    """tr(M O_i1 ... O_ik) as a (..., 7, ..., 7) array, one letter at a time onto M."""
    x = np.asarray(m)
    for _ in range(length):
        x = np.einsum("...ab,ibc->...iac", x, unit_matrices())
    return np.einsum("...aa->...", x)


@pytest.mark.parametrize("length", range(7))
def test_word_trace_table_equals_the_letter_chain(length):
    stack = np.stack([sample_element("g2", 1, seed=60 + k).matrix for k in range(3)])
    for m in (stack[0], stack):
        table = obs.word_trace_table(m, length)
        assert table.shape == m.shape[:-2] + (7,) * length
        np.testing.assert_allclose(table, _letter_chain(m, length), rtol=0, atol=1e-13)


def test_word_trace_table_holds_no_7_to_the_k_by_49_array():
    # split in two halves of 7^3 words each; the letter chain peaks near 53 MB at length 6
    m = sample_element("g2", 1, seed=3).matrix
    obs.word_trace_table(m, 6)
    tracemalloc.start()
    try:
        obs.word_trace_table(m, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_brute_takes_a_word_with_a_repeated_index(monkeypatch):
    # no valid spec repeats an index within one word, so THIRD's first word
    # (0, 2) becomes (0, 2, 0): index 0 then sits in three places, twice in one table
    layout = obs.index_layout

    def repeated(spec):
        simple, words, alphas, betas = layout(spec)
        return simple, [words[0] + words[0][:1], *words[1:]], alphas, betas

    inst = obs.random_instance(THIRD, seed=29)
    monkeypatch.setattr(obs, "index_layout", repeated)
    a, b = obs.evaluate(inst), obs.evaluate_brute(inst)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
    monkeypatch.undo()
    assert abs(obs.evaluate(inst) - a) > 1e-3 * max(1.0, abs(a))  # the repeat changed the sum


@pytest.mark.parametrize("spec", [FIRST, THIRD])
def test_invariance(spec):
    inst = obs.random_instance(spec, seed=17)
    report = obs.invariance_test(inst, trials=20, seed=19)
    assert report.passed
    assert report.max_rel_err < 1e-8
    assert report.params["negative_control"] > 1e-3


def test_invariance_exact_for_identity_gauge():
    inst = obs.random_instance(FIRST, seed=23)
    base = obs.evaluate(inst)
    assert obs.evaluate(inst.conjugated(np.eye(7))) == base


def test_invariance_does_not_depend_on_the_gauge_chunk(monkeypatch):
    inst = obs.random_instance(THIRD, seed=7)
    body = obs.invariance_test(inst, trials=70, seed=8).body()
    assert obs._GAUGE_CHUNK < 70  # the default splits 70 trials too
    monkeypatch.setattr(obs, "_GAUGE_CHUNK", 1)
    assert obs.invariance_test(inst, trials=70, seed=8).body() == body


def test_invariance_draws_all_gauges_in_one_call(monkeypatch):
    inst = obs.random_instance(THIRD, seed=7)
    calls, draw = [], obs.sample_substreams
    monkeypatch.setattr(obs, "sample_substreams", lambda *a: calls.append(a[3]) or draw(*a))
    obs.invariance_test(inst, trials=70, seed=8)
    assert calls == [[((1,), 70)]]


def test_invariance_fails_when_no_gauge_moves_the_control(monkeypatch):
    # identity gauges leave the value exactly invariant, but they cannot show
    # that a single tr(M O_i) term moves, so the report must fail
    inst = obs.random_instance(FIRST, seed=23)
    monkeypatch.setattr(obs, "sample_substreams", lambda family, n, seed, streams: (
        np.broadcast_to(np.eye(7), (sum(rows for _, rows in streams), 7, 7)), None, 0))
    report = obs.invariance_test(inst, trials=4, seed=19)
    assert not report.passed
    assert report.params["negative_control"] == 0.0
    assert report.max_rel_err == 0.0


@pytest.mark.parametrize("trials", [0, -3])
def test_invariance_refuses_fewer_than_one_trial(trials):
    inst = obs.random_instance(FIRST, seed=23)
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        obs.invariance_test(inst, trials=trials)


def test_fixed_coefficients_are_not_invariant():
    # conjugating monodromies while HOLDING alpha fixed must move the value:
    # invariance is only claimed under simultaneous conjugation
    spec = obs.ObservableSpec.make(1, 2, 0, 0, 1, [[1, 1]], [])
    inst = obs.random_instance(spec, seed=29)
    g = sample_element("g2", 1, seed=31).matrix
    conj = inst.conjugated(g)
    frozen = obs.ObservableInstance(spec, conj.monodromies, inst.alphas, inst.betas)
    assert abs(obs.evaluate(frozen) - obs.evaluate(inst)) > 1e-4


def test_invariance_grid_small_families():
    # every enumerated spec with n1 + 2*n2 <= 2, 20 gauge transforms each
    tuples = []
    for n1, n2 in ((1, 0), (2, 0), (0, 1)):
        for r in range(n1 + 1):
            for s in range(n2 + 1):
                tuples += [(r, n1, s, n2, t) for t in range(1, n1 + 2 * n2 + 1)]
    checked = 0
    for tup in tuples:
        for j, spec in enumerate(obs.enumerate_specs(*tup)):
            inst = obs.random_instance(spec, seed=100 + j)
            report = obs.invariance_test(inst, trials=20, seed=200 + j)
            assert report.max_rel_err < 1e-8, (tup, j)
            checked += 1
    assert checked >= 20


def test_spec_json_roundtrip():
    obj = obs.spec_to_json_dict(THIRD)
    assert obs.spec_from_json_dict(json.loads(json.dumps(obj))) == THIRD


def test_spec_json_field_paths():
    with pytest.raises(obs.SpecJsonError, match=r"\$\.t"):
        obs.spec_from_json_dict({"r": 1, "n1": 1, "s": 0, "n2": 0})
    with pytest.raises(obs.SpecJsonError, match=r"\$\.K\[0\]\[0\]"):
        obs.spec_from_json_dict(
            {"r": 1, "n1": 1, "s": 0, "n2": 0, "t": 1, "K": [[2]], "Q": []}
        )


def test_instance_json():
    inst = obs.random_instance(FIRST, seed=3)
    obj = obs.spec_to_json_dict(FIRST)
    obj["monodromies"] = [m.ravel().tolist() for m in inst.monodromies]
    obj["alphas"] = []
    obj["betas"] = []
    loaded = obs.instance_from_json_dict(obj)
    assert abs(obs.evaluate(loaded) - obs.evaluate(inst)) < 1e-12


@pytest.mark.parametrize("entry", [None, float("nan"), float("inf"), float("-inf")])
def test_instance_json_refuses_a_non_finite_entry(entry):
    obj = dict(obs.spec_to_json_dict(FIRST), alphas=[], betas=[])
    obj["monodromies"] = [[0.0] * 49, [0.0] * 48 + [entry]]
    with pytest.raises(obs.SpecJsonError, match=r"^\$\.monodromies\[1\]: expected 49 finite"):
        obs.instance_from_json_dict(json.loads(json.dumps(obj)))
