"""Exotic observables: validation, enumeration, both evaluators, invariance."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_contract_refuses_more_ids_than_einsum_labels(monkeypatch):
    chain = [(np.eye(7), k, k + 1) for k in range(52)]  # ids 0..52
    assert obs.contract([], chain[:51]) == pytest.approx(7.0)  # 52 ids still run
    monkeypatch.setattr(obs, "word_trace_table", lambda *a: pytest.fail("table built"))
    with pytest.raises(ValueError, match="^53 summed indices exceed einsum's 52 index labels$"):
        obs.contract([(np.eye(7), (0, 1, 2))], chain)


@pytest.mark.parametrize("spec", [FIRST, ROW_K, THIRD])
def test_brute_matches_factorized(spec):
    inst = obs.random_instance(spec, seed=13)
    a = obs.evaluate(inst)
    b = obs.evaluate_brute(inst)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


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


@pytest.mark.parametrize("trials", [0, -3])
def test_invariance_refuses_fewer_than_one_trial(trials):
    inst = obs.random_instance(FIRST, seed=23)
    with pytest.raises(ValueError, match="trials must be >= 1"):
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
