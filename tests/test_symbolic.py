"""Symbolic engine: parser, bracket rules, normalization, signatures, closure."""

from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from signature_oracle import recognize_by_search

from goldmankit import symbolic as sym
from goldmankit.bases import Family
from goldmankit.goldman import sample_element
from goldmankit.observables import ObservableSpec, enumerate_specs
from goldmankit.symbolic import closure, signature
from goldmankit.symbolic.core import CoeffAtom, Composite, Loop, Monomial, TraceAtom


# ---------------------------------------------------------------- parser ----

def test_parse_single_atom():
    e = sym.parse_expr("tr(a)")
    assert len(e.monomials) == 1
    (m,) = e.monomials
    assert m.coeff == 1 and m.traces == (TraceAtom(Loop("a")),)


def test_parse_first_observable():
    e = sym.parse_expr("sum i: tr(a; O i) * tr(b; O i)")
    (m,) = e.monomials
    assert len(m.traces) == 2
    assert m.traces[0].word == m.traces[1].word


def test_parse_composites():
    e = sym.parse_expr("tr(a.~b)")
    (m,) = e.monomials
    loop = m.traces[0].loop
    assert isinstance(loop, Composite) and loop.invert_right
    nested = sym.parse_expr("tr((a.b).c)").monomials[0].traces[0].loop
    assert str(nested) == "((a.b).c)"


def test_parse_rationals_and_sums():
    e = sym.normalize(sym.parse_expr("1/2 tr(a) + 1/2 tr(a)"))
    (m,) = e.monomials
    assert m.coeff == 1


def test_parse_multi_letter_word():
    e = sym.parse_expr("sum i j: tr(a; O i O j)")
    assert e.monomials[0].traces[0].word == (0, 1)


def test_parse_unbound_index_positioned():
    with pytest.raises(sym.ParseError, match="unbound index 'k'") as err:
        sym.parse_expr("sum i: tr(a; O i) * tr(b; O k)")
    assert "offset" in str(err.value)


def test_parse_malformed_rational():
    with pytest.raises(sym.ParseError, match="zero denominator"):
        sym.parse_expr("1/0 tr(a)")


def test_parse_trailing_garbage():
    with pytest.raises(sym.ParseError, match="trailing"):
        sym.parse_expr("tr(a) tr(b)")


# ------------------------------------------------------------- normalize ----

def test_normalize_merges_up_to_renaming():
    a = sym.parse_expr("1/2 sum i: tr(a; O i) * tr(b; O i)")
    b = sym.parse_expr("1/2 sum j: tr(b; O j) * tr(a; O j)")
    merged = sym.normalize(a + b)
    assert len(merged.monomials) == 1
    assert merged.monomials[0].coeff == 1


def test_normalize_drops_zero():
    e = sym.parse_expr("1/2 tr(a) - 1/2 tr(a)")
    assert sym.normalize(e).monomials == ()


def test_fresh_index_hygiene():
    expr = sym.bracket(
        sym.parse_expr("sum i: tr(a; O i) * tr(b; O i)"),
        sym.parse_expr("sum j: tr(c; O j) * tr(d; O j)"),
    )
    seen = set()
    for m in expr.monomials:
        ids = m.indices()
        assert not (ids & seen)
        seen |= ids


# ----------------------------------------------------------------- rules ----

def test_plain_bracket_three_terms():
    e = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    assert len(e.monomials) == 3
    coeffs = sorted(m.coeff for m in e.monomials)
    assert coeffs == [Fraction(-1, 2), Fraction(1, 6), Fraction(1, 2)]
    loops = {str(m.traces[0].loop) for m in e.monomials if len(m.traces) == 1}
    assert loops == {"(a.b)", "(a.~b)"}


def test_bracket_antisymmetry_on_equal_arguments():
    x = sym.parse_expr("sum i: tr(a; O i) * tr(b; O i)")
    assert sym.bracket(x, x).monomials == ()


def test_bracket_bilinear():
    x = sym.parse_expr("tr(a)")
    y = sym.parse_expr("tr(b)")
    z = sym.parse_expr("tr(c)")
    both = sym.bracket(x + y, z)
    split = sym.normalize(sym.bracket(x, z) + sym.bracket(y, z))
    assert sym.expressions_equal(both, split)


def test_bracket_leibniz_over_products():
    # {x*y, z} = {x,z}*y + x*{y,z} for trace monomials on distinct loops
    x = sym.parse_expr("tr(a)")
    y = sym.parse_expr("tr(b)")
    z = sym.parse_expr("tr(c)")
    lhs = sym.bracket(x * y, z)
    rhs = sym.normalize(
        sym.disjoint_product(sym.bracket(x, z), y)
        + sym.disjoint_product(x, sym.bracket(y, z))
    )
    assert sym.expressions_equal(lhs, rhs)


def test_bracket_rejects_shared_base_loops():
    with pytest.raises(sym.BracketError, match="share base loops"):
        sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(a.b)"))
    x = sym.parse_expr("sum i: tr(a; O i) * tr(b; O i)")
    with pytest.raises(sym.BracketError, match="share base loops"):
        sym.bracket(x, x * sym.parse_expr("tr(c)"))


def test_bracket_of_disjoint_operands_encodes_only_in_final_normalize(monkeypatch):
    import importlib

    from goldmankit.symbolic import core

    # the package exports the function ``bracket`` under the module's name
    bracket_mod = importlib.import_module("goldmankit.symbolic.bracket")

    calls = {"outside": 0, "inside": 0}
    in_normalize = []
    encode, normalize = core.canonical_encoding, bracket_mod.normalize

    def counting_encode(m):
        calls["inside" if in_normalize else "outside"] += 1
        return encode(m)

    def final_normalize(expr):
        in_normalize.append(True)
        try:
            return normalize(expr)
        finally:
            in_normalize.pop()

    product = sym.parse_expr(
        "sum i j k: tr(a; O i) * tr(b; O i) * tr(a; O j) * tr(b; O j) * tr(a; O k) * tr(b; O k)"
    )
    monkeypatch.setattr(core, "canonical_encoding", counting_encode)
    monkeypatch.setattr(bracket_mod, "normalize", final_normalize)
    result = sym.bracket(sym.parse_expr("tr(c)"), product)
    assert result.monomials
    assert calls["outside"] == 0 and calls["inside"] > 0


def test_plain_by_decorated_keeps_word_and_flips_no_sign():
    f = sym.parse_expr("sum i: tr(a; O i) * tr(b; O i)")
    e = sym.bracket(sym.parse_expr("tr(c)"), f)
    resolved = [m for m in e.monomials if len(m.traces) == 2]
    assert all(m.coeff == Fraction(1, 2) for m in resolved)
    assert len(resolved) == 4
    third = [m for m in e.monomials if len(m.traces) == 3]
    assert all(m.coeff == Fraction(1, 6) for m in third)
    for m in third:
        words = sorted(len(t.word) for t in m.traces)
        assert words == [1, 1, 2]
        assert len(m.coeffs) == 1


def test_extended_rule_flagged():
    lhs = sym.parse_expr("sum i j: tr(a; O i O j)")
    rhs = sym.parse_expr("sum k l: tr(b; O k O l)")
    e = sym.bracket(lhs, rhs)
    flags = sorted(m.extended for m in e.monomials)
    assert flags == [False, True, True]


# ------------------------------------------------------------ signatures ----

def test_signature_of_plain_bracket_third_term():
    e = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    third = next(m for m in e.monomials if len(m.traces) == 2)
    sig = sym.recognize(third)
    assert sig.valid
    f = sig.fspec
    assert (f.r, f.n1, f.s, f.n2, f.t) == (1, 1, 0, 0, 1)
    assert f.K == ((1,),)


def test_signature_canonical_terms():
    e = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    for m in e.monomials:
        if len(m.traces) == 1:
            sig = sym.recognize(m)
            assert sig.valid and sig.fspec is None
            assert sig.canonical_loops in (["(a.b)"], ["(a.~b)"])


def test_signature_worked_example_third_type():
    expr = sym.worked_example_bracket()
    quads = [m for m in expr.monomials if len(m.traces) == 4]
    assert len(quads) == 4
    for m in quads:
        sig = sym.recognize(m)
        assert sig.valid
        f = sig.fspec
        assert (f.r, f.n1, f.s, f.n2, f.t) == (2, 2, 0, 1, 2)
        assert f.K == ((1, 0), (0, 1))
        assert f.Q == ((1, 0), (0, 1))


def test_signature_first_summand_bookkeeping_reachable():
    spec = ObservableSpec.make(1, 1, 0, 0, 1, [[1]], [])
    f = sym.build_f_expression(spec, ["g1", "g2"])
    e = sym.bracket(sym.parse_expr("tr(c)"), f)
    thirds = [m for m in e.monomials if len(m.traces) == 3]
    assert len(thirds) == 2
    for m in thirds:
        sig = sym.recognize(m)
        assert sig.valid
        # the bookkeeping a bracket derivation produces for this term,
        # (r-1, n1, s+1, n2+1, t+1), is among the legal parameterizations
        assert (0, 1, 1, 1, 2) in sig.alternatives


def test_signature_rejects_dangling_index():
    dangling = Monomial(
        Fraction(1),
        (TraceAtom(Loop("a"), (0,)), TraceAtom(Loop("b"), (1,))),
        (),
    )
    sig = sym.recognize(dangling)
    assert not sig.valid
    assert "occurs 1 time" in sig.reason


def test_signature_rejects_coeff_only():
    m = Monomial(Fraction(1), (TraceAtom(Loop("a")),), (CoeffAtom("x", 0, 1),))
    assert not sym.recognize(m).valid


def _tied(pairs):
    """sum x0..: tr(a; O x0) * tr(b; O x0) * ... -- ``pairs`` decorated pairs."""
    names = " ".join(f"x{i}" for i in range(pairs))
    atoms = " * ".join(f"tr(a; O x{i}) * tr(b; O x{i})" for i in range(pairs))
    return sym.parse_expr(f"sum {names}: {atoms}")


def _sweep_specs():
    """The specs of the criterion-9 sweep: every spec with 0 < n1 + 2*n2 <= 3."""
    for n1 in range(4):
        for n2 in range(2):
            if 0 < n1 + 2 * n2 <= 3:
                for r in range(n1 + 1):
                    for s in range(n2 + 1):
                        for t in range(1, n1 + 2 * n2 + 1):
                            yield from enumerate_specs(r, n1, s, n2, t)


def test_recognize_equals_split_search_oracle():
    canon, tr_c = sym.parse_expr("tr(z)"), sym.parse_expr("tr(c)")
    corpus = []
    for spec in _sweep_specs():
        f = sym.build_f_expression(spec)
        corpus += f.monomials + sym.bracket(canon, f).monomials
    for pairs in (2, 3, 4):
        product = _tied(pairs)
        corpus += product.monomials + sym.bracket(tr_c, product).monomials
    corpus += sym.worked_example_bracket().monomials
    assert len(corpus) > 1000
    for m in corpus:
        assert sym.recognize(m) == recognize_by_search(m), str(m)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_recognize_equals_split_search_oracle_on_random_wiring(data):
    # each id fills two slots (one, when the slot count is odd); coefficient
    # ids may meet each other or their own atom, words may repeat an id
    lengths = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    n_coeffs = data.draw(st.integers(0, 3))
    slots = sum(lengths) + 2 * n_coeffs
    ids = iter(data.draw(st.permutations([k // 2 for k in range(slots)])))
    traces = tuple(
        TraceAtom(Loop(data.draw(st.sampled_from("abc"))), tuple(next(ids) for _ in range(n)))
        for n in lengths
    )
    coeffs = tuple(
        CoeffAtom(data.draw(st.sampled_from("xy")), next(ids), next(ids))
        for _ in range(n_coeffs)
    )
    m = Monomial(Fraction(1), traces, coeffs)
    assert sym.recognize(m) == recognize_by_search(m), str(m)


def test_recognize_builds_and_validates_one_spec(monkeypatch):
    counts = {"built": 0, "validated": 0}
    init, validate = ObservableSpec.__init__, signature.validate_spec

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            assert counts[key] == 1, f"more than one spec {key}"
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ObservableSpec, "__init__", counting("built", init))
    monkeypatch.setattr(signature, "validate_spec", counting("validated", validate))
    (m,) = _tied(8).monomials
    sig = sym.recognize(m)
    assert counts == {"built": 1, "validated": 1}
    f = sig.fspec
    assert (f.r, f.n1, f.s, f.n2, f.t) == (8, 8, 0, 0, 8)
    assert f.K == tuple(tuple(int(i == j) for j in range(8)) for i in range(8))
    assert sig.alternatives == [(8 - x, 8 - x, x, x, 8 + x) for x in range(9)]


# ---------------------------------------------------------------- closure ----

def test_closure_plain_bracket():
    e = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    result = sym.closure_check(e, seed=2)
    assert result.report.passed
    assert len(result.signatures) == 3
    assert all(s.valid for s in result.signatures)


def test_closure_fails_on_dangling_monomial():
    bad = sym.Expression((Monomial(
        Fraction(1), (TraceAtom(Loop("a"), (0,)), TraceAtom(Loop("b"), (1,))), ()
    ),))
    result = sym.closure_check(bad, seed=0)
    assert not result.report.passed
    assert result.failures and "unrecognized" in result.failures[0][1]


def test_closure_refuses_zero_gauge_trials():
    e = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    with pytest.raises(ValueError, match="gauge_trials"):
        sym.closure_check(e, seed=0, gauge_trials=0)


def test_batched_symbolic_draws_equal_single_draws(monkeypatch):
    # loops on substreams (10, k), symbols on (11, k), gauges on (12, k)
    e = sym.worked_example_bracket()
    env = sym.instantiate(e, seed=9, scale=0.5)
    single = lambda key, scale=1.0: sample_element(
        Family.G2, 1, np.random.SeedSequence(entropy=9, spawn_key=key), scale).matrix
    loops = sorted(name for kind, name in env if kind == "loop")
    syms = sorted(name for kind, name in env if kind == "sym")
    assert len(loops) == 4 and len(syms) == 12
    for k, name in enumerate(loops):
        assert np.array_equal(env[("loop", name)], single((10, k), 0.5))
    for k, name in enumerate(syms):
        assert np.array_equal(env[("sym", name)], single((11, k), 0.5))

    gauges = []
    conjugate = closure.conjugate_env
    monkeypatch.setattr(closure, "conjugate_env",
                        lambda env, g: gauges.append(g) or conjugate(env, g))
    sym.closure_check(e, seed=9, gauge_trials=3)
    assert len(gauges) == 3 * len(e.monomials)
    for k, g in enumerate(gauges[:3]):
        assert np.array_equal(g, single((12, k)))


def test_closure_canonical_times_first_observable():
    spec = ObservableSpec.make(1, 1, 0, 0, 1, [[1]], [])
    f = sym.build_f_expression(spec, ["g1", "g2"])
    e = sym.bracket(sym.parse_expr("tr(c)"), f)
    result = sym.closure_check(e, seed=5)
    assert result.report.passed
    assert result.report.max_rel_err < 1e-7


def test_symbolic_bracket_matches_numeric_identity():
    # evaluate {tr a, tr b} symbolically, then instantiate: the total must
    # match the closed-form right side computed directly from the matrices
    e = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    env = sym.instantiate(e, seed=8)
    total = sym.evaluate_expression(e, env)
    ma = env[("loop", "a")]
    mb = env[("loop", "b")]
    from goldmankit.octonions import unit_matrices

    o = unit_matrices()
    rhs = 0.5 * (
        np.trace(ma @ mb) - np.trace(ma @ np.linalg.inv(mb))
        + sum(np.trace(ma @ o[i]) * np.trace(mb @ o[i]) for i in range(7)) / 3.0
    )
    assert abs(total - rhs) < 1e-10


def test_worked_example_reproduction():
    diff = sym.reproduce_examples()
    assert diff.passed
    assert diff.term_count == 12
    assert diff.coeff_multiset == {"1/6": 4, "1/2": 8}


def test_build_f_expression_roundtrip():
    for spec in (
        ObservableSpec.make(1, 1, 0, 0, 1, [[1]], []),
        ObservableSpec.make(1, 2, 0, 0, 1, [[1, 1]], []),
        ObservableSpec.make(2, 2, 0, 1, 2, [[1, 0], [0, 1]], [[1, 0], [0, 1]]),
    ):
        f = sym.build_f_expression(spec)
        (m,) = f.monomials
        sig = sym.recognize(m)
        assert sig.valid
        tup = (sig.fspec.r, sig.fspec.n1, sig.fspec.s, sig.fspec.n2, sig.fspec.t)
        assert tup == (spec.r, spec.n1, spec.s, spec.n2, spec.t)


def test_expression_json():
    e = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    sigs = [sym.recognize(m).as_dict() for m in e.monomials]
    text = sym.to_json(e, sigs)
    assert '"coeff"' in text and '"signature"' in text


def test_normalize_and_recognize_pairs_signatures():
    raw = sym.parse_expr("1/2 tr(a) + 1/2 tr(a) + sum i: tr(b; O i) * tr(c; O i)")
    normalized, sigs = sym.normalize_and_recognize(raw)
    assert len(normalized.monomials) == len(sigs) == 2
    kinds = sorted(
        "canonical" if s.fspec is None else "exotic" for s in sigs
    )
    assert kinds == ["canonical", "exotic"]
    assert all(s.valid for s in sigs)
