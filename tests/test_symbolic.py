"""Symbolic engine: parser, bracket rules, normalization, signatures, closure."""

import importlib.util
import itertools
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from canonical_oracle import encode_by_search, encode_by_walks
from signature_oracle import recognize_by_search
from test_golden import _criterion9_drifts, _drawn

from goldmankit import observables, octonions
from goldmankit import symbolic as sym
from goldmankit.bases import Family
from goldmankit.goldman import sample_element, sample_substreams
from goldmankit.observables import ObservableSpec, conjugate, enumerate_specs
from goldmankit.symbolic import closure, core, examples, signature
from goldmankit.symbolic.core import (CoeffAtom, Composite, Loop, Monomial, TraceAtom,
                                      rename_indices)

# the package exports the function ``bracket`` under the module's name
_bracket_module = importlib.import_module("goldmankit.symbolic.bracket")


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


@pytest.mark.parametrize("text, offset, reason", [
    ("tr(a) $", 6, "unexpected character"),
    ("tr(a;)", 5, "expected at least one 'O <index>'"),
    ("tr(sum)", 3, "'sum' is reserved"),
])
def test_parse_refusals_name_their_offset(text, offset, reason):
    with pytest.raises(sym.ParseError, match=f"at offset {offset} near .*: {reason}$") as err:
        sym.parse_expr(text)
    assert err.value.pos == offset


def test_parse_word_letters_may_be_separated_by_commas():
    commas = sym.parse_expr("sum i j: tr(a; O i, O j) * tr(b; O j O i)")
    plain = sym.parse_expr("sum i j: tr(a; O i O j) * tr(b; O j O i)")
    assert sym.normalize(commas) == sym.normalize(plain)


def test_parse_loop_counts_links_and_parentheses_toward_one_bound():
    from goldmankit.symbolic.parse import parse_loop

    def right_nested(levels):  # each level is one link and one parenthesis
        return "a.(" * levels + "b" + ")" * levels

    assert str(parse_loop(right_nested(50))).count(".") == 50
    with pytest.raises(sym.ParseError, match="nesting deeper than 100 levels"):
        parse_loop(right_nested(51))
    assert sym.parse_expr(f"tr({right_nested(50)})").monomials


# ------------------------------------------------------------- normalize ----

def test_normalize_merges_up_to_renaming():
    a = sym.parse_expr("1/2 sum i: tr(a; O i) * tr(b; O i)")
    b = sym.parse_expr("1/2 sum j: tr(b; O j) * tr(a; O j)")
    merged = sym.normalize(a + b)
    assert len(merged.monomials) == 1
    assert merged.monomials[0].coeff == 1
    assert sym.expressions_equal(a, b)
    assert not sym.expressions_equal(a, b.scale(2))
    assert not sym.expressions_equal(a, sym.Expression(tuple(
        replace(m, extended=True) for m in b.monomials)))


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
    f = sym.build_f_expression(spec)
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


# ---------------------------------------------------- canonical encoding ----

def _with_slots(m, ids):
    """m with the ids of its slots, in slot order (traces, then coefficients), replaced."""
    ids = iter(ids)
    traces = tuple(TraceAtom(t.loop, tuple(next(ids) for _ in t.word)) for t in m.traces)
    coeffs = tuple(CoeffAtom(c.sym, next(ids), next(ids)) for c in m.coeffs)
    return Monomial(m.coeff, traces, coeffs, m.extended)


def _slots(m):
    return [i for t in m.traces for i in t.word] + [i for c in m.coeffs for i in (c.row, c.col)]


@st.composite
def _wirings(draw, max_traces=4, max_coeffs=4):
    """A monomial whose ids each fill one to three slots, anywhere."""
    lengths = draw(st.lists(st.integers(0, 3), max_size=max_traces))
    n_coeffs = draw(st.integers(0, max_coeffs))
    slots = sum(lengths) + 2 * n_coeffs
    ids = []
    while len(ids) < slots:
        ids += [len(ids)] * draw(st.integers(1, 3))
    traces = tuple(TraceAtom(Loop(draw(st.sampled_from("ab"))), (0,) * n) for n in lengths)
    coeffs = tuple(CoeffAtom(draw(st.sampled_from("xy")), 0, 0) for _ in range(n_coeffs))
    m = Monomial(Fraction(1), traces, coeffs, draw(st.booleans()))
    return _with_slots(m, draw(st.permutations(ids[:slots])))


def _scrambled(m, data):
    """m with its ids renamed and its traces and coefficient atoms reordered."""
    ids = sorted(m.indices())
    new = data.draw(st.lists(st.integers(0, 999), min_size=len(ids), max_size=len(ids),
                             unique=True))
    reordered = Monomial(m.coeff, tuple(data.draw(st.permutations(m.traces))),
                         tuple(data.draw(st.permutations(m.coeffs))), m.extended)
    return rename_indices(reordered, dict(zip(ids, new)))


def test_encoding_of_a_coefficient_only_cycle_ignores_renaming_and_order():
    # h[i3,i1] * h[i1,i2] * g[i4,i0] * h[i4,i0] * h[i3,i2]: no id is on a trace
    cycle = [CoeffAtom("h", 3, 1), CoeffAtom("h", 1, 2), CoeffAtom("g", 4, 0),
             CoeffAtom("h", 4, 0), CoeffAtom("h", 3, 2)]
    keys = {
        core.canonical_encoding(rename_indices(Monomial(Fraction(1), (), order),
                                               dict(enumerate(ids))))
        for ids in itertools.permutations(range(5))
        for order in itertools.permutations(cycle)
    }
    assert len(keys) == 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_encoding_is_invariant_under_renaming_and_reordering(data):
    # coefficient-only cycles and ids on three atoms included
    m = data.draw(_wirings())
    assert core.canonical_encoding(_scrambled(m, data)) == core.canonical_encoding(m), str(m)


def _graph(m):
    """m as a labelled graph: one node per atom, per slot and per id."""
    import networkx as nx

    atoms = [(("tr", str(t.loop)), t.word) for t in m.traces]
    atoms += [(("c", c.sym), (c.row, c.col)) for c in m.coeffs]
    g = nx.Graph()
    g.add_node("flag", label=("extended", m.extended))
    for a, (label, ids) in enumerate(atoms):
        g.add_node(("atom", a), label=label)
        for p, i in enumerate(ids):
            g.add_node(("slot", a, p), label=("slot", p))
            g.add_node(("id", i), label="id")
            g.add_edges_from([(("atom", a), ("slot", a, p)), (("slot", a, p), ("id", i))])
    return g


@pytest.mark.skipif(importlib.util.find_spec("networkx") is None,
                    reason="networkx is not installed")
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_encoding_separates_exactly_the_isomorphism_classes(data):
    import networkx as nx

    m = data.draw(_wirings(max_traces=6, max_coeffs=5))
    slots = _slots(m)
    # swapping the ids of two slots gives an isomorphic monomial or not
    if len(slots) > 1:
        p, q = data.draw(st.permutations(range(len(slots))))[:2]
        slots[p], slots[q] = slots[q], slots[p]
    other = _scrambled(_with_slots(m, slots), data)
    same = nx.is_isomorphic(_graph(m), _graph(other),
                            node_match=lambda x, y: x["label"] == y["label"])
    assert (core.canonical_encoding(m) == core.canonical_encoding(other)) == same, str(m)


def _bracket_corpus(monkeypatch):
    """Unnormalized bracket outputs: tr(z) with every criterion-9 spec, tr(c)
    with 2-4 tied pairs."""
    monkeypatch.setattr(_bracket_module, "normalize", lambda expr: expr)
    canon, tr_c = sym.parse_expr("tr(z)"), sym.parse_expr("tr(c)")
    corpus = []
    for spec in _sweep_specs():
        corpus += sym.bracket(canon, sym.build_f_expression(spec)).monomials
    for pairs in (2, 3, 4):
        corpus += sym.bracket(tr_c, _tied(pairs)).monomials
    return corpus


def test_encoding_partitions_bracket_outputs_as_the_search_oracle(monkeypatch):
    corpus = _bracket_corpus(monkeypatch)
    # the oracle is exact here: no id fills more than two slots, and every
    # coefficient atom has an id on a trace
    for m in corpus:
        slots, on_traces = _slots(m), {i for t in m.traces for i in t.word}
        assert all(slots.count(i) <= 2 for i in slots)
        assert all({c.row, c.col} & on_traces for c in m.coeffs)
    new = [core.canonical_encoding(m) for m in corpus]
    old = [encode_by_search(m) for m in corpus]
    assert len(set(new)) < len(corpus)
    assert len(set(new)) == len(set(old)) == len(set(zip(new, old)))


# normalize orders its output by repr(key), so keys must match byte for byte
def test_encoding_equals_the_walk_oracle_on_bracket_outputs(monkeypatch):
    corpus = _bracket_corpus(monkeypatch)
    assert len(corpus) > 3000
    for m in corpus:
        assert repr(core.canonical_encoding(m)) == repr(encode_by_walks(m)), str(m)


@settings(max_examples=300, deadline=None)
@given(_wirings(max_traces=6, max_coeffs=5))
def test_encoding_equals_the_walk_oracle_on_random_wiring(m):
    # ids on one to three slots, so walks branch over runs of equal label
    assert repr(core.canonical_encoding(m)) == repr(encode_by_walks(m)), str(m)


@settings(max_examples=300, deadline=None)
@given(_wirings(max_traces=6, max_coeffs=5))
def test_indices_read_off_the_slots_equal_the_wiring_ids(m):
    assert m.indices() == frozenset(core.wiring(m)[1]), str(m)


def _raw_tied_sum():
    """Six renamed, reordered copies of the 3-pair tied product, unnormalized."""
    (m,) = _tied(3).monomials
    ids = sorted(m.indices())
    copies = [rename_indices(replace(m, traces=tuple(order)), dict(zip(ids, perm)))
              for order, perm in zip(itertools.permutations(m.traces),
                                     itertools.permutations(ids))]
    return sym.Expression(tuple(copies))


def _raw_closure_bracket(monkeypatch):
    """bracket(tr(z), F) for spec (3, 3, 0, 0, 3), unnormalized."""
    with monkeypatch.context() as patch:
        patch.setattr(_bracket_module, "normalize", lambda expr: expr)
        (spec, *_) = enumerate_specs(3, 3, 0, 0, 3)
        return sym.bracket(sym.parse_expr("tr(z)"), sym.build_f_expression(spec))


@pytest.mark.parametrize("raw", [lambda _: _raw_tied_sum(), _raw_closure_bracket],
                         ids=["tied-sum", "closure-bracket"])
def test_normalize_builds_one_wiring_per_input_monomial(monkeypatch, raw):
    expr = raw(monkeypatch)
    calls, wiring = [], core.wiring
    monkeypatch.setattr(core, "wiring", lambda m: calls.append(m) or wiring(m))
    sym.normalize(expr)
    assert len(calls) == len(expr.monomials) > 1


def _counting_walks(monkeypatch):
    """The start of each call of ``core._walk``, recursive ones included: one
    call per start and one per order a branch walks on with."""
    walks, walk = [], core._walk

    def counting(*args):
        walks.append(args[2][0])
        return walk(*args)

    monkeypatch.setattr(core, "_walk", counting)
    return walks


@pytest.mark.parametrize("pairs", [6, 7, 8])
def test_tied_pairs_normalize_in_at_most_one_walk_per_atom(monkeypatch, pairs):
    walks = _counting_walks(monkeypatch)
    (m,) = _tied(pairs).monomials
    ids = sorted(m.indices())
    copy = rename_indices(replace(m, traces=m.traces[::-1]), dict(zip(ids, ids[::-1])))
    (merged,) = sym.normalize(sym.Expression((m, copy))).monomials
    assert merged.coeff == 2
    assert 0 < len(walks) <= 2 * (2 * pairs)


def _one_index(loops):
    """sum i: tr(l0; O i) * tr(l1; O i) * ... -- one trace per loop name."""
    return sym.parse_expr("sum i: " + " * ".join(f"tr({loop}; O i)" for loop in loops))


def test_distinct_loops_on_one_index_normalize_in_at_most_k_walks(monkeypatch):
    # the k - 1 new atoms of i differ in label, so no walk branches
    k = 12
    walks = _counting_walks(monkeypatch)
    (m,) = _one_index([f"a{j}" for j in range(k)]).monomials
    (merged,) = sym.normalize(sym.Expression((m, replace(m, traces=m.traces[::-1])))).monomials
    assert merged.coeff == 2
    assert 0 < len(walks) <= k


def test_ties_label_order_cannot_break_are_refused_before_any_walk(monkeypatch):
    # 12 traces on one loop share one index: 12 starts times 11! orders
    walks = _counting_walks(monkeypatch)
    (m,) = _one_index(["a"] * 12).monomials
    with pytest.raises(ValueError, match=r"may take 479001600 walks, over the budget of 100000"):
        sym.normalize(sym.Expression((m,)))
    assert walks == []
    # at 7 traces, 7 starts times 6! orders fit the budget and are all walked
    (m,) = _one_index(["a"] * 7).monomials
    (merged,) = sym.normalize(sym.Expression((m, m))).monomials
    assert merged.coeff == 2


@pytest.mark.parametrize("text", [
    # two ids on the same 7 atoms: 6! orders at the first, none left at the second
    "sum i j: " + " * ".join(["tr(a; O i O j)"] * 7),
    # 8 traces on a, in pairs on 4 ids: one tie of 2 per id, not 8! orders
    "sum i j k l: tr(b; O i O j O k O l) * "
    + " * ".join(f"tr(a; O {x}) * tr(a; O {x})" for x in "ijkl"),
])
def test_walk_bound_takes_the_smaller_of_its_two_counts(text):
    (m,) = sym.parse_expr(text).monomials
    (merged,) = sym.normalize(sym.Expression((m, m))).monomials
    assert merged.coeff == 2


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


def test_closure_refuses_zero_expression():
    e = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(a)"))
    assert e.monomials == ()
    with pytest.raises(ValueError, match="no monomial to check"):
        sym.closure_check(e, seed=0)


def test_closure_refuses_when_every_monomial_is_extended():
    e = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    quarantined = [replace(m, extended=True) for m in e.monomials]
    with pytest.raises(ValueError, match="no monomial to check"):
        sym.closure_check(sym.Expression(tuple(quarantined)), seed=0)
    # one monomial left outside the quarantine is checked, and passes
    mixed = sym.closure_check(sym.Expression((e.monomials[0], *quarantined[1:])), seed=0)
    assert mixed.report.passed
    assert len(mixed.failures) == len(quarantined) - 1


def test_closure_refuses_an_expression_of_constants(monkeypatch):
    monkeypatch.setattr(closure, "sample_substreams", lambda *a: pytest.fail("drew"))
    with pytest.raises(ValueError, match="no monomial to check .* or a constant"):
        sym.closure_check(sym.parse_expr("2"), seed=0)
    # a constant beside quarantined monomials leaves nothing to check either
    extended = replace(sym.parse_expr("tr(a)").monomials[0], extended=True)
    with pytest.raises(ValueError, match="no monomial to check"):
        sym.closure_check(sym.parse_expr("2") + sym.Expression((extended,)), seed=0)


def test_closure_fails_when_no_gauge_moves_the_control(monkeypatch):
    # identity gauges leave every monomial exactly invariant, but they cannot
    # show that a single tr(M O_i) term moves, so the report must fail
    e = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    assert sym.closure_check(e, seed=1).report.params["negative_control"] > 1e-3
    draw = closure.sample_substreams

    def identity_gauges(family, n, seed, streams):
        mats, residuals, resamples = draw(family, n, seed, streams)
        (stream, gauges), = [pair for pair in streams if pair[0] == (12,)]
        mats[len(mats) - gauges:] = np.eye(7)  # the gauge stream comes last
        return mats, residuals, resamples

    monkeypatch.setattr(closure, "sample_substreams", identity_gauges)
    report = sym.closure_check(e, seed=1).report
    assert not report.passed
    assert report.params["negative_control"] == 0.0
    assert report.max_rel_err == 0.0


def _criterion9_bracket(counts=(1, 1, 0, 1, 2)):
    return sym.bracket(sym.parse_expr("tr(z)"), sym.build_f_expression(enumerate_specs(*counts)[0]))


def test_closure_fails_when_an_operator_is_scaled(monkeypatch):
    # O_3 x 1.01 in the one table that both contract and the covariance check read
    e = _criterion9_bracket()
    assert sym.closure_check(e, seed=7).report.passed
    scaled = octonions.unit_matrices().copy()
    scaled[2] *= 1.01
    for module in (octonions, observables):
        monkeypatch.setattr(module, "unit_matrices", lambda: scaled)
    report = sym.closure_check(e, seed=7).report
    assert not report.passed and report.max_rel_err > 1e-3
    assert report.params["negative_control"] > 1e-3


def test_closure_check_contracts_no_monomial(monkeypatch):
    calls = []
    for module in (observables, closure):
        contract = module.contract
        monkeypatch.setattr(module, "contract",
                            lambda *args, contract=contract: calls.append(args) or contract(*args))
    result = sym.closure_check(_criterion9_bracket(), seed=7)
    assert calls == []
    assert result.report.passed and len(result.signatures) > 1


def test_closure_params_count_recognized_unrecognized_and_extended():
    e = _criterion9_bracket()
    dangling = Monomial(Fraction(1), (TraceAtom(Loop("a"), (0,)), TraceAtom(Loop("b"), (1,))), ())
    mixed = sym.Expression((*e.monomials[1:], replace(e.monomials[0], extended=True), dangling))
    result = sym.closure_check(mixed, seed=7)
    params = result.report.params
    assert (params["recognized"], params["unrecognized"], params["extended"]) == (
        len(e.monomials) - 1, 1, 1)
    assert params["monomials"] == len(mixed.monomials) and not result.report.passed


@st.composite
def _paired_wirings(draw, max_traces=4, max_coeffs=3):
    """A monomial whose ids each fill exactly two slots, anywhere: legal or not."""
    lengths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=max_traces))
    n_coeffs = draw(st.integers(0, max_coeffs))
    if (sum(lengths) + 2 * n_coeffs) % 2:
        lengths.append(1)
    ids = [i // 2 for i in range(sum(lengths) + 2 * n_coeffs)]
    traces = tuple(TraceAtom(Loop(draw(st.sampled_from("ab"))), (0,) * n) for n in lengths)
    coeffs = tuple(CoeffAtom(draw(st.sampled_from("xy")), 0, 0) for _ in range(n_coeffs))
    return _with_slots(Monomial(Fraction(1), traces, coeffs), draw(st.permutations(ids)))


_RETURNING_WORD = Monomial(Fraction(1), (TraceAtom(Loop("a"), (0, 0)),), ())  # tr(a; O i O i)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_paired_wirings())
@example(_RETURNING_WORD)
@example(Monomial(Fraction(1), (TraceAtom(Loop("a"), (0,)), TraceAtom(Loop("b"), (0,))), ()))
def test_a_monomial_with_every_id_twice_is_gauge_invariant(m):
    # g^T O_i g = sum_j g_ij O_j moves every slot as a vector, so an id on two slots
    # contracts to g^T g = I: the drift passes whether recognize accepts the wiring or not
    assert not signature.recognize(_RETURNING_WORD).valid
    names, mats, gauges = _drawn(sym.Expression((m,)), seed=3, gauges=3)
    values = lambda moved: [closure.evaluate_monomial(m, dict(zip(names, moved)))]
    _, worst = observables.gauge_drift(mats, gauges, values)
    assert worst < closure._CLOSURE_TOL, str(m)


def test_closure_refuses_gauges_over_the_sampling_budget_before_any_key():
    e = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the 256 MiB sampling budget"):
            sym.closure_check(e, seed=0, gauge_trials=700_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_instantiate_of_a_constant_draws_nothing():
    assert sym.instantiate(sym.parse_expr("3"), seed=2) == {}


def test_batched_symbolic_draws_equal_single_draws(monkeypatch):
    # loop k is row k of stream (10,), symbol k of (11,), gauge k of (12,)
    e = sym.worked_example_bracket()
    env = sym.instantiate(e, seed=9)
    single = lambda key: sample_element(
        Family.G2, 1, np.random.SeedSequence(entropy=9, spawn_key=key)).matrix
    loops = sorted(name for kind, name in env if kind == "loop")
    syms = sorted(name for kind, name in env if kind == "sym")
    assert len(loops) == 4 and len(syms) == 12
    for k, name in enumerate(loops):
        assert np.array_equal(env[("loop", name)], single((k, 10)))
    for k, name in enumerate(syms):
        assert np.array_equal(env[("sym", name)], single((k, 11)))

    # the covariance check reads the gauges, one stack of single draws
    stacks = []
    residual = closure.conjugation_residual
    monkeypatch.setattr(closure, "conjugation_residual",
                        lambda g: stacks.append(g) or residual(g))
    report = sym.closure_check(e, seed=9, gauge_trials=3).report
    (gauges,) = stacks
    assert len(gauges) == 3
    for k, g in enumerate(gauges):
        assert np.array_equal(g, single((k, 12)))
    assert report.max_abs_err == report.max_rel_err == np.max(residual(gauges))


def test_closure_check_draws_its_control_and_gauges_in_one_call(monkeypatch):
    # row 0 of stream (10,) is the control, the matrix instantiate gives the first base
    # loop; the other loops and the symbols are not drawn
    e = sym.worked_example_bracket()
    calls, controls = [], []
    draw, control = closure.sample_substreams, closure.negative_control
    monkeypatch.setattr(closure, "sample_substreams", lambda *a: calls.append(a) or draw(*a))
    monkeypatch.setattr(closure, "negative_control",
                        lambda mat, gauges: controls.append((mat, gauges)) or control(mat, gauges))
    sym.closure_check(e, seed=9, gauge_trials=4)
    assert calls == [(Family.G2, 1, 9, [((10,), 1), ((12,), 4)])]
    ((mat, gauges),) = controls
    (first, *_), _ = core.symbols(e)
    assert np.array_equal(mat, sym.instantiate(e, seed=9)[("loop", first)])
    assert np.array_equal(gauges, sample_substreams(Family.G2, 1, 9, [((12,), 4)])[0])


def test_every_recognized_criterion9_monomial_is_gauge_invariant(monkeypatch):
    # the per-monomial oracle of closure_check's one covariance check: each recognized
    # monomial of criterion 9's 261 brackets drifts under _CLOSURE_TOL, its environment
    # conjugated by one stack, the identity then the gauges closure_check draws
    stacks = []
    monkeypatch.setattr(observables, "conjugate",
                        lambda g, mats: stacks.append((g, len(mats))) or conjugate(g, mats))
    recognized = 0
    for expr, seed, checked, (_, worst) in _criterion9_drifts():
        assert worst < closure._CLOSURE_TOL, str(expr)
        names, _, gauges = _drawn(expr, seed, 2)
        ((stack, size),) = stacks
        assert size == len(names)
        assert np.array_equal(stack, np.concatenate([np.eye(7)[None], gauges]))
        stacks.clear()
        recognized += len(checked)
    assert recognized == 3744


# A stacked contraction sums in another order than a single-environment one.
# Over the 342 rows below the difference is at most 1.4e-15 * max(1, |value|),
# and 96 rows are bitwise equal.
STACK_ROUNDOFF = 1e-14


def _stacked_env(expr, seed, gauges=5):
    """``instantiate``'s environment under the identity and ``gauges`` conjugations."""
    env = sym.instantiate(expr, seed)
    drawn, _, _ = sample_substreams(Family.G2, 1, seed, [((12,), gauges)])
    stack = np.concatenate([np.eye(7)[None], drawn])
    return env, dict(zip(env, conjugate(stack, np.stack(list(env.values())))))


def test_gauge_drift_reports_the_absolute_change_apart_from_the_relative():
    # the monomial's value is about 28, so its absolute and relative changes differ
    expr = sym.parse_expr("sum i j: 4 * tr(a; O i O j) * tr(b.~c; O j O i)")
    _, stacked = _stacked_env(expr, 0, gauges=3)
    values = sym.evaluate_monomial(expr.monomials[0], stacked)
    assert abs(values[0]) > 1
    change = np.max(np.abs(values[1:] - values[0]))
    names, mats, gauges = _drawn(expr, 0, 3)
    drift = lambda moved: [sym.evaluate_monomial(expr.monomials[0], dict(zip(names, moved)))]
    absolute, relative = observables.gauge_drift(mats, gauges, drift)
    assert absolute == change > relative
    assert relative == change / abs(values[0])


def _row(env, rows):
    return {key: mat[rows] for key, mat in env.items()}


def _stack_exprs():
    canon = sym.parse_expr("tr(z)")
    for tup in ((0, 0, 0, 1, 2), (1, 1, 1, 1, 2), (0, 2, 0, 0, 2), (1, 3, 0, 0, 2)):
        yield sym.bracket(canon, sym.build_f_expression(enumerate_specs(*tup)[0]))
    yield sym.worked_example_bracket()
    # only empty-word traces, a composite among them; a coefficient-only
    # monomial; a constant
    yield sym.Expression((
        Monomial(Fraction(2), (TraceAtom(Loop("a")),
                               TraceAtom(Composite(Loop("b"), Loop("c"), True))), ()),
        Monomial(Fraction(1), (), (CoeffAtom("x", 0, 1), CoeffAtom("y", 1, 2),
                                   CoeffAtom("x", 2, 0))),
        Monomial(Fraction(3), (), ()),
    ))


def test_stacked_monomial_rows_match_single_environments():
    rows = 0
    for seed, expr in enumerate(_stack_exprs()):
        env, stacked = _stacked_env(expr, seed)
        for key, mat in env.items():
            assert np.array_equal(stacked[key][0], mat)  # the identity moves nothing
        for m in expr.monomials:
            values = np.broadcast_to(sym.evaluate_monomial(m, stacked), 6)
            for r in range(6):
                single = sym.evaluate_monomial(m, _row(stacked, r))
                assert abs(values[r] - single) <= STACK_ROUNDOFF * max(1.0, abs(single)), (m, r)
                rows += 1
    assert rows == 342


def test_stacked_monomial_rows_do_not_depend_on_the_split():
    for seed, expr in enumerate(_stack_exprs()):
        _, stacked = _stacked_env(expr, seed, gauges=7)
        for m in expr.monomials:
            whole = sym.evaluate_monomial(m, stacked)
            for cuts in ((0, 2, 8), (0, 3, 5, 8), (0, 6, 8)):
                parts = [sym.evaluate_monomial(m, _row(stacked, slice(a, b)))
                         for a, b in zip(cuts, cuts[1:])]
                parts = [np.broadcast_to(part, b - a) for part, a, b in zip(parts, cuts, cuts[1:])]
                assert np.array_equal(np.concatenate(parts), np.broadcast_to(whole, 8)), (m, cuts)


def test_closure_check_passes_constant_and_trace_only_monomials():
    result = sym.closure_check(sym.parse_expr("2 + 3 * tr(a) * tr(b.~c)"), seed=4)
    assert result.report.passed and result.report.trials == 6


def test_closure_check_body_does_not_depend_on_the_gauge_chunk(monkeypatch):
    expr = sym.worked_example_bracket()
    body = sym.closure_check(expr, seed=3, gauge_trials=5).report.body()
    monkeypatch.setattr(observables, "_GAUGE_CHUNK", 2)
    assert sym.closure_check(expr, seed=3, gauge_trials=5).report.body() == body


def test_closure_canonical_times_first_observable():
    spec = ObservableSpec.make(1, 1, 0, 0, 1, [[1]], [])
    f = sym.build_f_expression(spec)
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


def test_worked_example_ignores_minted_symbol_names(monkeypatch):
    # which fresh symbol a rule mints is not part of the contract: rename them all
    derived = sym.worked_example_bracket()
    names = sorted({c.sym for m in derived.monomials for c in m.coeffs})
    assert len(names) == 12
    table = dict(zip(names, reversed(names)))
    renamed = sym.Expression(tuple(
        replace(m, coeffs=tuple(replace(c, sym=table[c.sym] + "x") for c in m.coeffs))
        for m in derived.monomials))
    monkeypatch.setattr(examples, "worked_example_bracket", lambda: renamed)
    diff = examples.reproduce_examples()
    assert diff.passed and diff.term_count == 12


def test_worked_example_refuses_two_coefficient_atoms(monkeypatch):
    # one anonymous name would merge p[..]*q[..] with q[..]*p[..]: refused, not coarsened
    derived = sym.worked_example_bracket()
    first, *rest = derived.monomials
    doubled = replace(first, coeffs=first.coeffs * 2)
    monkeypatch.setattr(examples, "worked_example_bracket",
                        lambda: sym.Expression((doubled, *rest)))
    with pytest.raises(ValueError, match="at most one coefficient atom") as err:
        examples.reproduce_examples()
    assert str(doubled) in str(err.value)


def test_worked_example_residual_names_a_flipped_sign(monkeypatch):
    # negate the decorated pair's inverse-resolution term: the residual is exactly
    # the four (g..~g.) terms, each off by -1
    original = _bracket_module._decorated_pair

    def flipped(p, q, fresh):
        terms = original(p, q, fresh)
        terms[1] = replace(terms[1], coeff=-terms[1].coeff)
        return terms

    monkeypatch.setattr(_bracket_module, "_decorated_pair", flipped)
    diff = examples.reproduce_examples()
    assert not diff.passed
    assert [m.coeff for m in diff.residual.monomials] == [-1] * 4
    assert sorted(str(t.loop) for m in diff.residual.monomials for t in m.traces
                  if isinstance(t.loop, Composite)) == [
        "(g1.~g3)", "(g1.~g4)", "(g2.~g3)", "(g2.~g4)"]
    assert all(len(m.traces) == 3 and len(m.coeffs) == 1 for m in diff.residual.monomials)


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
