"""Machine-derivation of the worked bracket expansion, diffed against a golden encoding.

The golden data below is a hand transcription of the twelve-summand expansion of

    { sum_i tr(M1 O_i) tr(M2 O_i),  sum_j tr(M3 O_j) tr(M4 O_j) }

term by term: four loop pairings, each contributing a resolved-loop term, an
inverse-resolved term (both 1/2) and a double-decoration term (1/6).
Abstract coefficient names are anonymized on both sides before comparison;
which fresh symbol a rule mints is not part of the contract, the wiring is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .bracket import bracket
from .core import CoeffAtom, Expression, Monomial, TraceAtom, canonical_encoding, normalize
from .parse import parse_expr, parse_loop

HALF = Fraction(1, 2)
SIXTH = Fraction(1, 6)

# One golden term: (coeff, atoms, coeff_entries); atoms are (loop, word) with
# symbolic letters, coeff_entries are (row_letter, col_letter).
_GOLDEN_TERMS = []
for a, b, sa, sb in (("g1", "g3", "g2", "g4"), ("g1", "g4", "g2", "g3"),
                     ("g2", "g3", "g1", "g4"), ("g2", "g4", "g1", "g3")):
    _GOLDEN_TERMS += [
        (HALF, ((f"({a}.{b})", ("i", "k")), (sa, ("i",)), (sb, ("j",))), (("k", "j"),)),
        (HALF, ((f"({a}.~{b})", ("i", "k")), (sa, ("i",)), (sb, ("j",))), (("k", "j"),)),
        (SIXTH, ((a, ("i", "l")), (b, ("j", "m")), (sa, ("i",)), (sb, ("j",))), (("m", "l"),)),
    ]


def _golden_monomial(coeff, atoms, coeff_entries) -> Monomial:
    ids = {}
    def iid(letter):
        return ids.setdefault(letter, len(ids))

    traces = []
    for loop_str, word in atoms:
        traces.append(TraceAtom(parse_loop(loop_str), tuple(iid(x) for x in word)))
    coeffs = tuple(
        CoeffAtom(f"sym{k + 1}", iid(row), iid(col))
        for k, (row, col) in enumerate(coeff_entries)
    )
    return Monomial(coeff, tuple(traces), coeffs)


def _anon_key(m: Monomial):
    """Smallest canonical encoding over every renaming of the k coefficient
    symbols to placeholders (k! encodings)."""
    syms = sorted({c.sym for c in m.coeffs})

    def renamed(perm):
        names = dict(zip(syms, perm))
        return canonical_encoding(replace(m, coeffs=tuple(
            CoeffAtom(f"sym{names[c.sym]}", c.row, c.col) for c in m.coeffs)))

    return min(map(renamed, itertools.permutations(range(len(syms)))))


@dataclass
class ExampleDiff:
    term_count: int
    expected_count: int
    coeff_multiset: dict
    expected_multiset: dict
    missing: list = field(default_factory=list)
    unexpected: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.term_count == self.expected_count
            and self.coeff_multiset == self.expected_multiset
            and not self.missing
            and not self.unexpected
        )


def worked_example_bracket() -> Expression:
    """The engine's expansion of the two-observable bracket on loops g1..g4."""
    lhs = parse_expr("sum i: tr(g1; O i) * tr(g2; O i)")
    rhs = parse_expr("sum j: tr(g3; O j) * tr(g4; O j)")
    return bracket(lhs, rhs)


def reproduce_examples() -> ExampleDiff:
    """Diff the machine-derived expansion against the golden encoding."""
    derived = worked_example_bracket()
    golden = normalize(Expression(tuple(
        _golden_monomial(c, atoms, entries) for c, atoms, entries in _GOLDEN_TERMS
    )))

    def bag(expr):
        out = {}
        for m in expr.monomials:
            out.setdefault((repr(_anon_key(m)), m.coeff), []).append(m)
        return out

    got, want = bag(derived), bag(golden)
    missing = [str(ms[0]) for key, ms in want.items() if key not in got]
    unexpected = [str(ms[0]) for key, ms in got.items() if key not in want]
    multiset = lambda e: {
        str(c): sum(1 for m in e.monomials if m.coeff == c)
        for c in sorted({m.coeff for m in e.monomials})
    }
    return ExampleDiff(
        term_count=len(derived.monomials),
        expected_count=len(golden.monomials),
        coeff_multiset=multiset(derived),
        expected_multiset=multiset(golden),
        missing=missing,
        unexpected=unexpected,
    )
