"""Machine-derivation of the worked bracket expansion, diffed against a golden encoding.

The golden data below is a hand transcription of the twelve-summand expansion of

    { sum_i tr(M1 O_i) tr(M2 O_i),  sum_j tr(M3 O_j) tr(M4 O_j) }

term by term: four loop pairings, each contributing a resolved-loop term, an
inverse-resolved term (both 1/2) and a double-decoration term (1/6).
Which fresh symbol a rule mints is not part of the contract, the wiring is:
every coefficient symbol of both sides is renamed to one name, ``sym``, and
``normalize`` takes the difference.  One name is exact only while no monomial
holds two coefficient atoms (it would merge wirings that differ by which atom
is which symbol), so a side with such a monomial is refused.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .bracket import bracket
from .core import CoeffAtom, Expression, Monomial, TraceAtom, normalize
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
    iid = lambda letter: ids.setdefault(letter, len(ids))
    traces = tuple(TraceAtom(parse_loop(loop), tuple(map(iid, word))) for loop, word in atoms)
    return Monomial(coeff, traces, tuple(CoeffAtom("sym", iid(row), iid(col))
                                         for row, col in coeff_entries))


def _anonymized(expr: Expression) -> Expression:
    """``expr`` with every coefficient symbol renamed to ``sym``; ValueError naming
    the first monomial that holds two or more coefficient atoms."""
    for m in expr.monomials:
        if len(m.coeffs) > 1:
            raise ValueError(f"one anonymous symbol is exact only for at most one "
                             f"coefficient atom per monomial, got {m}")
    return Expression(tuple(replace(m, coeffs=tuple(replace(c, sym="sym") for c in m.coeffs))
                            for m in expr.monomials))


@dataclass
class ExampleDiff:
    term_count: int
    coeff_multiset: dict
    residual: Expression  # derived minus golden, anonymized and normalized

    @property
    def passed(self) -> bool:
        return not self.residual.monomials


def worked_example_bracket() -> Expression:
    """The engine's expansion of the two-observable bracket on loops g1..g4."""
    lhs = parse_expr("sum i: tr(g1; O i) * tr(g2; O i)")
    rhs = parse_expr("sum j: tr(g3; O j) * tr(g4; O j)")
    return bracket(lhs, rhs)


def reproduce_examples() -> ExampleDiff:
    """Diff the machine-derived expansion against the golden encoding."""
    derived = worked_example_bracket()
    golden = Expression(tuple(_golden_monomial(*term) for term in _GOLDEN_TERMS))
    counts = Counter(m.coeff for m in derived.monomials)
    return ExampleDiff(
        term_count=len(derived.monomials),
        coeff_multiset={str(c): counts[c] for c in sorted(counts)},
        residual=normalize(_anonymized(derived) + _anonymized(golden).scale(-1)),
    )
