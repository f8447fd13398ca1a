"""Bracket rules on formal loop expressions.

The bracket distributes over sums and products (Leibniz); each atom pair is
resolved by one of three rule templates, with the ordered call taken as the
positive intersection of the left loop before the right one:

* plain x plain::

      {tr a, tr b} = 1/2 tr(a.b) - 1/2 tr(a.~b) + 1/6 sum_x tr(a; O x) tr(b; O x)

* plain x decorated (word W of any length on loop b)::

      {tr a, tr(b; W)} = 1/2 tr(a.b; W) + 1/2 tr(a.~b; W)
                       + 1/6 sum_{x,y} tr(a; O x) tr(b; W O y) h[y, x]

  with h a fresh abstract group-element symbol.  Note the *plus* sign on the
  inverted resolution: transposing the word's skew letters flips the sign
  that the plain bracket's second term carries.

* decorated x decorated, single letter j on the right word::

      {tr(a; U), tr(b; O j)} = 1/2 sum_x tr(a.b; U O x)  alpha[x, j]
                             + 1/2 sum_x tr(a.~b; U O x) beta[x, j]
                             + 1/6 sum_{x,y} tr(a; U O x) tr(b; O j O y) gamma[y, x]

  For a right word longer than one letter the first two templates have no
  single-coefficient counterpart; the engine then transports every letter
  through the resolved loop, paying one abstract coefficient per letter, and
  marks the output monomials ``extended`` so reports can quarantine them.

Every decorated template takes its 1/6 term (h, gamma) from
``_double_decoration``; plain x plain spells its own, with coefficient I.

Which template an ordered pair takes depends on its atoms' words: plain (no
letter), one letter, or longer.  Where the template wants the operands the
other way round, they are swapped and its terms negated (``-``)::

    left \\ right   plain               one letter          longer
    plain          plain x plain       plain x decorated   plain x decorated
    one letter     -plain x decorated  decorated pair      -decorated pair
    longer         -plain x decorated  decorated pair      extended

Open question (ROADMAP.md item 12): plain x plain is never swapped, yet it has
no orientation either.  ``{tr b, tr a}`` gives tr(b.a) and tr(b.~a), which
evaluate to the same numbers as tr(a.b) and tr(a.~b), so that template is
symmetric in value while every other one is antisymmetric.

``bracket(x, x)`` on structurally identical expressions returns 0 (a Poisson
bracket is antisymmetric); distinct expressions must not share base loops,
since base symbols are assumed pairwise transversally intersecting once.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Composite,
    Expression,
    Monomial,
    TraceAtom,
    CoeffAtom,
    ZERO,
    expressions_equal,
    normalize,
    shift_ids,
    symbols,
)

HALF = Fraction(1, 2)
SIXTH = Fraction(1, 6)


class BracketError(ValueError):
    pass


class _Fresh:
    """One atom pair's allocators: ids above ``used_ids``, and symbols outside
    ``used_syms``, the call-wide set every minted symbol joins."""

    def __init__(self, used_ids, used_syms: set):
        self.next_id = max(used_ids, default=-1) + 1
        self.used_syms = used_syms
        self.counters = {}

    def index(self) -> int:
        self.next_id += 1
        return self.next_id - 1

    def symbol(self, family: str) -> str:
        k = self.counters.get(family, 0)
        while True:
            k += 1
            name = f"{family}{k}"
            if name not in self.used_syms:
                break
        self.counters[family] = k
        self.used_syms.add(name)
        return name


def _pair_terms(p: TraceAtom, q: TraceAtom, fresh: _Fresh):
    """(sign, rule terms) of one atom pair; a swapped template's sign is -1."""
    if not p.word and not q.word:
        x = fresh.index()
        return 1, [
            Monomial(HALF, (TraceAtom(Composite(p.loop, q.loop, False)),)),
            Monomial(-HALF, (TraceAtom(Composite(p.loop, q.loop, True)),)),
            Monomial(SIXTH, (TraceAtom(p.loop, (x,)), TraceAtom(q.loop, (x,)))),
        ]
    if not p.word:
        return 1, _plain_decorated(p, q, fresh)
    if not q.word:
        return -1, _plain_decorated(q, p, fresh)
    if len(q.word) == 1:
        return 1, _decorated_pair(p, q, fresh)
    if len(p.word) == 1:
        return -1, _decorated_pair(q, p, fresh)
    return 1, _extended_pair(p, q, fresh)


def _double_decoration(p: TraceAtom, q: TraceAtom, fresh: _Fresh, family: str) -> Monomial:
    """1/6 sum_{l,m} tr(p; U O l) tr(q; W O m) c[m, l], c a fresh ``family`` symbol:
    the term the 1/3 sum_i O_i (x) O_i part of Gamma_g2 gives every decorated
    template.  Allocates l, then m, then c."""
    l = fresh.index()
    m = fresh.index()
    c = fresh.symbol(family)
    return Monomial(SIXTH, (TraceAtom(p.loop, p.word + (l,)), TraceAtom(q.loop, q.word + (m,))),
                    (CoeffAtom(c, m, l),))


def _plain_decorated(p: TraceAtom, q: TraceAtom, fresh: _Fresh):
    return [
        Monomial(HALF, (TraceAtom(Composite(p.loop, q.loop, False), q.word),)),
        Monomial(HALF, (TraceAtom(Composite(p.loop, q.loop, True), q.word),)),
        _double_decoration(p, q, fresh, "alpha"),
    ]


def _decorated_pair(p: TraceAtom, q: TraceAtom, fresh: _Fresh):
    (j,) = q.word
    x = fresh.index()
    alpha = fresh.symbol("alpha")
    beta = fresh.symbol("beta")
    return [
        Monomial(HALF, (TraceAtom(Composite(p.loop, q.loop, False), p.word + (x,)),),
                 (CoeffAtom(alpha, x, j),)),
        Monomial(HALF, (TraceAtom(Composite(p.loop, q.loop, True), p.word + (x,)),),
                 (CoeffAtom(beta, x, j),)),
        _double_decoration(p, q, fresh, "gamma"),
    ]


def _extended_pair(p: TraceAtom, q: TraceAtom, fresh: _Fresh):
    """Both words of length >= 2: transport every letter, one coefficient each."""
    terms = []
    for invert, family in ((False, "kappa"), (True, "lam")):
        syms = fresh.symbol(family), fresh.symbol(family)  # one for p's letters, one for q's
        letters = [(fresh.index(), old, sym)
                   for sym, word in zip(syms, (p.word, q.word)) for old in word]
        word = tuple(new for new, _, _ in letters)
        terms.append(Monomial(HALF, (TraceAtom(Composite(p.loop, q.loop, invert), word),),
                              tuple(CoeffAtom(sym, new, old) for new, old, sym in letters), True))
    return terms + [_double_decoration(p, q, fresh, "gamma")]


def bracket(lhs: Expression, rhs: Expression) -> Expression:
    """Poisson bracket of two expressions, normalized.

    Preconditions: the two expressions carry disjoint base-loop symbol sets
    (unless they are structurally identical, in which case the bracket is 0
    by antisymmetry).
    """
    (loops_l, syms_l), (loops_r, syms_r) = symbols(lhs), symbols(rhs)
    # Only operands sharing a loop can be equal (traceless ones bracket to 0
    # anyway), so the canonical-encoding equality test runs only then.
    shared = set(loops_l) & set(loops_r)
    if shared:
        if expressions_equal(lhs, rhs):
            return ZERO
        raise BracketError(
            "expressions share base loops "
            f"{sorted(shared)}; atom pairs must bracket across distinct loops"
        )

    used_syms = set(syms_l + syms_r)
    out = []
    for ml in lhs.monomials:
        for mr in rhs.monomials:
            used = ml.indices()
            if used & mr.indices():
                mr = shift_ids(mr, max(used) + 1)
            used |= mr.indices()
            coeff = ml.coeff * mr.coeff
            for ip, p in enumerate(ml.traces):
                for iq, q in enumerate(mr.traces):
                    sign, terms = _pair_terms(p, q, _Fresh(used, used_syms))
                    spectators = Monomial(
                        sign * coeff,
                        ml.traces[:ip] + ml.traces[ip + 1:] + mr.traces[:iq] + mr.traces[iq + 1:],
                        ml.coeffs + mr.coeffs,
                        ml.extended or mr.extended,
                    )
                    out += (Expression((spectators,)) * Expression(tuple(terms))).monomials
    return normalize(Expression(tuple(out)))
