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
    rename_indices,
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
    """Rule output for one atom pair: list of (coeff, atoms, coeff_atoms, extended)."""
    if not p.word and not q.word:
        x = fresh.index()
        return [
            (HALF, (TraceAtom(Composite(p.loop, q.loop, False)),), (), False),
            (-HALF, (TraceAtom(Composite(p.loop, q.loop, True)),), (), False),
            (SIXTH, (TraceAtom(p.loop, (x,)), TraceAtom(q.loop, (x,))), (), False),
        ]
    if not p.word:
        return _plain_decorated(p, q, fresh)
    if not q.word:
        return _negate(_plain_decorated(q, p, fresh))
    if len(q.word) == 1:
        return _decorated_pair(p, q, fresh)
    if len(p.word) == 1:
        return _negate(_decorated_pair(q, p, fresh))
    return _extended_pair(p, q, fresh)


def _negate(terms):
    return [(-c, atoms, coeffs, ext) for c, atoms, coeffs, ext in terms]


def _plain_decorated(p: TraceAtom, q: TraceAtom, fresh: _Fresh):
    x = fresh.index()
    y = fresh.index()
    h = fresh.symbol("alpha")
    return [
        (HALF, (TraceAtom(Composite(p.loop, q.loop, False), q.word),), (), False),
        (HALF, (TraceAtom(Composite(p.loop, q.loop, True), q.word),), (), False),
        (
            SIXTH,
            (TraceAtom(p.loop, (x,)), TraceAtom(q.loop, q.word + (y,))),
            (CoeffAtom(h, y, x),),
            False,
        ),
    ]


def _decorated_pair(p: TraceAtom, q: TraceAtom, fresh: _Fresh):
    (j,) = q.word
    x = fresh.index()
    alpha = fresh.symbol("alpha")
    beta = fresh.symbol("beta")
    gamma = fresh.symbol("gamma")
    l = fresh.index()
    m = fresh.index()
    return [
        (
            HALF,
            (TraceAtom(Composite(p.loop, q.loop, False), p.word + (x,)),),
            (CoeffAtom(alpha, x, j),),
            False,
        ),
        (
            HALF,
            (TraceAtom(Composite(p.loop, q.loop, True), p.word + (x,)),),
            (CoeffAtom(beta, x, j),),
            False,
        ),
        (
            SIXTH,
            (TraceAtom(p.loop, p.word + (l,)), TraceAtom(q.loop, q.word + (m,))),
            (CoeffAtom(gamma, m, l),),
            False,
        ),
    ]


def _extended_pair(p: TraceAtom, q: TraceAtom, fresh: _Fresh):
    """Both words of length >= 2: transport every letter, one coefficient each."""
    terms = []
    for invert, sym_family in ((False, "kappa"), (True, "lam")):
        word = []
        coeffs = []
        sym_p = fresh.symbol(sym_family)
        sym_q = fresh.symbol(sym_family)
        for old in p.word:
            new = fresh.index()
            word.append(new)
            coeffs.append(CoeffAtom(sym_p, new, old))
        for old in q.word:
            new = fresh.index()
            word.append(new)
            coeffs.append(CoeffAtom(sym_q, new, old))
        terms.append((
            HALF,
            (TraceAtom(Composite(p.loop, q.loop, invert), tuple(word)),),
            tuple(coeffs),
            True,
        ))
    l = fresh.index()
    m = fresh.index()
    gamma = fresh.symbol("gamma")
    terms.append((
        SIXTH,
        (TraceAtom(p.loop, p.word + (l,)), TraceAtom(q.loop, q.word + (m,))),
        (CoeffAtom(gamma, m, l),),
        False,
    ))
    return terms


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
        for mr_orig in rhs.monomials:
            used = set(ml.indices())
            mr = _disjoint(mr_orig, used)
            used |= mr.indices()
            for ip, p in enumerate(ml.traces):
                for iq, q in enumerate(mr.traces):
                    fresh = _Fresh(used, used_syms)
                    spect_l = ml.traces[:ip] + ml.traces[ip + 1:]
                    spect_r = mr.traces[:iq] + mr.traces[iq + 1:]
                    for coeff, atoms, coeff_atoms, ext in _pair_terms(p, q, fresh):
                        out.append(Monomial(
                            ml.coeff * mr.coeff * coeff,
                            spect_l + spect_r + atoms,
                            ml.coeffs + mr.coeffs + coeff_atoms,
                            ml.extended or mr.extended or ext,
                        ))
    return normalize(Expression(tuple(out)))


def _disjoint(m: Monomial, used: set) -> Monomial:
    ids = m.indices()
    if not (ids & used):
        return m
    top = max(used | ids) + 1
    return rename_indices(m, {i: top + k for k, i in enumerate(sorted(ids))})
