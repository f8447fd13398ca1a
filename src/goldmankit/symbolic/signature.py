"""Read observable signatures (r, n1, s, n2, t, K, Q) off monomial wiring.

The bracket rules only say which abstract coefficients appear where; the
induced (0,1)-matrices are a projection of the index wiring, so they are
reconstructed rather than tracked.  A monomial is recognized when its
decorated atoms split into "simple" traces (single letter) and "word" traces
such that every summed index falls into one of the four legal classes:

    simple <-> word         directly            (a K column, r of them)
    simple <-> coefficient <-> word             (an alpha pair)
    word   <-> word         directly            (a doubled Q column, s of them)
    word   <-> coefficient <-> word             (a beta pair)

Undecorated trace atoms are plain monodromy traces and stand on their own.

The split is derived, not searched.  Once every index is known to occur
exactly twice, a single-letter atom has exactly one link: its index goes
either straight to one other atom, or through one coefficient to one other
atom.  A split is therefore legal exactly when no link has both ends simple,
and the best split -- most simple traces, then most direct K columns -- makes
every single-letter atom simple, except that when both ends of a link are
single-letter atoms only the earlier one is.  Every other legal split leaves
some x_d of the r direct links and x_a of the n1 - r alpha links without a
simple end, which gives the parameters

    (r - x_d, n1 - x_d - x_a, s + x_d, n2 + x_d + x_a, t + x_d + x_a),

each pair (x_d, x_a) a distinct tuple.  The wiring is illegal for every
split at once when an index joins two coefficient slots, or when a word
index returns to its own atom (a doubled Q column needs two rows).
Coefficient pairs are orientation-free for this purpose: transposing an
abstract group element stays in the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..observables import ObservableSpec, spec_to_json_dict, validate_spec
from .core import Monomial, normalize

_ILLEGAL = "wiring does not match any legal simple/word split"


@dataclass
class Signature:
    """Recognition result for one monomial.

    ``fspec`` is the primary parameterization (most simple traces, then most
    direct columns); ``alternatives`` lists every legal (r, n1, s, n2, t)
    tuple the wiring admits -- the same observable usually has several, and
    the bookkeeping natural to a bracket derivation is not always the
    primary one.
    """

    canonical_loops: list = field(default_factory=list)
    fspec: ObservableSpec | None = None
    simple_loops: list = field(default_factory=list)
    word_loops: list = field(default_factory=list)
    alternatives: list = field(default_factory=list)
    valid: bool = False
    reason: str = ""

    def as_dict(self):
        if not self.valid:
            return {"valid": False, "reason": self.reason}
        out = {"valid": True, "canonical_loops": list(self.canonical_loops)}
        if self.fspec is not None:
            out["F"] = spec_to_json_dict(self.fspec)
            out["simple_loops"] = list(self.simple_loops)
            out["word_loops"] = list(self.word_loops)
            out["alternatives"] = [list(t) for t in self.alternatives]
        return out


def normalize_and_recognize(expr):
    """Normalize an expression and classify each surviving monomial.

    Returns (normalized expression, one Signature per monomial).
    """
    normalized = normalize(expr)
    return normalized, [recognize(m) for m in normalized.monomials]


def _links(decorated, coeffs):
    """The wiring as (trace links, coefficient links), or a failure reason.

    A trace link is the pair of atoms one index joins directly, a coefficient
    link the pair of atoms one coefficient joins; both come in order of first
    occurrence of their indices, trace slots before coefficient slots.
    """
    occ: dict[int, list] = {}
    for a, atom in enumerate(decorated):
        for i in atom.word:
            occ.setdefault(i, []).append(a)
    for c, atom in enumerate(coeffs):
        occ.setdefault(atom.row, []).append(("c", c))
        occ.setdefault(atom.col, []).append(("c", c))
    for i, ends in occ.items():
        if len(ends) != 2:
            return f"index i{i} occurs {len(ends)} time(s), expected exactly 2"
    trace_links, halves = [], {}
    for a, b in occ.values():
        if isinstance(a, int) and isinstance(b, int):
            trace_links.append((a, b))
        elif isinstance(a, int) or isinstance(b, int):
            atom, coeff = (a, b) if isinstance(a, int) else (b, a)
            halves.setdefault(coeff, []).append(atom)
        else:
            return _ILLEGAL
    return trace_links, [tuple(ends) for ends in halves.values()]


def recognize(monomial: Monomial) -> Signature:
    """Classify one monomial; see the module docstring."""
    canonical = sorted(str(t.loop) for t in monomial.traces if not t.word)
    decorated = [t for t in monomial.traces if t.word]
    if not decorated:
        if monomial.coeffs:
            return Signature(reason="coefficient atoms without decorated traces")
        return Signature(canonical_loops=canonical, valid=True)
    links = _links(decorated, monomial.coeffs)
    if isinstance(links, str):
        return Signature(reason=links)
    trace_links, coeff_links = links

    single = [len(atom.word) == 1 for atom in decorated]
    partner = {}
    for a, b in trace_links + coeff_links:
        partner[a], partner[b] = b, a
    simple = {a for a in range(len(decorated))
              if single[a] and not (single[partner[a]] and partner[a] < a)}

    def by_simple_end(pairs):
        """(links with a simple end, simple end first; links without one)."""
        with_simple, without = [], []
        for a, b in pairs:
            if a in simple or b in simple:
                with_simple.append((a, b) if a in simple else (b, a))
            else:
                without.append((a, b))
        return with_simple, without

    direct, doubles = by_simple_end(trace_links)
    alphas, betas = by_simple_end(coeff_links)
    loop = [str(atom.loop) for atom in decorated]
    word_order = sorted((a for a in range(len(decorated)) if a not in simple),
                        key=loop.__getitem__)
    rank = {a: w for w, a in enumerate(word_order)}
    t = len(word_order)

    def column(*atoms):
        """0/1 column over the word rows, 1 on the rows of ``atoms``."""
        hit = {rank[a] for a in atoms}
        return tuple(int(w in hit) for w in range(t))

    # K: direct links, then alpha pairs, each ordered by its simple atom's loop
    simple_ends = sorted(direct, key=lambda e: loop[e[0]]) + sorted(
        alphas, key=lambda e: loop[e[0]])
    # Q: doubled columns by their two rows, then each beta pair as an (odd,
    # even) pair of unit columns, oriented and ordered by word rank
    doubles.sort(key=lambda d: sorted((rank[d[0]], rank[d[1]])))
    betas = [sorted(p, key=rank.__getitem__) for p in betas]
    betas.sort(key=lambda p: rank[p[0]])
    q_cols = [column(a, b) for a, b in doubles]
    q_cols += [column(a) for pair in betas for a in pair]

    r, n1, s = len(direct), len(simple), len(doubles)
    n2 = s + len(betas)
    spec = ObservableSpec.from_columns(r, n1, s, n2, t,
                                       [column(w) for _, w in simple_ends], q_cols)
    if validate_spec(spec):
        return Signature(reason=_ILLEGAL)
    alternatives = sorted(
        ((r - xd, n1 - xd - xa, s + xd, n2 + xd + xa, t + xd + xa)
         for xd in range(r + 1) for xa in range(n1 - r + 1)),
        key=lambda tup: (-tup[1], -tup[0], tup[3]),
    )
    return Signature(
        canonical_loops=canonical,
        fspec=spec,
        simple_loops=[loop[a] for a, _ in simple_ends],
        word_loops=[loop[a] for a in word_order],
        alternatives=alternatives,
        valid=True,
    )
