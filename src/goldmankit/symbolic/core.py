"""Expression core for the symbolic loop-bracket engine.

An Expression is a rational-linear combination of monomials; a monomial is a
product of trace atoms ``tr(M_loop O_{i1} ... O_{ik})`` over loop terms and
abstract coefficient entries ``sym[i, j]`` (the symbol standing for a fixed
but unknown 7x7 group element), with every index id implicitly summed over
1..7.  Loop terms are either base symbols -- pairwise transversally
intersecting once, by standing assumption -- or composites built by bracket
resolution: ``a.b`` and ``a.~b`` for the two smoothings.

Everything here is immutable; ``normalize`` merges monomials that agree up
to index renaming and trace-factor reordering, and renumbers ids so no id is
shared between two monomials' binders.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Loop:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Composite:
    left: "LoopTerm"
    right: "LoopTerm"
    invert_right: bool = False

    def __str__(self):
        op = ".~" if self.invert_right else "."
        return f"({self.left}{op}{self.right})"


LoopTerm = Loop | Composite


def base_loops(term: LoopTerm) -> frozenset:
    if isinstance(term, Loop):
        return frozenset((term.name,))
    return base_loops(term.left) | base_loops(term.right)


@dataclass(frozen=True)
class TraceAtom:
    loop: LoopTerm
    word: tuple = ()  # index ids of the octonion decorations, in word order

    def __str__(self):
        if not self.word:
            return f"tr({self.loop})"
        letters = " ".join(f"O i{i}" for i in self.word)
        return f"tr({self.loop}; {letters})"


@dataclass(frozen=True)
class CoeffAtom:
    sym: str
    row: int
    col: int

    def __str__(self):
        return f"{self.sym}[i{self.row},i{self.col}]"


@dataclass(frozen=True)
class Monomial:
    coeff: Fraction
    traces: tuple = ()
    coeffs: tuple = ()
    extended: bool = False

    def indices(self) -> frozenset:
        ids = set()
        for t in self.traces:
            ids.update(t.word)
        for c in self.coeffs:
            ids.update((c.row, c.col))
        return frozenset(ids)

    def __str__(self):
        ids = sorted(self.indices())
        binder = ("sum " + " ".join(f"i{i}" for i in ids) + ": ") if ids else ""
        factors = [str(t) for t in self.traces] + [str(c) for c in self.coeffs]
        body = " * ".join(factors) if factors else "1"
        coeff = "" if self.coeff == 1 and factors else f"{self.coeff} * "
        tag = "  [extended]" if self.extended else ""
        return f"{coeff}{binder}{body}{tag}"


@dataclass(frozen=True)
class Expression:
    monomials: tuple = ()

    def __add__(self, other: "Expression") -> "Expression":
        return Expression(self.monomials + other.monomials)

    def scale(self, c) -> "Expression":
        c = Fraction(c)
        return Expression(tuple(
            Monomial(c * m.coeff, m.traces, m.coeffs, m.extended) for m in self.monomials
        ))

    def __mul__(self, other: "Expression") -> "Expression":
        """Raw product: atoms concatenate and ids are kept as-is.

        Factors produced by one parse share one id allocator, so ids common
        to both operands are *deliberately* the same summation index.  To
        multiply independently built expressions, remap one side first (see
        ``disjoint_product``).
        """
        out = []
        for a in self.monomials:
            for b in other.monomials:
                out.append(Monomial(
                    a.coeff * b.coeff,
                    a.traces + b.traces,
                    a.coeffs + b.coeffs,
                    a.extended or b.extended,
                ))
        return Expression(tuple(out))


    def __str__(self):
        if not self.monomials:
            return "0"
        return "\n+ ".join(str(m) for m in self.monomials)


def disjoint_product(a: Expression, b: Expression) -> Expression:
    """Product of independently built expressions; b's ids are shifted clear."""
    top = max((_max_id(m) for m in a.monomials), default=-1)
    shifted = Expression(tuple(_shift_ids(m, top + 1) for m in b.monomials))
    return a * shifted


ZERO = Expression(())


def atom_expr(atom: TraceAtom, coeff=Fraction(1)) -> Expression:
    return Expression((Monomial(Fraction(coeff), (atom,)),))


def _max_id(m: Monomial) -> int:
    ids = m.indices()
    return max(ids) if ids else -1


def rename_indices(m: Monomial, table: dict) -> Monomial:
    """The monomial with every index id i replaced by table[i]."""
    traces = tuple(
        TraceAtom(t.loop, tuple(table[i] for i in t.word)) for t in m.traces
    )
    coeffs = tuple(CoeffAtom(c.sym, table[c.row], table[c.col]) for c in m.coeffs)
    return Monomial(m.coeff, traces, coeffs, m.extended)


def _shift_ids(m: Monomial, offset: int) -> Monomial:
    ids = m.indices()
    if not ids:
        return m
    return rename_indices(m, {i: i + offset for i in ids})


def canonical_encoding(m: Monomial):
    """Hashable form invariant under index renaming and trace reordering.

    Trace atoms are sorted by (loop string, word length); within tie groups
    all orderings are tried and the lexicographically smallest relabelled
    encoding wins.  Groups are tiny in practice, so the search is cheap.
    """
    keyed = sorted(m.traces, key=lambda t: (str(t.loop), len(t.word)))
    groups = [
        list(g) for _, g in itertools.groupby(
            keyed, key=lambda t: (str(t.loop), len(t.word))
        )
    ]
    best = None
    for perm_choice in itertools.product(*[itertools.permutations(g) for g in groups]):
        order = [t for group in perm_choice for t in group]
        table = {}
        for t in order:
            for i in t.word:
                table.setdefault(i, len(table))
        coeff_atoms = list(m.coeffs)
        # ids seen only on coefficient atoms are assigned in a stable order
        for c in sorted(coeff_atoms, key=lambda c: (c.sym,
                                                    table.get(c.row, 1 << 30),
                                                    table.get(c.col, 1 << 30))):
            table.setdefault(c.row, len(table))
            table.setdefault(c.col, len(table))
        enc_traces = tuple(
            (str(t.loop), tuple(table[i] for i in t.word)) for t in order
        )
        enc_coeffs = tuple(sorted(
            (c.sym, table[c.row], table[c.col]) for c in coeff_atoms
        ))
        enc = (enc_traces, enc_coeffs, m.extended)
        if best is None or enc < best:
            best = enc
    return best


def normalize(expr: Expression) -> Expression:
    """Merge identical monomials, drop zeros, and give monomials disjoint ids."""
    merged: dict = {}
    shapes: dict = {}
    for m in expr.monomials:
        key = canonical_encoding(m)
        merged[key] = merged.get(key, Fraction(0)) + m.coeff
        shapes.setdefault(key, m)
    out = []
    next_id = 0
    for key in sorted(merged, key=repr):
        coeff = merged[key]
        if coeff == 0:
            continue
        m = shapes[key]
        ids = sorted(m.indices())
        table = {i: next_id + k for k, i in enumerate(ids)}
        next_id += len(ids)
        out.append(rename_indices(
            Monomial(coeff, m.traces, m.coeffs, m.extended), table
        ))
    return Expression(tuple(out))


def expressions_equal(a: Expression, b: Expression) -> bool:
    def bag(e):
        return sorted((repr(canonical_encoding(m)), m.coeff) for m in normalize(e).monomials)
    return bag(a) == bag(b)


def to_json(expr: Expression, signatures=None) -> str:
    """JSON lines-ish dump: one object per monomial."""
    items = []
    for k, m in enumerate(expr.monomials):
        obj = {
            "coeff": str(m.coeff),
            "atoms": [str(t) for t in m.traces],
            "coeff_atoms": [str(c) for c in m.coeffs],
            "extended": m.extended,
            "signature": signatures[k] if signatures is not None else None,
        }
        items.append(obj)
    return json.dumps(items, indent=2, sort_keys=True)
