"""Expression core for the symbolic loop-bracket engine.

An Expression is a rational-linear combination of monomials; a monomial is a
product of trace atoms ``tr(M_loop O_{i1} ... O_{ik})`` over loop terms and
abstract coefficient entries ``sym[i, j]`` (the symbol standing for a fixed
but unknown 7x7 group element), with every index id implicitly summed over
1..7.  Loop terms are either base symbols -- pairwise transversally
intersecting once, by standing assumption -- or composites built by bracket
resolution: ``a.b`` and ``a.~b`` for the two smoothings.

Everything here is immutable.  ``wiring`` is the one reader of which atoms
hold which ids; ``indices`` reads only which ids occur.  ``normalize`` merges
monomials that agree up to index renaming and atom reordering, and renumbers
ids so no id is shared between two monomials' binders.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
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


def symbols(expr: "Expression"):
    """(sorted base-loop names, sorted coefficient symbols) of an expression."""
    loops, syms = set(), set()
    for m in expr.monomials:
        loops.update(*(base_loops(t.loop) for t in m.traces))
        syms.update(c.sym for c in m.coeffs)
    return sorted(loops), sorted(syms)


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
        return frozenset(itertools.chain(*(t.word for t in self.traces),
                                         *((c.row, c.col) for c in self.coeffs)))

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
    top = max((i for m in a.monomials for i in m.indices()), default=-1)
    return a * Expression(tuple(shift_ids(m, top + 1) for m in b.monomials))


ZERO = Expression(())


def atom_expr(atom: TraceAtom, coeff=Fraction(1)) -> Expression:
    return Expression((Monomial(Fraction(coeff), (atom,)),))


def rename_indices(m: Monomial, table: dict) -> Monomial:
    """The monomial with every index id i replaced by table[i]."""
    traces = tuple(
        TraceAtom(t.loop, tuple(table[i] for i in t.word)) for t in m.traces
    )
    coeffs = tuple(CoeffAtom(c.sym, table[c.row], table[c.col]) for c in m.coeffs)
    return Monomial(m.coeff, traces, coeffs, m.extended)


def shift_ids(m: Monomial, offset: int) -> Monomial:
    """The monomial with every index id i replaced by i + offset."""
    return rename_indices(m, {i: i + offset for i in m.indices()})


def wiring(m: Monomial):
    """The index wiring of a monomial, as (atoms, holders).

    ``atoms`` lists the traces as ``(("tr", loop), word)``, then the
    coefficients as ``(("c", sym), (row, col))``.  ``holders`` maps each id,
    in order of first occurrence, to the atom of each slot holding it.
    """
    atoms = [(("tr", str(t.loop)), t.word) for t in m.traces]
    atoms += [(("c", c.sym), (c.row, c.col)) for c in m.coeffs]
    holders: dict[int, list] = {}
    for a, (_, ids) in enumerate(atoms):
        for i in ids:
            holders.setdefault(i, []).append(a)
    return atoms, holders


WALK_BUDGET = 10 ** 5  # walks one canonical_encoding may take; a larger bound is refused


def _walk(atoms, holders, order, number, enc, plain=False):
    """The smallest encoding of the walks that go on from ``order[len(enc)]``.

    A walk visits atoms in order, numbers each one's ids in slot order and
    appends the atoms newly sharing each numbered id; its encoding ``enc``
    lists the atoms visited, each as its label and its ids' numbers.  Slots
    are ordered, so the start fixes the walk except for the order of the new
    atoms of an id held by three or more atoms.  Those are appended sorted by
    label: of two orders, the one with the smaller label at the first place
    they differ encodes smaller there.  Only runs of equal label are branched
    over, each order walked on by a call of its own.  ``plain`` says that no
    id of the component is on three atoms: one walk from ``order[0]``, no runs.
    """
    placed = set(order)
    if plain:
        for a in order:  # order grows as the walk reaches new atoms
            label, ids = atoms[a]
            for i in ids:
                if i not in number:
                    number[i] = len(number)
                    for b in holders[i]:
                        if b not in placed:
                            placed.add(b)
                            order.append(b)
            enc.append((label, tuple(map(number.__getitem__, ids))))
        return tuple(enc)
    while len(enc) < len(order):
        label, ids = atoms[order[len(enc)]]
        runs = []  # (start, stop) in order of each run of new atoms with one label
        for i in ids:
            if i in number:
                continue
            number[i] = len(number)
            if len(holders[i]) < 3:  # one holder besides the atom at most
                for b in holders[i]:
                    if b not in placed:
                        placed.add(b)
                        order.append(b)
                continue
            new = sorted({b for b in holders[i] if b not in placed}, key=lambda b: atoms[b][0])
            start = len(order)
            for _, run in itertools.groupby(new, key=lambda b: atoms[b][0]):
                stop = start + len(list(run))
                if stop - start > 1:
                    runs.append((start, stop))
                start = stop
            placed.update(new)
            order += new
        enc.append((label, tuple(map(number.__getitem__, ids))))
        if runs:
            best = None
            for choice in itertools.product(*(itertools.permutations(order[s:e])
                                              for s, e in runs)):
                branch = order[:]
                for (s, e), run in zip(runs, choice):
                    branch[s:e] = run
                walk = _walk(atoms, holders, branch, dict(number), enc[:])
                best = walk if best is None else min(best, walk)
            return best
    return tuple(enc)


def _orders(atoms, group):
    """Product over the labels of the atoms in ``group`` of their counts'
    factorials, over the smallest count."""
    counts = collections.Counter(atoms[b][0] for b in group).values()
    return math.prod(map(math.factorial, counts)) // min(counts)


def _branches(atoms, tied):
    """Most walks from one start, given the holder sets of its component's
    ids held by three or more atoms.

    A walk branches only over the orders of runs of new atoms of one label
    at such an id.  The atom that numbers the id is not new there, and no
    atom is new twice, so the walks are at most the product over those ids
    of ``_orders`` of their holders, and at most ``_orders`` of all atoms
    that hold one of them.
    """
    per_id = math.prod(_orders(atoms, group) for group in tied)
    return min(per_id, _orders(atoms, set().union(*tied)))


def canonical_encoding(m: Monomial):
    """Hashable form shared exactly by renamings and reorderings of ``m``.

    Each connected component of the wiring is found once and encoded by its
    smallest walk from its atoms of the smallest label (a walk opens with its
    start's label); the key is the sorted encodings plus ``extended``.  The
    walks are bounded before any is taken, by the starts times
    ``_branches``, and a bound over ``WALK_BUDGET`` is refused with
    ValueError.
    """
    atoms, holders = wiring(m)
    parts, seen, bound = [], set(), 0
    for s in range(len(atoms)):
        if s in seen:
            continue
        seen.add(s)
        part, starts, low, tied = [s], [s], atoms[s][0], {}
        for a in part:
            for i in atoms[a][1]:
                held = holders[i]
                if len(held) > 2:
                    tied[i] = set(held)
                for b in held:
                    if b in seen:
                        continue
                    seen.add(b)
                    part.append(b)
                    label = atoms[b][0]
                    if label < low:
                        starts, low = [b], label
                    elif label == low:
                        starts.append(b)
        parts.append((starts, not tied))
        bound += len(starts) * (_branches(atoms, list(tied.values())) if tied else 1)
    if bound > WALK_BUDGET:
        raise ValueError(f"canonical encoding may take {bound} walks, over the budget of "
                         f"{WALK_BUDGET}: too many atoms of one label share an index")
    encodings = sorted(_walk(atoms, holders, starts, {}, [], plain) if len(starts) == 1
                       else min(_walk(atoms, holders, [s], {}, [], plain) for s in starts)
                       for starts, plain in parts)
    return tuple(encodings), m.extended


def normalize(expr: Expression) -> Expression:
    """Merge identical monomials, drop zeros, and give monomials disjoint ids.

    Raises ValueError where ``canonical_encoding`` refuses a monomial, one
    whose walks could exceed ``WALK_BUDGET``."""
    merged: dict = {}  # key -> [summed coefficient, first monomial seen]
    for m in expr.monomials:
        key = canonical_encoding(m)
        entry = merged.get(key)
        if entry:
            entry[0] += m.coeff
        else:
            merged[key] = [m.coeff, m]
    out, next_id = [], 0
    for key in sorted(merged, key=repr):
        coeff, m = merged[key]
        if coeff == 0:
            continue
        ids = sorted(m.indices())
        table = {i: next_id + k for k, i in enumerate(ids)}
        next_id += len(ids)
        out.append(rename_indices(Monomial(coeff, m.traces, m.coeffs, m.extended), table))
    return Expression(tuple(out))


def expressions_equal(a: Expression, b: Expression) -> bool:
    return not normalize(a + b.scale(-1)).monomials


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
