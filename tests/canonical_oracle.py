"""Test oracles for ``symbolic.core.canonical_encoding``.

``encode_by_walks`` is the encoder's earlier form, kept here unchanged as a
reference: it walks from every atom with its component's smallest label and
branches over every order of an id's new atoms, so k atoms on one id cost
(k - 1)! walks per start even when their labels differ.  Its keys must
equal ``canonical_encoding``'s byte for byte, because ``normalize`` orders
its output by ``repr`` of the key.

``encode_by_search`` is the tie-group search.  Trace atoms are sorted by
(loop string, word length); within tie groups all orderings are tried and
the lexicographically smallest relabelled encoding wins.  k tied atoms on
each of two loops cost k! * k! orderings.  Ids seen only on coefficient
atoms are numbered in the order of a sort key on the coefficient atoms,
which ties when two atoms of one symbol agree on their ids seen on traces.
The search is therefore exact only where that cannot happen: where every
coefficient atom has an id on a trace and no id fills more than two slots,
as in bracket outputs.  Its keys differ in form from the encoder's; only
the partition they induce is comparable.
"""

import itertools

from goldmankit.symbolic.core import Monomial, wiring


def _walks(atoms, holders, order, placed, number, pos=0):
    """Every walk on from ``order[pos]``, as (encoding, atom order).

    A walk visits atoms in order, numbers each one's ids in slot order and
    appends the atoms sharing each newly numbered id; its encoding lists the
    atoms visited, each as its label and its ids' numbers.  Slots are ordered,
    so the start fixes the walk, except for the order of the new atoms of an
    id held by three or more atoms: there the walk branches.
    """
    while pos < len(order):
        groups = []
        for i in atoms[order[pos]][1]:
            if i not in number:
                number[i] = len(number)
                groups.append([b for b in dict.fromkeys(holders[i]) if b not in placed])
                placed.update(groups[-1])
        pos += 1
        if any(len(g) > 1 for g in groups):
            for choice in itertools.product(*map(itertools.permutations, groups)):
                more = [b for g in choice for b in g]
                yield from _walks(atoms, holders, order + more, set(placed), dict(number), pos)
            return
        order += [b for g in groups for b in g]
    yield tuple((atoms[a][0], tuple(number[i] for i in atoms[a][1])) for a in order), order


def encode_by_walks(m: Monomial):
    """Hashable form shared exactly by renamings and reorderings of ``m``.

    Each connected component of the wiring is encoded by its smallest walk
    from any of its atoms; the key is the sorted encodings plus ``extended``.
    """
    atoms, holders = wiring(m)
    best = {}  # component, as its set of atoms -> its smallest walk so far
    for s in sorted(range(len(atoms)), key=lambda a: atoms[a][0]):
        # a walk opens with its start's label, so only the smallest can win
        if any(s in part and enc[0][0] < atoms[s][0] for part, enc in best.items()):
            continue
        for enc, order in _walks(atoms, holders, [s], {s}, {}):
            part = frozenset(order)
            best[part] = min(best.get(part, enc), enc)
    return tuple(sorted(best.values())), m.extended


def encode_by_search(m: Monomial):
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
