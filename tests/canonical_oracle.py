"""Test oracle for ``symbolic.core.canonical_encoding``: the tie-group search.

Trace atoms are sorted by (loop string, word length); within tie groups all
orderings are tried and the lexicographically smallest relabelled encoding
wins.  k tied atoms on each of two loops cost k! * k! orderings.  Ids seen
only on coefficient atoms are numbered in the order of a sort key on the
coefficient atoms, which ties when two atoms of one symbol agree on their
ids seen on traces.  The oracle is therefore exact only where that cannot
happen: where every coefficient atom has an id on a trace and no id fills
more than two slots, as in bracket outputs.  ``canonical_encoding`` walks
the wiring and needs neither the search nor that condition.
"""

import itertools

from goldmankit.symbolic.core import Monomial


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
