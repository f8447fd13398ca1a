"""Test oracle for ``symbolic.signature.recognize``: the exhaustive split search.

It tries every subset of the single-letter atoms as the simple set, classifies
the wiring, builds and validates a spec for each legal split, and keeps the
best by (most simple traces, most direct K columns, fewest Q pairs), the
first-found subset winning ties.  Exponential in the number of single-letter
atoms; ``recognize`` derives the same result from the wiring directly.
"""

import itertools

import numpy as np

from goldmankit.observables import ObservableSpec, validate_spec
from goldmankit.symbolic import Signature
from goldmankit.symbolic.core import Monomial


def _occurrences(decorated, coeffs):
    occ: dict[int, list] = {}
    for a_idx, atom in enumerate(decorated):
        for pos, i in enumerate(atom.word):
            occ.setdefault(i, []).append(("t", a_idx, pos))
    for c_idx, c in enumerate(coeffs):
        occ.setdefault(c.row, []).append(("c", c_idx, "row"))
        occ.setdefault(c.col, []).append(("c", c_idx, "col"))
    return occ


def _try_split(decorated, coeffs, occ, simple_idx: frozenset):
    """Classify the wiring for one simple/word split; None when illegal."""
    word_idx = [k for k in range(len(decorated)) if k not in simple_idx]
    if not word_idx:
        return None
    is_simple = lambda slot: slot[1] in simple_idx

    direct = []        # (index, simple slot, word slot)
    doubles = []       # (index, word slot, word slot)
    coeff_pairs = {}   # coeff idx -> [(index, trace slot), ...]
    for i, slots in occ.items():
        if len(slots) != 2:
            return None
        kinds = sorted(s[0] for s in slots)
        if kinds == ["t", "t"]:
            a, b = slots
            if is_simple(a) and is_simple(b):
                return None
            if is_simple(a) or is_simple(b):
                direct.append((i, a if is_simple(a) else b, b if is_simple(a) else a))
            else:
                doubles.append((i, a, b))
        elif kinds == ["c", "t"]:
            c = slots[0] if slots[0][0] == "c" else slots[1]
            t = slots[1] if slots[0][0] == "c" else slots[0]
            coeff_pairs.setdefault(c[1], []).append((i, t))
        else:
            return None
    alpha_pairs, beta_pairs = [], []
    for c_idx, ends in coeff_pairs.items():
        if len(ends) != 2:
            return None
        (i1, t1), (i2, t2) = ends
        simple_ends = [e for e in ((i1, t1), (i2, t2)) if is_simple(e[1])]
        word_ends = [e for e in ((i1, t1), (i2, t2)) if not is_simple(e[1])]
        if len(simple_ends) == 1:
            alpha_pairs.append((c_idx, simple_ends[0], word_ends[0]))
        elif len(simple_ends) == 0:
            beta_pairs.append((c_idx, word_ends[0], word_ends[1]))
        else:
            return None
    # every simple atom's single letter must be direct or alpha-paired
    for k in simple_idx:
        i = decorated[k].word[0]
        slots = occ[i]
        ok = any(d[0] == i for d in direct) or any(p[1][0] == i for p in alpha_pairs)
        if not ok:
            return None
    return direct, doubles, alpha_pairs, beta_pairs, word_idx


def _build_spec(decorated, simple_idx, split):
    direct, doubles, alpha_pairs, beta_pairs, word_idx = split
    loop_of = lambda k: str(decorated[k].loop)
    t = len(word_idx)
    n1 = len(simple_idx)
    r = len(direct)
    s = len(doubles)
    n2 = s + len(beta_pairs)
    word_order = sorted(word_idx, key=loop_of)
    word_rank = {k: w for w, k in enumerate(word_order)}

    def word_col(slot_index):
        """0/1 column of length t marking the word atoms holding this index."""
        col = [0] * t
        for (kind, a_idx, _pos) in occ_lookup[slot_index]:
            if kind == "t" and a_idx in word_rank:
                col[word_rank[a_idx]] = 1
        return tuple(col)

    occ_lookup = _occurrences(decorated, [])
    # order simple atoms: direct ones first, then alpha-paired, each sorted
    direct_sorted = sorted(direct, key=lambda d: loop_of(d[1][1]))
    alpha_sorted = sorted(alpha_pairs, key=lambda p: loop_of(p[1][1][1]))
    simple_order = [d[1][1] for d in direct_sorted] + [p[1][1][1] for p in alpha_sorted]
    k_cols = [word_col(d[0]) for d in direct_sorted]
    k_cols += [word_col(p[2][0]) for p in alpha_sorted]
    # Q: doubled columns first, then beta pairs as (odd, even) singleton columns
    # oriented by the word order of their two atoms
    doubles_sorted = sorted(doubles, key=lambda d: tuple(sorted(
        (word_rank[d[1][1]], word_rank[d[2][1]])
    )))
    q_cols = [word_col(d[0]) for d in doubles_sorted]
    beta_cols = []
    for (_c, end1, end2) in sorted(
        beta_pairs, key=lambda p: min(word_rank[p[1][1][1]], word_rank[p[2][1][1]])
    ):
        first, second = sorted((end1, end2), key=lambda e: word_rank[e[1][1]])
        beta_cols.append((word_col(first[0]), word_col(second[0])))
    odd_cols = [c for c, _ in beta_cols]
    even_cols = [c for _, c in beta_cols]
    for a, b in zip(odd_cols, even_cols):
        q_cols.extend((a, b))
    K = np.array(k_cols, dtype=int).T.reshape(t, n1) if n1 else np.zeros((t, 0), int)
    Q = np.array(q_cols, dtype=int).T.reshape(t, 2 * n2 - s) if q_cols else np.zeros((t, 0), int)
    spec = ObservableSpec.make(r, n1, s, n2, t, K, Q)
    simple_loops = [loop_of(k) for k in simple_order]
    word_loops = [loop_of(k) for k in word_order]
    return spec, simple_loops, word_loops



def recognize_by_search(monomial: Monomial) -> Signature:
    """``recognize`` by trying every subset of single-letter atoms as the
    simple set, ranked by (n1, r, -n2), the first-found subset winning ties."""
    canonical = sorted(
        str(t.loop) for t in monomial.traces if not t.word
    )
    decorated = [t for t in monomial.traces if t.word]
    coeffs = list(monomial.coeffs)
    if not decorated:
        if coeffs:
            return Signature(reason="coefficient atoms without decorated traces")
        return Signature(canonical_loops=canonical, valid=True)
    occ = _occurrences(decorated, coeffs)
    for i, slots in occ.items():
        if len(slots) != 2:
            return Signature(
                reason=f"index i{i} occurs {len(slots)} time(s), expected exactly 2"
            )
    single = [k for k, a in enumerate(decorated) if len(a.word) == 1]
    best = None
    best_rank = None
    alternatives = []
    for size in range(len(single), -1, -1):
        for combo in itertools.combinations(single, size):
            simple_idx = frozenset(combo)
            split = _try_split(decorated, coeffs, occ, simple_idx)
            if split is None:
                continue
            spec, simple_loops, word_loops = _build_spec(decorated, simple_idx, split)
            if validate_spec(spec):
                continue
            tup = (spec.r, spec.n1, spec.s, spec.n2, spec.t)
            if tup not in alternatives:
                alternatives.append(tup)
            rank = (spec.n1, spec.r, -spec.n2)
            if best_rank is None or rank > best_rank:
                best_rank = rank
                best = (spec, simple_loops, word_loops)
    if best is None:
        return Signature(reason="wiring does not match any legal simple/word split")
    spec, simple_loops, word_loops = best
    return Signature(
        canonical_loops=canonical,
        fspec=spec,
        simple_loops=simple_loops,
        word_loops=word_loops,
        alternatives=sorted(alternatives, key=lambda t: (-t[1], -t[0], t[3])),
        valid=True,
    )
