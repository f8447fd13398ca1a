"""Exotic G2 gauge-invariant observables.

An observable is parameterised by non-negative integers (r, s, n1, n2) with
r <= n1, s <= n2, a positive t <= n1 + 2*n2, and two (0,1)-matrices::

    K : t x n1          exactly one 1 per column
    Q : t x (2*n2 - s)  two 1s per column in the first s columns,
                        one 1 per column in the remaining 2*n2 - 2s

It contracts, over summed indices l_1 .. l_{2n1+2n2-r-s} each running 1..7,

* n1 singly-decorated traces  tr(M_j O_{l_j}),
* t word traces, row m carrying the ordered product of O's selected by the
  1-entries of row m across K's columns then Q's columns,
* n1 - r coefficient factors (alpha^m)_{l_{r+m}, l_{n1+m}},
* n2 - s coefficient factors (beta^k)_{l_{2n1-r+s+k}, l_{2n1-r+n2+k}},

where the K column c binds l_c (c <= r) or l_{n1+c-r} (c > r), the first s
Q columns bind l_{2n1-r+c}, and the trailing singleton Q columns alternate
between the blocks l_{2n1-r+s+*} (odd offsets) and l_{2n1-r+n2+*} (even
offsets).  Every index thus occurs in exactly two factors.

``evaluate`` is the tensor-network contraction ``contract``, which also
evaluates the monomials of the symbolic engine: each word trace a ring of
letter tensors, the whole network contracted pairwise on one greedy plan per
index structure (``_plan``), one plan and one einsum call per step for a
single network or a (B, 7, 7) stack.  ``evaluate_brute`` is the reference
oracle, refused above a budget: one einsum with no contraction path, a
literal sum over all 7^#indices tuples, of the coefficient matrices and the
word tables ``word_trace_table``, each the trace contraction of its word's
two halves.  K and Q are plain tuples of 0/1 rows.  ``gauge_drift`` is the
one gauge loop; ``negative_control``, shared by ``invariance_test`` and the
symbolic closure check, runs through it.  Invariance is under *simultaneous*
conjugation of every monodromy and every alpha/beta by one group element;
nothing is claimed when the coefficients are held fixed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from string import ascii_letters

import numpy as np

from .bases import Family, check_int
from .goldman import sample_substreams
from .octonions import unit_matrices
from .reports import CheckRun, VerificationReport


_COUNTS = ("r", "n1", "s", "n2", "t")  # an observable's integer parameters, in order


@dataclass(frozen=True)
class ObservableSpec:
    r: int
    n1: int
    s: int
    n2: int
    t: int
    K: tuple  # rows, each a tuple of 0/1, shape t x n1
    Q: tuple  # shape t x (2*n2 - s)

    @classmethod
    def make(cls, r, n1, s, n2, t, K, Q) -> "ObservableSpec":
        """Spec from K and Q given as row sequences (lists, tuples, 2-D integer arrays).

        Counts and entries must pass ``check_int``.  A matrix with no entries at all
        stands for t empty rows.
        """
        r, n1, s, n2, t = map(check_int, (r, n1, s, n2, t), _COUNTS)

        def rows(m, name):
            out = tuple(tuple(check_int(x, f"{name} entry") for x in row) for row in m)
            return out if any(out) else ((),) * t

        return cls(r, n1, s, n2, t, rows(K, "K"), rows(Q, "Q"))

    @classmethod
    def from_columns(cls, r, n1, s, n2, t, k_cols, q_cols) -> "ObservableSpec":
        """Spec from the columns of K and Q, each a length-t 0/1 tuple."""
        rows = lambda cols: tuple(tuple(col[i] for col in cols) for i in range(t))
        return cls(r, n1, s, n2, t, rows(k_cols), rows(q_cols))

    @property
    def n_indices(self) -> int:
        return 2 * self.n1 + 2 * self.n2 - self.r - self.s

    @property
    def n_loops(self) -> int:
        return self.n1 + self.t


def _parameter_errors(r, n1, s, n2, t) -> list[str]:
    """Violations of the bounds on (r, n1, s, n2, t); empty when they hold."""
    errors = []
    for name, value in (("r", r), ("n1", n1), ("s", s), ("n2", n2)):
        if value < 0:
            errors.append(f"{name} must be non-negative, got {value}")
    if t < 1:
        errors.append(f"t must be a positive integer, got {t}")
    if r > n1:
        errors.append(f"r={r} exceeds n1={n1}")
    if s > n2:
        errors.append(f"s={s} exceeds n2={n2}")
    if t > n1 + 2 * n2:
        errors.append(f"t={t} exceeds n1 + 2*n2 = {n1 + 2 * n2}")
    return errors


def validate_spec(spec: ObservableSpec) -> list[str]:
    """All constraint violations, with column indices; empty when valid."""
    r, n1, s, n2, t = spec.r, spec.n1, spec.s, spec.n2, spec.t
    errors = _parameter_errors(r, n1, s, n2, t)
    if errors:
        return errors
    for name, m, cols in (("K", spec.K, n1), ("Q", spec.Q, 2 * n2 - s)):
        widths = sorted({len(row) for row in m})
        if len(m) != t or widths != [cols]:
            shape = (len(m), *widths) if len(widths) == 1 else (len(m), widths)
            errors.append(f"{name} has shape {shape}, expected ({t}, {cols})")
    if errors:
        return errors
    if any(x not in (0, 1) for m in (spec.K, spec.Q) for row in m for x in row):
        return ["K and Q must contain only 0/1 entries"]
    for c in range(n1):
        ones = sum(row[c] for row in spec.K)
        if ones != 1:
            errors.append(f"column {c + 1} of K has {ones} ones, expected 1")
    for c in range(2 * n2 - s):
        ones = sum(row[c] for row in spec.Q)
        want = 2 if c < s else 1
        if ones != want:
            errors.append(f"column {c + 1} of Q has {ones} ones, expected {want}")
    return errors


def require_valid(spec: ObservableSpec):
    """Raise ValueError listing every violation unless the spec is valid."""
    errors = validate_spec(spec)
    if errors:
        raise ValueError("invalid observable spec: " + "; ".join(errors))


def index_layout(spec: ObservableSpec):
    """(simple, words, alphas, betas) in 0-based summed-index positions.

    simple[j]      index of the j-th singly-decorated trace
    words[m]       ordered index list of word row m
    alphas[m]      (row, col) index pair of alpha^{m+1}
    betas[k]       (row, col) index pair of beta^{k+1}
    """
    r, n1, s, n2 = spec.r, spec.n1, spec.s, spec.n2

    def k_col_pos(c):  # 0-based column c of K
        return c if c < r else n1 + (c - r)

    def q_col_pos(c):  # 0-based column c of Q
        if c < s:
            return 2 * n1 - r + c
        u = c - s
        if u % 2 == 0:
            return 2 * n1 - r + s + u // 2
        return 2 * n1 - r + n2 + (u - 1) // 2

    simple = list(range(n1))
    words = []
    for k_row, q_row in zip(spec.K, spec.Q):
        row = [k_col_pos(c) for c in range(n1) if k_row[c]]
        row += [q_col_pos(c) for c in range(2 * n2 - s) if q_row[c]]
        words.append(tuple(row))
    alphas = [(r + m, n1 + m) for m in range(n1 - r)]
    betas = [(2 * n1 - r + s + k, 2 * n1 - r + n2 + k) for k in range(n2 - s)]
    return simple, words, alphas, betas


_SPEC_BUDGET = 10 ** 5  # enumerate_specs refuses to build more specs than this


def enumerate_specs(r: int, n1: int, s: int, n2: int, t: int) -> list[ObservableSpec]:
    """All (K, Q) choices for fixed parameters, in lexicographic column order.

    The count is t^n1 * C(t,2)^s * t^(2*n2-2*s); a count over ``_SPEC_BUDGET``
    is refused with ValueError before any spec is built.
    """
    r, n1, s, n2, t = map(check_int, (r, n1, s, n2, t), _COUNTS)
    param_errors = _parameter_errors(r, n1, s, n2, t)
    if param_errors:
        raise ValueError("invalid parameters: " + "; ".join(param_errors))
    count = spec_count(r, n1, s, n2, t)
    if count > _SPEC_BUDGET:
        raise ValueError(f"parameters ({r}, {n1}, {s}, {n2}, {t}) give {count} specs, "
                         f"over the budget of {_SPEC_BUDGET}")
    unit_cols = [tuple(1 if i == pick else 0 for i in range(t)) for pick in range(t)]
    double_cols = [
        tuple(1 if i in pair else 0 for i in range(t))
        for pair in itertools.combinations(range(t), 2)
    ]
    q_choices = [double_cols] * s + [unit_cols] * (2 * (n2 - s))
    return [
        ObservableSpec.from_columns(r, n1, s, n2, t, k_cols, q_cols)
        for k_cols in itertools.product(unit_cols, repeat=n1)
        for q_cols in itertools.product(*q_choices)
    ]


def spec_count(r: int, n1: int, s: int, n2: int, t: int) -> int:
    return t ** n1 * math.comb(t, 2) ** s * t ** (2 * n2 - 2 * s)


@dataclass(frozen=True)
class ObservableInstance:
    spec: ObservableSpec
    monodromies: tuple  # n1 + t matrices: simple slots first, then word rows
    alphas: tuple
    betas: tuple

    def __post_init__(self):
        if len(self.monodromies) != self.spec.n_loops:
            raise ValueError(
                f"expected {self.spec.n_loops} monodromies, got {len(self.monodromies)}"
            )
        if len(self.alphas) != self.spec.n1 - self.spec.r:
            raise ValueError(f"expected {self.spec.n1 - self.spec.r} alpha factors")
        if len(self.betas) != self.spec.n2 - self.spec.s:
            raise ValueError(f"expected {self.spec.n2 - self.spec.s} beta factors")

    def conjugated(self, g: np.ndarray) -> "ObservableInstance":
        """X -> g X g^-1 on every matrix slot at once; a (B, 7, 7) stack of g gives stacks."""
        mats = conjugate(g, np.stack(self.monodromies + self.alphas + self.betas))
        n, a = len(self.monodromies), len(self.monodromies) + len(self.alphas)
        return ObservableInstance(self.spec, tuple(mats[:n]), tuple(mats[n:a]), tuple(mats[a:]))


def conjugate(g: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """g M g^T for each M of an (E, 7, 7) stack: (E, 7, 7), or (E, B, 7, 7) for B gauges g."""
    if np.ndim(g) == 3:
        mats = mats[:, None]
    return g @ mats @ np.swapaxes(g, -1, -2)


def random_instance(spec: ObservableSpec, seed: int = 0) -> ObservableInstance:
    require_valid(spec)
    n_coeff = (spec.n1 - spec.r) + (spec.n2 - spec.s)
    mats, _, _ = sample_substreams(Family.G2, 1, seed, [((0,), spec.n_loops + n_coeff)])
    n, a = spec.n_loops, spec.n_loops + spec.n1 - spec.r
    return ObservableInstance(spec, tuple(mats[:n]), tuple(mats[n:a]), tuple(mats[a:]))


def word_trace_table(m: np.ndarray, length: int) -> np.ndarray:
    """T[i1..ik] = tr(M O_{i1} ... O_{ik}) as a (..., 7, ..., 7) array, k = ``length``.

    The table is read only by the oracle ``evaluate_brute``; ``contract`` never
    builds it.  It is split in two: the first h = k // 2 letters multiply
    onto M and the rest onto I, as (..., 7^h, 7, 7) and (7^(k-h), 7, 7)
    stacks of words, and one trace contraction of the two halves gives it.  No
    array holds more than about 7^k entries.  M may be a (..., 7, 7) stack.
    """
    length = check_int(length, "length", 0)
    o = unit_matrices()

    def grow(words, letters):  # every word times every O_i1 ... O_i{letters}, in index order
        for _ in range(letters):
            words = np.einsum("...Iab,ibc->...Iiac", words, o).reshape(*words.shape[:-3], -1, 7, 7)
        return words

    head = grow(np.asarray(m)[..., None, :, :], length // 2)
    tail = grow(np.eye(7)[None], length - length // 2)
    table = np.einsum("...Iab,Jba->...IJ", head, tail)
    return table.reshape(table.shape[:-2] + (7,) * length)


_OPERAND_BUDGET = 256  # contract refuses more operands before planning,
_MULTIPLY_ADD_BUDGET = 10 ** 9  # and more multiply-adds x rows before any einsum
_PLAN_CACHE_SIZE = 1024  # plans kept; a `numeric` benchmark round uses 33


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(rings: tuple, plain: tuple):
    """One network's contraction: (einsum steps, multiply-adds).

    The operands are each ring's matrix and letters, M[b0,b1] O[i1,b1,b2] ...
    O[ik,bk,b0] on fresh bond labels, then the ``plain`` ones.  Each step
    joins the pair sharing a label (any pair if none do) that removes the most
    entries, then costs the fewest multiply-adds: numpy's greedy rule without
    its memory limit.  A step is (positions, highest first, subscripts in its
    own letters, ``...`` on matrices); its result is appended.
    """
    free = 1 + max((x for labels in rings + plain for x in labels), default=-1)
    operands = []  # (labels, carries a matrix); each step appends its result
    for word in rings:
        bond = lambda j: free + j % (len(word) + 1)
        operands.append(((bond(0), bond(1)), True))
        operands += [((i, bond(j), bond(j + 1)), False) for j, i in enumerate(word, 1)]
        free += len(word) + 1
    operands += [(labels, True) for labels in plain]
    holders = Counter(x for labels, _ in operands for x in set(labels))  # live operands per label
    live, heap, steps, cost = dict.fromkeys(range(len(operands))), [], [], 0
    shared = lambda a, b: not set(operands[a][0]).isdisjoint(operands[b][0])

    def push(pairs):  # greedy keys, ties to the earlier pair; a key holds until a or b is taken
        for a, b in pairs:
            sa, sb = set(operands[a][0]), set(operands[b][0])
            kept = sum(holders[x] > (x in sa) + (x in sb) for x in sa | sb)
            heapq.heappush(heap, (7 ** kept - 7 ** len(sa) - 7 ** len(sb), 7 ** len(sa | sb), a, b))

    push(pair for pair in itertools.combinations(live, 2) if shared(*pair))
    while len(live) > 1 or any(operands[t][0] for t in live):
        if not heap:  # no two operands share a label, or one is left with labels
            push(itertools.combinations(live, 2) if len(live) > 1 else [(*live, *live)])
        _, joined, a, b = heapq.heappop(heap)
        if a not in live or b not in live:
            continue
        cost += joined
        if joined > 7 ** len(ascii_letters):  # einsum cannot spell it, nor any budget afford it
            return steps, cost
        taken = tuple(dict.fromkeys((b, a)))  # highest position first
        letters = dict(zip(dict.fromkeys(x for t in taken for x in operands[t][0]), ascii_letters))
        holders.subtract(x for t in taken for x in set(operands[t][0]))
        c = len(operands)
        operands.append((tuple(x for x in letters if holders[x]), operands[a][1] or operands[b][1]))
        spell = lambda labels, stacked: "..." * stacked + "".join(letters[x] for x in labels)
        steps.append(([list(live).index(t) for t in taken],
                      ",".join(spell(*operands[t]) for t in taken) + "->" + spell(*operands[c])))
        live = dict.fromkeys([*(t for t in live if t not in taken), c])
        holders.update(operands[c][0])
        push((b, c) for b in live if b != c and shared(b, c))
    return steps, cost


def _run(steps, arrays) -> np.ndarray:
    """Carry out a ``_plan`` on the operand arrays."""
    for positions, subscripts in steps:
        arrays.append(np.einsum(subscripts, *[arrays.pop(p) for p in positions]))
    return arrays[0]


def contract(traces, coeffs, value: float = 1.0):
    """value * sum over the index ids of prod tr(M O_word) * prod C[row, col].

    ``traces`` are (matrix, word) factors, a word being a sequence of index
    ids, and ``coeffs`` (matrix, row id, col id) factors; every id is summed
    over 1..7.  Each trace with a word is a ring of its matrix and one letter
    tensor O[i] per id; with the coefficients they make one network,
    contracted on a pairwise plan made once per label structure (``_plan``).
    Any matrix may be a (B, 7, 7) stack; then the B values come back as an
    array.  Row r equals the row-r network's float up to round-off (a stacked
    einsum sums in another order); for B >= 2 it does not depend on B.
    ValueError refuses more than ``_OPERAND_BUDGET`` operands before planning,
    and more than ``_MULTIPLY_ADD_BUDGET`` multiply-adds x B before any einsum.
    """
    ids: dict = {}
    compact = lambda labels: tuple(ids.setdefault(x, len(ids)) for x in labels)
    rings = [(mat, compact(word)) for mat, word in traces if word]
    plain = [(mat, compact((row, col))) for mat, row, col in coeffs]
    n = sum(len(word) + 1 for _, word in rings) + len(plain)
    if n > _OPERAND_BUDGET:
        raise ValueError(f"the contraction has {n} operands, over the budget of {_OPERAND_BUDGET}")
    steps, cost = _plan(tuple(word for _, word in rings), tuple(labels for _, labels in plain))
    rows = max([mat.size for mat, _ in rings + plain], default=49) // 49
    if cost * rows > _MULTIPLY_ADD_BUDGET:
        raise ValueError(f"the contraction needs {cost:.3g} multiply-adds x {rows} rows, "
                         f"over the budget of {_MULTIPLY_ADD_BUDGET:.0e}")
    for mat, word in traces:
        if not word:
            value = value * np.einsum("...aa->...", mat)
    if steps:
        arrays = [x for mat, word in rings for x in (mat, *(unit_matrices(),) * len(word))]
        value = value * _run(steps, arrays + [mat for mat, _ in plain])
    return float(value) if np.ndim(value) == 0 else value


def _factors(spec: ObservableSpec, mats):
    """(traces, coeffs) factor lists of ``contract`` for an instance's matrices, the
    monodromies then the alphas and betas; each may be a (B, 7, 7) stack."""
    simple, words, alphas, betas = index_layout(spec)
    traces = [(mats[j], (pos,)) for j, pos in enumerate(simple)]
    traces += [(mats[spec.n1 + m], row) for m, row in enumerate(words)]
    coeffs = [(mat, row, col) for mat, (row, col) in zip(mats[spec.n_loops:], alphas + betas)]
    return traces, coeffs


def evaluate(inst: ObservableInstance) -> float:
    """The full multi-index sum for one instance, as one network ``contract``."""
    require_valid(inst.spec)
    return contract(*_factors(inst.spec, inst.monodromies + inst.alphas + inst.betas))


def evaluate_brute(inst: ObservableInstance, budget: int = 6) -> float:
    """Reference engine: the literal sum over every index tuple.

    One einsum over the word tables ``word_trace_table`` and the coefficient
    matrices, with no contraction path: numpy walks all 7^#indices tuples
    and adds up each tuple's product, with no intermediate.  Refused, with
    the cost, above ``budget`` summed indices.
    """
    budget = check_int(budget, "budget", 0)
    spec = inst.spec
    require_valid(spec)
    free = spec.n_indices
    if free > budget:
        raise ValueError(
            f"brute-force evaluation over 7^{free} = {7 ** free} tuples exceeds "
            f"the budget of 7^{budget}; use evaluate"
        )
    traces, coeffs = _factors(spec, inst.monodromies + inst.alphas + inst.betas)
    operands = [x for mat, word in traces for x in (word_trace_table(mat, len(word)), list(word))]
    operands += [x for mat, row, col in coeffs for x in (mat, [row, col])]
    return float(np.einsum(*operands, [], optimize=False))


_GAUGE_CHUNK = 64  # gauges conjugated and contracted as one stack
_CONTROL_FLOOR = 1e-3  # the negative control must move at least this much


def gauge_drift(mats: np.ndarray, gauges: np.ndarray, values):
    """(largest change, largest relative change) of ``values`` when an (E, 7, 7)
    stack ``mats`` is conjugated by each gauge, in chunks of at most ``_GAUGE_CHUNK``
    under the identity.  ``values`` contracts a moved (E, B, 7, 7) stack to a list
    of arrays of B rows (no row depends on the chunk); a change is taken from
    row 0, relative to max(1, |row 0|)."""
    drift = worst = 0.0
    for start in range(0, len(gauges), _GAUGE_CHUNK):
        stack = np.concatenate([np.eye(7)[None], gauges[start:start + _GAUGE_CHUNK]])
        for value in values(conjugate(stack, mats)):
            change = float(np.max(np.abs(value[1:] - value[0])))
            drift = max(drift, change)
            worst = max(worst, change / max(1.0, float(np.max(np.abs(value[0])))))
    return drift, worst


def negative_control(mat: np.ndarray, gauges: np.ndarray):
    """(passed, control): the ``gauge_drift`` of the seven tr(M O_i) for the 7x7
    M = ``mat``; it passes above ``_CONTROL_FLOOR``, so gauges that move nothing
    cannot pass a check."""
    singles = lambda moved: [np.einsum("gab,iba->gi", moved[0], unit_matrices())]
    control = gauge_drift(mat[None], gauges, singles)[0]
    return control > _CONTROL_FLOOR, control


_INVARIANCE_TOL = 1e-8  # relative change of the observable


def invariance_test(inst: ObservableInstance, trials: int = 50,
                    seed: int = 0) -> VerificationReport:
    """Change of the observable under random simultaneous conjugation (``gauge_drift``).

    All gauges are drawn as one stack, and ``sample_substreams`` refuses an
    oversize count before anything is drawn.  The ``negative_control`` is
    reported in the params.
    """
    trials = check_int(trials, "trials", 1)
    spec = inst.spec
    require_valid(spec)
    with CheckRun("exotic-invariance", seed=seed, trials=trials) as run:
        gauges, _, _ = sample_substreams(Family.G2, 1, seed, [((1,), trials)])
        mats = np.stack(inst.monodromies + inst.alphas + inst.betas)
        drift, worst = gauge_drift(mats, gauges, lambda moved: [contract(*_factors(spec, moved))])
        moved, control = negative_control(mats[0], gauges)
        run.record(passed=worst < _INVARIANCE_TOL and moved, max_abs_err=drift, max_rel_err=worst,
                   params={"r": spec.r, "n1": spec.n1, "s": spec.s, "n2": spec.n2, "t": spec.t,
                           "negative_control": control})
    return run.report


def spec_to_json_dict(spec: ObservableSpec) -> dict:
    return {
        "r": spec.r, "n1": spec.n1, "s": spec.s, "n2": spec.n2, "t": spec.t,
        "K": [list(row) for row in spec.K],
        "Q": [list(row) for row in spec.Q],
    }


class SpecJsonError(ValueError):
    """Malformed observable-spec JSON; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def spec_from_json_dict(obj: dict) -> ObservableSpec:
    if not isinstance(obj, dict):
        raise SpecJsonError("$", "expected a JSON object")

    def integer(path, value, what):  # check_int's refusal, at its JSON path
        try:
            return check_int(value, what)
        except ValueError as exc:
            raise SpecJsonError(path, str(exc)) from None

    counts = []
    for name in _COUNTS:
        if name not in obj:
            raise SpecJsonError(f"$.{name}", "missing required field")
        counts.append(integer(f"$.{name}", obj[name], name))
    r, n1, s, n2, t = counts

    def read_matrix(name, cols):
        raw = obj.get(name, [])
        if raw in ([], None) and cols == 0:
            return []
        if not isinstance(raw, list) or len(raw) != t:
            raise SpecJsonError(f"$.{name}", f"expected {t} rows")
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != cols:
                raise SpecJsonError(f"$.{name}[{i}]", f"expected {cols} entries")
            for j, x in enumerate(row):
                if integer(f"$.{name}[{i}][{j}]", x, f"{name} entry") not in (0, 1):
                    raise SpecJsonError(f"$.{name}[{i}][{j}]", f"expected 0 or 1, got {x!r}")
        return raw

    return ObservableSpec.make(r, n1, s, n2, t, read_matrix("K", n1), read_matrix("Q", 2 * n2 - s))


def instance_from_json_dict(obj: dict) -> ObservableInstance:
    """Instance with matrices embedded as row-major 7x7 arrays of JSON numbers."""
    spec = spec_from_json_dict(obj)

    def read_mats(name, count):
        raw = obj.get(name, [])
        if not isinstance(raw, list) or len(raw) != count:
            raise SpecJsonError(f"$.{name}", f"expected {count} matrices")
        out = []
        for i, flat in enumerate(raw):
            try:  # 49 finite JSON numbers: a string, boolean or null would convert to a float
                if not (isinstance(flat, list) and all(type(v) in (int, float) for v in flat)):
                    raise TypeError
                out.append(np.asarray_chkfinite(flat, dtype=float).reshape(7, 7))
            except (TypeError, ValueError, OverflowError):
                raise SpecJsonError(f"$.{name}[{i}]",
                                    "expected 49 finite row-major entries") from None
        return tuple(out)

    return ObservableInstance(
        spec,
        read_mats("monodromies", spec.n_loops),
        read_mats("alphas", spec.n1 - spec.r),
        read_mats("betas", spec.n2 - spec.s),
    )
