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

``evaluate`` is the factorized einsum contraction ``contract``, which also
evaluates the monomials of the symbolic engine; ``evaluate_brute`` is the
reference oracle, a literal sum over all 7^#indices tuples refused above a
budget.  K and Q are plain tuples of 0/1 rows.  Invariance is under
*simultaneous* conjugation of every monodromy and every alpha/beta by one
group element; nothing is claimed when the coefficients are held fixed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bases import Family
from .goldman import sample_elements
from .octonions import unit_matrices
from .reports import CheckRun, VerificationReport


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
        """Spec from K and Q given as row sequences (lists, tuples, 2-D arrays).

        A matrix with no entries at all stands for t empty rows.
        """
        def rows(m):
            out = tuple(tuple(int(x) for x in row) for row in m)
            return out if any(out) else ((),) * int(t)

        return cls(int(r), int(n1), int(s), int(n2), int(t), rows(K), rows(Q))

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


def enumerate_specs(r: int, n1: int, s: int, n2: int, t: int) -> list[ObservableSpec]:
    """All (K, Q) choices for fixed parameters, in lexicographic column order.

    The count is t^n1 * C(t,2)^s * t^(2*n2-2*s).
    """
    param_errors = _parameter_errors(r, n1, s, n2, t)
    if param_errors:
        raise ValueError("invalid parameters: " + "; ".join(param_errors))
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
        """Simultaneous gauge transform X -> g X g^-1 of every matrix slot."""
        gi = g.T
        conj = lambda m: g @ m @ gi
        return ObservableInstance(
            self.spec,
            tuple(conj(m) for m in self.monodromies),
            tuple(conj(m) for m in self.alphas),
            tuple(conj(m) for m in self.betas),
        )


def random_instance(spec: ObservableSpec, seed: int = 0, scale: float = 1.0) -> ObservableInstance:
    require_valid(spec)
    n_coeff = (spec.n1 - spec.r) + (spec.n2 - spec.s)
    streams = [
        np.random.SeedSequence(entropy=seed, spawn_key=(0, k))
        for k in range(spec.n_loops + n_coeff)
    ]
    mats, _, _ = sample_elements(Family.G2, 1, streams, scale)
    monos = tuple(mats[: spec.n_loops])
    alphas = tuple(mats[spec.n_loops: spec.n_loops + spec.n1 - spec.r])
    betas = tuple(mats[spec.n_loops + spec.n1 - spec.r:])
    return ObservableInstance(spec, monos, alphas, betas)


def word_trace_table(m: np.ndarray, length: int) -> np.ndarray:
    """T[i1..ik] = tr(M O_{i1} ... O_{ik}) as a (7,)*length array."""
    o = unit_matrices()
    x = np.asarray(m)  # shape (..., 7, 7) growing one index axis per letter
    for _ in range(length):
        x = np.einsum("...ab,ibc->...iac", x, o)
    return np.einsum("...aa->...", x)


def contract(traces, coeffs, value: float = 1.0) -> float:
    """value * sum over the index ids of prod tr(M O_word) * prod C[row, col].

    ``traces`` are (matrix, word) factors, a word being a sequence of index
    ids; ``coeffs`` are (matrix, row id, col id) factors.  Every id is summed
    over 1..7.  Empty-word traces are plain scalars; the rest is one greedy
    einsum over the word tables and coefficient matrices.
    """
    labels: dict = {}  # einsum labels must stay below its symbol count
    lab = lambda i: labels.setdefault(i, len(labels))
    args = []
    for mat, word in traces:
        table = word_trace_table(mat, len(word))
        if not word:
            value *= float(table)
        else:
            args.extend((table, [lab(i) for i in word]))
    for mat, row, col in coeffs:
        args.extend((mat, [lab(row), lab(col)]))
    if not args:
        return value
    args.append([])
    return value * float(np.einsum(*args, optimize="greedy"))


def _factors(inst: ObservableInstance):
    """(traces, coeffs) factor lists of ``contract`` for one instance."""
    spec = inst.spec
    simple, words, alphas, betas = index_layout(spec)
    traces = [(inst.monodromies[j], (pos,)) for j, pos in enumerate(simple)]
    traces += [(inst.monodromies[spec.n1 + m], row) for m, row in enumerate(words)]
    coeffs = [(mat, row, col) for mat, (row, col)
              in zip(inst.alphas + inst.betas, alphas + betas)]
    return traces, coeffs


def evaluate(inst: ObservableInstance) -> float:
    """The full multi-index sum for one instance, as one einsum contraction."""
    require_valid(inst.spec)
    return contract(*_factors(inst))


def evaluate_brute(inst: ObservableInstance, budget: int = 6) -> float:
    """Reference engine: literal sum over every index tuple.

    Refused, with the cost, above ``budget`` summed indices.
    """
    spec = inst.spec
    require_valid(spec)
    free = spec.n_indices
    if free > budget:
        raise ValueError(
            f"brute-force evaluation over 7^{free} = {7 ** free} tuples exceeds "
            f"the budget of 7^{budget}; use evaluate"
        )
    traces, coeffs = _factors(inst)
    ops = [(word_trace_table(mat, len(word)), word) for mat, word in traces]
    ops += [(mat, (row, col)) for mat, row, col in coeffs]
    total = 0.0
    for assignment in itertools.product(range(7), repeat=free):
        term = 1.0
        for tensor, labels in ops:
            term *= tensor[tuple(assignment[p] for p in labels)]
        total += term
    return total


def negative_control(m: np.ndarray, g: np.ndarray) -> float:
    """max_i |tr(g M g^-1 O_i) - tr(M O_i)|: single decorated traces move."""
    o = unit_matrices()
    conj = g @ m @ g.T
    return max(
        abs(np.trace(conj @ o[i]) - np.trace(m @ o[i])) for i in range(7)
    )


def invariance_test(inst: ObservableInstance, trials: int = 50, seed: int = 0,
                    rel_tol: float = 1e-8, control_floor: float = 1e-3) -> VerificationReport:
    """Relative change of the observable under random simultaneous conjugation.

    Also runs the negative control: the largest movement of a single
    tr(M O_i) term is reported in the params and expected to exceed
    ``control_floor`` for a generic transform (degenerate draws resample).
    """
    require_valid(inst.spec)
    with CheckRun("exotic-invariance", seed=seed, trials=trials) as run:
        base = evaluate(inst)
        scale_ref = max(1.0, abs(base))
        worst = 0.0
        control = 0.0
        streams = [np.random.SeedSequence(entropy=seed, spawn_key=(1, trial))
                   for trial in range(trials)]
        gauges, _, _ = sample_elements(Family.G2, 1, streams)
        for g in gauges:
            value = evaluate(inst.conjugated(g))
            worst = max(worst, abs(value - base) / scale_ref)
            control = max(control, negative_control(inst.monodromies[0], g))
        run.record(
            passed=worst < rel_tol and control > control_floor,
            max_abs_err=worst * scale_ref,
            max_rel_err=worst,
            params={
                "r": inst.spec.r, "n1": inst.spec.n1, "s": inst.spec.s,
                "n2": inst.spec.n2, "t": inst.spec.t,
                "negative_control": control,
            },
        )
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
    values = {}
    for name in ("r", "n1", "s", "n2", "t"):
        if name not in obj:
            raise SpecJsonError(f"$.{name}", "missing required field")
        if not isinstance(obj[name], int) or isinstance(obj[name], bool):
            raise SpecJsonError(f"$.{name}", f"expected an integer, got {obj[name]!r}")
        values[name] = obj[name]
    t = values["t"]

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
                if x not in (0, 1):
                    raise SpecJsonError(f"$.{name}[{i}][{j}]", f"expected 0 or 1, got {x!r}")
        return raw

    K = read_matrix("K", values["n1"])
    Q = read_matrix("Q", 2 * values["n2"] - values["s"])
    return ObservableSpec.make(values["r"], values["n1"], values["s"],
                               values["n2"], values["t"], K, Q)


def instance_from_json_dict(obj: dict) -> ObservableInstance:
    """Instance with matrices embedded as row-major 7x7 number arrays."""
    spec = spec_from_json_dict(obj)

    def read_mats(name, count):
        raw = obj.get(name, [])
        if not isinstance(raw, list) or len(raw) != count:
            raise SpecJsonError(f"$.{name}", f"expected {count} matrices")
        out = []
        for i, flat in enumerate(raw):
            arr = np.asarray(flat, dtype=float)
            if arr.size != 49:
                raise SpecJsonError(f"$.{name}[{i}]", "expected 49 row-major entries")
            out.append(arr.reshape(7, 7))
        return tuple(out)

    return ObservableInstance(
        spec,
        read_mats("monodromies", spec.n_loops),
        read_mats("alphas", spec.n1 - spec.r),
        read_mats("betas", spec.n2 - spec.s),
    )
