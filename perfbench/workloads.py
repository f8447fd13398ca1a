"""The two benchmark workloads, each made of two parts.

``numeric`` runs the Monte-Carlo identities and the exotic observables,
``symbolic`` the closure sweep and the tied normalization.  Each part builds
its inputs from the seed, contributes a fixed list of operations to the
workload's round, and checks its own results against the references in
``refs``.  An operation is one call into goldmankit's public
API whose result is then checked.  Every round runs the same operations on
the same inputs, so the seed changes values but not the amount of work.

Workloads reach goldmankit only through the module namespace ``gk`` they
are given, at call time, so that a tracer installed on those modules sees
every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

import refs

MODULES = ("bases", "casimir", "cli", "goldman", "linalg", "observables", "octonions",
           "symbolic", "symbolic.closure")


def goldmankit_modules() -> dict:
    """The goldmankit modules now in ``sys.modules``, by name."""
    return {n: m for n, m in sys.modules.items() if n == "goldmankit" or n.startswith("goldmankit.")}


def load_goldmankit() -> SimpleNamespace:
    """Import goldmankit afresh (dropping any earlier import) and return its modules."""
    for name in goldmankit_modules():
        del sys.modules[name]
    gk = SimpleNamespace(package=importlib.import_module("goldmankit"))
    for name in MODULES:
        setattr(gk, name.replace(".", "_"), importlib.import_module(f"goldmankit.{name}"))
    return gk


def warm_up(gk):
    """One small call into each entry point, so that first-call costs (lazy
    imports, the unit_matrices self-test, einsum set-up) fall in set-up
    rather than in the first timed operation."""
    gk.octonions.unit_matrices()
    with contextlib.redirect_stdout(io.StringIO()):
        gk.cli.run(["--json", "verify", "octonion", "--trials", "1"])
    gk.goldman.verify_bracket("su", 2, trials=1)
    gk.goldman.verify_defect("so", 3, trials=1)
    gk.goldman.verify_symplectic_inverse(1, trials=1)
    gk.casimir.closed_form("su", 2)
    obs = gk.observables
    inst = obs.random_instance(obs.enumerate_specs(1, 1, 0, 0, 1)[0], seed=0)
    obs.invariance_test(inst, trials=1)
    sym = gk.symbolic
    expr = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("sum i: tr(b; O i) * tr(c; O i)"))
    sym.closure_check(expr, gauge_trials=1)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _seeds(rng: np.random.Generator, count: int) -> list:
    return [int(x) for x in rng.integers(1, 2 ** 31, size=count)]


def _rel(a, b) -> float:
    return abs(a - b) / max(1.0, abs(b))


GAUGE_TRIALS = 2  # closure_check conjugations per monomial, as in acceptance criterion 9


def _bracket_and_close(gk, lhs, rhs, seed):
    """One closure operation: the bracket and its closure check."""
    expr = gk.symbolic.bracket(lhs, rhs)
    return expr, gk.symbolic.closure_check(expr, seed=seed, gauge_trials=GAUGE_TRIALS)


class Op:
    """One operation: a label, the call, and what the check needs to know."""

    def __init__(self, kind: str, label: str, call, **info):
        self.kind = kind
        self.label = label
        self.call = call
        self.info = info


class Workload:
    name = ""

    def __init__(self, gk, seed: int, tiny: bool):
        self.gk = gk
        self.tiny = tiny
        self.ops: list[Op] = []

    # Per-result helpers used by the runner between operations.
    def body(self, op: Op, result) -> str:
        """Deterministic text of a result; equal across rounds and traced runs."""
        if op.kind == "closure":
            expr, res = result
            return str(expr) + "\n" + res.report.to_json(include_elapsed=False)
        if hasattr(result, "to_json"):
            return result.to_json(include_elapsed=False)
        return repr(result)

    def report_of(self, op: Op, result):
        if op.kind == "closure":
            return result[1].report
        return result if hasattr(result, "trials") else None

    def op_failed(self, op: Op, result) -> bool:
        report = self.report_of(op, result)
        return report is not None and not report.passed

    def trials(self, op: Op, result) -> int:
        report = self.report_of(op, result)
        return int(report.trials) if report is not None else 0

    def check(self, results: list) -> list:
        raise NotImplementedError


# --------------------------------------------------------------------------
class McIdentities(Workload):
    """`verify all` in-process, then bracket/defect/symplectic-inverse grids.

    Sampling (expm plus membership) and the Kronecker contraction carry the
    load; small groups are bound by per-trial overhead, sides 10-12 by the
    contraction.  The symbolic layers stay idle apart from `verify all`.
    Trial counts are small (10 per `verify all` check, 20 per grid cell) so
    that a round stays short and each operation gets many tries in a run.
    """

    name = "mc-identities"
    BRACKET = (("su", 2), ("su", 3), ("su", 4), ("g2", 1), ("sl", 6),
               ("gl", 10), ("so", 11), ("sp", 5), ("gl", 12))
    DEFECT = (("so", 10), ("sp", 5))
    SYMPLECTIC = (3, 5)
    # `verify all` covers these (family, n) cells; its report count is
    # 13 normalization + 13 casimir + 3 tensor-lemma + 13 bracket + 4 defect
    # + 3 symplectic-inverse + 2 octonion + 13 split + 2 exotic + 2 symbolic.
    ALL_CELLS = (("gl", 2), ("gl", 3), ("u", 2), ("u", 3), ("sl", 2), ("sl", 3),
                 ("su", 2), ("su", 3), ("sp", 1), ("sp", 2), ("so", 3), ("so", 5), ("g2", 1))
    ALL_REPORTS = 68
    ALL_TRIALS = 10
    GRID_TRIALS = 20

    def __init__(self, gk, seed, tiny):
        super().__init__(gk, seed, tiny)
        rng = _rng(seed, 1)
        trials = 4 if tiny else self.GRID_TRIALS
        bracket = self.BRACKET[:4] if tiny else self.BRACKET
        defect = (("so", 4),) if tiny else self.DEFECT
        symplectic = (2,) if tiny else self.SYMPLECTIC
        cli_seed = _seeds(rng, 1)[0]
        argv = ["--json", "verify", "all", "--seed", str(cli_seed),
                "--trials", str(self.ALL_TRIALS)]
        self.ops.append(Op("cli", "verify all", lambda: self._cli(argv)))
        grid = ([("bracket", fam, n) for fam, n in bracket]
                + [("defect", fam, n) for fam, n in defect]
                + [("symplectic", "sp", n) for n in symplectic])
        for (kind, fam, n), s in zip(grid, _seeds(rng, len(grid))):
            self.ops.append(Op(kind, f"{kind} {fam}{n}",
                               lambda k=kind, f=fam, n=n, s=s: self._verify(k, f, n, trials, s),
                               family=fam, n=n, seed=s, trials=trials))

    def _verify(self, kind, family, n, trials, seed):
        g = self.gk.goldman
        if kind == "bracket":
            return g.verify_bracket(family, n, trials=trials, seed=seed)
        if kind == "defect":
            return g.verify_defect(family, n, trials=trials, seed=seed)
        return g.verify_symplectic_inverse(n, trials=trials, seed=seed)

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.gk.cli.run(argv)
        return code, out.getvalue()

    def body(self, op, result):
        if op.kind != "cli":
            return super().body(op, result)
        code, text = result
        rows = [json.loads(line) for line in text.splitlines()]
        for row in rows:
            row.pop("elapsed_ms", None)
        return json.dumps({"exit": code, "reports": rows}, sort_keys=True)

    def op_failed(self, op, result):
        if op.kind == "cli":
            return result[0] != 0
        return super().op_failed(op, result)

    def check(self, results):
        errors = []
        gk = self.gk
        cells = set(self.ALL_CELLS)
        for op, result in zip(self.ops, results):
            if result is None:
                continue
            if op.kind == "cli":
                rows = [json.loads(line) for line in result[1].splitlines()]
                if len(rows) != self.ALL_REPORTS or not all(r["pass"] for r in rows):
                    errors.append(f"verify all: {len(rows)} reports, "
                                  f"{sum(not r['pass'] for r in rows)} failing")
                continue
            cells.add((op.info["family"], op.info["n"]))
            report = result
            expect = {"bracket": "goldman-bracket", "defect": "defect-lemma",
                      "symplectic": "symplectic-inverse"}[op.kind]
            if report.check != expect or report.trials != op.info["trials"]:
                errors.append(f"{op.label}: report {report.check} with {report.trials} trials")
        # Casimir tensors and closed forms against the null-space reference.
        gammas = {}
        for fam, n in sorted(cells):
            gamma = refs.casimir(fam, n)
            gammas[(fam, n)] = gamma
            prog = gk.casimir.casimir_tensor(gk.bases.build_basis(fam, n)).tensor
            closed = gk.casimir.closed_form(fam, n)
            for what, tensor in (("casimir_tensor", prog), ("closed_form", closed)):
                err = float(np.max(np.abs(tensor - gamma)))
                if err > 1e-12:
                    errors.append(f"{what} {fam}{n} differs from reference by {err:.2e}")
        # The sampled pairs, re-drawn from their per-trial substreams, against
        # the reference contraction and the family's resolved-loop form.
        first = {}
        for op in self.ops:
            if op.kind != "cli":
                first.setdefault((op.kind, op.info["family"], op.info["n"]), op)
        for (kind, fam, n), op in first.items():
            basis = gk.bases.build_basis(fam, n)
            for trial in sorted({0, op.info["trials"] // 2, op.info["trials"] - 1}):
                streams = [np.random.SeedSequence(entropy=op.info["seed"], spawn_key=(trial, k))
                           for k in range(1 if kind == "symplectic" else 2)]
                mats = [gk.goldman.sample_element(fam, n, s, 1.0, basis).matrix for s in streams]
                for g in mats:
                    res = refs.membership_residual(fam, n, g)
                    if not res < 1e-8 or np.max(np.abs(g - np.eye(len(g)))) < 1e-3:
                        errors.append(f"{op.label} trial {trial}: sample off the group "
                                      f"or trivial (residual {res:.2e})")
                if kind == "bracket":
                    a, b = mats
                    lhs = refs.reduced_bracket(a, b, gammas[(fam, n)])
                    rhs = refs.bracket_rhs(fam, n, a, b)
                    tol = 1e-9
                elif kind == "defect":
                    a, b = mats
                    d = len(a)
                    lhs = 2 * refs.reduced_bracket(a, b, gammas[(fam, n)] - refs.swap(d))
                    rhs = -np.trace(a @ np.linalg.inv(b))
                    tol = 1e-10
                else:
                    (b,) = mats
                    j = refs.symplectic_j(n)
                    lhs = float(np.max(np.abs(np.linalg.inv(b) + j @ b.T @ j)))
                    rhs = 0.0
                    tol = 1e-9
                if not _rel(lhs, rhs) < tol:
                    errors.append(f"{op.label} trial {trial}: reference {lhs} vs {rhs}")
        return errors


# --------------------------------------------------------------------------
def _closure_specs(obs, max_weight: int):
    """Every (r, n1, s, n2, t) tuple with 0 < n1 + 2 n2 <= max_weight, enumerated."""
    groups = []
    for n1 in range(max_weight + 1):
        for n2 in range(max_weight // 2 + 1):
            if not 0 < n1 + 2 * n2 <= max_weight:
                continue
            for r in range(n1 + 1):
                for s in range(n2 + 1):
                    for t in range(1, n1 + 2 * n2 + 1):
                        groups.append(((r, n1, s, n2, t), obs.enumerate_specs(r, n1, s, n2, t)))
    return groups


class SymbolicClosure(Workload):
    """The criterion-9 sweep: bracket(tr(z), F(spec)) and its closure check.

    Split enumeration in `recognize`, einsum planning in `evaluate_monomial`
    and G2 sampling carry the load; tie groups are tiny, so the
    canonical-encoding search stays nearly idle.  A round takes the first
    spec of twelve of the enumerated (r, n1, s, n2, t) groups, covering
    every weight n1 + 2 n2 = 1..3, n1 = 0..3, s = 0, 1 and t = 1..3, so
    that a round stays short enough for many rounds per run.  Every group
    is enumerated and counted in the check; the full 261-spec sweep is a
    reference figure (figures.py).
    """

    name = "symbolic-closure"
    TUPLES = ((0, 0, 0, 1, 2), (0, 0, 1, 1, 2), (0, 1, 0, 0, 1), (1, 1, 0, 0, 1),
              (0, 1, 0, 1, 3), (1, 1, 1, 1, 2), (1, 1, 0, 1, 2), (0, 2, 0, 0, 2),
              (2, 2, 0, 0, 1), (2, 3, 0, 0, 1), (1, 3, 0, 0, 2), (3, 3, 0, 0, 3))

    def __init__(self, gk, seed, tiny):
        super().__init__(gk, seed, tiny)
        sym = gk.symbolic
        self.groups = _closure_specs(gk.observables, 1 if tiny else 3)
        specs = [group[0] for tup, group in self.groups
                 if group and (tiny or tup in self.TUPLES)]
        rng = _rng(seed, 2)
        self.canon = sym.parse_expr("tr(z)")
        for spec, s in zip(specs, _seeds(rng, len(specs))):
            f_expr = sym.build_f_expression(spec)
            self.ops.append(Op("closure", f"closure {_tuple(spec)}",
                               lambda f=f_expr, s=s: _bracket_and_close(self.gk, self.canon, f, s),
                               seed=s))
        self.check_seed = _seeds(rng, 1)[0]

    def check(self, results):
        errors = []
        for (r, n1, s, n2, t), group in self.groups:
            want = refs.spec_count(n1, s, n2, t)
            if len(group) != want or len(set(group)) != want:
                errors.append(f"enumerate_specs{(r, n1, s, n2, t)}: {len(group)} specs "
                              f"({len(set(group))} distinct), closed form {want}")
        errors += _closure_errors(self.gk, self.ops, results, stride=3)
        errors += _plain_bracket_errors(self.gk, self.check_seed)
        return errors


def _closure_errors(gk, ops, results, stride):
    """Closure reports pass, and sampled monomials match the reference
    contraction and stay invariant under a reference G2 conjugation."""
    errors = []
    sym = gk.symbolic
    closure_ops = [(op, res) for op, res in zip(ops, results)
                   if op.kind == "closure" and res is not None]
    for k, (op, (expr, res)) in enumerate(closure_ops):
        rep = res.report
        bad = [why.splitlines()[0] for _, why in res.failures]
        if (bad or not all(sig.valid for sig in res.signatures)
                or any(m.extended for m in expr.monomials)
                or rep.trials != len(expr.monomials) * GAUGE_TRIALS
                or not rep.max_rel_err < 1e-7 or not expr.monomials):
            errors.append(f"closure of {op.label} #{k}: {rep.to_json()} {bad[:2]}")
            continue
        if k % stride:
            continue
        env = sym.instantiate(expr, op.info["seed"])
        loops = {key[1]: m for key, m in env.items() if key[0] == "loop"}
        syms = {key[1]: m for key, m in env.items() if key[0] == "sym"}
        (g,) = refs.random_g2(np.random.default_rng(op.info["seed"]), 1)
        moved_loops = {name: g @ m @ g.T for name, m in loops.items()}
        moved_syms = {name: g @ m @ g.T for name, m in syms.items()}
        for mono in expr.monomials[:4]:
            ref = refs.monomial_value(mono, loops, syms)
            prog = sym.evaluate_monomial(mono, env)
            moved = refs.monomial_value(mono, moved_loops, moved_syms)
            if not (_rel(prog, ref) < 1e-10 and _rel(moved, ref) < 1e-7):
                errors.append(f"closure #{k} monomial {mono}: program {prog}, "
                              f"reference {ref}, conjugated {moved}")
    return errors


def _plain_bracket_errors(gk, seed):
    """{tr a, tr b} evaluated numerically equals 1/2 tr_12[(A (x) B) Gamma_ref] on G2."""
    sym = gk.symbolic
    expr = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    a, b = refs.random_g2(np.random.default_rng(seed), 2)
    want = refs.reduced_bracket(a, b, refs.casimir("g2", 1))
    prog = sym.evaluate_expression(expr, {("loop", "a"): a, ("loop", "b"): b})
    ref = sum(refs.monomial_value(m, {"a": a, "b": b}, {}) for m in expr.monomials)
    if not (_rel(prog, want) < 1e-9 and _rel(ref, want) < 1e-9):
        return [f"{{tr a, tr b}}: program {prog}, monomials {ref}, Casimir {want}"]
    return []


# --------------------------------------------------------------------------
class TiedNormalize(Workload):
    """normalize on sums of renamed, reordered copies of tied products.

    A product of k decorated pairs over loops a and b puts k single-letter
    traces on each loop, so every trace sits in a tie group of size k and
    the canonical encoding tries k! * k! orderings.  Classes are fixed by
    how many pairs join a to a (and b to b); each class appears in several
    renamed copies.  The products of the classes in BRACKET are then
    bracketed with tr(c) and closure-checked.  symbolic-closure never builds
    tie groups this large.
    """

    name = "tied-normalize"
    # (pairs k, classes m in each sum, copies of each class, normalize operations).
    NORMALIZE = ((3, (0, 1), 3, 25), (4, (0, 1, 2), 2, 2), (5, (1,), 2, 1))
    # (pairs k, class m) bracketed with tr(c).  A 5-pair bracket (about
    # 2.5 s) would take several times as long as the rest of a round; it is
    # a reference figure (figures.py).
    BRACKET = ((3, 0),)

    def __init__(self, gk, seed, tiny):
        super().__init__(gk, seed, tiny)
        sym = gk.symbolic
        rng = _rng(seed, 3)
        normalize = ((3, (0, 1), 2, 2),) if tiny else self.NORMALIZE
        bracket = ((3, 1),) if tiny else self.BRACKET
        self.sums = []
        for k, classes, copies, count in normalize:
            for _ in range(count):
                terms, expected = [], {}
                for m in classes:
                    for _ in range(copies):
                        coeff = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 5)))
                        terms.append(_copy_text(rng, k, m, coeff))
                        cls = (m, m, k - 2 * m)
                        expected[cls] = expected.get(cls, 0) + coeff
                rng.shuffle(terms)
                expr = sym.parse_expr(" + ".join(terms))
                self.sums.append((k, terms, expected))
                self.ops.append(Op("normalize", f"normalize {k} pairs",
                                   lambda e=expr: self.gk.symbolic.normalize(e),
                                   expected=expected, k=k))
        self.tr_c = sym.parse_expr("tr(c)")
        for (k, m), s in zip(bracket, _seeds(rng, len(bracket))):
            product = sym.parse_expr(_copy_text(rng, k, m, Fraction(1)))
            self.ops.append(Op("closure", f"bracket tr(c) with {k} pairs, class {m}",
                               lambda p=product, s=s: _bracket_and_close(self.gk, self.tr_c, p, s),
                               seed=s))
        self.check_seed = _seeds(rng, 1)[0]

    def body(self, op, result):
        return str(result) if op.kind == "normalize" else super().body(op, result)

    def check(self, results):
        errors = []
        rng = np.random.default_rng(self.check_seed)
        renamed_done = set()
        for op, result in zip(self.ops, results):
            if op.kind != "normalize" or result is None:
                continue
            got = _class_coeffs(result)
            if got != op.info["expected"]:
                errors.append(f"{op.label}: normalize gave {got}, "
                              f"construction gives {op.info['expected']}")
            k = op.info["k"]
            if k in renamed_done:
                continue
            # The same sum with every copy renamed and reordered afresh.
            renamed_done.add(k)
            _, terms, expected = next(s for s in self.sums if s[0] == k)
            renamed = [_rename_text(rng, t) for t in terms]
            rng.shuffle(renamed)
            again = _class_coeffs(self.gk.symbolic.normalize(
                self.gk.symbolic.parse_expr(" + ".join(renamed))))
            if again != expected:
                errors.append(f"normalize of renamed {k}-pair sum gave {again}, "
                              f"expected {expected}")
        errors += _closure_errors(self.gk, self.ops, results, stride=1)
        return errors


def _copy_text(rng, k: int, m: int, coeff: Fraction) -> str:
    """One copy of class (k, m): m a-a joins, m b-b joins, k - 2m a-b joins,
    with random index names, binder order and trace order."""
    names = [f"x{int(v)}" for v in rng.choice(1000, size=k, replace=False)]
    loops = [("a", "a")] * m + [("b", "b")] * m + [("a", "b")] * (k - 2 * m)
    atoms = [f"tr({loop}; O {name})" for name, pair in zip(names, loops) for loop in pair]
    rng.shuffle(atoms)
    rng.shuffle(names)
    return f"{coeff} * sum {' '.join(names)}: " + " * ".join(atoms)


def _rename_text(rng, text: str) -> str:
    """The same copy under a fresh index naming and trace order."""
    head, body = text.split(": ", 1)
    coeff, names = head.split(" * sum ")
    old = names.split()
    new = [f"y{int(v)}" for v in rng.choice(1000, size=len(old), replace=False)]
    table = dict(zip(old, new))
    atoms = []
    for atom in body.split(" * "):
        prefix, name = atom[:-1].rsplit(" ", 1)
        atoms.append(f"{prefix} {table[name]})")
    rng.shuffle(atoms)
    rng.shuffle(new)
    return f"{coeff} * sum {' '.join(new)}: " + " * ".join(atoms)


def _class_coeffs(expr) -> dict:
    out = {}
    for mono in expr.monomials:
        cls = refs.pairing_class(mono)
        if cls in out:
            return {"duplicate class": cls}
        out[cls] = mono.coeff
    return out


# --------------------------------------------------------------------------
def _acceptance_universe():
    """The (r, n1, s, n2, t) tuples whose enumerations the acceptance run covers."""
    tuples = set()
    for n1, n2 in ((1, 0), (2, 0), (0, 1)):
        for r in range(n1 + 1):
            for s in range(n2 + 1):
                for t in range(1, n1 + 2 * n2 + 1):
                    tuples.add((r, n1, s, n2, t))
    tuples |= {(1, 1, 0, 0, 1), (1, 2, 0, 0, 1), (2, 2, 0, 1, 2),
               (0, 3, 0, 0, 1), (0, 2, 0, 1, 1)}
    return sorted(tuples)


class ExoticObservables(Workload):
    """Factorized evaluation of every spec in the acceptance universe and of
    single-word specs of length 5-6, plus invariance tests.

    `observables.evaluate` and `word_trace_table` carry the load; the
    length-6 word builds a 7^6 * 49-entry table, which sets the peak memory.
    The brute-force oracle runs only in the untimed check.
    """

    name = "exotic-observables"
    LONG = ((1, 1, 0, 2, 1), (0, 1, 0, 2, 1), (0, 0, 0, 3, 1))
    # (spec tuple, K, Q, trials)
    INVARIANCE = (((1, 1, 0, 0, 1), [[1]], [], 10),
                  ((2, 2, 0, 1, 2), [[1, 0], [0, 1]], [[1, 0], [0, 1]], 10),
                  ((0, 2, 0, 1, 1), [[1, 1]], [[1, 1]], 10))

    def __init__(self, gk, seed, tiny):
        super().__init__(gk, seed, tiny)
        obs = gk.observables
        rng = _rng(seed, 4)
        universe = [(1, 1, 0, 0, 1), (0, 1, 0, 0, 1)] if tiny else _acceptance_universe()
        self.groups = [(tup, obs.enumerate_specs(*tup)) for tup in universe]
        if not tiny:
            self.groups += [(tup, obs.enumerate_specs(*tup)) for tup in self.LONG]
        specs = [spec for _, group in self.groups for spec in group]
        for spec, s in zip(specs, _seeds(rng, len(specs))):
            inst = obs.random_instance(spec, seed=s)
            self.ops.append(Op("evaluate", f"evaluate {_tuple(spec)}",
                               lambda i=inst: self.gk.observables.evaluate(i), instance=inst))
        invariance = self.INVARIANCE[:1] if tiny else self.INVARIANCE
        for (tup, k, q, trials), s in zip(invariance, _seeds(rng, len(invariance))):
            spec = obs.ObservableSpec.make(*tup, k, q)
            inst = obs.random_instance(spec, seed=s)
            trials = 3 if tiny else trials
            self.ops.append(Op("invariance", f"invariance {tup}",
                               lambda i=inst, s=s, n=trials:
                               self.gk.observables.invariance_test(i, trials=n, seed=s),
                               trials=trials))

    def check(self, results):
        errors = []
        obs = self.gk.observables
        for (r, n1, s, n2, t), group in self.groups:
            want = refs.spec_count(n1, s, n2, t)
            if len(group) != want or len(set(group)) != want:
                errors.append(f"enumerate_specs{(r, n1, s, n2, t)}: {len(group)} specs, "
                              f"closed form {want}")
            for spec in group:
                if not _columns_legal(spec):
                    errors.append(f"spec {spec} breaks the K/Q column rules")
        hand = refs.hand_contractions()
        hand_seen = set()
        for op, result in zip(self.ops, results):
            if result is None:
                continue
            if op.kind == "invariance":
                if (result.trials != op.info["trials"] or not result.max_rel_err < 1e-8
                        or not result.params["negative_control"] > 1e-3):
                    errors.append(f"{op.label}: {result.to_json()}")
                continue
            inst = op.info["instance"]
            brute = obs.evaluate_brute(inst, budget=6)
            if not _rel(result, brute) < 1e-12:
                errors.append(f"{op.label}: factorized {result} vs brute force {brute}")
            key = _tuple(inst.spec) + (inst.spec.K, inst.spec.Q)
            if key in hand:
                hand_seen.add(key)
                ref = hand[key](inst.monodromies, inst.alphas, inst.betas)
                if not _rel(result, ref) < 1e-12:
                    errors.append(f"{op.label}: factorized {result} vs hand-written {ref}")
        if not self.tiny and len(hand_seen) != len(hand):
            errors.append(f"hand-written contractions ran on {len(hand_seen)} "
                          f"of {len(hand)} specs")
        return errors


def _tuple(spec) -> tuple:
    return (spec.r, spec.n1, spec.s, spec.n2, spec.t)


def _columns_legal(spec) -> bool:
    """K: one 1 per column; Q: two 1s in the first s columns, one in the rest."""
    k = np.array(spec.K, dtype=int).reshape(spec.t, spec.n1)
    q = np.array(spec.Q, dtype=int).reshape(spec.t, 2 * spec.n2 - spec.s)
    want_q = [2] * spec.s + [1] * (2 * spec.n2 - 2 * spec.s)
    return (set(np.unique(np.concatenate([k.ravel(), q.ravel()]))) <= {0, 1}
            and list(k.sum(axis=0)) == [1] * spec.n1 and list(q.sum(axis=0)) == want_q)


# --------------------------------------------------------------------------
class Combined(Workload):
    """The operations of several parts in one round; each part checks its own."""

    parts: tuple = ()

    def __init__(self, gk, seed, tiny):
        super().__init__(gk, seed, tiny)
        self.members = [part(gk, seed, tiny) for part in self.parts]
        for member in self.members:
            for op in member.ops:
                op.part = member
                self.ops.append(op)

    def body(self, op, result):
        return op.part.body(op, result)

    def op_failed(self, op, result):
        return op.part.op_failed(op, result)

    def trials(self, op, result):
        return op.part.trials(op, result)

    def check(self, results):
        errors, start = [], 0
        for member in self.members:
            part = results[start:start + len(member.ops)]
            start += len(member.ops)
            errors += [f"{member.name}: {err}" for err in member.check(part)]
        return errors


class Numeric(Combined):
    """Sampling, the Kronecker contraction and the observables' contraction engine."""

    name = "numeric"
    parts = (McIdentities, ExoticObservables)


class Symbolic(Combined):
    """Recognition and evaluation of closure monomials, and the tied canonical search."""

    name = "symbolic"
    parts = (SymbolicClosure, TiedNormalize)


WORKLOADS = {w.name: w for w in (Numeric, Symbolic)}
