"""Report bodies against the ones recorded in tests/golden.

Three files are compared: the bodies of `--json verify all --seed 42`
(``verify_all_seed42.jsonl``), the 261 `closure_check` bodies of acceptance
criterion 9's sweep (``criterion9_closures.jsonl``), and the printed output
of the symbolic bracket and product (``bracket_outputs.jsonl``).  After a
change meant to move the results, regenerate all three with::

    PYTHONPATH=src python tests/test_golden.py

Checks, seeds, trial counts, pass flags, params keys and every non-float
param must match exactly; floats within 1e-12 + 1e-9 * |golden|, so a change
in round-off alone passes.  Bracket outputs must match exactly: each line
holds the operands, the monomial and extended counts and the SHA-256 of the
printed result, so a change in fresh ids, symbols or atom order fails.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from goldmankit import observables as obs
from goldmankit import symbolic as sym
from goldmankit.bases import Family
from goldmankit.cli import run
from goldmankit.goldman import sample_substreams

GOLDEN = Path(__file__).parent / "golden"
VERIFY_ALL = GOLDEN / "verify_all_seed42.jsonl"
CRITERION9 = GOLDEN / "criterion9_closures.jsonl"
BRACKETS = GOLDEN / "bracket_outputs.jsonl"


def _verify_all_bodies():
    """The run's report bodies, ``elapsed_ms`` removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["--json", "verify", "all", "--seed", "42"])
    assert code == 0
    return [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
            for line in out.getvalue().splitlines()]


def _specs(weight):
    """Every exotic spec with 0 < n1 + 2 n2 <= weight, in criterion 9's order."""
    return [spec for n1 in range(weight + 1) for n2 in range(2) if 0 < n1 + 2 * n2 <= weight
            for r in range(n1 + 1) for s in range(n2 + 1) for t in range(1, n1 + 2 * n2 + 1)
            for spec in obs.enumerate_specs(r, n1, s, n2, t)]


def _criterion9_brackets():
    """(bracket, seed) of criterion 9's sweep, {tr z, F} for every spec with
    0 < n1 + 2 n2 <= 3, in its order and with its seeds."""
    canon = sym.parse_expr("tr(z)")
    return [(sym.bracket(canon, sym.build_f_expression(spec)), 5_000 + k)
            for k, spec in enumerate(_specs(3))]


def _criterion9_bodies():
    """The closure bodies of criterion 9's sweep, 2 gauges each."""
    return [sym.closure_check(expr, seed=seed, gauge_trials=2).report.body()
            for expr, seed in _criterion9_brackets()]


def _drawn(expr, seed, gauges):
    """(names, matrices, gauges): ``instantiate(expr, seed)`` as its keys and one stack, and
    ``gauges`` rows of stream (12,), the draws the per-monomial drift conjugates."""
    env = sym.instantiate(expr, seed)
    drawn, _, _ = sample_substreams(Family.G2, 1, seed, [((12,), gauges)])
    return list(env), np.stack(list(env.values())), drawn


def _criterion9_drifts():
    """(bracket, seed, recognized monomials, (drift, relative drift)) per criterion-9 bracket:
    the per-monomial oracle of ``closure_check``, each recognized monomial contracted
    under the same draws, the identity and 2 gauges stacked."""
    for expr, seed in _criterion9_brackets():
        checked = [m for m in expr.monomials if not m.extended and sym.recognize(m).valid]
        names, mats, gauges = _drawn(expr, seed, 2)
        values = lambda moved: [sym.evaluate_monomial(m, dict(zip(names, moved))) for m in checked]
        yield expr, seed, checked, obs.gauge_drift(mats, gauges, values)


def _prefixed(expr, prefix):
    """``expr`` with ``prefix`` on every base loop and coefficient symbol."""
    return sym.Expression(tuple(sym.Monomial(
        m.coeff, tuple(sym.TraceAtom(sym.Loop(prefix + t.loop.name), t.word) for t in m.traces),
        tuple(sym.CoeffAtom(prefix + c.sym, c.row, c.col) for c in m.coeffs), m.extended)
        for m in expr.monomials))


def _sparse_products():
    """Two sums of products whose ids overlap and are not contiguous."""
    def mono(coeff, traces, coeffs):
        return sym.Monomial(Fraction(coeff), tuple(sym.TraceAtom(sym.Loop(name), word)
                                                   for name, word in traces),
                            tuple(sym.CoeffAtom(*c) for c in coeffs))

    a = sym.Expression((mono(1, [("a", (0, 3)), ("b", (5, 3))], [("ca", 0, 5)]),
                        mono(-2, [("a", (4,)), ("b", (1,))], [("cb", 1, 4)])))
    b = sym.Expression((mono(3, [("c", (3, 8)), ("d", (8, 5))], [("cc", 5, 3)]),
                        mono(1, [("c", (2,)), ("d", (2,))], [])))
    return a, b


def _bracket_cases():
    """(case, lhs, rhs, result): {tr z, F} both ways for criterion 9's 261 specs,
    the worked example, F x G on disjoint names for the 23 specs with
    n1 + 2 n2 <= 2 (529 brackets), and one ``disjoint_product``."""
    canon = sym.parse_expr("tr(z)")
    for spec in _specs(3):
        f = sym.build_f_expression(spec)
        yield "criterion9", canon, f, sym.bracket(canon, f)
        yield "criterion9-swapped", f, canon, sym.bracket(f, canon)
    yield ("worked-example", sym.parse_expr("sum i: tr(g1; O i) * tr(g2; O i)"),
           sym.parse_expr("sum j: tr(g3; O j) * tr(g4; O j)"), sym.worked_example_bracket())
    fs = [sym.build_f_expression(spec) for spec in _specs(2)]
    for f in fs:
        for g in fs:
            g = _prefixed(g, "R")
            yield "f-by-f", f, g, sym.bracket(f, g)
    a, b = _sparse_products()
    yield "disjoint-product", a, b, sym.disjoint_product(a, b)


def _bracket_lines():
    return [{"case": case, "lhs": str(lhs), "rhs": str(rhs),
             "monomials": len(out.monomials),
             "extended": sum(m.extended for m in out.monomials),
             "sha256": hashlib.sha256(str(out).encode()).hexdigest()}
            for case, lhs, rhs, out in _bracket_cases()]


def _close(got, want) -> bool:
    return abs(got - want) <= 1e-12 + 1e-9 * abs(want)


def _assert_matches(got, path, count):
    want = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(got) == len(want) == count
    for k, (g, w) in enumerate(zip(got, want)):
        where = f"report {k} ({w['check']} {w['params']})"
        assert set(g) == set(w), where
        for field in ("check", "seed", "trials", "pass"):
            assert g[field] == w[field], (where, field)
        assert set(g["params"]) == set(w["params"]), where
        floats = [(name, g[name], w[name]) for name in ("max_abs_err", "max_rel_err")]
        for name, value in w["params"].items():
            if isinstance(value, float):
                floats.append((name, g["params"][name], value))
            else:
                assert g["params"][name] == value, (where, name)
        for name, got_value, want_value in floats:
            assert isinstance(got_value, float) and _close(got_value, want_value), (where, name)


def test_verify_all_seed42_matches_golden():
    _assert_matches(_verify_all_bodies(), VERIFY_ALL, 68)


def test_criterion9_closures_match_golden():
    _assert_matches(_criterion9_bodies(), CRITERION9, 261)


def test_bracket_outputs_match_golden():
    want = [json.loads(line) for line in BRACKETS.read_text().splitlines()]
    got = _bracket_lines()
    assert len(got) == len(want) == 2 * 261 + 1 + 23 ** 2 + 1
    for g, w in zip(got, want):
        assert g == w, (w["case"], w["lhs"], w["rhs"])


if __name__ == "__main__":
    for path, bodies in ((VERIFY_ALL, _verify_all_bodies), (CRITERION9, _criterion9_bodies),
                         (BRACKETS, _bracket_lines)):
        path.write_text("".join(json.dumps(body, sort_keys=True) + "\n" for body in bodies()))
