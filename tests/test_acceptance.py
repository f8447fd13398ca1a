"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[ACCEPTANCE] criterion N ... PASS` line (visible with
`pytest -s` or in captured output); a failure raises with the offending
residual.  Tolerances are pinned here, not configurable.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from goldmankit import observables as obs
from goldmankit import symbolic as sym
from goldmankit.bases import Family, build_basis, check_normalization
from goldmankit.casimir import verify_closed_form, verify_tensor_lemmas
from goldmankit.cli import run
from goldmankit.goldman import (
    sample_element,
    verify_bracket,
    verify_defect,
    verify_symplectic_inverse,
)
from goldmankit.octonions import (
    conjugation_residual,
    structure_residual,
    _hardcoded_unit_matrices,
    _rebuilt_unit_matrices,
)

SIZE_GRID = (
    [(f, n) for f in (Family.GL, Family.U, Family.SL, Family.SU) for n in range(2, 7)]
    + [(Family.SP, n) for n in range(1, 4)]
    + [(Family.SO, n) for n in range(2, 8)]
    + [(Family.G2, 1)]
)

BRACKET_GRID = (
    [(f, n) for f in (Family.GL, Family.U, Family.SL, Family.SU) for n in (2, 4)]
    + [(Family.SP, 1), (Family.SP, 3), (Family.SO, 3), (Family.SO, 7), (Family.G2, 1)]
)


def _announce(k, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {k} ({label}): {status} {detail}")
    assert ok, f"criterion {k} ({label}) failed: {detail}"


def test_criterion_01_normalization():
    start = time.perf_counter()
    worst = 0.0
    for family, n in SIZE_GRID:
        report = check_normalization(build_basis(family, n))
        worst = max(worst, report.max_abs_err)
        assert report.passed, (family, n)
    elapsed = time.perf_counter() - start
    _announce(1, "normalization", worst < 1e-12 and elapsed < 5.0,
              f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_casimir_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for family, n in SIZE_GRID:
        report = verify_closed_form(family, n)
        worst = max(worst, report.max_abs_err)
        assert report.passed, (family, n)
    elapsed = time.perf_counter() - start
    _announce(2, "casimir closed forms", worst < 1e-12 and elapsed < 5.0,
              f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_tensor_lemmas():
    worst = 0.0
    for n in range(2, 7):
        report = verify_tensor_lemmas(n, seed=3)
        worst = max(worst, report.max_abs_err)
        assert report.passed, n
    _announce(3, "tensor lemmas", worst < 1e-13, f"max residual {worst:.2e}")


def test_criterion_04_goldman_brackets():
    start = time.perf_counter()
    worst = 0.0
    for family, n in BRACKET_GRID:
        report = verify_bracket(family, n, trials=100, seed=2026)
        worst = max(worst, report.max_rel_err)
        assert report.passed, (family, n, report.max_rel_err)
    elapsed = time.perf_counter() - start
    _announce(4, "goldman brackets", worst < 1e-9 and elapsed < 30.0,
              f"max rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_defect_lemmas():
    worst = 0.0
    for family, sizes in ((Family.SP, range(1, 4)), (Family.SO, range(3, 8))):
        for n in sizes:
            report = verify_defect(family, n, trials=100, seed=11)
            worst = max(worst, report.max_abs_err)
            assert report.passed, (family, n)
    _announce(5, "defect lemmas", worst < 1e-10, f"max residual {worst:.2e}")


def test_criterion_06_symplectic_inverse():
    worst = 0.0
    for n in range(1, 4):
        report = verify_symplectic_inverse(n, trials=100, seed=17)
        worst = max(worst, report.max_abs_err)
        assert report.passed, n
    _announce(6, "inverse-symplectic formulas", worst < 1e-9,
              f"max residual {worst:.2e}")


def test_criterion_07_octonion_suite():
    table_exact = structure_residual() == 0.0
    rebuild_exact = np.array_equal(_hardcoded_unit_matrices(), _rebuilt_unit_matrices())
    conj_worst = 0.0
    for trial in range(100):
        stream = np.random.SeedSequence(entropy=23, spawn_key=(trial,))
        g = sample_element(Family.G2, 1, stream).matrix
        conj_worst = max(conj_worst, conjugation_residual(g))
    basis = build_basis(Family.G2)
    sampler_worst = 0.0
    for trial in range(10_000):
        stream = np.random.SeedSequence(entropy=29, spawn_key=(trial,))
        g = sample_element(Family.G2, 1, stream, basis=basis)
        sampler_worst = max(sampler_worst, g.membership_residual)
    ok = table_exact and rebuild_exact and conj_worst < 1e-8 and sampler_worst < 1e-8
    _announce(7, "octonion suite", ok,
              f"conjugation {conj_worst:.2e}, sampler {sampler_worst:.2e} over 10^4 draws")


def _acceptance_spec_universe():
    """Parameter tuples whose (K, Q) enumerations the acceptance run covers."""
    tuples = set()
    for n1, n2 in ((1, 0), (2, 0), (0, 1)):
        for r in range(n1 + 1):
            for s in range(n2 + 1):
                for t in range(1, n1 + 2 * n2 + 1):
                    tuples.add((r, n1, s, n2, t))
    tuples |= {(1, 1, 0, 0, 1), (1, 2, 0, 0, 1), (2, 2, 0, 1, 2),
               (0, 3, 0, 0, 1), (0, 2, 0, 1, 1)}
    return sorted(tuples)


def test_criterion_08_exotic_observables():
    first = obs.ObservableSpec.make(1, 1, 0, 0, 1, [[1]], [])
    third = obs.ObservableSpec.make(2, 2, 0, 1, 2, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert obs.validate_spec(first) == [] and obs.validate_spec(third) == []

    inv_worst = 0.0
    control_min = np.inf
    for k, spec in enumerate((first, third)):
        inst = obs.random_instance(spec, seed=31 + k)
        report = obs.invariance_test(inst, trials=50, seed=37 + k)
        assert report.passed
        inv_worst = max(inv_worst, report.max_rel_err)
        control_min = min(control_min, report.params["negative_control"])

    agree_worst = 0.0
    count_ok = True
    checked = 0
    for tup in _acceptance_spec_universe():
        specs = obs.enumerate_specs(*tup)
        count_ok = count_ok and len(specs) == obs.spec_count(*tup)
        for j, spec in enumerate(specs):
            if spec.n_indices > 6:
                continue
            inst = obs.random_instance(spec, seed=1_000 + 17 * j + hash(tup) % 97)
            fast = obs.evaluate(inst)
            brute = obs.evaluate_brute(inst, budget=6)
            agree_worst = max(agree_worst, abs(fast - brute) / max(1.0, abs(fast)))
            checked += 1
    ok = (inv_worst < 1e-8 and control_min > 1e-3
          and agree_worst < 1e-12 and count_ok)
    _announce(8, "exotic observables", ok,
              f"invariance {inv_worst:.2e}, control {control_min:.2e}, "
              f"brute-vs-factorized {agree_worst:.2e} on {checked} specs")


def _universe_by_both_engines():
    """(spec, exotic value, symbolic monomial value) over the acceptance universe."""
    for tup in _acceptance_spec_universe():
        for j, spec in enumerate(obs.enumerate_specs(*tup)):
            inst = obs.random_instance(spec, seed=j)
            (m,) = sym.build_f_expression(spec).monomials
            env = {("loop", f"g{k + 1}"): mat for k, mat in enumerate(inst.monodromies)}
            env.update({("sym", f"ca{k + 1}"): mat for k, mat in enumerate(inst.alphas)})
            env.update({("sym", f"cb{k + 1}"): mat for k, mat in enumerate(inst.betas)})
            yield spec, obs.evaluate(inst), sym.evaluate_monomial(m, env)


def test_evaluate_equals_symbolic_engine_bitwise():
    # one contraction engine: the exotic evaluator and the symbolic monomial
    # evaluator agree exactly on the same matrices
    for spec, exotic, symbolic in _universe_by_both_engines():
        assert symbolic == exotic, spec


def test_both_engines_build_no_word_table(monkeypatch):
    # word_trace_table is the brute-force oracle's definition only
    monkeypatch.setattr(obs, "word_trace_table", lambda *a: pytest.fail("table built"))
    assert sum(1 for _ in _universe_by_both_engines()) == 41


def test_criterion_09_symbolic_engine():
    start = time.perf_counter()
    plain = sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)"))
    coeffs = sorted(m.coeff for m in plain.monomials)
    three_terms = len(plain.monomials) == 3 and coeffs == [
        Fraction(-1, 2), Fraction(1, 6), Fraction(1, 2)
    ]

    diff = sym.reproduce_examples()
    worked = diff.passed and diff.term_count == 12 and diff.coeff_multiset == {
        "1/6": 4, "1/2": 8
    }

    canon = sym.parse_expr("tr(z)")
    closure_ok = True
    worst = 0.0
    specs_checked = 0
    for n1 in range(0, 4):
        for n2 in range(0, 2):
            if not 0 < n1 + 2 * n2 <= 3:
                continue
            for r in range(n1 + 1):
                for s in range(n2 + 1):
                    for t in range(1, n1 + 2 * n2 + 1):
                        for j, spec in enumerate(obs.enumerate_specs(r, n1, s, n2, t)):
                            expr = sym.bracket(canon, sym.build_f_expression(spec))
                            res = sym.closure_check(
                                expr, seed=5_000 + specs_checked, gauge_trials=2)
                            closure_ok = closure_ok and res.report.passed
                            worst = max(worst, res.report.max_rel_err)
                            specs_checked += 1
    elapsed = time.perf_counter() - start
    ok = three_terms and worked and closure_ok and elapsed < 60.0
    _announce(9, "symbolic engine", ok,
              f"{specs_checked} bracket closures, worst invariance {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_10_determinism(capsys):
    argv = ["--json", "verify", "all", "--seed", "42"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out

    def bodies(text):
        rows = []
        for line in text.splitlines():
            row = json.loads(line)
            row.pop("elapsed_ms", None)
            rows.append(json.dumps(row, sort_keys=True))
        return rows

    a, b = bodies(first), bodies(second)
    _announce(10, "determinism", a == b and len(a) > 0,
              f"{len(a)} report bodies identical across runs")
