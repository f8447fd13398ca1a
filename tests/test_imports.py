"""Module boundaries: no goldmankit module imports another module's private names,
one module builds the seed substreams, one owns the gauge loop, one renumbers
index ids, one compares expressions, one decides which families are complex
and what counts as an integer, only ``cli.cmd_verify`` opens a draw scope, one
function exponentiates draws, two build a monomial's wiring, only the brute-force
oracle builds word tables and nothing calls it, no ``verify`` suite carries
cells, none plans with numpy's einsum_path, every function the benchmark traces
by name exists, and the package does not load scipy."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import goldmankit

SRC = Path(goldmankit.__file__).parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("goldmankit"):
                continue
            source = "." * node.level + (node.module or "")
            offenders += [f"{path.relative_to(SRC)}:{node.lineno}: from {source} import {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_one_module_builds_seed_substreams():
    # every sampled check draws through goldman.sample_substreams
    for mark in ("Philox(", "spawn_key="):
        builders = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                    if mark in path.read_text()]
        assert builders == ["goldman.py"], mark


def test_one_module_owns_the_gauge_loop():
    # observables.gauge_drift is the one gauge-invariance loop: its chunk and control floor
    for name in ("_CONTROL_FLOOR", "_GAUGE_CHUNK"):
        owners = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                  if re.search(rf"^{name} =", path.read_text(), re.M)]
        assert owners == ["observables.py"], name


def test_one_module_renumbers_index_ids():
    # symbolic.core.shift_ids is the one id shift, for disjoint_product and bracket alike
    for mark in (r"\brename_indices\(", r"^def shift_ids\("):
        owners = [path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
                  if re.search(mark, path.read_text(), re.M)]
        assert owners == ["symbolic/core.py"], mark


def test_one_module_compares_expressions():
    # symbolic.core.normalize is the one expression comparison; the worked example diffs through it
    owners = [path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
              if "canonical_encoding(" in path.read_text()]
    assert owners == ["symbolic/core.py"]


def test_one_module_decides_which_families_are_complex():
    # bases.entry_bytes is the one rule that u and su take 16-byte entries
    owners = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
              if re.search(r"\b16\b.*\belse 8\b", path.read_text())]
    assert owners == ["bases.py"]


def test_one_module_decides_what_is_an_integer():
    # bases.check_int is the one integer test; every integer argument goes through it
    for mark in (r"np\.integer\b", r"isinstance\([^()]*,\s*bool\)"):
        owners = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                  if re.search(mark, path.read_text())]
        assert owners == ["bases.py"], mark


def test_only_cmd_verify_opens_a_draw_scope():
    # goldman.draw_scope shares draws within one `verify` command; opened anywhere
    # else, it would become a cache of draws that lives across calls
    cli = ast.parse((SRC / "cli.py").read_text())
    cmd_verify = next(node for node in cli.body
                      if isinstance(node, ast.FunctionDef) and node.name == "cmd_verify")
    opened = [(path.relative_to(SRC).as_posix(), node) for path in sorted(SRC.rglob("*.py"))
              for node in ast.walk(cli if path.name == "cli.py" else ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and "draw_scope" in ast.unparse(node.func)]
    assert [path for path, _ in opened] == ["cli.py"]
    assert opened[0][1] in list(ast.walk(cmd_verify))


def _callers(name):
    """Every "path:function" under src/ whose body calls a function named ``name``."""
    return [f"{path.relative_to(SRC).as_posix()}:{fn.name}"
            for path in sorted(SRC.rglob("*.py")) for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name
                    for node in ast.walk(fn))]


def test_one_function_exponentiates_draws():
    # goldman._draw_all is the one chunk loop of a draw; no other function calls mat_exp
    assert _callers("mat_exp") == ["goldman.py:_draw_all"]


def test_two_functions_build_the_wiring():
    # indices, __str__ and normalize's renumbering read ids off the slots, not the wiring
    assert _callers("wiring") == ["symbolic/core.py:canonical_encoding",
                                  "symbolic/signature.py:_links"]


def test_the_brute_force_oracle_is_a_leaf():
    # observables.evaluate_brute alone reads word tables and no function calls it, so the
    # oracle can leave src/ in one piece; contract never builds a word table
    assert _callers("word_trace_table") == ["observables.py:evaluate_brute"]
    assert _callers("evaluate_brute") == []


def test_no_verify_suite_carries_cells():
    # a suite that draws declares its goldman.Draw requests; the work budget prices those
    from goldmankit import cli

    assert [name for name, (suite, _) in cli.VERIFY_SUITES.items() if hasattr(suite, "cells")] == []
    assert sorted(name for name, (suite, _) in cli.VERIFY_SUITES.items()
                  if hasattr(suite, "draws")) == ["bracket", "defect", "octonion", "split",
                                                  "symplectic-inverse"]


def test_no_einsum_path_or_dummy_operands():
    # observables._plan is the one contraction planner; numpy's path is a test oracle
    for mark in ("einsum_path", "broadcast_to"):
        assert [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                if mark in path.read_text()] == [], mark


def test_every_traced_function_resolves():
    # perfbench/tracing.py wraps these by name; a rename would break `--trace 1`
    tracing = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    traced = next(
        ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    assert len(traced) > 20
    missing = [f"{mod}.{fn}" for mod, fn in traced
               if not callable(getattr(importlib.import_module(f"goldmankit.{mod}"), fn, None))]
    assert missing == []


def test_package_loads_no_scipy():
    # scipy is a test oracle only; a fresh interpreter importing goldmankit loads none of it
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    code = ("import sys, goldmankit, goldmankit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
