"""Module boundaries: no goldmankit module imports another module's private names,
one module builds the seed substreams, and every function the benchmark traces by
name exists."""

import ast
import importlib
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
    builders = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                if "spawn_key=" in path.read_text()]
    assert builders == ["goldman.py"]


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
