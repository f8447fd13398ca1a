"""Module boundaries: no goldmankit module imports another module's private names."""

import ast
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
