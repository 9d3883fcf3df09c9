"""A source scan: no module uses a private attribute of ``random``, so no draw
can come to depend on how one CPython release implements ``Random``."""

from __future__ import annotations

import ast
from pathlib import Path

import bitextpipe

SRC = Path(bitextpipe.__file__).parent

PRIVATE = {"_randbelow", "_randbelow_with_getrandbits", "_random"}


def test_no_private_random_attribute():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", None)]
            else:
                continue
            used = PRIVATE.intersection(names)
            assert not used, f"{path.name}:{node.lineno}: {used.pop()} is private to random"
