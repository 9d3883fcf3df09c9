"""A source scan: every file is read by the one line reader and written by the
one atomic writer, so a second reader or writer cannot grow back unseen."""

from __future__ import annotations

import ast
from pathlib import Path

import bitextpipe

SRC = Path(bitextpipe.__file__).parent

# Names whose use opens, reads or writes a file.
FILE_NAMES = {"open", "fdopen", "read_text", "read_bytes", "write_text", "write_bytes"}

# (module, function) of each place that may open a file.
ALLOWED = {
    ("errors", "iter_blocks"),  # the line reader
    ("corpus", "_atomic_open"),  # the atomic writer
    ("manifest", "sha256_file"),  # run.json digests that no read or write recorded
}


class _Scan(ast.NodeVisitor):
    def __init__(self) -> None:
        self.scope: list[str] = []
        self.uses: list[tuple[str, ast.AST, str]] = []  # (function, node, name)

    def _enter(self, node: ast.AST) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in FILE_NAMES:
            self.uses.append((".".join(self.scope), node, node.id))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in FILE_NAMES:
            self.uses.append((".".join(self.scope), node, node.attr))
        self.generic_visit(node)


def _scan(path: Path) -> tuple[ast.Module, _Scan]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    scan = _Scan()
    scan.visit(tree)
    return tree, scan


def test_files_are_opened_only_where_allowed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        _, scan = _scan(path)
        for function, node, name in scan.uses:
            found.add((path.stem, function))
            assert (path.stem, function) in ALLOWED, (
                f"{path.name}:{node.lineno}: {name} in {function or 'module scope'}; read "
                f"with errors.iter_lines and write with corpus._atomic_open"
            )
    assert found == ALLOWED  # no stale entry


def test_every_handle_is_binary():
    # os.open takes flags and makes no handle; every other open names a binary
    # mode, second after the file or, for Path.open, first.
    for path in sorted(SRC.glob("*.py")):
        tree, _ = _scan(path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            owner = getattr(getattr(func, "value", None), "id", None)
            name = getattr(func, "id", getattr(func, "attr", None))
            if name not in ("open", "fdopen") or (owner, name) == ("os", "open"):
                continue
            at = 1 if isinstance(func, ast.Name) or owner in ("io", "os", "builtins") else 0
            mode = node.args[at] if len(node.args) > at else None
            mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
            assert isinstance(mode, ast.Constant) and "b" in mode.value, (
                f"{path.name}:{node.lineno}: open without a literal binary mode"
            )
