"""Start-up cost: the package and each CLI call import only what they use."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bitextpipe
from bitextpipe import augment, cli, lexicon, trainconfig

SRC = Path(bitextpipe.__file__).resolve().parents[1]

# Run a Python snippet in a fresh interpreter; it prints sorted(sys.modules)
# as JSON when the interpreter exits, whatever the snippet does.
_DUMP_AT_EXIT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules))))\n"
)


def _modules_after(snippet: str, cwd: Path) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PIPELINE_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", _DUMP_AT_EXIT + snippet],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_ingest_imports_only_its_modules(tmp_path):
    one_row = tmp_path / "one.tsv"
    one_row.write_text("eng_Latn\thin_Deva\thello world\tनमस्ते दुनिया\tgeneral\n",
                       encoding="utf-8")
    modules = _modules_after(
        "import runpy\n"
        "sys.argv = ['bitextpipe', 'ingest', '--in', 'one.tsv', '--out', 'o.tsv',"
        " '--seed', '1']\n"
        "runpy.run_module('bitextpipe', run_name='__main__', alter_sys=True)\n",
        tmp_path,
    )
    assert "bitextpipe.cli" in modules and (tmp_path / "o.tsv").exists()
    unused = {"bitextpipe.augment", "bitextpipe.sampling", "bitextpipe.lexicon",
              "bitextpipe.metrics", "bitextpipe.evalharness", "bitextpipe.trainconfig",
              "bitextpipe.selection", "multiprocessing", "pickle", "select", "secrets",
              "fractions", "array"}
    assert sorted(unused & modules) == []


def test_import_loads_no_submodule(tmp_path):
    modules = _modules_after("import bitextpipe\n", tmp_path)
    assert sorted(m for m in modules if m.startswith("bitextpipe.")) == []


def test_public_names_are_their_defining_module_attributes():
    wrong = []
    for name in bitextpipe.__all__:
        module, _, attr = bitextpipe._EXPORTS[name].partition(":")
        defining = importlib.import_module(f"bitextpipe.{module}")
        if getattr(bitextpipe, name) is not getattr(defining, attr or name):
            wrong.append(name)
    assert wrong == []
    assert set(bitextpipe.__all__) <= set(dir(bitextpipe))


def test_readme_library_example_imports_public_names():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "bitextpipe"
        for alias in node.names
    ]
    assert "SubstitutionSet" in names
    assert [name for name in names if name not in bitextpipe.__all__] == []
    for name in names:
        getattr(bitextpipe, name)


def test_unknown_name_is_an_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        bitextpipe.frobnicate  # noqa: B018
    assert augment.__name__ == "bitextpipe.augment"


def test_parser_choices_match_their_modules():
    assert cli._FORMATS == lexicon.FORMATS
    assert cli._MODES == augment.MODES
    assert cli._PHASES == trainconfig.PHASES
    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    choices = {
        (command, action.dest): action.choices
        for command, parser in subcommands.items()
        for action in parser._actions
        if action.choices is not None
    }
    assert choices == {
        ("lexicon", "format"): list(lexicon.FORMATS),
        ("augment", "format"): list(lexicon.FORMATS),
        ("augment", "mode"): list(augment.MODES),
        ("train-config", "phase"): list(trainconfig.PHASES),
    }
