import argparse
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import mspg
from mspg.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted(Path(mspg.__file__).parent.glob("*.py"))
MODULES = {module.name for module in pkgutil.iter_modules(mspg.__path__)}
# a backticked span that starts with a dotted name, such as
# `coupling.online_enrich` or `numerics.apply_coefficients(steps, w)`; it
# also finds the inner span of a double-backticked one, as in docstrings
DOTTED = re.compile(r"`(?:mspg\.)?(\w+)((?:\.\w+)+)[^`\n]*`")


def _resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(f"mspg.{module}")
    for name in path.split("."):
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


def _unresolved(texts) -> list[str]:
    """The module names in ``texts`` that do not resolve."""
    names = {
        (module, path[1:])
        for text in texts
        for module, path in DOTTED.findall(text)
        if module in MODULES
    }
    assert names  # the texts name the modules' functions
    return sorted(f"{module}.{path}" for module, path in names if not _resolves(module, path))


def _docstrings(path: Path) -> list[str]:
    """The docstrings of a module, its classes and its functions."""
    tree = ast.parse(path.read_text())
    nodes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return [doc for node in nodes if (doc := ast.get_docstring(node))]


def test_every_module_name_in_the_readme_resolves():
    assert _unresolved([README.read_text()]) == []


def test_every_module_name_in_the_docstrings_resolves():
    assert _unresolved([doc for path in SOURCES for doc in _docstrings(path)]) == []


def _long_options(parser) -> dict[str, set[str]]:
    """Long options by subcommand, less ``--help``."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {s for a in sub._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }


def _named_flags(text: str) -> set[str]:
    """Every ``--flag`` named in ``text``."""
    return set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))


def test_every_run_and_sweep_option_is_in_the_readme():
    text = README.read_text()
    options = _long_options(build_parser())
    assert sorted((options["run"] | options["sweep"]) - _named_flags(text)) == []


def test_every_flag_in_the_readme_usage_and_notes_is_accepted():
    text = README.read_text()
    usage = re.search(r"## Command line\n+```\n(.*?)```", text, re.S).group(1)
    notes = re.search(r"## Configuration notes\n(.*?)\n## ", text, re.S).group(1)
    assert usage.startswith("mspg ")
    accepted = set().union(*_long_options(build_parser()).values())
    named = _named_flags(usage) | _named_flags(notes)
    assert named and sorted(named - accepted) == []


def _read_names(trees) -> set[str]:
    """Every name or attribute that the code of ``trees`` reads; an import
    or a string, such as an ``__init__`` export, reads nothing."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_module_constant_is_read_in_the_package():
    # a retired knob takes its constant with it: every module-level
    # UPPER_CASE name is read somewhere in the package
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    constants = {
        target.id
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
    }
    assert constants  # the package has module constants
    assert sorted(constants - _read_names(trees)) == []


def _definitions(tree) -> set[str]:
    """Top-level functions and classes of a module, and the non-dunder
    methods of its classes, as ``Class.method``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = set()
    for node in tree.body:
        if isinstance(node, defs):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}.{method.name}"
                for method in node.body
                if isinstance(method, defs[:2]) and not re.fullmatch(r"__\w+__", method.name)
            )
    return names


def test_every_function_class_and_method_is_read_in_the_package():
    # code that only the tests read lives in the tests: every definition is
    # read by package code
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    read = _read_names(trees.values())
    defined = {
        f"{module}.{name}" for module, tree in trees.items() for name in _definitions(tree)
    }
    assert defined  # the package defines functions
    assert sorted(name for name in defined if name.rsplit(".", 1)[-1] not in read) == []


def test_the_benchmark_binds_no_newly_missing_name():
    # the tracer wraps (module, attribute) names of the package; a renamed
    # or deleted one would make its span read zero
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (bindings,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["BINDINGS"]
    ]
    assert bindings
    unresolved = {
        (module, path) for module, path, _ in bindings if not _resolves(module, path)
    }
    # the three that no module of the package defines today
    assert unresolved <= {
        ("trial_space", "local_dirichlet_solve"),
        ("test_space", "local_dirichlet_solve"),
        ("coupling", "extend_orthonormal"),
    }
