import importlib
import pkgutil
import re
from pathlib import Path

import mspg

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {module.name for module in pkgutil.iter_modules(mspg.__path__)}
# a backticked span that starts with a dotted name, such as
# `coupling.online_enrich` or `numerics.form_coefficients(steps, out=)`
DOTTED = re.compile(r"`(?:mspg\.)?(\w+)((?:\.\w+)+)[^`\n]*`")


def _resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(f"mspg.{module}")
    for name in path.split("."):
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


def test_every_module_name_in_the_readme_resolves():
    names = {
        (module, path[1:])
        for module, path in DOTTED.findall(README.read_text())
        if module in MODULES
    }
    assert names  # the README names the modules' functions
    unresolved = sorted(f"{module}.{path}" for module, path in names if not _resolves(module, path))
    assert unresolved == []
