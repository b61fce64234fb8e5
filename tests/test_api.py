"""The public names: every exported name resolves, so star imports work;
importing the package and running a scan load neither scipy nor
numpy.polynomial; and every source parses at the declared Python floor."""
import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import smctune

MODULES = ("errors", "output", "structure", "smc", "freqresp", "tuning", "lqr", "sim")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"smctune.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from smctune.{name} import *", {})


def test_package_reexports_only_public_module_names():
    # each name the package re-exports is in the __all__ of a module that
    # defines it, so a name dropped from a module cannot linger here
    public = set()
    for name in MODULES:
        public.update(importlib.import_module(f"smctune.{name}").__all__)
    exported = {n for n, v in vars(smctune).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported - public == set()
    exec("from smctune import *", {})


def test_import_does_not_load_scipy(tmp_path):
    # scipy is a test-only dependency; loading it would triple the start-up
    # time of every command. numpy.polynomial is not loaded by numpy itself
    # and costs about 0.85 MB of resident memory, so the band metrics use
    # np.roots and friends instead. One Quanser scan runs first, so the
    # import of every module a tune reaches is covered.
    src = str(Path(smctune.__file__).resolve().parents[1])
    argv = ["tune", "--config", "quanser.json", "--tuning", "quanser_tuning.json",
            "--out", str(tmp_path)]
    code = (f"import sys; sys.path.insert(0, {src!r}); import smctune, smctune.cli; "
            f"assert smctune.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "result.json").exists()


def test_sources_parse_at_the_python_floor():
    # pyproject.toml declares requires-python >= 3.10; a newer interpreter
    # would accept syntax that breaks that floor, so parse as 3.10 does
    with pytest.raises(SyntaxError):   # the check rejects 3.11 syntax
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    root = Path(__file__).resolve().parents[1]
    paths = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (root / top).rglob("*.py"))
    assert len(paths) >= 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
