"""The build ships bytecode, so no process compiles polarpipe's own source.

The package is built the way ``perfbench/build.py`` builds it: ``setup.py
build`` from a copy of ``setup.py``, ``pyproject.toml`` and ``src/``, with
``PYTHONDONTWRITEBYTECODE=1``, under which the stock ``build_py`` writes no
``.pyc``.
"""

import json
import os
import shutil
import subprocess
import sys
from importlib.util import cache_from_source
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}

# imports every polarpipe module and prints the sources the import system
# compiled; SourceFileLoader.source_to_code runs only when no valid .pyc exists
_PROBE = (
    "import importlib, importlib.machinery as m, json, pkgutil\n"
    "compiled = []\n"
    "to_code = m.SourceFileLoader.source_to_code\n"
    "def record(self, data, path, *args, **kwargs):\n"
    "    compiled.append(str(path))\n"
    "    return to_code(self, data, path, *args, **kwargs)\n"
    "m.SourceFileLoader.source_to_code = record\n"
    "import polarpipe\n"
    "names = ['polarpipe'] + [i.name for i in pkgutil.iter_modules(polarpipe.__path__, 'polarpipe.')\n"
    "                         if i.name != 'polarpipe.__main__']  # __main__ would run the CLI\n"
    "for name in names:\n"
    "    importlib.import_module(name)\n"
    "print(json.dumps({'imported': names, 'compiled': compiled}))\n"
)


def _pycache_dirs(root: Path) -> list[Path]:
    return sorted(root.rglob("__pycache__"))


def _copy_sources(dest: Path) -> None:
    """What ``perfbench/build.py`` builds from: ``setup.py``, ``pyproject.toml``, ``src/``."""
    shutil.copy2(_ROOT / "setup.py", dest / "setup.py")
    shutil.copy2(_ROOT / "pyproject.toml", dest / "pyproject.toml")
    shutil.copytree(_ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))


@pytest.fixture(scope="module")
def build_lib(tmp_path_factory):
    work = tmp_path_factory.mktemp("build")
    source = work / "source"
    source.mkdir()
    _copy_sources(source)
    before = _pycache_dirs(_ROOT / "src")
    lib = work / "lib"
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-lib", str(lib), "--build-temp", str(work / "temp")],
        cwd=source, env=_ENV, capture_output=True, text=True, timeout=120, check=True,
    )
    assert _pycache_dirs(_ROOT / "src") == before, "the build wrote into the repository's src/"
    return lib


def test_every_built_module_has_its_bytecode(build_lib):
    modules = sorted((build_lib / "polarpipe").glob("*.py"))
    assert len(modules) > 10
    missing = [p.name for p in modules if not Path(cache_from_source(str(p))).is_file()]
    assert missing == []


def test_importing_the_build_compiles_no_polarpipe_source(build_lib):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**_ENV, "PYTHONPATH": str(build_lib)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    result = json.loads(proc.stdout)
    assert "polarpipe.cli" in result["imported"] and "polarpipe.linear_model" in result["imported"]
    assert [p for p in result["compiled"] if "polarpipe" in Path(p).parts] == []


def test_editable_mode_compiles_nothing(tmp_path):
    # an editable install points at src/, so build_py must write nothing
    _copy_sources(tmp_path)
    code = (
        "import setuptools\n"
        "from distutils.core import run_setup\n"
        "dist = run_setup('setup.py', script_args=['build_py', '--build-lib', 'lib'], stop_after='commandline')\n"
        "cmd = dist.get_command_obj('build_py')\n"
        "cmd.editable_mode = True\n"
        "cmd.ensure_finalized()\n"
        "cmd.run()\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=_ENV,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert _pycache_dirs(tmp_path) == []
