"""Out-of-tree build of the package under test, plus the environment record.

The package is built with the repository's own ``setup.py`` from a copy of
``setup.py``, ``pyproject.toml`` and ``src/``, so nothing under ``src/`` is
written. The build lands in ``.bench_build/polarpipe-<digest>/lib``, keyed by
a digest of those sources, and is reused while they are unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

SOURCES = ("setup.py", "pyproject.toml", "src")


class BuildError(RuntimeError):
    """The package could not be built from the checkout."""


def source_files(root: Path) -> list[Path]:
    files = []
    for name in SOURCES:
        path = root / name
        if not path.exists():
            raise BuildError(f"{path} is missing; run from the root of a polarpipe checkout")
        if path.is_dir():
            files.extend(
                p for p in path.rglob("*")
                if p.is_file() and "__pycache__" not in p.parts and p.suffix not in (".so", ".pyc")
            )
        else:
            files.append(path)
    return sorted(files)


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in source_files(root):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def build(root: Path) -> Path:
    """Return the ``lib`` directory of a build of the current sources."""
    digest = source_digest(root)
    out = root / ".bench_build" / f"polarpipe-{digest[:16]}"
    lib = out / "lib"
    if (out / "complete").exists():
        return lib
    if out.exists():
        shutil.rmtree(out)
    work = out / "source"
    work.mkdir(parents=True)
    for name in SOURCES:
        src = root / name
        if src.is_dir():
            shutil.copytree(src, work / name, ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"))
        else:
            shutil.copy2(src, work / name)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-lib", str(lib), "--build-temp", str(out / "temp")],
        cwd=work,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not (lib / "polarpipe" / "__init__.py").exists():
        raise BuildError(f"setup.py build failed:\n{proc.stdout}")
    shutil.rmtree(work)
    (out / "complete").write_text(digest + "\n")
    return lib


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, lib: Path, child_env: dict) -> dict:
    """Backend, versions, CPU count and source identity of this run."""
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, numpy, scipy, polarpipe; print(json.dumps({"
            "'backend': polarpipe.active_backend(), 'numpy': numpy.__version__,"
            " 'scipy': scipy.__version__}))",
        ],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if probe.returncode != 0:
        raise BuildError(f"the built package does not import:\n{probe.stderr}")
    env = json.loads(probe.stdout)
    env.update(
        python=platform.python_version(),
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        git_sha=git_sha(root),
        source_sha256=source_digest(root),
        build=str(lib.parent.relative_to(root)),
    )
    return env
