import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_only_the_kernels():
    # the benchmark's environment probe calls polarpipe.active_backend()
    code = (
        "import json, sys, polarpipe; print(json.dumps({"
        "'modules': sorted(m for m in sys.modules if m.startswith('polarpipe')),"
        "'numpy': 'numpy' in sys.modules,"
        "'version': polarpipe.__version__, 'backend': polarpipe.active_backend()}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(proc.stdout) == {
        "modules": ["polarpipe", "polarpipe._kernels"],
        "numpy": False,
        "version": "0.1.0",
        "backend": "python",
    }
