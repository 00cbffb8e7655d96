"""Output bytes hold against committed digests, not only across two reruns.

``test_criterion_08`` compares two runs of the same code, so a change that
alters the bytes the same way in both passes it. This test compares every
output file and every stdout of a fixed set of commands with the SHA-256
values in ``tests/data/golden/digests.json``. The models and probabilities
depend on numpy's version and on the SIMD targets it dispatches to, so the
file records both and a failure names them. ``tools/golden_digests.py``
regenerates the file when a change alters bytes on purpose.
"""

import importlib.util
import json
from pathlib import Path

from polarpipe.linear_model import SCORE_BLOCK_ROWS

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_digests.py"
_spec = importlib.util.spec_from_file_location("golden_digests", _TOOL)
golden_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_digests)


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(golden_digests.GOLDEN.read_text(encoding="utf-8"))
    expected = golden["digests"]
    got = golden_digests.run_cases(tmp_path)
    differ = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    here = golden_digests.environment()
    assert not differ, (
        f"{len(differ)} outputs differ from the golden digests: {', '.join(differ)}. "
        f"The digests were recorded with numpy {golden['numpy']} dispatching to "
        f"{', '.join(golden['dispatch'])}; this run has numpy {here['numpy']} dispatching to "
        f"{', '.join(here['dispatch'])}. If the bytes changed on purpose, regenerate them "
        "with tools/golden_digests.py."
    )


def test_multi_block_predict_case_ends_in_a_partial_block():
    # more than three scoring blocks, the last one partial
    full, rest = divmod(golden_digests.SOCIAL_BLOCKS_DOCS, SCORE_BLOCK_ROWS)
    assert full >= 3 and rest > 0
