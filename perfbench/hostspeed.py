"""A fixed piece of work that times how fast the host runs right now.

On a shared host the same command can take 50% longer for ten or twenty
seconds and then speed up again. The benchmark times ``reference()`` between
the commands it measures and scales each command's wall time by how slow the
host was around it (``Clock``), so that ``docs_per_s`` and ``setup_s`` follow
the program rather than the neighbours.

The work shares no code with polarpipe, so a change to the program cannot
move it. It mixes the two kinds of work the workloads do: string handling in
the interpreter (the normalization and tokenizing of ``load_dataset``) and
dense passes over arrays of 2^20 doubles (training at a wide ``hash_dim``).
"""

from __future__ import annotations

import re
import time

import numpy as np

# a round figure for the wall time of reference() on the 2-core VM the
# README's tables come from (0.3 to 0.45 s there); a scaled time reads in
# seconds of a host that runs the reference in exactly this long
NOMINAL_S = 0.40

_WORDS = tuple(f"Word{i % 997}x{i % 13} #Tag{i % 31} http://t.co/{i}" for i in range(2000))
_URL = re.compile(r"https?://\S+")


def _strings() -> int:
    counts: dict[str, int] = {}
    for _ in range(60):
        for text in _WORDS:
            for token in _URL.sub(" ", text).lower().replace("#", "").split():
                counts[token] = counts.get(token, 0) + 1
    return len(counts)


def _arrays() -> float:
    w = np.zeros(1 << 20)
    g = np.linspace(0.0, 1.0, 1 << 20)
    for _ in range(80):
        w *= 0.999
        w += 1e-3 * g
    return float(w[-1])


def reference() -> float:
    """Wall seconds that the fixed work took."""
    start = time.perf_counter()
    _strings()
    _arrays()
    return time.perf_counter() - start


class Clock:
    """Scales wall times to a host that runs ``reference()`` in ``NOMINAL_S``.

    Call ``scale`` right after each timed piece of work: it times the
    reference again and scales the wall time by the mean of the reference
    just before and just after the work.
    """

    def __init__(self):
        reference()  # warm-up: first-call costs are not host speed
        self.last = reference()
        self.refs = [self.last]

    def scale(self, wall_s: float) -> float:
        before, self.last = self.last, reference()
        self.refs.append(self.last)
        return wall_s * NOMINAL_S / ((before + self.last) / 2)
