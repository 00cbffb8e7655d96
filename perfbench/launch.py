"""Run one ``polarpipe`` command and record this process's peak resident memory.

    python3 perfbench/launch.py PEAK.txt <polarpipe arguments...>

The same as ``python3 -m polarpipe <arguments...>``, except that when the
command returns, ``VmHWM`` from ``/proc/self/status`` (in bytes) is written
to PEAK.txt. ``ru_maxrss`` as ``wait4`` reports it cannot stand in: on exec,
Linux starts a child's figure at the high-water mark of the image it
replaces, which is the benchmark harness with numpy loaded and its inputs
built. ``VmHWM`` belongs to the new image alone.
"""

from __future__ import annotations

import sys


def peak_rss_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv: list[str]) -> int:
    peak_path, cli_args = argv[0], argv[1:]
    from polarpipe import cli

    try:
        return cli.run(cli_args)
    finally:
        with open(peak_path, "w", encoding="ascii") as fh:
            fh.write(f"{peak_rss_bytes()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
