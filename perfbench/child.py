"""One benchmark child process: the ``siegelalg`` command line, timed from outside.

    python3 perfbench/child.py STAMP TRACE [CLI ARGS...]

Behaves as ``python -m siegelalg CLI ARGS`` (stdout, stderr and exit code are
the command's). Right after ``import siegelalg`` completes it writes the
``time.monotonic()`` reading to the file STAMP; the harness subtracts its own
reading taken before the spawn, which is comparable because both use the
system-wide monotonic clock. With TRACE other than ``-`` it installs the
layer wrappers of ``tracer.py`` and writes their report there as JSON on exit.
On exit it writes its own peak RSS in KiB to the file STAMP.rss (Linux only).
With no CLI ARGS it stops after the import: a set-up probe.
"""

import sys
import time

import siegelalg  # noqa: F401  (the whole package, as ``python -m siegelalg`` imports it)
from siegelalg import cli

_IMPORTED = time.monotonic()


def peak_rss_kib():
    """This process's peak RSS since its exec, or None where /proc is absent.

    ``ru_maxrss`` cannot give it: the kernel also counts the parent's peak at
    the fork in it, and for a small child that is the harness's size.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def run(argv, trace) -> int:
    if trace == "-":
        return cli.main(argv)
    import json

    import tracer

    recorder = tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(trace, "w", encoding="utf-8") as fh:
            json.dump(recorder.report(), fh)


def main() -> int:
    stamp, trace, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(repr(_IMPORTED))
    if not argv:
        return 0
    try:
        return run(argv, trace)
    finally:
        peak = peak_rss_kib()
        if peak is not None:
            with open(stamp + ".rss", "w", encoding="utf-8") as fh:
                fh.write(str(peak))


if __name__ == "__main__":
    sys.exit(main())
