"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Boots ``repro serve`` on fresh store
directories, drives one workload in a closed loop, checks every answer
against its known answer, and prints as the last stdout line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``.  Everything a run writes lives under
``.perfbench-runs/`` and is removed when it ends.  Without the program
under ``src/`` it exits 2 and prints no result.
"""

import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no repro sources under {source}",
              file=sys.stderr)
        return 2
    # The benchmark process itself must not open a cert store.
    os.environ["REPRO_CACHE_DIR"] = "off"
    sys.path[:0] = [source, ROOT]
    # A terminated run still stops the services it started.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    from perfbench import bench

    return bench.main(ROOT, sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
