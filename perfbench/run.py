"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed; it is 2 when the checkout has no
``src/repro`` to benchmark.
"""

import sys
import time
from pathlib import Path

STARTED = time.perf_counter()


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {root}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:], STARTED, root)


if __name__ == "__main__":
    sys.exit(main())
