"""One benchmark iteration in a fresh process; prints its sample as JSON.

Run by ``run.py`` once per iteration, so every iteration starts with a cold
graph memo and its own ``ru_maxrss`` high-water mark::

    python3 perfbench/worker.py --workload spanner --seed 0 --trace 0

The last stdout line is the sample record (see ``workloads.run_iteration``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    sample = workloads.run_iteration(
        workloads.WORKLOADS[args.workload], args.seed, trace=bool(args.trace)
    )
    sample["environment"] = workloads.environment()
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
