"""Record the reference digests the benchmark checks outputs against.

Usage (from the root of a checkout)::

    python3 perfbench/record.py --seeds 0-15

Runs one untraced pass per workload and seed, each in a fresh
interpreter exactly as ``run.py`` does, and writes the digests of their
deterministic outputs to ``perfbench/reference.json``.  A pass with a
failed cell is not recorded.  Record again only when the program's
outputs are meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.run import REFERENCE, Children, load_reference  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> range:
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = parser.parse_args()

    reference = load_reference()
    children = Children(limit_s=24 * 3600.0)
    for workload in args.workload:
        for seed in args.seeds:
            result = children.one_pass(workload, seed, False, 0)
            if result["failures"]:
                print(f"{workload} seed {seed}: not recorded, failed "
                      f"{result['failures'][:3]}", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = result["digest"]
            print(f"{workload} seed {seed}: {result['digest'][:16]}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
