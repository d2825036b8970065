"""Recompute the pinned output digests in perfbench/pinned.json.

Usage: python3 perfbench/pin.py [--workload NAME] [SEED ...]   (default seed: 0)

A digest covers the checked outputs of a workload's first 100 ops on one
seed.  run.py counts a mismatch with the pinned value as failed ops, so
pin only from a commit whose outputs are known to be right.
"""

import argparse
import json
import os
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS), help="default: all")
    parser.add_argument("seeds", type=int, nargs="*", default=[0])
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    path = os.path.join(run.HERE, "pinned.json")
    with open(path, encoding="utf-8") as handle:
        pinned = json.load(handle)
    for name in [args.workload] if args.workload else sorted(run.WORKLOADS):
        for seed in args.seeds:
            workload, _, _ = run.setup(name, seed)
            loop = run.Loop(workload)
            loop.run(0, run.PREFIX_OPS)
            if loop.failed:
                print(f"{name} seed {seed}: {loop.failed} failed ops; not pinned", file=sys.stderr)
                return 1
            pinned.setdefault(name, {})[str(seed)] = loop.digest.hexdigest()
            print(name, seed, pinned[name][str(seed)])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
