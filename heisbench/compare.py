"""Layer-by-layer comparison of two traced runs.

    python3 heisbench/compare.py BEFORE.layers.json AFTER.layers.json

The files are those `run.py --trace 1` writes to heisbench/out/.  Prints
each per-layer metric of both runs and the ratio after / before.
"""

import json
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs = []
    for path in argv:
        with open(path) as fh:
            runs.append(json.load(fh))
    before, after = runs[0]["metrics"], runs[1]["metrics"]
    print(f"{'metric':44s} {'before':>14s} {'after':>14s} {'after/before':>12s}")
    for name, old in before.items():
        new = after.get(name)
        if new is None:
            print(f"{name:44s} {old:14.6g} {'missing':>14s}")
            continue
        ratio = f"{new / old:12.3f}" if old else f"{'-':>12s}"
        print(f"{name:44s} {old:14.6g} {new:14.6g} {ratio}")
    for name in after.keys() - before.keys():
        print(f"{name:44s} {'missing':>14s} {after[name]:14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
