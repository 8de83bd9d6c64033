"""Record the CLI stdout that the benchmark compares byte for byte.

    python3 perfbench/record_goldens.py

Writes goldens/classify.json (the (0,1) answers and the generic answers at
DEFAULT_SEED) and goldens/verify.json (every identity and catalog check).
Run it only at a commit whose answers are known to be right: the benchmark
treats any later difference as a failed answer.
"""
from __future__ import annotations

import json
import sys

from run import import_densym
from workloads import DEFAULT_SEED, GOLDENS, _classify_argv, call_cli, flagship_points


def record(argvs):
    out = {}
    for argv in argvs:
        rc, stdout, stderr = call_cli(argv)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}: {stderr}")
        out[" ".join(argv)] = stdout
    return out


def main():
    import_densym()
    from densym.identities import CATALOG_HOMES, IDENTITIES

    classify = [_classify_argv(*p) for p in flagship_points(DEFAULT_SEED)]
    verify = ([["verify", name] for name in sorted(IDENTITIES)]
              + [["verify", "--op", name] for name in sorted(CATALOG_HOMES)])
    GOLDENS.mkdir(exist_ok=True)
    for name, argvs in (("classify", classify), ("verify", verify)):
        with open(GOLDENS / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(record(argvs), fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
