"""Compare two benchmark records written by ``run.py --record``.

    python3 bench/compare.py BEFORE.json AFTER.json

Refuses (exit 2) to compare runs whose mpmath backend differs, since the
backend changes every big-number cost.  For each workload in both records it
prints each metric's two values and their ratio, then diffs the requests byte
for byte: with the same seed both runs sent the same argv list, so a differing
stdout sha256 or exit code means the output changed.  Exits 1 if any output
differs, else 0.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(open(p, encoding="utf-8").read()) for p in argv)
    ea, eb = a["environment"], b["environment"]
    if ea["mpmath_backend"] != eb["mpmath_backend"]:
        print(f"refusing to compare: mpmath backend {ea['mpmath_backend']} vs {eb['mpmath_backend']}",
              file=sys.stderr)
        return 2
    for key in ("python", "mpmath", "gmpy2", "nproc", "cpu"):
        if ea.get(key) != eb.get(key):
            print(f"note: {key} differs: {ea.get(key)} vs {eb.get(key)}")
    changed = 0
    other = {w["workload"]: w for w in b["workloads"]}
    for wa in a["workloads"]:
        wb = other.get(wa["workload"])
        if wb is None:
            continue
        print(f"== {wa['workload']}  failed {wa['failed']}/{wa['attempted']} -> {wb['failed']}/{wb['attempted']}")
        for name, va in wa["metrics"].items():
            vb = wb["metrics"].get(name)
            if vb is not None:
                ratio = f"{vb / va:.4f}" if va else "-"
                print(f"  {name:40s} {va:>14.6g} {vb:>14.6g}  x{ratio}")
        ra, rb = wa["requests"], wb["requests"]
        common = min(len(ra), len(rb))
        if [r["argv"] for r in ra[:common]] != [r["argv"] for r in rb[:common]]:
            print("  argv lists differ (different seeds?); byte comparison skipped")
            continue
        differ = [(x, y) for x, y in zip(ra[:common], rb[:common])
                  if (x["stdout_sha256"], x["exit"]) != (y["stdout_sha256"], y["exit"])]
        for x, y in differ:
            print(f"  output differs: {' '.join(x['argv'])[:100]}  exit {x['exit']} -> {y['exit']}")
        print(f"  {common} requests compared byte for byte, {len(differ)} differ")
        changed += len(differ)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
