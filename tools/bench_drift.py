#!/usr/bin/env python3
"""Fail when a record bench's simulated columns drift from its committed JSON.

The record benches (bench_qpscale, bench_msgrate) write one JSON object
per point. Their wall-clock columns are noise, but the simulated ones
are deterministic: a fresh run must reproduce every committed point
exactly. This compares the chosen columns point by point, matching
points on the key columns, and exits 1 on any difference or missing
point.

    tools/bench_drift.py BENCH_qpscale.json BENCH_qpscale_ci.json \\
        --key transport,qps \\
        --cols completed,messages,simTicks,completionsPerSimSec,txCtx,rxCtx \\
        --max qps=4096

--max COL=N skips committed points whose COL exceeds N (for a run
capped below the committed sweep).
"""

import argparse
import json
import sys


def points(path):
    with open(path) as f:
        return json.load(f)["points"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("committed", help="the JSON committed to the repo")
    ap.add_argument("current", help="the JSON of a fresh run")
    ap.add_argument("--key", required=True,
                    help="comma-separated columns that identify a point")
    ap.add_argument("--cols", required=True,
                    help="comma-separated columns that must match")
    ap.add_argument("--max", action="append", default=[],
                    metavar="COL=N",
                    help="skip committed points whose COL exceeds N")
    args = ap.parse_args()

    key_cols = args.key.split(",")
    cols = args.cols.split(",")
    limits = []
    for spec in args.max:
        col, _, bound = spec.partition("=")
        limits.append((col, float(bound)))

    def key(p):
        return tuple(p[c] for c in key_cols)

    got = {key(p): p for p in points(args.current)}
    checked = bad = 0
    for p in points(args.committed):
        if any(p[col] > bound for col, bound in limits):
            continue
        checked += 1
        q = got.get(key(p))
        for c in cols:
            if q is None or q.get(c) != p[c]:
                print("drift at %s %s: committed %r, now %r"
                      % ("/".join(map(str, key(p))), c, p[c],
                         q and q.get(c)))
                bad += 1
    if checked == 0:
        print("no committed point was checked")
        return 1
    print("%d points checked, %d drifted columns" % (checked, bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
