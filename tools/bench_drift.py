#!/usr/bin/env python3
"""Fail when a record bench's simulated columns drift from its committed JSON.

The record benches write one JSON object per point, in a "points"
array (bench_qpscale, bench_msgrate) or a "workloads" array
(bench_simspeed). Their wall-clock columns are noise, but the simulated
ones are deterministic: a fresh run must reproduce every committed
point exactly. This compares the chosen columns point by point,
matching points on the key columns, and exits 1 on any difference or
missing point. A column a committed point lacks must be missing from
the fresh point too.

    tools/bench_drift.py BENCH_qpscale.json BENCH_qpscale_ci.json \\
        --key transport,qps \\
        --cols completed,messages,simTicks,completionsPerSimSec,txCtx,rxCtx \\
        --max qps=4096

    tools/bench_drift.py BENCH_simspeed.json BENCH_simspeed_ci.json \\
        --key name \\
        --cols events,simTicks,epochs,mailboxPosts,batchedPosts,horizonStalls \\
        --max threads=2

--max COL=N skips committed points whose COL exceeds N (for a run
capped below the committed sweep); points without COL are kept.

--ceiling COL=FRAC bounds a record-only column from above instead of
matching it: a fresh point fails when its COL exceeds the committed
value by more than FRAC (0.10 allows 10 % growth), or when either side
lacks COL. Falling below the committed value always passes; re-record
to tighten the bound.

    tools/bench_drift.py BENCH_qpscale.json BENCH_qpscale_ci.json \\
        --key transport,qps \\
        --cols completed,messages,simTicks,completionsPerSimSec,txCtx,rxCtx \\
        --ceiling heapBytesPerQp=0.10 --ceiling heapBytesPerQpAfterRun=0.10

bench_qpscale's heapBytesPerQp and heapBytesPerQpAfterRun come from
glibc's mallinfo2, which counts only what glibc's allocator handed
out: under a sanitizer, whose allocator glibc does not see, they read
a constant and mean nothing, so bound them only from a plain build.
"""

import argparse
import json
import sys


def points(path):
    with open(path) as f:
        doc = json.load(f)
    return doc["points"] if "points" in doc else doc["workloads"]


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
    ap.add_argument("--ceiling", action="append", default=[],
                    metavar="COL=FRAC",
                    help="fail where COL exceeds the committed value "
                         "by more than FRAC")
    args = ap.parse_args()

    key_cols = args.key.split(",")
    cols = args.cols.split(",")
    limits = []
    for spec in args.max:
        col, _, bound = spec.partition("=")
        limits.append((col, float(bound)))
    ceilings = []
    for spec in args.ceiling:
        col, _, frac = spec.partition("=")
        ceilings.append((col, float(frac)))

    def key(p):
        return tuple(p[c] for c in key_cols)

    got = {key(p): p for p in points(args.current)}
    checked = bad = 0
    for p in points(args.committed):
        if any(col in p and p[col] > bound for col, bound in limits):
            continue
        checked += 1
        q = got.get(key(p))
        for c in cols:
            if q is None or q.get(c) != p.get(c):
                print("drift at %s %s: committed %r, now %r"
                      % ("/".join(map(str, key(p))), c, p.get(c),
                         q and q.get(c)))
                bad += 1
        for c, frac in ceilings:
            was, now = p.get(c), q and q.get(c)
            if was is None or now is None or now > was * (1 + frac):
                print("over ceiling at %s %s: committed %r, now %r "
                      "(+%g allowed)"
                      % ("/".join(map(str, key(p))), c, was, now, frac))
                bad += 1
    if checked == 0:
        print("no committed point was checked")
        return 1
    print("%d points checked, %d drifted columns" % (checked, bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
