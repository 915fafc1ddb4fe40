#!/usr/bin/env python3
"""Simulator benchmark: wall time and simulated QPIP metrics, end to end
and per layer, over three workloads (fanin, pingpong, fabric).

    python3 perfbench/run.py --workload fanin --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30    # every workload in turn
    python3 perfbench/run.py --smoke         # tiny, both trace modes

Run from the repository root. The first run configures and builds the
driver (perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR
(default .bench_build). Each repetition is one driver process, so peak
RSS is per repetition; repetitions continue until --seconds have passed.
With --trace 0 the last stdout line carries the end-to-end metrics:
run_s and teardown_s from the fastest repetition (best-of-N, as in
bench/bench_common.hh), set-up and peak RSS as medians. With --trace 1
untraced and traced repetitions alternate and it carries the per-layer
metrics, the span-derived ones from the traced repetitions. Without
--workload every workload runs in turn. Metric names and units come
from BENCHMARK.json; README.md in this directory maps each per-layer
metric to the end-to-end metric and workload it should move.

Every repetition is checked: each op's output (see the workload
sources) and bit-identical simulated results and layer counts across
all repetitions of one seed. Any failure makes the run exit non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Repetitions per run, whatever --seconds says.
MIN_REPS = 3
MIN_TRACED_REPS = 2
# Start no repetition that could end past this many seconds, and stop
# the whole run by REP_DEADLINE_S whatever happens.
RUN_LIMIT_S = 150.0
REP_DEADLINE_S = 170.0

TICKS_PER_S = 1e12
TICKS_PER_US = 1e6
MB = float(1 << 20)

# Firmware stages that do work in the measured phase of fanin or
# pingpong; each gets a nic.stage.<tag>_us_per_op metric.
STAGES = [
    "doorbellProcess", "schedule", "getWr", "getData", "buildTcpHdr",
    "buildIpHdr", "mediaSend", "updateTx", "mediaRcv", "ipParse",
    "tcpParse", "udpParse", "putData", "updateRx", "rudExec", "ctxFetch",
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


# ---------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------

def build_driver():
    """Configure (once) and build the Release driver; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "perfbench_driver", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("build failed")
    return build_dir, os.path.join(build_dir, "perfbench_driver")


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


# ---------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------

def run_rep(driver, workload, seed, traced, smoke, spans_path, timeout):
    cmd = [driver, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
        if spans_path:
            cmd += ["--spans", spans_path]
    if smoke:
        cmd.append("--smoke")
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        die("driver still running on %s seed %d after %.0f s"
            % (workload, seed, timeout))
    if out.stderr:
        log(out.stderr.rstrip())
    if out.returncode != 0:
        die("driver exited with %d on %s seed %d"
            % (out.returncode, workload, seed))
    rep = json.loads(out.stdout.strip().splitlines()[-1])
    if rep["build_type"] != "Release":
        die("refusing numbers from a %s build" % rep["build_type"])
    return rep


def repeat(driver, workload, seed, seconds, trace, smoke, spans_path):
    """Alternate repetitions until @seconds pass; return (plain, traced)."""
    plain, traced = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        need_plain = len(plain) < (1 if smoke else MIN_REPS)
        need_traced = trace and len(traced) < (1 if smoke else
                                               MIN_TRACED_REPS)
        if not (need_plain or need_traced):
            if smoke or elapsed >= seconds:
                break
            if elapsed + longest > RUN_LIMIT_S:
                break
        use_trace = trace and (len(traced) < len(plain) or not need_plain)
        t = time.monotonic()
        rep = run_rep(driver, workload, seed, use_trace, smoke,
                      spans_path if use_trace else None,
                      max(1.0, REP_DEADLINE_S - elapsed))
        longest = max(longest, time.monotonic() - t)
        (traced if use_trace else plain).append(rep)
    return plain, traced


def check(reps):
    """Return the correctness failures across @reps of one seed."""
    problems = []
    for rep in reps:
        for e in rep["errors"]:
            problems.append("%s: %s" % (rep["workload"], e))
        if rep["failed"]:
            problems.append("%d of %d ops failed"
                            % (rep["failed"], rep["attempted"]))
    first = reps[0]
    for rep in reps[1:]:
        for part in ("sim", "counts"):
            if rep[part] != first[part]:
                keys = sorted(k for k in set(rep[part]) | set(first[part])
                              if rep[part].get(k) != first[part].get(k))
                problems.append("%s differs between repetitions of one "
                                "seed: %s" % (part, ", ".join(keys)))
    return problems


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def med(reps, key):
    return statistics.median(rep["wall"][key] for rep in reps)


def best(reps, key):
    """Fastest repetition's wall @key: interference only slows one down."""
    return min(rep["wall"][key] for rep in reps)


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(plain):
    """name -> (value, unit), from the untraced repetitions."""
    s = plain[0]["sim"]
    sim_s = s["ticks"] / TICKS_PER_S
    return {
        "setup_s": (med(plain, "setup_s"), "s"),
        "run_s": (best(plain, "run_s"), "s"),
        "teardown_s": (best(plain, "teardown_s"), "s"),
        "peak_rss_mb": (med(plain, "peak_rss_mb"), "MB"),
        "sim_ops_per_s": (ratio(s["ops"], sim_s), "1/s"),
        "sim_goodput_mb_s": (ratio(s["payload_bytes"] / MB, sim_s), "MB/s"),
        "sim_lat_p50_us": (s["lat_p50_ticks"] / TICKS_PER_US, "us"),
        "sim_lat_p99_us": (s["lat_p99_ticks"] / TICKS_PER_US, "us"),
        "sim_host_cpu_pct": (100.0 * s["host_cpu_share"], "%"),
    }


def span_stat(traced, name, field):
    """Median over traced repetitions of a span's total @field (ns)."""
    vals = [rep["spans"].get(name, {}).get(field, 0) for rep in traced]
    return statistics.median(vals)


def span_per_call_ns(traced, name, field):
    vals = []
    for rep in traced:
        sp = rep["spans"].get(name)
        vals.append(ratio(sp[field], sp["count"]) if sp else 0.0)
    return statistics.median(vals)


def per_layer(plain, traced):
    """name -> (value, unit); wall ones from the traced repetitions."""
    s = plain[0]["sim"]
    c = plain[0]["counts"]
    ops = max(s["ops"], 1)
    run_s = best(plain, "run_s")
    m = {
        "sim.events_per_op": (c["sim.events"] / ops, "count"),
        "sim.wall_ns_per_event": (1e9 * ratio(run_s, c["sim.events"]), "ns"),
        "sim.loop_self_s": (span_stat(traced, "sim.run", "self_ns") / 1e9,
                            "s"),
        "sim.epochs": (c["parallel.epochs"], "count"),
        "sim.events_per_epoch": (ratio(c["sim.events"],
                                       c["parallel.epochs"]), "count"),
        "sim.mailbox_posts": (c["parallel.mailboxPosts"], "count"),
        "sim.horizon_stalls": (c["parallel.horizonStalls"], "count"),
        "net.frames_per_op": (c["net.frames"] / ops, "count"),
        "net.bytes_per_op": (c["net.bytes"] / ops, "B"),
        "net.queue_drops": (c["net.queueDrops"], "count"),
        "inet.segs_per_op": (c["inet.segsOut"] / ops, "count"),
        "inet.retx_ratio": (ratio(c["inet.retransmits"], c["inet.segsOut"]),
                            "ratio"),
        "inet.timeouts": (c["inet.timeouts"], "count"),
        "inet.hdr_predicted_ratio": (ratio(c["inet.hdrPredicted"],
                                           c["inet.segsIn"]), "ratio"),
        "host.cpu_busy_us_per_op": (c["host.cpuBusyTicks"] / TICKS_PER_US
                                    / ops, "us"),
        "host.interrupts_per_op": (c["host.interrupts"] / ops, "count"),
        "host.call_wall_ns": (span_per_call_ns(traced, "host.call",
                                               "self_ns"), "ns"),
        "nic.fw_busy_pct": (100.0 * ratio(c["nic.fwBusyTicks"], s["ticks"]),
                            "%"),
        "nic.fw_us_per_op": (c["nic.fwBusyTicks"] / TICKS_PER_US / ops,
                             "us"),
        "nic.ctx_hit_ratio": (ratio(c["nic.ctxHits"],
                                    c["nic.ctxHits"] + c["nic.ctxMisses"]),
                              "ratio"),
        "nic.ctx_writebacks": (c["nic.ctxWritebacks"], "count"),
        "nic.wrs_per_doorbell": (ratio(c.get("qpip.posts", 0),
                                       c["nic.doorbellRings"]), "count"),
        "nic.cq_notifies_per_op": (c["nic.cqNotifies"] / ops, "count"),
        "nic.rnr_holds": (c["nic.rnrHolds"], "count"),
        "nic.rud_retransmits": (c["nic.rudRetransmits"], "count"),
        "nic.rud_acks_per_op": (c["nic.rudAcks"] / ops, "count"),
        "qpip.post_wall_ns": (span_per_call_ns(traced, "qpip.post",
                                               "self_ns"), "ns"),
        "qpip.callback_s": (span_stat(traced, "cb", "self_ns") / 1e9, "s"),
        "qpip.refused_posts": (c.get("qpip.refusedPosts", 0), "count"),
        "qpip.error_completions": (c.get("qpip.errorCompletions", 0),
                                   "count"),
        "apps.build_s": (span_per_call_ns(traced, "apps.build",
                                          "inclusive_ns") / 1e9, "s"),
        "apps.connect_s": (span_per_call_ns(traced, "apps.connect",
                                            "inclusive_ns") / 1e9, "s"),
        "trace.overhead_s": (best(traced, "run_s") - run_s, "s"),
    }
    for tag in STAGES:
        m["nic.stage.%s_us_per_op" % tag] = (c["nic.stageUs." + tag] / ops,
                                             "us")
    return m


def emit(values, spec_metrics):
    """Check @values against BENCHMARK.json: same names, same units."""
    names = sorted(m["name"] for m in spec_metrics)
    if names != sorted(values):
        die("metrics do not match BENCHMARK.json (missing %s, extra %s)"
            % (sorted(set(names) - set(values)),
               sorted(set(values) - set(names))))
    for m in spec_metrics:
        if values[m["name"]][1] != m["unit"]:
            die("%s is measured in %s, BENCHMARK.json says %s"
                % (m["name"], values[m["name"]][1], m["unit"]))
    return {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
            for m in spec_metrics}


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------

def context(plain, seed, commit):
    rep = plain[0]
    return {"workload": rep["workload"], "seed": seed,
            "nproc": os.cpu_count(), "build_type": rep["build_type"],
            "compiler": rep["compiler"], "commit": commit,
            "threads": rep["threads"], "repetitions": len(plain)}


def print_table(ctx, e2e, plain, attempted, failed, spec):
    print("perfbench %s" % " ".join("%s=%s" % kv for kv in ctx.items()))
    s = plain[0]["sim"]
    for m in spec["end_to_end"]:
        extra = ""
        if m["name"].startswith("sim_lat_"):
            extra = "  (n=%d)" % s["lat_samples"]
        value, unit = e2e[m["name"]]
        print("  %-18s %16.6g %s%s" % (m["name"], value, unit, extra))
    print("  %-18s %16.6g ratio  (%d of %d ops)"
          % ("fail_ratio", ratio(failed, attempted), failed, attempted))


def measure(workload, seed, seconds, trace, smoke, spec, driver,
            build_dir):
    """One run of one workload; print its table and result line."""
    plain, traced = repeat(driver, workload, seed, seconds, trace == 1,
                           smoke, os.path.join(build_dir, "spans-%s-seed%d.csv"
                                               % (workload, seed)))
    problems = check(plain + traced)
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    if problems and not failed:
        failed = 1
    ctx = context(plain, seed, source_id())
    e2e = end_to_end(plain)
    print_table(ctx, e2e, plain, attempted, failed, spec)
    if trace:
        metrics = emit(per_layer(plain, traced), spec["per_layer"])
    else:
        metrics = emit(e2e, spec["end_to_end"])
    for p in problems:
        log("perfbench: FAILED: " + p)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(ctx, trace=trace, result=result,
                  walls=[dict(r["wall"], traced=r["traced"])
                         for r in plain + traced])
    with open(os.path.join(build_dir, "result-%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    help="one workload of BENCHMARK.json (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and both trace modes; fails unless "
                    "every metric comes out with its BENCHMARK.json unit")
    args = ap.parse_args()
    if not os.path.isfile(SPEC_PATH):
        die("BENCHMARK.json not found at the repository root")
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        die("--workload must be one of %s" % ", ".join(names))
    build_dir, driver = build_driver()
    status = 0
    for workload in [args.workload] if args.workload else names:
        for trace in (0, 1) if args.smoke else (args.trace,):
            status |= measure(workload, args.seed, args.seconds, trace,
                              args.smoke, spec, driver, build_dir)
    if args.smoke:
        log("perfbench smoke: %s" % ("ok" if status == 0 else "FAILED"))
    return status


if __name__ == "__main__":
    sys.exit(main())
