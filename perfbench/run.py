#!/usr/bin/env python3
# SPDX-License-Identifier: MIT
"""Campaign benchmark: four scenario workloads timed end to end, split by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds perfbench/harness.cpp
against cobra_core (Release, into .bench_build/perfbench), writes the
workload's .scenario specs from --seed (seed -> [campaign] base_seed; every
other line is fixed), and then:

  --trace 0  runs the workload as a closed loop, one campaign at a time, each
             in a fresh harness process with no journal, until --seconds
             have passed (at least three campaigns). It reports the medians
             of the end-to-end metrics and runs the correctness gate.
  --trace 1  runs one traced pass (harness `trace`) that splits the workload
             by layer and reports the per-layer metrics; the spans go to a
             Chrome trace JSON under .bench_out/results/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it are a host/build header (JSON) and a
human-readable table. A copy of everything goes to
.bench_out/results/<workload>-seed<N>-trace<T>.json.

Other entry points:
    --selftest         unit tests of this harness (perfbench/test_run.py)
    --write-manifest   rewrites BENCHMARK.json from the tables below
    --record-reference re-records perfbench/reference.json (the COBRA
                       rounds / ln n reference of the correctness gate)

perfbench/METRICS.md documents every metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

# A run must end within 180 s of its start, build excluded.
RUN_BUDGET_S = 170.0
MIN_TIMED_CAMPAIGNS = 3
# Pooled campaigns: 3 pool threads + the calling thread = 4 participants,
# which is nproc on the reference host (ThreadPool::parallel_for runs the
# caller as an extra participant).
POOL_THREADS = 3
RUN_SECONDS = 20


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple  # ((spec name, spec text with {base_seed}), ...)


def _spec(name, body, threads=POOL_THREADS):
    head = f"[campaign]\nname = {name}\nbase_seed = {{base_seed}}\n"
    if threads:
        head += f"threads = {threads}\n"
    return (name, head + body)


WORKLOADS = (
    Workload(
        "paper_expander",
        "Theorem 1 and duality at scale: cobra and bips k=2 on random "
        "8-regular graphs, n doubling to 2^17; trial engine ~80%, graph "
        "build ~20%",
        (_spec("paper_expander", """trials = 16

[graph]
family = random_regular
n = 1024..131072 *2
r = 8

[process]
name = cobra, bips
k = 2
record_curve = 0
"""),)),
    Workload(
        "graph_scale",
        "eight random 8-regular graphs at n=2^17 (4.5 MiB CSR each, over "
        "twice the L2 of a core), one cobra trial each, serial campaign; "
        "graph construction dominates",
        (_spec("graph_scale", """trials = 1
seeds = 0..7

[graph]
family = random_regular
n = 131072
r = 8

[process]
name = cobra
k = 2
record_curve = 0
""", threads=0),)),
    Workload(
        "small_jobs",
        "2048 jobs of cobra k=1,2 x 8 trials on n=256,1024 expanders with "
        "a fsync'd journal; per-job fixed costs dominate",
        (_spec("small_jobs", """trials = 8
seeds = 0..511

[graph]
family = random_regular
n = 256, 1024
r = 8

[process]
name = cobra
k = 1, 2
record_curve = 0
"""),)),
    Workload(
        "gossip_faults",
        "weighted push-pull and push on an exp-weighted 128x128 torus, "
        "fault-free on batched alias lanes and drop=0.2 on scalar "
        "step_faulty",
        (_spec("gossip_clean", """trials = 16
seeds = 0..1

[graph]
family = torus
dims = 128x128
weight = exp

[process]
name = push-pull, push
weighted = 1
record_curve = 0

[engine]
batch = 32
"""),
         _spec("gossip_faulty", """trials = 16
seeds = 0..1

[graph]
family = torus
dims = 128x128
weight = exp

[process]
name = push-pull, push
weighted = 1
record_curve = 0

[faults]
drop = 0.2

[engine]
batch = 32
"""))),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}

END_TO_END = (
    # name, unit, better, bound
    ("campaign_s", "s", "lower", 0.25),
    ("trials_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

PROBED = ("cobra", "bips", "push-pull", "push")
PER_LAYER = (
    # name, unit, better
    ("scenario.plan_ms", "ms", "lower"),
    ("scenario.journal_append_ms.p50", "ms", "lower"),
    ("scenario.journal_append_ms.p99", "ms", "lower"),
    ("scenario.journal_lock_wait_ms", "ms", "lower"),
    ("scenario.sink_flush_ms", "ms", "lower"),
    ("scenario.cache_wait_ms", "ms", "lower"),
    ("graph.builds", "count", "lower"),
    ("graph.build_ms.p50", "ms", "lower"),
    ("graph.build_ms.max", "ms", "lower"),
    ("graph.edges_per_s", "1/s", "higher"),
    ("graph.solo_build_ms.max", "ms", "lower"),
    ("graph.concurrency_slowdown", "ratio", "lower"),
    ("graph.bytes", "bytes", "lower"),
    ("rand.alias_build_ms", "ms", "lower"),
) + tuple(
    row for proc in ("cobra", "bips") for row in (
        (f"core.trial_ms.p50.{proc}", "ms", "lower"),
        (f"core.trial_ms.p90.{proc}", "ms", "lower"),
        (f"core.tx_per_s.{proc}", "1/s", "higher"))
) + tuple(
    (f"core.faulty_trial_ms.p50.{proc}", "ms", "lower")
    for proc in ("push-pull", "push")
) + (
    ("core.failed_trials", "count", "lower"),
    ("sim.pool_utilization", "ratio", "higher"),
    ("sim.pool_queue_wait_ms", "ms", "lower"),
    ("sim.parallel_efficiency", "ratio", "higher"),
) + tuple(
    row for proc in PROBED for row in (
        (f"sim.batched_trial_ms.p50.{proc}", "ms", "lower"),
        (f"sim.batched_speedup.{proc}", "ratio", "higher"))
) + (
    ("obs.telemetry_overhead", "ratio", "lower"),
    ("obs.bench_trace_overhead", "ratio", "lower"),
    ("dist.campaign_s", "s", "lower"),
    ("dist.vs_pool", "ratio", "lower"),
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def manifest():
    """BENCHMARK.json, generated from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def make_specs(workload, seed):
    """{spec name: spec text} for one workload; only base_seed depends on
    the seed."""
    return {name: text.format(base_seed=seed)
            for name, text in WORKLOAD_BY_NAME[workload].specs}


# ---------------------------------------------------------------- statistics

def percentile(values, p):
    """Linear-interpolation percentile (p in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty list")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def quartile_spread(values):
    """(Q3 - Q1) / median with Python's default (exclusive) quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def parse_result_line(stdout):
    """The final result object of a run's stdout; raises ValueError when the
    last line is not one JSON object with exactly the result keys."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise ValueError("last line is not a result object")
    if not isinstance(result["correct"], bool):
        raise ValueError("'correct' is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"'{key}' is not an integer")
    if result["attempted"] < 1:
        raise ValueError("'attempted' < 1")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(
                metric["value"], (int, float)):
            raise ValueError(f"metric {name} malformed")
    return result


def check_trace(path):
    """Validates a Chrome trace file: JSON with a traceEvents list of
    complete events whose parent links resolve, and whose spans nest: every
    child lies inside its parent, on the parent's thread. Returns the number
    of spans; raises ValueError otherwise."""
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    events = trace.get("traceEvents") if isinstance(trace, dict) else None
    if not isinstance(events, list):
        raise ValueError("no traceEvents list")
    spans = {}
    for event in events:
        if event.get("ph") == "M":
            continue
        if event.get("ph") != "X":
            raise ValueError(f"unexpected phase {event.get('ph')!r}")
        for key in ("name", "ts", "dur", "tid", "args"):
            if key not in event:
                raise ValueError(f"event without {key}")
        if event["dur"] < 0:
            raise ValueError("negative duration")
        spans[event["args"]["id"]] = event
    slack = 1.0  # us; clock reads of parent and child are separate
    for event in spans.values():
        parent_id = event["args"]["parent"]
        if parent_id < 0:
            continue
        parent = spans.get(parent_id)
        if parent is None:
            raise ValueError(f"span {event['args']['id']} has no parent")
        if parent["tid"] != event["tid"]:
            raise ValueError("child on another thread than its parent")
        if (event["ts"] + slack < parent["ts"] or
                event["ts"] + event["dur"] >
                parent["ts"] + parent["dur"] + slack):
            raise ValueError(f"span {event['args']['id']} outside parent")
    if not spans:
        raise ValueError("empty trace")
    return len(spans)


# ---------------------------------------------------------------- host header

def _read(path, default=""):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return default


def filesystem_type(path):
    """Type of the mount holding `path` (longest mount-point prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    for line in _read("/proc/self/mounts").splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1].replace("\\040", " ")
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, fields[2]
    return fstype


def cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = _read(os.path.join(base, entry, "size"))
    return sizes


def pressure_stall_s():
    """Seconds some task stalled on CPU and on I/O so far (PSI "some"
    totals); the delta over a run tells whether other load on the host
    slowed it."""
    stalls = {}
    for kind in ("cpu", "io"):
        for line in _read(f"/proc/pressure/{kind}").splitlines():
            if line.startswith("some") and "total=" in line:
                stalls[kind] = int(line.rsplit("total=", 1)[1]) / 1e6
    return stalls


def source_digest():
    """sha256 over src/ and perfbench/ sources: provenance when the checkout
    is not a git repository (build_info then says git=unknown)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".cpp", ".hpp", ".txt", ".py")))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_header(build_info):
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_per_core": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "build_info": build_info,
        "output_fs": filesystem_type(OUT_DIR),
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------- build

def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def ensure_sources():
    needed = ("CMakeLists.txt", "src/scenario/campaign.hpp")
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a repository checkout (missing " + ", ".join(missing) +
             "); run from the root of a full checkout", code=2)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench_build.log")
    with open(log_path, "w", encoding="utf-8") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail(f"cmake configure failed (log: {log_path})")
        jobs = str(max(1, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                           "perfbench_harness", "-j", jobs], stdout=log,
                          stderr=subprocess.STDOUT, cwd=ROOT).returncode != 0:
            fail(f"build failed (log: {log_path})")


def harness(args, deadline):
    """Runs the harness once and returns its JSON; fails the run on a
    non-zero exit (the harness refuses non-Release builds with code 3)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("time budget exhausted")
    try:
        proc = subprocess.run([HARNESS] + args, capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("harness timed out: " + " ".join(args[:1]))
    if proc.returncode != 0:
        fail(f"harness {args[0]} exited {proc.returncode}: "
             f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sink_digest(stem):
    digest = hashlib.sha256()
    for ext in (".jsonl", ".csv"):
        with open(stem + ext, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


# ---------------------------------------------------------------- trace 0

def cobra_ratio(stem):
    """{n: mean rounds / ln n} for the cobra k=2 jobs of a sinks stem."""
    ratios = {}
    with open(stem + ".jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            process = record["process"]
            if process.get("name") == "cobra" and process.get("k") == "2":
                n = int(record["graph"]["n"])
                ratios[n] = record["rounds"]["mean"] / math.log(n)
    return ratios


def reference_check(workload, stem, problems):
    """COBRA k=2 rounds / ln n against perfbench/reference.json: catches a
    fast-but-wrong engine without pinning the RNG stream."""
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle).get(workload)
    if reference is None:
        return None
    ratios = cobra_ratio(stem)
    pooled = statistics.fmean(ratios.values())
    expected = reference["cobra_k2_rounds_per_ln_n"]
    if abs(pooled / expected - 1.0) > reference["tolerance"]:
        problems.append(f"cobra k=2 rounds/ln n = {pooled:.4f}, reference "
                        f"{expected:.4f} +- {reference['tolerance']:.0%}")
    for n, ratio in sorted(ratios.items()):
        if abs(ratio / expected - 1.0) > reference["per_n_tolerance"]:
            problems.append(f"cobra k=2 rounds/ln n at n={n} = {ratio:.4f}, "
                            f"reference {expected:.4f} +- "
                            f"{reference['per_n_tolerance']:.0%}")
    return {"pooled": pooled, "reference": expected,
            "per_n": {str(n): r for n, r in sorted(ratios.items())}}


def write_specs(workload, seed, run_dir):
    paths = []
    for name, text in make_specs(workload, seed).items():
        path = os.path.join(run_dir, name + ".scenario")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    return paths


def timed_run(spec_paths, run_dir, seconds, deadline):
    """Closed loop: one campaign at a time in a fresh harness process, the
    next after the previous finishes, until `seconds` have passed. First,
    untimed, the workload runs once in the other threading mode (serial for
    pooled workloads, threads=3 for serial ones) for the purity check; that
    run also warms the page cache. Returns (timed runs, check run)."""
    with open(spec_paths[0], encoding="utf-8") as handle:
        pooled = "\nthreads =" in handle.read()
    threads = 0 if pooled else POOL_THREADS
    check = harness(["time", "--threads", str(threads), "--out",
                     os.path.join(run_dir, "threads_check")] + spec_paths,
                    deadline)
    runs = []
    begin = time.monotonic()
    while True:
        out = os.path.join(run_dir, f"campaign{len(runs)}")
        runs.append(harness(["time", "--out", out] + spec_paths, deadline))
        elapsed = time.monotonic() - begin
        last = elapsed / len(runs)
        if len(runs) >= MIN_TIMED_CAMPAIGNS and elapsed + last > seconds:
            break
    return runs, check


def gate(workload, spec_paths, runs, check):
    """Correctness gate of a timed run; returns (problems, details)."""
    problems = []
    details = {}
    # Sinks identical across every campaign of the run (same seed).
    digests = [[sink_digest(s["stem"]) for s in r["specs"]] for r in runs]
    if any(d != digests[0] for d in digests):
        problems.append("sinks differ between campaigns of one seed")
    # Serial vs threads-3 (the purity contract).
    threads = [runs[0]["specs"][0]["threads"], check["specs"][0]["threads"]]
    if [sink_digest(s["stem"]) for s in check["specs"]] != digests[0]:
        problems.append("sinks differ between threads={} and threads={}"
                        .format(*threads))
    details["threads_checked"] = threads
    # No failed trials without faults.
    for spec_path, spec in zip(spec_paths, runs[0]["specs"]):
        with open(spec_path, encoding="utf-8") as handle:
            faulty = "[faults]" in handle.read()
        if not faulty and spec["failed"]:
            problems.append(f"{spec['name']}: {spec['failed']} failed trials "
                            "without faults")
    ratio = reference_check(workload, runs[0]["specs"][0]["stem"], problems)
    if ratio is not None:
        details["cobra_rounds_per_ln_n"] = ratio
    return problems, details


def end_to_end(runs):
    campaign = [sum(s["campaign_s"] for s in r["specs"]) for r in runs]
    setup = [sum(statistics.median(s["setup_s"]) for s in r["specs"])
             for r in runs]
    trials = sum(s["trials"] for s in runs[0]["specs"])
    failed = sum(s["failed"] for s in runs[0]["specs"])
    campaign_s = statistics.median(campaign)
    return {
        "campaign_s": campaign_s,
        "trials_per_s": (trials - failed) / campaign_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["vm_hwm_kib"] / 1024.0
                                         for r in runs),
    }, {"failed_share": failed / trials, "campaigns": len(runs),
        "campaign_s_all": campaign, "setup_s_all": setup,
        "campaign_s_quartile_spread": quartile_spread(campaign)}


# ---------------------------------------------------------------- trace 1

def per_layer(specs):
    """Per-layer metrics from the harness `trace` output, pooled over the
    workload's specs (sums of times, concatenated samples)."""
    def cat(key):
        return [v for s in specs for v in s[key]]

    def total(key):
        return sum(s[key] for s in specs)

    off = sum(statistics.median(s["campaign_off_s"]) for s in specs)
    on = sum(statistics.median(s["campaign_on_s"]) for s in specs)
    pooled_wall = sum(s["participants"] * s["replay_wall_s"] for s in specs)
    build_ms = cat("build_ms")
    m = {
        "scenario.plan_ms": sum(
            statistics.median(s["plan_s"]) for s in specs) * 1e3,
        "scenario.journal_append_ms.p50": percentile(cat("append_ms"), 50),
        "scenario.journal_append_ms.p99": percentile(cat("append_ms"), 99),
        "scenario.journal_lock_wait_ms": total("lock_wait_ms"),
        "scenario.sink_flush_ms": total("sink_flush_ms"),
        "scenario.cache_wait_ms": total("cache_wait_ms"),
        "graph.builds": len(build_ms),
        "graph.build_ms.p50": percentile(build_ms, 50),
        "graph.build_ms.max": max(build_ms),
        "graph.edges_per_s": total("build_edges") / (sum(build_ms) / 1e3),
        "graph.solo_build_ms.max": max(cat("solo_build_ms")),
        "graph.concurrency_slowdown":
            total("replay_build_ms_sum") / sum(cat("solo_build_ms")),
        "graph.bytes": max(s["graph_bytes"] for s in specs),
        "rand.alias_build_ms": max(s["alias_build_ms"] for s in specs),
        "core.failed_trials": total("failed_trials"),
        "sim.pool_utilization": sum(sum(s["busy_s"]) for s in specs) /
                                pooled_wall,
        "sim.pool_queue_wait_ms": total("queue_wait_ms"),
        "sim.parallel_efficiency": total("serial_replay_wall_s") / pooled_wall,
        "obs.telemetry_overhead": on / off,
        "obs.bench_trace_overhead": total("replay_wall_s") / off,
        "dist.campaign_s": total("dist_wall_s"),
        "dist.vs_pool": total("dist_wall_s") / off,
    }
    na = {}
    for proc in PROBED:
        probes = [s["probe"][proc] for s in specs]
        trial_ms = [v for p in probes for v in p["trial_ms"]]
        if proc in ("cobra", "bips"):
            m[f"core.trial_ms.p50.{proc}"] = percentile(trial_ms, 50)
            m[f"core.trial_ms.p90.{proc}"] = percentile(trial_ms, 90)
            m[f"core.tx_per_s.{proc}"] = (sum(p["tx"] for p in probes) /
                                          (sum(trial_ms) / 1e3))
        else:
            m[f"core.faulty_trial_ms.p50.{proc}"] = percentile(
                [v for p in probes for v in p["faulty_trial_ms"]], 50)
        batched = [v for p in probes for v in p["batched_trial_ms"]]
        if not batched:
            reason = "; ".join(sorted({p["batched_na"] for p in probes}))
            na[f"sim.batched_trial_ms.p50.{proc}"] = reason
            na[f"sim.batched_speedup.{proc}"] = reason
            continue
        m[f"sim.batched_trial_ms.p50.{proc}"] = percentile(batched, 50)
        scalar_ms = sum(sum(p["trial_ms"]) for p in probes
                        if p["batched_trial_ms"])
        m[f"sim.batched_speedup.{proc}"] = scalar_ms / sum(batched)
    return m, na


def traced_run(spec_paths, run_dir, result_stem, deadline):
    trace_json = result_stem + ".trace.json"
    out = harness(["trace", "--out", run_dir, "--trace-json", trace_json] +
                  spec_paths, deadline)
    problems = []
    for spec in out["specs"]:
        for check, ok in spec["checks"].items():
            if not ok:
                problems.append(f"{spec['name']}: {check} failed")
        if spec["dist_error"]:
            problems.append(f"{spec['name']}: {spec['dist_error']}")
    try:
        spans = check_trace(trace_json)
    except (OSError, ValueError) as error:
        problems.append(f"trace JSON invalid: {error}")
        spans = 0
    metrics, na = per_layer(out["specs"])
    trials = sum(s["trials"] for s in out["specs"])
    failed = sum(s["failed_trials"] for s in out["specs"])
    details = {"na": na, "self_ms": out["self_ms"], "spans": spans,
               "trace_json": os.path.relpath(trace_json, ROOT),
               "probe_trials": {p: sum(len(s["probe"][p]["trial_ms"])
                                       for s in out["specs"])
                                for p in PROBED}}
    return metrics, problems, trials, failed, details


# ---------------------------------------------------------------- main

def print_table(workload, metrics, units, extra):
    print(f"# {workload}")
    for name, value in metrics.items():
        print(f"#   {name:<34} {value:>14.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"#   {name:<34} {value:>14.6g} {unit}")


def run(args):
    ensure_sources()
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    build_info = harness(["info"], deadline)["build"]
    if "flags=Release" not in build_info:
        fail(f"refusing to record numbers from a non-Release build "
             f"({build_info})", code=3)
    header = host_header(build_info)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT_DIR, f"{tag}-{os.getpid()}")
    results_dir = os.path.join(OUT_DIR, "results")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(results_dir, exist_ok=True)
    stall_start = pressure_stall_s()
    try:
        spec_paths = write_specs(args.workload, args.seed, run_dir)
        if args.trace:
            metrics, problems, attempted, failed, details = traced_run(
                spec_paths, run_dir, os.path.join(results_dir, tag), deadline)
            units = PER_LAYER_UNITS
            extra = {}
        else:
            runs, check = timed_run(spec_paths, run_dir, args.seconds,
                                    deadline)
            metrics, details = end_to_end(runs)
            problems, gate_details = gate(args.workload, spec_paths, runs,
                                          check)
            details.update(gate_details)
            attempted = sum(s["trials"] for r in runs for s in r["specs"])
            failed = sum(s["failed"] for r in runs for s in r["specs"])
            units = {n: u for n, u, _, _ in END_TO_END}
            extra = {"failed_share": (details["failed_share"], "ratio")}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    stall_end = pressure_stall_s()
    details["pressure_stall_s"] = {
        kind: stall_end[kind] - stall_start[kind]
        for kind in stall_start if kind in stall_end}

    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(os.path.join(results_dir, tag + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump({"header": header, "workload": args.workload,
                   "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "problems": problems,
                   "details": details, "result": result}, handle, indent=1)
    print(json.dumps({"header": header}))
    print_table(args.workload, metrics, units, extra)
    for name, reason in details.get("na", {}).items():
        print(f"#   {name:<34} n/a ({reason})")
    for problem in problems:
        print(f"# GATE FAILED: {problem}")
    line = json.dumps(result)
    parse_result_line(line)  # the output contract, checked before printing
    print(line)
    return 0 if result["correct"] else 1


def record_reference(seeds):
    """Re-records perfbench/reference.json from paper_expander campaigns."""
    ensure_sources()
    build()
    deadline = time.monotonic() + 600.0
    pooled = []
    for seed in seeds:
        run_dir = os.path.join(OUT_DIR, f"reference-seed{seed}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        paths = write_specs("paper_expander", seed, run_dir)
        out = harness(["time", "--out", run_dir] + paths, deadline)
        pooled.append(statistics.fmean(
            cobra_ratio(out["specs"][0]["stem"]).values()))
        shutil.rmtree(run_dir, ignore_errors=True)
    build_info = harness(["info"], deadline)["build"]
    reference = {"paper_expander": {
        "cobra_k2_rounds_per_ln_n": statistics.fmean(pooled),
        "tolerance": 0.1,
        "per_n_tolerance": 0.25,
        "seeds": list(seeds),
        "pooled_per_seed": pooled,
        "host": host_header(build_info),
    }}
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2)
        handle.write("\n")
    print(json.dumps(reference["paper_expander"], indent=2))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--record-reference", type=int, nargs="*",
                        metavar="SEED")
    args = parser.parse_args(argv)
    if args.selftest:
        import unittest
        suite = unittest.defaultTestLoader.discover(BENCH_DIR,
                                                    pattern="test_*.py")
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        return 0 if ok else 1
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.record_reference is not None:
        return record_reference(args.record_reference or [1, 2, 3, 4, 5])
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
