#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload kv_serving --seed 1 --seconds 40 --trace 0

Builds the driver (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build), runs one workload and
prints its metrics by name and unit. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. README.md in this
directory describes every workload and metric.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats as bs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kv_serving", "analytics_resident")
DEADLINE_S = 170  # A run that takes longer has hung; give up on it.
MAX_WINDOWS = 50
ROUNDS = 20
PROBE_SLICES = 2  # Per round, on workloads whose online load is the probe.
# A capacity step sends as many requests as the frozen capacity brings in
# this share of --seconds, whatever its rate. Every run then sends the same
# number of requests before each phase, so stalls that recur at fixed
# request counts (the frontend's latency log grows by doubling) land in the
# same phases run after run.
CAPACITY_STEP_SHARE = 0.02
# The capacity ladder's lowest rung, as a share of the frozen capacity.
LADDER_LOWEST = 0.8
# Windows of a capacity step: the backlog test compares the median start
# lag of its first and last quarter.
CAPACITY_WINDOWS = 4

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "p50_us_low": "us", "p99_svc_us_low": "us",
    "p50_us_high": "us", "p99_svc_us_high": "us",
    "max_rps_at_slo": "1/s",
    "pass_s": "s", "pass_modeled_s": "s", "snapshot_s": "s",
    "stored_bytes_per_item": "B", "query_modeled_ms": "ms",
}

PER_LAYER = {
    "serving.get_p99_us": "us", "serving.put_p99_us": "us",
    "serving.multiget_p99_us": "us", "serving.txn_p99_us": "us",
    "serving.khop_p99_us": "us", "serving.tql_p99_us": "us",
    "serving.self_us_get": "us", "serving.gen_late_p99_us": "us",
    "serving.shed_frac": "frac", "serving.retries_granted": "count",
    "serving.retries_denied": "count", "serving.txn_resubmits": "count",
    "cloud.get_us": "us", "cloud.put_us": "us", "cloud.multiget_us": "us",
    "cloud.sync_calls_per_op": "count", "cloud.bytes_per_put": "B",
    "storage.trunk_get_ns": "ns", "storage.shared_reads": "count",
    "storage.read_lock_contended": "count",
    "storage.write_lock_contended": "count",
    "storage.cell_lock_contended": "count",
    "storage.defrag_passes": "count", "storage.cells_moved": "count",
    "storage.resident_bytes": "B", "storage.compressed_bytes": "B",
    "storage.cells_evicted": "count", "storage.cells_faulted": "count",
    "storage.cold_bytes_read": "B", "tfs.bytes_read": "B",
    "tfs.bytes_written": "B", "tfs.files_read": "count",
    "cold.read_amplification": "ratio", "cold.pass_s": "s",
    "cold.slowdown": "ratio",
    "txn.committed": "count", "txn.aborted": "count",
    "txn.commit_frac": "frac", "txn.conflict_retries": "count",
    "txn.rolled_forward": "count", "txn.rolled_back": "count",
    "traversal.khop_us_p50": "us", "traversal.khop_us_p99": "us",
    "traversal.modeled_ms_p50": "ms", "traversal.rounds_mean": "count",
    "traversal.messages_per_query": "count",
    "traversal.visited_per_query": "count",
    "bsp.supersteps": "count", "bsp.messages": "count",
    "bsp.transfers": "count", "bsp.bytes": "B",
    "bsp.superstep_modeled_s_max": "s", "net.msgs_per_transfer": "ratio",
    "analytics.snapshot_build_s": "s", "analytics.count_s": "s",
    "analytics.comparisons": "count", "analytics.boundary_bytes": "B",
    "query.tql_us_p50": "us",
    "trace.overhead_frac": "frac",
}

# Counters that repeat exactly for a given seed; a later run of the same
# seed in the same checkout reports any that moved.
EXACT = ("stored_bytes_per_item", "rank_hash", "bsp.supersteps",
         "bsp.messages", "bsp.transfers", "bsp.bytes", "analytics.triangles",
         "analytics.comparisons", "analytics.boundary_bytes",
         "traversal.rounds_mean", "traversal.messages_per_query",
         "traversal.visited_per_query", "setup.live_cells",
         "setup.live_bytes")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class DriverError(Exception):
    pass


def work_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "trinity_perfbench", "-j", jobs])
    # Keep the compiler's temporary files inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise DriverError("build failed: " + " ".join(cmd))
    return build_dir / "trinity_perfbench"


class Driver:
    """The driver process: one command line in, one JSON line out."""

    def __init__(self, exe, workload, seed, scratch):
        self.proc = subprocess.Popen(
            [str(exe), workload, str(seed), str(scratch)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, bufsize=1)

    def __call__(self, *args):
        self.proc.stdin.write(" ".join(str(a) for a in args) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise DriverError("driver exited during: %s" % (args,))
        reply = json.loads(line)
        if reply.get("ok") is False and args[0] in ("setup", "phase"):
            raise DriverError("driver refused %s: %s" % (args, reply))
        return reply

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


class Run:
    """Accumulates metrics, output checks and human-readable lines."""

    def __init__(self, workload, seed, seconds, trace, frozen, work):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace = trace
        self.frozen = frozen
        self.cfg = frozen["workloads"][workload]
        self.work = work
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.check_failures = []
        self.exact = {}
        self.invalid = []

    def metric(self, name, v, detail=""):
        self.metrics[name] = v
        units = PER_LAYER if self.trace else END_TO_END
        print("%-30s %14.6g %-6s %s" % (name, v, units.get(name, ""), detail))

    def check(self, name, ok, attempted=1, failed=None):
        failed = (0 if ok else 1) if failed is None else failed
        self.attempted += attempted
        self.failed += failed
        if failed or not ok:
            self.check_failures.append(name)
        print("check %-24s %s (%d of %d failed)" %
              (name, "ok" if ok and not failed else "FAILED", failed,
               attempted))

    # --- serving -------------------------------------------------------

    def phase(self, drv, rate, secs, traced=0, pool="-", windows=None):
        """One open-loop phase. Its windows, at least two, carry the start
        lag the backlog test compares; its samples join `pool`."""
        if windows is None:
            windows = max(2, min(MAX_WINDOWS, int(rate * secs // 1000)))
        return drv("phase", rate, secs, windows, traced, pool)

    def frozen_phase(self, drv, label, secs, traced=0):
        """One open-loop slice at the frozen `label` rate, "low" or "high".
        Untraced, its samples join the pool named after the rate."""
        rate = self.cfg[label + "_rps"]
        ph = self.phase(drv, rate, secs, traced, label if not traced else "-")
        self.attempted += ph["attempted"]
        self.failed += ph["failed"]
        if ph["check_failed"]:
            self.check_failures.append("responses at %s rate" % label)
        if ph["failed"]:
            print("failed at the %s rate: %s" % (label, json.dumps(
                {k: v for k, v in ph["failed_by_type"].items() if v})))
        tail_name, tail = bs.tail_percentile(ph["lat"])
        print("slice %-4s %9.1f req/s: n=%d failed=%d median=%.1f us "
              "p99=%.1f us %s=%.1f us; service p99=%.1f us" %
              (label, rate, ph["lat"]["n"], ph["failed"],
               bs.value(ph["lat"]["p50"]), bs.value(ph["lat"]["p99"]),
               tail_name, tail, bs.value(ph["svc"]["p99"])))
        return ph

    def pooled(self, drv, label):
        """Latency and generator lateness over every slice at one frozen
        rate. Lateness p99 above gen_late_bound_frac of the latency limit
        fails the run: the numbers would measure the generator."""
        pool = drv("pooled", label)
        lat, late, svc = pool["lat"], pool["late"], pool["svc"]
        tail_name, tail = bs.tail_percentile(lat)
        late_name, late_tail = bs.tail_percentile(late)
        svc_name, svc_tail = bs.tail_percentile(svc)
        print("rate %-4s: n=%d median=%.1f us p99=%.1f us %s=%.1f us; "
              "service p99=%.1f us %s=%.1f us; "
              "generator late p99=%.1f us %s=%.1f us" %
              (label, lat["n"], bs.value(lat["p50"]), bs.value(lat["p99"]),
               tail_name, tail, bs.value(svc["p99"]), svc_name, svc_tail,
               bs.value(late["p99"]), late_name, late_tail))
        bound = self.frozen["gen_late_bound_frac"] * self.cfg["slo_us"]
        self.check("generator lateness at %s rate" % label,
                   bs.value(late["p99"]) <= bound)
        return pool

    def capacity_step(self, drv, search):
        requests = round(CAPACITY_STEP_SHARE * self.seconds *
                         self.cfg["capacity_rps"])
        ph = self.phase(drv, search.rate, requests / search.rate,
                        windows=CAPACITY_WINDOWS)
        ok = bs.step_passes(ph, self.cfg["slo_us"])
        print("capacity step %9.1f req/s: n=%d median=%.1f us service "
              "p99=%.1f us lag %.1f->%.1f us %s" %
              (search.rate, ph["lat"]["n"], bs.value(ph["lat"]["p50"]),
               bs.value(ph["svc"]["p99"]),
               bs.value(ph["windows"][0]["lag_p50"]),
               bs.value(ph["windows"][-1]["lag_p50"]),
               "pass" if ok else "fail"))
        search.record(ok)

    def step_checks(self, passes, snaps, probes):
        for name, replies in (("pass", passes), ("snapshot", snaps)):
            bad = sum(1 for r in replies if not r.get("ok", False))
            self.check(name + " steps", bad == 0, len(replies), bad)
        self.check("probe answers", all(p["ok"] for p in probes),
                   sum(p.get("checks", 1) for p in probes),
                   sum(p.get("failed", 0 if p["ok"] else 1) for p in probes))
        if len({p["rank_hash"] for p in passes if "rank_hash" in p}) > 1:
            self.check("rank hash repeats", False)
        flat = bs.flatten({"bsp": passes[-1].get("bsp", {}),
                           "analytics": snaps[-1].get("analytics", {}),
                           "traversal": probes[-1].get("traversal", {})})
        flat["stored_bytes_per_item"] = passes[-1]["stored_bytes_per_item"]
        flat["rank_hash"] = passes[-1].get("rank_hash")
        for key in EXACT:
            if flat.get(key) is not None:
                self.exact[key] = flat[key]

    def probe(self, drv, slice_, slices):
        """Slice `slice_` of `slices` of the run's probe queries."""
        return drv("probe", slice_, slices, self.cfg["probe_queries"])

    def measure(self, drv):
        """The untraced run: ROUNDS rounds, each on a fresh set-up, each
        running a slice of every measurement: batch steps, the probe and,
        for an open-loop workload, a warm-up, both frozen-rate slices and a
        share of the capacity steps. A slow stretch of the shared host then
        lands in a minority of every metric's samples rather than in all
        samples of one metric. A fresh set-up also gives every round the
        same frontend state, so the stalls of its growing latency log recur
        at the same points of every round instead of growing through the
        run. setup_s is the median of the rounds' set-ups."""
        secs = 0.15 * self.seconds / ROUNDS
        open_loop = self.cfg["online"] == "open_loop"
        search = (bs.CapacityLadder(LADDER_LOWEST * self.cfg["capacity_rps"])
                  if open_loop else None)
        per_round = math.ceil(len(search.order) / ROUNDS) if open_loop else 0
        setups, passes, snaps, probes = [], [], [], []
        began = time.monotonic()
        for k in range(ROUNDS):
            setups.append(drv("setup")["setup_s"])
            if k == 0:
                self.setup_counters(drv)
            if open_loop:
                # Warm-up, not recorded.
                self.phase(drv, self.cfg["low_rps"], 0.005 * self.seconds)
                steps = (lambda: probes.append(self.probe(drv, k, ROUNDS)),
                         lambda: self.frozen_phase(drv, "low", secs),
                         lambda: self.frozen_phase(drv, "high", secs),
                         lambda: [self.capacity_step(drv, search)
                                  for _ in range(per_round)
                                  if not search.done])
            else:
                slices = ROUNDS * PROBE_SLICES
                steps = [lambda g=g: probes.append(
                    self.probe(drv, k * PROBE_SLICES + g, slices))
                    for g in range(PROBE_SLICES)]
            # The round's batch steps are spread between its other steps:
            # on a shared host single-threaded timings flip between a fast
            # and a slow state for tenths of a second at a time, so the
            # more separate stretches they sample, the steadier their mean.
            # Counts are fixed, not time budgets, so every run makes the
            # same sequence of steps.
            for g, step in enumerate(steps):
                for cmd, key, out in (("pass", "passes", passes),
                                      ("snapshot", "snapshots", snaps)):
                    n = bs.share(self.cfg[key], g, len(steps))
                    out += [drv(cmd) for _ in range(n)]
                step()
            print("round %d of %d done at %.1f s" % (k + 1, ROUNDS,
                                                   time.monotonic() - began))
        self.metric("setup_s", bs.median(setups),
                    "median of %d set-ups" % len(setups))
        self.step_checks(passes, snaps, probes)
        if open_loop:
            for label in ("low", "high"):
                pool = self.pooled(drv, label)
                lat, svc = pool["lat"], pool["svc"]
                self.metric("p50_us_" + label, bs.value(lat["p50"]),
                            "over %d requests" % lat["n"])
                # Timed from the due time, the p99 follows the host's
                # stalls (see README); it is printed above.
                self.metric("p99_svc_us_" + label, bs.value(svc["p99"]),
                            "service time, over %d requests" % svc["n"])
            self.metric("max_rps_at_slo", search.capacity(),
                        "service p99 and median <= %g us, %d of %d steps "
                        "passed" % (self.cfg["slo_us"],
                                    search.passing_steps(),
                                    len(search.steps)))
        else:
            self.probe_latency(probes)
        self.metric("pass_s",
                    bs.interquartile_mean(p["pass_s"] for p in passes),
                    "interquartile mean of %d" % len(passes))
        self.metric("pass_modeled_s",
                    bs.median(p["pass_modeled_s"] for p in passes))
        self.metric("snapshot_s",
                    bs.interquartile_mean(p["snapshot_s"] for p in snaps),
                    "interquartile mean of %d" % len(snaps))
        self.metric("stored_bytes_per_item",
                    passes[-1]["stored_bytes_per_item"])
        modeled = [m for p in probes for m in p["modeled_ms"]]
        self.metric("query_modeled_ms", bs.interquartile_mean(modeled),
                    "interquartile mean of %d probe queries" % len(modeled))

    def probe_latency(self, probes):
        """Online latency of a workload whose online load is its probe:
        one client's 2-hop explorations (low) and 3-hop explorations
        (high), and the 2-hop rate that client sustains. The frontend
        serializes explorations, so one client's rate bounds the rate the
        frontend can serve."""
        for label, hops in (("low", 2), ("high", 3)):
            lat = bs.ladder(x for p in probes for x in p["online"][label])
            tail_name, tail = bs.tail_percentile(lat)
            print("%d-hop probe: n=%d median=%.1f us p99=%.1f us %s=%.1f us" %
                  (hops, lat["n"], lat["p50"], lat["p99"], tail_name, tail))
            self.metric("p50_us_" + label, lat["p50"],
                        "over %d %d-hop queries" % (lat["n"], hops))
            self.metric("p99_svc_us_" + label, bs.median(
                bs.ladder(p["online"][label])["p99"] for p in probes),
                "median of %d probe slices' p99" % len(probes))
        low = [x for p in probes for x in p["online"]["low"]]
        met = self.metrics["p99_svc_us_low"] <= self.cfg["slo_us"]
        self.metric("max_rps_at_slo", 1e6 * len(low) / sum(low),
                    "one client, 2-hop; p99 %s %g us" %
                    ("meets" if met else "EXCEEDS", self.cfg["slo_us"]))

    def batch(self, drv):
        """Traced runs: three batch passes, three snapshot steps and the
        whole probe."""
        passes = [drv("pass") for _ in range(3)]
        snaps = [drv("snapshot") for _ in range(3)]
        probe = self.probe(drv, 0, 1)
        self.step_checks(passes, snaps, [probe])
        return passes, snaps, probe

    # --- checks --------------------------------------------------------

    def output_checks(self, drv):
        chk = drv("check")
        self.check("final state", chk["ok"], chk.get("checks", 1),
                   chk.get("failed", 0 if chk["ok"] else 1))
        want = self.frozen["golden"]
        for mode, golden in sorted(chk.get("golden", {}).items()):
            if not golden.get("ok"):
                self.check("golden graph %s" % mode, False)
                continue
            got = {
                "rank_hash": golden["pass"]["rank_hash"],
                "bsp.messages": golden["pass"]["bsp"]["messages"],
                "bsp.transfers": golden["pass"]["bsp"]["transfers"],
                "bsp.bytes": golden["pass"]["bsp"]["bytes"],
                "triangles": golden["snapshot"]["analytics"]["triangles"],
                "comparisons": golden["snapshot"]["analytics"]["comparisons"],
            }
            print("golden graph %s: %s" % (mode, json.dumps(got,
                                                            sort_keys=True)))
            # Equal frozen hashes make resident and out-of-core ranks
            # bit-identical.
            self.check("golden %s rank hash" % mode,
                       got["rank_hash"] == want["rank_hash"])
            self.check("golden %s triangles" % mode,
                       got["triangles"] == want["triangles"])
            moved = [k for k in got if got[k] != want.get(k)]
            if moved:
                print("determinism: golden %s counters moved: %s" %
                      (mode, ", ".join(moved)))
            if "triangles_anchor" in chk:
                print("triangles %d, cell-at-a-time anchor %d" %
                      (chk["triangles"], chk["triangles_anchor"]))
        return chk

    def setup_counters(self, drv):
        """Records the set-up's exact counters; returns the snapshot."""
        c0 = drv("counters")
        self.exact["setup.live_cells"] = c0["storage"]["live_cells"]
        self.exact["setup.live_bytes"] = c0["storage"]["live_bytes"]
        return c0

    def determinism(self):
        """Compares this run's exact counters with an earlier run of the
        same workload, seed and mode in this build directory."""
        exact_dir = self.work / "exact"
        exact_dir.mkdir(parents=True, exist_ok=True)
        # Traced runs probe every query at once, so they keep their own file.
        path = exact_dir / ("%s-%d-trace%d.json" %
                            (self.workload, self.seed, self.trace))
        if path.exists():
            previous = json.loads(path.read_text())
            moved = bs.exact_differences(previous, self.exact)
            print("determinism: %s" % ("exact counters repeat (%d)" %
                                       len(self.exact) if not moved else
                                       "MOVED: " + ", ".join(moved)))
        path.write_text(json.dumps(self.exact, sort_keys=True))

    # --- per-layer -----------------------------------------------------

    def replay_checks(self, replay):
        """Every replayed request must succeed, and the out-of-core load
        must work, or its layers would read as idle."""
        parts = [(k, replay[k]) for k in ("get", "put", "multiget")
                 if k in replay]
        bad = sum(p["failed"] for _, p in parts) + replay.get(
            "traversal_failed", 0)
        total = sum(p["samples"] for _, p in parts) + 2 * replay.get(
            "khop", {}).get("samples", 0)
        self.check("replayed requests", bad == 0, max(1, total), bad)
        cold = replay.get("cold")
        if cold is not None:
            self.check("out-of-core pass", cold.get("ok", False) and all(
                cold.get(k, {}).get("ok", False)
                for k in ("resident_pass", "pass", "snapshot")))

    def layers(self, span, hi, traced, late, passes, snaps, probe, replay,
               counters_end):
        """Per-layer metrics of a traced run. `span` is the (before, after)
        counter snapshots around the open-loop phases, or around everything
        after set-up on a workload without them; `hi` and `traced` are the
        untraced and traced high-rate phases (None without them) and `late`
        the generator lateness ladder of each frozen rate."""
        whole, bad = bs.counter_deltas(*(bs.flatten(c) for c in span))
        self.invalid = list(bad)
        end = bs.flatten(counters_end)
        m = {}

        def counter(key):
            # None marks a metric whose counter went backwards.
            return None if key in self.invalid else whole.get(key, 0)

        types = hi["types"] if hi else {}
        for t in ("get", "put", "multiget", "txn"):
            ladder = types.get(t)
            m["serving.%s_p99_us" % t] = (
                bs.value(ladder["p99"]) if ladder and ladder["n"] else 0.0)
        # k-hop and people search run only in the single-client replay.
        for t in ("khop", "tql"):
            m["serving.%s_p99_us" % t] = replay.get(t, {}).get(
                "serving_p99_us", 0.0)
        get = replay.get("get", {})
        put = replay.get("put", {})
        m["serving.self_us_get"] = (
            bs.self_time(get["serving_us"], get["cloud_us"]) if get else 0.0)
        m["serving.gen_late_p99_us"] = max(
            (bs.value(ladder["p99"]) for ladder in late.values()),
            default=0.0)
        shed, received = (counter("serving.shed"),
                          counter("serving.received"))
        m["serving.shed_frac"] = (None if None in (shed, received)
                                  else bs.safe_ratio(shed, received))
        m["serving.retries_granted"] = counter("serving.retries_granted")
        m["serving.retries_denied"] = counter("serving.retries_denied")
        m["serving.txn_resubmits"] = counter("client.txn_resubmits")
        m["cloud.get_us"] = get.get("cloud_us", 0.0)
        m["cloud.put_us"] = put.get("cloud_us", 0.0)
        m["cloud.multiget_us"] = replay.get("multiget", {}).get("cloud_us",
                                                                 0.0)
        m["cloud.sync_calls_per_op"] = get.get("cloud_sync_calls_per_op", 0.0)
        m["cloud.bytes_per_put"] = put.get("bytes_per_put", 0.0)
        m["storage.trunk_get_ns"] = get.get("trunk_ns", 0.0)
        for k in ("shared_reads", "read_lock_contended",
                  "write_lock_contended", "cell_lock_contended",
                  "defrag_passes", "cells_moved", "cells_evicted",
                  "cells_faulted", "cold_bytes_read"):
            m["storage." + k] = counter("storage." + k)
        m["storage.resident_bytes"] = end["storage.resident_bytes"]
        m["storage.compressed_bytes"] = end["storage.compressed_bytes"]
        for k in ("bytes_read", "bytes_written", "files_read"):
            m["tfs." + k] = counter("tfs." + k)
        cold = replay.get("cold")
        if cold is not None and cold.get("ok", True):
            # The cold tier runs only in the out-of-core pass of the replay.
            moved, bad = bs.counter_deltas(bs.flatten(cold["loaded"]),
                                           bs.flatten(cold["after"]))
            for key in ("storage.cells_evicted", "storage.cells_faulted",
                        "storage.cold_bytes_read", "tfs.bytes_read",
                        "tfs.bytes_written", "tfs.files_read"):
                m[key] = None if key in bad else moved.get(key, 0)
            self.check("out-of-core ranks equal resident ranks",
                       cold["pass"]["rank_hash"] ==
                       cold["resident_pass"]["rank_hash"])
            m["cold.pass_s"] = cold["pass"]["pass_s"]
            m["cold.slowdown"] = bs.safe_ratio(
                cold["pass"]["pass_s"], cold["resident_pass"]["pass_s"])
        tfs_read, cold_read = m["tfs.bytes_read"], m["storage.cold_bytes_read"]
        m["cold.read_amplification"] = (
            None if None in (tfs_read, cold_read)
            else bs.safe_ratio(tfs_read, cold_read))
        for k in ("committed", "aborted", "rolled_forward", "rolled_back"):
            m["txn." + k] = counter("txn." + k)
        if None in (m["txn.committed"], m["txn.aborted"]):
            m["txn.commit_frac"] = None
        else:
            m["txn.commit_frac"] = bs.safe_ratio(
                m["txn.committed"], m["txn.committed"] + m["txn.aborted"])
        m["txn.conflict_retries"] = counter("serving.txn_conflict_retries")
        tr = probe.get("traversal", {})
        for k in ("khop_us_p50", "khop_us_p99", "modeled_ms_p50",
                  "rounds_mean", "messages_per_query", "visited_per_query"):
            m["traversal." + k] = tr.get(k, 0.0)
        bsp = passes[-1].get("bsp") if passes else None
        if bsp is not None:
            # Engines reset the global fabric meters, so net.* comes from
            # the engine's own RunStats wherever an engine ran.
            for k in ("supersteps", "messages", "transfers", "bytes"):
                m["bsp." + k] = bsp[k]
            m["bsp.superstep_modeled_s_max"] = bs.median(
                p["bsp"]["superstep_modeled_s_max"] for p in passes)
            m["net.msgs_per_transfer"] = bs.safe_ratio(bsp["messages"],
                                                       bsp["transfers"])
        else:
            msgs, transfers = (counter("fabric.messages"),
                               counter("fabric.transfers"))
            m["net.msgs_per_transfer"] = (
                None if None in (msgs, transfers)
                else bs.safe_ratio(msgs, transfers))
        an = [s["analytics"] for s in snaps if "analytics" in s]
        if an:
            m["analytics.snapshot_build_s"] = bs.median(
                a["snapshot_build_s"] for a in an)
            m["analytics.count_s"] = bs.median(a["count_s"] for a in an)
            m["analytics.comparisons"] = an[-1]["comparisons"]
            m["analytics.boundary_bytes"] = an[-1]["boundary_bytes"]
        m["query.tql_us_p50"] = replay.get("tql", {}).get("query_us", 0.0)
        if hi is not None:
            base = bs.value(hi["lat"]["p50"])
            m["trace.overhead_frac"] = bs.safe_ratio(
                bs.value(traced["lat"]["p50"]) - base, base)
        for name in PER_LAYER:
            v = m.get(name, 0.0)
            if v is None:
                print("invalid: %s (a counter it reads went backwards)" %
                      name)
                self.invalid.append(name)
            else:
                self.metric(name, float(v))


def run_workload(args, frozen, exe, work):
    run = Run(args.workload, args.seed, args.seconds, args.trace, frozen,
              work)
    drv = Driver(exe, args.workload, args.seed, work / "run")
    try:
        if args.trace:
            drv("setup")
            c0 = run.setup_counters(drv)
            open_loop = run.cfg["online"] == "open_loop"
            hi = traced = None
            late = {}
            if open_loop:
                secs = 0.06 * args.seconds
                run.phase(drv, run.cfg["low_rps"], secs)  # Warm-up.
                cb = drv("counters")
                run.frozen_phase(drv, "low", secs)
                hi = run.frozen_phase(drv, "high", 2 * secs)
                traced = run.frozen_phase(drv, "high", 2 * secs, traced=1)
                c1 = drv("counters")
                late = {label: run.pooled(drv, label)["late"]
                        for label in ("low", "high")}
            passes, snaps, probe = run.batch(drv)
            replay = drv("replay", run.cfg["replay_samples"])
            run.replay_checks(replay)
            c2 = drv("counters")
            spans = work / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            drv("spans", spans / ("%s.txt" % args.workload))
            # Open-loop workloads: layer counters over the open-loop
            # phases; others: over everything after set-up.
            span = (cb, c1) if open_loop else (c0, c2)
            run.layers(span, hi, traced, late, passes, snaps, probe, replay,
                       c2)
        else:
            run.measure(drv)
        run.output_checks(drv)
        if not args.trace:
            run.metric("peak_rss_mb", drv("rss")["peak_rss_mb"])
        run.determinism()
    finally:
        drv.close()
    return run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    def on_deadline(signum, frame):
        raise DriverError("run exceeded %d s" % DEADLINE_S)

    signal.signal(signal.SIGALRM, on_deadline)
    try:
        frozen = json.loads((HERE / "frozen.json").read_text())
        work = work_dir()
        exe = build(work / "build")  # Long only the first time.
        signal.alarm(DEADLINE_S)
        run = run_workload(args, frozen, exe, work)
    except (DriverError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        signal.alarm(0)
    units = PER_LAYER if args.trace else END_TO_END
    missing = [k for k in units if k not in run.metrics
               and k not in run.invalid]
    if missing:
        log("perfbench: metrics not measured: %s" % ", ".join(missing))
    correct = not run.check_failures
    if not correct:
        print("output checks failed: %s" % "; ".join(run.check_failures))
    print("fail_frac %.6g frac (%d of %d operations and checks failed)" %
          (bs.safe_ratio(run.failed, run.attempted), run.failed,
           run.attempted))
    result = {
        "correct": correct,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {k: {"value": run.metrics[k], "unit": units[k]}
                    for k in units if k in run.metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
