#!/usr/bin/env python3
"""Repository benchmark for the STR geo-replicated store simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py knee

Builds perfbench/bench.exe and perfbench/refkernel.exe from the checkout
with dune, then runs
simulations of one workload, each alone in a fresh single-domain process,
so that the GC heap and the peak RSS of a process belong to one simulation.

--trace 0 prints the end-to-end metrics.  The run repeats the workload on
SUBSEEDS[w] sub-seeds derived from --seed, in that order, and keeps cycling
through them until --seconds have passed, repeating the first sub-seed at
least once.  Simulated metrics pool the first pass over the sub-seeds; host
metrics use every repetition.  A repeated sub-seed must reproduce its
simulated outcome and engine fingerprint exactly.

--trace 1 prints the per-layer metrics.  Layer counters come from the
untraced full-window run of the first sub-seed, host-time layers from
medians over its repetitions.  A shorter traced run, which records the SPSI
history and, in the closed loop, the span trace, supplies the obs, critpath
and spsi numbers.  The traced run must reproduce its untraced twin exactly.

Every repetition passes the correctness gate (see `gate`).  A failed check
prints the check's name on stderr, a result with "correct": false, and
exits 1.

`knee` sweeps the open-loop Synth-A rates KNEE_RATES and reports the
highest rate that meets p99 <= 1 s with no refusals and no growing event
backlog.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
REFKERNEL = os.path.join(ROOT, "_build", "default", "perfbench", "refkernel.exe")

# Simulations whose simulated metrics are pooled into one result.  More
# sub-seeds cut the seed-to-seed spread of the pooled ratios and tails.
SUBSEEDS = {"synth-a-below-knee": 10, "synth-a-overload": 5, "rubis-closed": 8}

# Simulated seconds of the traced run.  Spsi.Checker.check_spsi grows
# faster than linearly with history length, most on the Synth-A hot key.
TRACE_WINDOW_S = {"synth-a-below-knee": 4, "synth-a-overload": 1, "rubis-closed": 10}

REP_TIMEOUT_S = 150

# Set-up-only processes after each simulation: enough for a dozen or more
# set-up samples in a 30 s run.
SETUP_PROCS = {"synth-a-below-knee": 1, "synth-a-overload": 3, "rubis-closed": 1}

# The reference kernel's time on the host the bounds were set on (two
# vCPUs of a shared Intel Xeon host), the yardstick of `setup_s`.
REF_HOST_S = 0.060

# The knee probe: seed, open-loop rates per DC swept, and the simulated
# seconds of each window.
KNEE_SEED = 1
KNEE_RATES = [10, 20, 25, 30, 35, 40, 45, 50, 60]
KNEE_WINDOW_S = 20

# A traced window's critical-path mean covers each committed program's
# final attempt only; the harness's latency runs from the first attempt.
# So the components' sum may fall short of the mean latency by the
# retried attempts' share, plus this much.
CRITPATH_SLACK = 0.01

# End-to-end metrics: name -> unit.  The bounds are in BENCHMARK.json.
END_TO_END = {
    "goodput_tx_s": "tx/s",
    "commit_p50_ms": "ms",
    "commit_p99_ms": "ms",
    "abort_ratio": "ratio",
    "host_commits_per_ref": "1/ref",
    "alloc_bytes_per_commit": "B",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SYNTH = "synth-a-below-knee, synth-a-overload"

# Per-layer metrics: name -> (unit, end-to-end metric it should move,
# workload where it should move it most).
PER_LAYER = {
    "dsim.events_per_commit": ("count", "host_commits_per_ref", "synth-a-below-knee"),
    "dsim.host_ns_per_event": ("ns", "host_commits_per_ref", "synth-a-below-knee"),
    "dsim.queue_max_depth": ("count", "host_commits_per_ref", "synth-a-below-knee"),
    "dsim.net.messages_per_commit": ("count", "host_commits_per_ref", "synth-a-below-knee"),
    "dsim.net.wan_messages_per_commit": ("count", "host_commits_per_ref", "synth-a-below-knee"),
    "dsim.net.fifo_delays": ("count", "host_commits_per_ref", "synth-a-below-knee"),
    "core.attempts_per_commit": ("count", "goodput_tx_s, commit_p99_ms, host_commits_per_ref", "synth-a-overload"),
    "core.aborts.local": ("1/1k", "abort_ratio", SYNTH),
    "core.aborts.remote": ("1/1k", "abort_ratio", SYNTH),
    "core.aborts.dependency": ("1/1k", "abort_ratio", SYNTH),
    "core.aborts.stale_snapshot": ("1/1k", "abort_ratio", SYNTH),
    "core.aborts.evicted": ("1/1k", "abort_ratio", SYNTH),
    "core.aborts.prepare_timeout": ("1/1k", "abort_ratio", SYNTH),
    "core.spec_read_share": ("ratio", "commit_p50_ms, abort_ratio", "synth-a-below-knee"),
    "core.misspec_ratio": ("ratio", "commit_p50_ms, abort_ratio", "synth-a-below-knee"),
    "core.olc_blocks_per_commit": ("count", "commit_p50_ms, abort_ratio", "synth-a-below-knee"),
    "core.remote_reads_per_commit": ("count", "commit_p50_ms", "rubis-closed"),
    "core.server_blocks_per_commit": ("count", "commit_p50_ms", "rubis-closed"),
    "store.versions_live": ("count", "setup_s, peak_rss_mb", "rubis-closed"),
    "store.data_mb": ("MB", "setup_s, peak_rss_mb", "rubis-closed"),
    "store.meta_mb": ("MB", "setup_s, peak_rss_mb", "rubis-closed"),
    "store.reads_served": ("count", "setup_s, peak_rss_mb", "rubis-closed"),
    "workload.load_s": ("s", "setup_s", "rubis-closed"),
    "workload.programs": ("count", "host_commits_per_ref", SYNTH),
    "workload.next_program_us": ("us", "host_commits_per_ref", SYNTH),
    "harness.loop_self_s": ("s", "host_commits_per_ref", "synth-a-overload"),
    "harness.peak_in_flight": ("count", "goodput_tx_s", "synth-a-overload"),
    "harness.refused": ("count", "goodput_tx_s", "synth-a-overload"),
    "harness.retries": ("count", "goodput_tx_s", "synth-a-overload"),
    "harness.failed_ratio": ("ratio", "goodput_tx_s", "synth-a-overload"),
    "harness.latency_samples": ("count", "commit_p50_ms, commit_p99_ms", "rubis-closed"),
    "host.commits_per_s": ("1/s", "host_commits_per_ref", SYNTH + ", rubis-closed"),
    "host.ref_kernel_ms": ("ms", "host_commits_per_ref", SYNTH + ", rubis-closed"),
    "gc.minor_collections": ("count", "alloc_bytes_per_commit, host_commits_per_ref", "synth-a-overload"),
    "gc.major_collections": ("count", "alloc_bytes_per_commit, host_commits_per_ref", "synth-a-overload"),
    "gc.promoted_bytes_per_commit": ("B", "alloc_bytes_per_commit, peak_rss_mb", "synth-a-overload"),
    "gc.top_heap_mb": ("MB", "peak_rss_mb", "rubis-closed"),
    "obs.trace_overhead_ratio": ("ratio", "host_commits_per_ref", "rubis-closed"),
    "obs.trace_events": ("count", "host_commits_per_ref", "rubis-closed"),
    "obs.causal_edges": ("count", "host_commits_per_ref", "rubis-closed"),
    "obs.critpath_s": ("s", "host_commits_per_ref", "rubis-closed"),
    "critpath.total_ms": ("ms", "commit_p50_ms", "rubis-closed"),
    "critpath.hidden_ms": ("ms", "commit_p50_ms", "rubis-closed"),
    "spsi.violations": ("count", "abort_ratio", SYNTH + ", rubis-closed"),
    "spsi.txs": ("count", "host_commits_per_ref", SYNTH + ", rubis-closed"),
    "spsi.record_us_per_event": ("us", "host_commits_per_ref", SYNTH + ", rubis-closed"),
    "spsi.check_s": ("s", "host_commits_per_ref", SYNTH + ", rubis-closed"),
}

# Obs.Critpath components, in paint-priority order.
CRITPATH = ["coord-cpu", "repl-wait", "dep-wait", "olc-wait", "local-cert",
            "lock-wait", "batch-park", "queue-wait", "dispatch-cpu", "network"]
for _c in CRITPATH:
    PER_LAYER["critpath.%s_ms" % _c] = ("ms", "commit_p50_ms", "rubis-closed")

# Fields of one simulation that are a function of (workload, sub-seed,
# window) alone; a repeated or traced run must reproduce them exactly.
SIMULATED = [
    "window_s", "window_commits", "latency_count", "latency_window_commits",
    "p50_us", "p99_us",
    "total_commits", "admitted", "refused", "programs", "peak_in_flight",
    "retries", "started", "commits", "aborts", "aborts.local", "aborts.remote",
    "aborts.dependency", "aborts.stale_snapshot", "aborts.evicted",
    "aborts.prepare_timeout", "misspeculations", "reads", "spec_reads",
    "remote_reads", "olc_blocks", "server_blocks", "events", "queue_max_depth",
    "net_messages", "net_wan_messages", "net_fifo_delays", "versions_live",
    "reads_served", "data_bytes", "meta_bytes", "fingerprint",
]

MB = 1024.0 * 1024.0


class CheckFailed(Exception):
    pass


def subseed(seed, i):
    return seed * 1000 + i


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------

def build():
    """Build the simulation driver from the checkout's sources."""
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("perfbench: %s not found under %s; run from a full checkout"
                     % (needed, ROOT))
    # No shared dune cache: the build writes only under the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe",
             "./perfbench/refkernel.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        sys.exit("perfbench: dune not found on PATH")
    if proc.returncode != 0 or not (os.path.exists(EXE) and os.path.exists(REFKERNEL)):
        sys.exit("perfbench: build failed (exit %d)" % proc.returncode)


def call(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed("simulation exited %d: %s %s"
                          % (proc.returncode, " ".join(cmd), proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def simulate(workload, seed, traced=False, extra=()):
    """One simulation in a fresh process; returns its raw measurements."""
    return call([EXE, "--workload", workload, "--seed", str(seed)]
                + (["--traced"] if traced else []) + list(extra))


def setup_times(workload, seed):
    """The set-up alone, repeated back to back in a fresh process."""
    return call([EXE, "--workload", workload, "--seed", str(seed), "--setup-only"])["setup_s"]


def reference():
    """The reference kernel's time, in a fresh process: the host's speed."""
    return call([REFKERNEL])["ref_s"]


def timed_reps(workload, seeds, seconds):
    """Simulate `seeds` in order and the first once more, so that a
    repeat is always compared, then keep cycling through them until
    `seconds` have passed.  Each simulation is followed by SETUP_PROCS
    set-up-only processes on its seed.  The reference kernel is timed
    before the first simulation and after every process; `ref_s` is the
    mean of the two timings around the simulation, the host speed while it
    ran, and each entry of `setups` pairs a set-up-only process's times
    with the mean of the two timings around it."""
    reps = []
    ref = reference()
    start = time.monotonic()
    while len(reps) <= len(seeds) or time.monotonic() - start < seconds:
        seed = seeds[len(reps) % len(seeds)]
        rep = simulate(workload, seed)
        after = reference()
        rep["ref_s"] = (ref + after) / 2
        rep["setups"] = []
        for _ in range(SETUP_PROCS[workload]):
            ref = after
            times = setup_times(workload, seed)
            after = reference()
            rep["setups"].append((times, (ref + after) / 2))
        ref = after
        reps.append(rep)
    return reps


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def gate(rep, full_window=True):
    """Checks every simulation must pass; raises CheckFailed naming the check.
    A full measurement window must also hold enough commits for a p99."""
    tag = "%s seed %d" % (rep["workload"], rep["seed"])
    if rep["invariants"] != "ok":
        raise CheckFailed("invariants (%s): %s" % (tag, rep["invariants"]))
    if rep["accounting"] != "ok":
        raise CheckFailed("store accounting (%s): %s" % (tag, rep["accounting"]))
    if rep["latency_count"] != rep["latency_window_commits"]:
        raise CheckFailed("latency samples (%s): %d samples for %d commits in the window"
                          % (tag, rep["latency_count"], rep["latency_window_commits"]))
    # Offered is programs drawn plus refused arrivals.
    if rep["programs"] != rep["admitted"]:
        raise CheckFailed("offered = admitted + refused (%s): %d programs drawn, %d admitted"
                          % (tag, rep["programs"], rep["admitted"]))
    if rep["total_commits"] > rep["programs"]:
        raise CheckFailed("commits <= programs (%s): %d commits of %d programs"
                          % (tag, rep["total_commits"], rep["programs"]))
    if full_window and rep["window_commits"] < 1000:
        raise CheckFailed("window holds >= 1000 commits (%s): %d"
                          % (tag, rep["window_commits"]))
    if rep["traced"]:
        if rep["spsi_violations"] != 0:
            raise CheckFailed("SPSI (%s): %d violations, first %s"
                              % (tag, rep["spsi_violations"], rep["spsi_first_violation"]))
        if "critpath_total_us" in rep:
            check_critpath(rep, tag)


def check_critpath(rep, tag):
    """The ten components, averaged over the window's commits, sum to the
    harness's mean commit latency, short by at most the retried share."""
    if rep["critpath_txs"] != rep["latency_count"]:
        raise CheckFailed("critical path covers the window's commits (%s): %d traced, %d samples"
                          % (tag, rep["critpath_txs"], rep["latency_count"]))
    parts = sum(rep["critpath_us." + c] for c in CRITPATH)
    mean = rep["mean_us"]
    retried = rep["aborts"] / rep["commits"] if rep["commits"] else 0.0
    short = (mean - parts) / mean
    if not -1e-9 <= short <= retried + CRITPATH_SLACK:
        raise CheckFailed("critical-path components sum to the mean latency (%s): "
                          "%.1f us vs %.1f us, short by %.2f%% (allowed 0 to %.2f%%)"
                          % (tag, parts, mean, 100 * short,
                             100 * (retried + CRITPATH_SLACK)))


def same_outcome(a, b, what):
    diff = [k for k in SIMULATED if a[k] != b[k]]
    if diff:
        raise CheckFailed("determinism (%s, %s seed %d): %s differ: %s"
                          % (what, a["workload"], a["seed"], ", ".join(diff),
                             "; ".join("%s %r vs %r" % (k, a[k], b[k]) for k in diff[:4])))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def loop_self_s(rep):
    """Event-loop host time outside the wrapped workload and observer calls.
    bench.exe times the loop from the first simulated event to the end of
    the drain, so the harness's start-up and post-run summaries are not in
    it."""
    return rep["loop_s"] - rep["gen_s"] - rep["obs_s"]


def scaled_setup_s(times, ref_s):
    """Mean set-up time of one set-up-only process, scaled to a host on
    which the reference kernel takes REF_HOST_S.  The host's speed swings
    by up to 2x within minutes; raw set-up times follow it, and the
    scaled ones far less (see README.md)."""
    return statistics.fmean(times) / ref_s * REF_HOST_S


def end_to_end(distinct, reps):
    """Simulated metrics pool `distinct` (one run per sub-seed); host
    metrics use every repetition in `reps`.  Loop time counts in units of
    the reference kernel's mean time over the run, which cancels most of
    the host's speed drift between runs.  A per-simulation ratio would
    add the kernel's own short-term jitter to every simulation."""
    def total(k):
        return sum(r[k] for r in distinct)
    return {
        "goodput_tx_s": total("window_commits") / total("window_s"),
        "commit_p50_ms": statistics.fmean(r["p50_us"] for r in distinct) / 1000.0,
        "commit_p99_ms": statistics.fmean(r["p99_us"] for r in distinct) / 1000.0,
        "abort_ratio": total("aborts") / (total("aborts") + total("commits")),
        "host_commits_per_ref": sum(r["total_commits"] for r in reps)
        / sum(r["loop_s"] for r in reps) * statistics.fmean(r["ref_s"] for r in reps),
        "alloc_bytes_per_commit": total("alloc_bytes") / total("total_commits"),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024.0,
        "setup_s": statistics.median(scaled_setup_s(times, ref_s)
                                     for r in reps for times, ref_s in r["setups"]),
    }


def per_layer(full, untraced, traced):
    """`full`: untraced full-window runs of one sub-seed (identical
    simulated outcome); `untraced`/`traced`: the short-window twins."""
    r = full[0]
    med = lambda f: statistics.median(f(x) for x in full)
    commits, wcommits = r["total_commits"], r["window_commits"]
    attempts = r["started"]
    offered = r["programs"] + r["refused"]
    m = {
        "dsim.events_per_commit": r["events"] / commits,
        "dsim.host_ns_per_event": med(lambda x: loop_self_s(x) / x["events"] * 1e9),
        "dsim.queue_max_depth": r["queue_max_depth"],
        "dsim.net.messages_per_commit": r["net_messages"] / wcommits,
        "dsim.net.wan_messages_per_commit": r["net_wan_messages"] / wcommits,
        "dsim.net.fifo_delays": r["net_fifo_delays"],
        "core.attempts_per_commit": attempts / r["commits"],
        "core.spec_read_share": r["spec_reads"] / r["reads"] if r["reads"] else 0.0,
        "core.misspec_ratio": r["misspeculations"] / (r["commits"] + r["aborts"]),
        "core.olc_blocks_per_commit": r["olc_blocks"] / wcommits,
        "core.remote_reads_per_commit": r["remote_reads"] / wcommits,
        "core.server_blocks_per_commit": r["server_blocks"] / wcommits,
        "store.versions_live": r["versions_live"],
        "store.data_mb": r["data_bytes"] / MB,
        "store.meta_mb": r["meta_bytes"] / MB,
        "store.reads_served": r["reads_served"],
        "workload.load_s": med(lambda x: x["load_s"]),
        "workload.programs": r["programs"],
        "workload.next_program_us": med(lambda x: x["gen_s"] / x["programs"] * 1e6),
        "harness.loop_self_s": med(loop_self_s),
        "harness.peak_in_flight": r["peak_in_flight"],
        "harness.refused": r["refused"],
        "harness.retries": r["retries"],
        "harness.failed_ratio": (offered - commits) / offered,
        "harness.latency_samples": r["latency_count"],
        "host.commits_per_s": med(lambda x: x["total_commits"] / x["loop_s"]),
        "host.ref_kernel_ms": med(lambda x: x["ref_s"] * 1000.0),
        "gc.minor_collections": r["minor_collections"],
        "gc.major_collections": r["major_collections"],
        "gc.promoted_bytes_per_commit": med(lambda x: x["promoted_bytes"] / commits),
        "gc.top_heap_mb": med(lambda x: x["top_heap_bytes"] / MB),
        "obs.trace_overhead_ratio": traced["loop_s"] / untraced["loop_s"],
        "obs.trace_events": traced.get("trace_events", 0),
        "obs.causal_edges": traced.get("causal_edges", 0),
        "obs.critpath_s": traced.get("critpath_s", 0.0),
        "critpath.total_ms": traced.get("critpath_total_us", 0.0) / 1000.0,
        "critpath.hidden_ms": traced.get("critpath_hidden_us", 0.0) / 1000.0,
        "spsi.violations": traced["spsi_violations"],
        "spsi.txs": traced["spsi_txs"],
        "spsi.record_us_per_event": traced["obs_s"] / traced["obs_events"] * 1e6,
        "spsi.check_s": traced["spsi_check_s"],
    }
    for k in ("local", "remote", "dependency", "stale_snapshot", "evicted", "prepare_timeout"):
        m["core.aborts." + k] = r["aborts." + k] / attempts * 1000.0
    for c in CRITPATH:
        m["critpath.%s_ms" % c] = traced.get("critpath_us." + c, 0.0) / 1000.0
    return m


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run_untraced(workload, seed, seconds):
    k = SUBSEEDS[workload]
    reps = timed_reps(workload, [subseed(seed, i) for i in range(k)], seconds)
    for i, rep in enumerate(reps):
        gate(rep)
        if i >= k:
            same_outcome(reps[i % k], rep, "repeated sub-seed")
    return reps, end_to_end(reps[:k], reps)


def run_traced(workload, seed, seconds):
    start = time.monotonic()
    s = subseed(seed, 0)
    short = ["--window-s", str(TRACE_WINDOW_S[workload])]
    # Alternate which of the twins runs first, so neither always meets
    # the host in the same state.
    twins = {}
    for is_traced in (seed % 2 == 1, seed % 2 == 0):
        twins[is_traced] = simulate(workload, s, traced=is_traced, extra=short)
    untraced, traced = twins[False], twins[True]
    full = timed_reps(workload, [s], seconds - (time.monotonic() - start))
    gate(untraced, full_window=False)
    gate(traced, full_window=False)
    for rep in full:
        gate(rep)
    same_outcome(untraced, traced, "traced vs untraced")
    for rep in full[1:]:
        same_outcome(full[0], rep, "repeated sub-seed")
    return [untraced, traced] + full, per_layer(full, untraced, traced)


def result(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def bench(args):
    if args.workload not in SUBSEEDS:
        sys.exit("perfbench: unknown workload %r (one of %s)"
                 % (args.workload, ", ".join(SUBSEEDS)))
    build()
    units = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            reps, values = run_traced(args.workload, args.seed, args.seconds)
        else:
            reps, values = run_untraced(args.workload, args.seed, args.seconds)
    except (CheckFailed, subprocess.TimeoutExpired) as e:
        print("perfbench: check failed: %s" % e, file=sys.stderr)
        print(result(False, 1, 1, {}))
        sys.exit(1)
    metrics = {}
    for name in sorted(values):
        unit = units[name] if isinstance(units[name], str) else units[name][0]
        metrics[name] = {"value": values[name], "unit": unit}
        print("%-36s %16.6g %s" % (name, values[name], unit))
    if not args.trace:
        print("%-36s %16d (per sub-seed: %s)" % (
            "latency samples", sum(r["latency_count"] for r in reps[:SUBSEEDS[args.workload]]),
            ", ".join(str(r["latency_count"]) for r in reps[:SUBSEEDS[args.workload]])))
    print("%d simulations, every one passed the correctness gate" % len(reps))
    print(result(True, len(reps), 0, metrics))


def knee():
    """Sweep open-loop Synth-A rates; report the highest rate per DC that
    meets p99 <= 1 s without refusals or a growing event backlog.  With
    --rate, bench.exe samples the event-queue depth every 0.5 s."""
    build()
    best = None
    rows = []
    for rate in KNEE_RATES:
        rep = simulate("synth-a-below-knee", subseed(KNEE_SEED, 0),
                       extra=["--rate", str(rate), "--window-s", str(KNEE_WINDOW_S)])
        gate(rep)
        depth = rep["eq_depth"][len(rep["eq_depth"]) // 4:]
        q = len(depth) // 3
        head, tail = statistics.fmean(depth[:q]), statistics.fmean(depth[-q:])
        growing = tail > 1.25 * head
        ok = rep["p99_us"] <= 1_000_000 and rep["refused"] == 0 and not growing
        rows.append({"rate_per_dc": rate, "goodput_tx_s": rep["window_commits"] / rep["window_s"],
                     "p99_ms": rep["p99_us"] / 1000.0, "refused": rep["refused"],
                     "eq_depth_head": head, "eq_depth_tail": tail, "meets_limit": ok})
        print("rate %6.1f tx/s/DC  goodput %7.1f tx/s  p99 %8.1f ms  refused %d  "
              "eq_depth %.0f -> %.0f  %s" % (rate, rows[-1]["goodput_tx_s"], rows[-1]["p99_ms"],
                                             rep["refused"], head, tail,
                                             "meets" if ok else "misses"))
        if ok and (best is None or rate > best):
            best = rate
    print(json.dumps({"knee_rate_per_dc": best, "rows": rows}))


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["knee"]:
        if argv[1:]:
            sys.exit("usage: run.py knee")
        try:
            knee()
        except CheckFailed as e:
            sys.exit("perfbench: check failed: %s" % e)
        return
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    bench(p.parse_args(argv))


if __name__ == "__main__":
    main()
