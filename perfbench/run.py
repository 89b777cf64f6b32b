#!/usr/bin/env python3
"""The repo benchmark: whole experiment points of the MMPTCP simulator.

Run from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the simulator and the workload runner (perfbench/wl.ml) from
source in the release profile under .perfbench/, then times a fixed
number of seeded instances of the workload (sized to S seconds), one
child process per instance, each between two timings of a reference
loop. It prints a datapoint per pass, a summary, and as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 times half the
instances traced, then the same half untraced, and reports the
per-layer metrics, each next to the end-to-end metric it should move.
Any failed correctness check makes the exit status non-zero. See
perfbench/README.md.
"""

import argparse
import csv
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(WORK, "build")
WL = os.path.join(BUILD, "default", "perfbench", "wl.exe")
SIM = os.path.join(BUILD, "default", "bin", "mmptcp_sim.exe")
CLI_OUT = os.path.join(WORK, "cli-out")
# Children are killed 170 s after the build finishes, so a hung
# simulation fails the run inside its 180 s limit (set by build()).
DEADLINE = None

IN_PROCESS = ("packet_fig1", "fluid_scale", "hybrid_handoff")
WORKLOADS = IN_PROCESS + ("cli_sweep",)

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("alloc_mw", "Mwords"),
    ("promoted_mw", "Mwords"),
    ("flows_completed_share", "ratio"),
]

# (name, unit, the end-to-end metric it should move, on which workload,
#  workloads it applies to). A metric reports 0 on workloads outside
#  its list: that layer is not exercised there, or not observable from
#  outside the binary (cli_sweep).
ALL = WORKLOADS
PKT = ("packet_fig1", "hybrid_handoff", "cli_sweep")
FLUID = ("fluid_scale", "hybrid_handoff")
INP = IN_PROCESS
LAYERS = [
    ("sim_engine.events", "count", "cpu_s, alloc_mw on packet_fig1", ALL),
    ("sim_engine.ns_per_event", "ns", "cpu_s on packet_fig1", ALL),
    ("sim_engine.mw_per_event", "words", "alloc_mw on packet_fig1", ALL),
    ("sim_engine.wheel_pending_max", "timers", "cpu_s on packet_fig1", ALL),
    ("sim_engine.heap_pending_max", "events", "cpu_s on fluid_scale", ALL),
    ("sim_engine.event_cells", "cells", "peak_rss_mb on hybrid_handoff", ALL),
    ("sim_engine.timer_rearm_ns", "ns", "cpu_s on packet_fig1", ALL),
    ("sim_net.build_s", "s", "setup_s on fluid_scale", INP),
    ("sim_net.hop_ns_64B", "ns", "cpu_s on packet_fig1", ALL),
    ("sim_net.hop_ns_1500B", "ns", "cpu_s on packet_fig1", ALL),
    ("sim_net.hop_mw", "words", "alloc_mw on packet_fig1", ALL),
    ("sim_net.queue_drops", "count", "flows_completed_share, cpu_s on packet_fig1", PKT),
    ("sim_tcp.rto_fired", "count", "flows_completed_share, cpu_s on packet_fig1", PKT),
    ("sim_tcp.fast_retransmits", "count", "flows_completed_share, cpu_s on packet_fig1", PKT),
    ("sim_tcp.rto_flows", "count", "flows_completed_share, cpu_s on packet_fig1", PKT),
    ("sim_tcp.transfer_ns_70KB", "ns", "cpu_s on hybrid_handoff", ALL),
    ("sim_tcp.transfer_mw_70KB", "words", "alloc_mw on hybrid_handoff", ALL),
    ("sim_mptcp.transfer_ns_70KB_8sf", "ns", "cpu_s on hybrid_handoff, packet_fig1", ALL),
    ("sim_mptcp.transfer_mw_70KB_8sf", "words", "alloc_mw on hybrid_handoff, packet_fig1", ALL),
    ("mmptcp.phase_switches", "count", "cpu_s on packet_fig1", ("packet_fig1",)),
    ("mmptcp.transfer_ns_70KB", "ns", "cpu_s on packet_fig1", ALL),
    ("mmptcp.transfer_mw_70KB", "words", "alloc_mw on packet_fig1", ALL),
    ("sim_fluid.alloc_flushes", "count", "cpu_s on fluid_scale", FLUID),
    ("sim_fluid.alloc_waves", "count", "cpu_s on fluid_scale", FLUID),
    ("sim_fluid.alloc_settles", "count", "cpu_s on fluid_scale", FLUID),
    ("sim_fluid.alloc_heap_pops", "count", "cpu_s on fluid_scale", FLUID),
    ("sim_fluid.rebalances", "count", "cpu_s on fluid_scale", FLUID),
    ("sim_fluid.pops_per_flow", "ratio", "cpu_s on fluid_scale", FLUID),
    ("sim_fluid.live_flows_max", "flows", "peak_rss_mb on fluid_scale", FLUID),
    ("sim_fluid.ns_per_flow", "ns", "cpu_s on fluid_scale", ALL),
    ("sim_fluid.mw_per_flow", "words", "alloc_mw on fluid_scale", ALL),
    ("sim_workload.flows_requested", "count", "flows_completed_share on every workload", ALL),
    ("sim_workload.flows_started", "count", "flows_completed_share on every workload", ALL),
    ("sim_workload.flows_completed", "count", "flows_completed_share on every workload", ALL),
    ("sim_workload.promotions", "count", "cpu_s on hybrid_handoff", ("hybrid_handoff",)),
    ("sim_obs.ledger_entries", "count", "peak_rss_mb, alloc_mw on hybrid_handoff", ALL),
    ("sim_obs.sink_s", "s", "wall_s on hybrid_handoff", INP),
    ("sim_obs.trace_overhead", "ratio", "nothing: keeps later in-program spans cheap", ALL),
    ("sim_experiments.point_s_sum", "s", "wall_s on cli_sweep", ("cli_sweep",)),
    ("sim_experiments.coord_s", "s", "wall_s on cli_sweep", ("cli_sweep",)),
    ("sim_experiments.parallel_eff", "ratio", "wall_s on cli_sweep", ("cli_sweep",)),
    ("runtime.minor_gcs", "count", "cpu_s, peak_rss_mb on fluid_scale", ALL),
    ("runtime.major_gcs", "count", "cpu_s, peak_rss_mb on fluid_scale", ALL),
    ("runtime.top_heap_mb", "MB", "cpu_s, peak_rss_mb on fluid_scale", INP),
    ("runtime.wall_raw_s", "s", "wall_s on every workload, before scaling to REF_S", ALL),
    ("runtime.cpu_raw_s", "s", "cpu_s on every workload, before scaling to REF_S", ALL),
    ("runtime.ref_s", "s", "nothing: the host's speed during the run", ALL),
]

# cli_sweep: the shipped fig1a sweep (subflows 1..9) at the tiny
# topology, through the process pool and every sink.
CLI_JOBS = 2
CLI_POINTS = 9


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    # mmptcp_sim and wl.exe pin their GC settings themselves; dropping
    # OCAMLRUNPARAM also removes the parameters they do not pin.
    env = dict(os.environ)
    env.pop("OCAMLRUNPARAM", None)
    env.pop("CAMLRUNPARAM", None)
    return env


def spawn(argv):
    """Run argv to completion. Returns (wall_s, rusage, stdout); raises
    CheckFailed on a non-zero exit or a timeout."""
    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        killer = threading.Timer(max(0.0, DEADLINE - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    if proc.returncode != 0:
        with open(err_path, "rb") as f:
            tail = f.read().decode(errors="replace").strip()[-2000:]
        raise CheckFailed(
            "%s exited with %d: %s" % (os.path.basename(argv[0]), proc.returncode, tail)
        )
    return wall, rusage, stdout


def last_json(stdout):
    return json.loads(stdout.decode().strip().splitlines()[-1])


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise CheckFailed("no %s here: run from the root of a source tree" % need)
    os.makedirs(WORK, exist_ok=True)
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", BUILD,
        "--profile", "release", "perfbench/wl.exe", "bin/mmptcp_sim.exe",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CheckFailed("build failed:\n" + (proc.stdout + proc.stderr)[-3000:])
    global DEADLINE
    DEADLINE = time.monotonic() + 170
    # wl.exe refuses to run when the packet-pool sanitizer is compiled
    # in; mmptcp_sim comes from the same profile.
    _, _, out = spawn([WL, "check"])
    return last_json(out)["ocaml"]


def fingerprint(ocaml):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    if commit is None:
        # Not a git checkout: name the tree by the hash of its sources.
        h = hashlib.sha256()
        for top in ("bin", "lib", "perfbench"):
            for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
                dirnames.sort()
                for name in sorted(filenames):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
        commit = "tree:" + h.hexdigest()[:16]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ocaml": ocaml,
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# One instance. Each returns a flat dict of measurements.


# The host's speed of the moment. On a shared host a fixed loop runs up
# to 2x slower in phases lasting seconds to minutes (README.md, "Reading
# the numbers"), far more than any change a bound here should catch. So
# every timed part runs between two timings of the reference loop
# (wl.exe ref, which calls nothing in lib/), and its times are reported
# in reference seconds: measured seconds x REF_S / the reference loop's
# measured time, the mean of the timings before and after the part.
# REF_S is the loop's typical time on the host the benchmark was
# defined on, so reference seconds read close to that host's seconds.
REF_S = 0.2


def reference(workload):
    """(wall, cpu) of the reference loop. cli_sweep keeps CLI_JOBS cores
    busy, so its reference runs that many loops at once and averages
    them: the speed of every core the sweep runs on, under the same
    load on its neighbour."""
    n = CLI_JOBS if workload == "cli_sweep" else 1
    procs = [subprocess.Popen([WL, "ref"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env()) for _ in range(n)]
    walls, cpus = [], []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=max(1.0, DEADLINE - time.monotonic()))
            if proc.returncode != 0:
                raise CheckFailed("wl.exe ref exited with %d: %s"
                                  % (proc.returncode, err.decode(errors="replace")))
            rec = last_json(out)
            walls.append(rec["ref_wall_s"])
            cpus.append(rec["ref_cpu_s"])
    except subprocess.TimeoutExpired:
        raise CheckFailed("wl.exe ref did not finish in time")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return statistics.mean(walls), statistics.mean(cpus)


def normalise(part, before, after):
    """Scale a part's timings by the reference timed around it; the
    measured values stay in the record as *_raw."""
    ref_wall = (before[0] + after[0]) / 2
    ref_cpu = (before[1] + after[1]) / 2
    for key, ref in (("wall_s", ref_wall), ("cpu_s", ref_cpu), ("setup_s", ref_wall),
                     ("point_s_sum", ref_cpu)):
        if key in part:
            part[key + "_raw"] = part[key]
            part[key] = part[key] * REF_S / ref
    part["ref_s"] = ref_wall
    return part


def instance_in_process(workload, seed, size, trace, point):
    argv = [WL, "run", workload, "--seed", str(seed), "--size", repr(size),
            "--point", str(point)]
    if trace:
        argv.append("--trace")
    _, rusage, out = spawn(argv)
    rec = last_json(out)
    rec["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
    return rec


def cli_args(seed, size):
    horizon = 0.3 * size
    return [
        SIM, "fig1a", "-k", "4", "--oversub", "2",
        "--flows", str(max(1, round(20 * size))), "--rate", "50",
        "--horizon", repr(horizon), "--seed", str(seed),
        "--jobs", str(CLI_JOBS), "--prof", "--ledger", "--out", CLI_OUT,
    ], horizon


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def instance_cli(seed, size, trace):
    # setup_s: exec-to-ready of the binary, the median of 10 launches.
    setup = [spawn([SIM, "--list"])[0] for _ in range(10)]
    argv, horizon = cli_args(seed, size)
    if trace:
        argv += ["--probe-interval", "%gms" % (horizon * 50.0), "--probe", "1"]
    shutil.rmtree(CLI_OUT, ignore_errors=True)
    wall, rusage, stdout = spawn(argv)
    prof = {r["point"]: r for r in read_csv(os.path.join(CLI_OUT, "prof-fig1a.csv"))}
    total = prof["TOTAL"]
    digest = hashlib.sha256(stdout)
    started = completed = 0
    entries = []
    ledgers = sorted(
        p for p in glob.glob(os.path.join(CLI_OUT, "ledger-fig1a-subflows-*.csv"))
        if not p.endswith("-summary.csv")
    )
    if len(ledgers) != CLI_POINTS:
        raise CheckFailed("cli_sweep wrote %d ledgers, expected %d" % (len(ledgers), CLI_POINTS))
    for path in ledgers:
        with open(path, "rb") as f:
            digest.update(f.read())
        for e in read_csv(path):
            entries.append(e)
            if int(e["complete_ns"]) >= 0:
                if int(e["bytes"]) != int(e["size"]) or int(e["fct_ns"]) <= 0:
                    raise CheckFailed(
                        "cli_sweep: conn %s completed with %s of %s bytes, fct %s ns"
                        % (e["conn"], e["bytes"], e["size"], e["fct_ns"])
                    )
            if e["class"] == "short":
                started += 1
                completed += int(e["complete_ns"]) >= 0
    flows = int(argv[argv.index("--flows") + 1])
    rec = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": rusage.ru_utime + rusage.ru_stime,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        "alloc_mw": float(total["minor_words"]) / 1e6,
        "promoted_mw": float(total["promoted_words"]) / 1e6,
        "minor_gcs": int(total["minor_gcs"]),
        "major_gcs": int(total["major_gcs"]),
        "point_s_sum": float(total["wall_s"]),
        "requested": flows * CLI_POINTS,
        "started": started,
        "completed": completed,
        "digest": digest.hexdigest()[:32],
        "stdout": stdout,
    }
    if trace:
        rec["layers"] = cli_layers(entries)
    return rec


def cli_layers(entries):
    """Per-layer counters of a traced cli_sweep, from its artifacts."""
    events = wheel = heap = cells = drops = 0.0
    for path in glob.glob(os.path.join(CLI_OUT, "probe-fig1a-subflows-*-scheduler.csv")):
        rows = read_csv(path)
        ticks = len({r["t_ns"] for r in rows})
        by = {}
        for r in rows:
            by.setdefault(r["metric"], []).append(float(r["value"]))
        events += by["events_processed"][-1] - ticks
        wheel = max(wheel, max(by["wheel_pending"]))
        heap = max(heap, max(by["heap_pending"]))
        cells = max(cells, max(by["event_cells"]))
    for path in glob.glob(os.path.join(CLI_OUT, "probe-fig1a-subflows-*-pktqueue.csv")):
        last = {}
        for r in read_csv(path):
            if r["metric"] == "drops":
                last[r["id"]] = float(r["value"])
        drops += sum(last.values())
    return {
        "events": events,
        "sim_engine.wheel_pending_max": wheel,
        "sim_engine.heap_pending_max": heap,
        "sim_engine.event_cells": cells,
        "sim_net.queue_drops": drops,
        "sim_tcp.rto_fired": sum(int(e["rtos"]) for e in entries),
        "sim_tcp.fast_retransmits": sum(int(e["fast_rtxs"]) for e in entries),
        "sim_tcp.rto_flows": sum(
            1 for e in entries if e["class"] == "short" and int(e["rtos"]) > 0
        ),
        "mmptcp.phase_switches": sum(1 for e in entries if int(e["switch_ns"]) >= 0),
        "sim_workload.promotions": sum(1 for e in entries if int(e["promote_ns"]) >= 0),
        "sim_obs.ledger_entries": len(entries),
    }


# A run times n instances of the workload once, each with a seed
# derived from --seed (1000 * seed + i) and each in its own child
# process. One instance's work varies from seed to seed by 6-8%
# (IQR/median of alloc_mw: who collides with whom under ECMP on a k=4
# tree), so the run sums n distinct instances rather than repeating a
# few: the sum's spread falls by sqrt(n). n is sized so that a 40 s run
# takes about 30 s at the defining host's usual speed, and scales with
# --seconds.
INSTANCES_PER_40S = {"packet_fig1": 12, "fluid_scale": 2, "hybrid_handoff": 20,
                     "cli_sweep": 20}
# In-process instances with several points run each point in a child
# of its own, so each timed part has its own reference timings.
POINTS = {"packet_fig1": 2}
SUMMED = ("wall_s", "cpu_s", "wall_s_raw", "cpu_s_raw", "alloc_mw", "promoted_mw",
          "minor_gcs", "major_gcs", "point_s_sum", "requested", "started", "completed",
          "events")
PEAKS = ("peak_rss_mb", "top_heap_mb")


def instance_count(workload, seconds):
    return max(1, round(INSTANCES_PER_40S[workload] * seconds / 40.0))


def merge_layers(parts):
    merged = {}
    for key in parts[0]:
        vals = [p[key] for p in parts]
        if key.endswith("_max") or key == "sim_engine.event_cells":
            merged[key] = max(vals)
        elif key == "sim_fluid.pops_per_flow":
            merged[key] = statistics.mean(vals)
        else:
            merged[key] = sum(vals)
    return merged


def timed_pass(workload, seed, size, trace, instances):
    """One pass over the given instances. Every timed part runs between
    two timings of the reference loop."""
    parts = []
    ref = reference(workload)
    for i in instances:
        instance_seed = 1000 * seed + i
        if workload == "cli_sweep":
            runs = [lambda: instance_cli(instance_seed, size, trace)]
        else:
            runs = [lambda p=point: instance_in_process(workload, instance_seed, size,
                                                        trace, p)
                    for point in range(POINTS.get(workload, 1))]
        for point, run in enumerate(runs):
            part = run()
            after = reference(workload)
            part["key"] = "%d.%d" % (i, point)
            parts.append(normalise(part, ref, after))
            ref = after
    rec = {"parts": len(parts),
           "setup_s": statistics.median(p["setup_s"] for p in parts),
           "setup_s_raw": statistics.median(p["setup_s_raw"] for p in parts),
           "ref_s": statistics.median(p["ref_s"] for p in parts),
           "digests": {p["key"]: p["digest"] for p in parts}}
    for key in SUMMED:
        if key in parts[0]:
            rec[key] = sum(p[key] for p in parts)
    for key in PEAKS:
        if key in parts[0]:
            rec[key] = max(p[key] for p in parts)
    if "stdout" in parts[0]:
        rec["stdouts"] = {p["key"]: p["stdout"] for p in parts}
    if trace:
        rec["layers"] = merge_layers([p["layers"] for p in parts])
    return rec


# ---------------------------------------------------------------------------


def check_same(reps, key, what):
    """Each instance's reps[*][key] entry must be identical every time
    the instance ran."""
    seen = {}
    for r in reps:
        for part, value in r[key].items():
            if seen.setdefault(part, value) != value:
                raise CheckFailed("%s of instance %s differs between its runs" % (what, part))


def end_to_end(rep):
    values = {name: rep[name] for name, _ in END_TO_END if name in rep}
    values["flows_completed_share"] = rep["completed"] / rep["requested"]
    return values


def measure(args, host):
    """An untraced run times all n instances once, then runs instance 0
    again to check that its results repeat. A traced run times the
    first half of the instances traced and then untraced, so that the
    tracing overhead is a paired figure; it takes as long as an
    untraced run. Returns {traced: [passes]} and the re-run."""
    n = instance_count(args.workload, args.seconds)
    reps = {False: [], True: []}
    if args.trace:
        plan = [(True, range(max(1, n // 2))), (False, range(max(1, n // 2)))]
    else:
        plan = [(False, range(n))]
    for traced, instances in plan:
        rec = timed_pass(args.workload, args.seed, args.size, traced, instances)
        reps[traced].append(rec)
        shown = {k: v for k, v in rec.items() if k not in ("layers", "stdouts")}
        print(json.dumps({"datapoint": dict(shown, traced=traced), "host": host}),
              flush=True)
    again = [] if args.trace else [
        timed_pass(args.workload, args.seed, args.size, False, range(1))]
    return reps, again


def results(args, reps, again):
    untraced, traced = reps[False], reps[True]
    everything = untraced + traced + again
    # Correctness across runs of an instance: identical simulated
    # results, traced or not, and for the CLI byte-identical stdout.
    check_same(everything, "digests", "the result digest")
    if args.workload == "cli_sweep":
        check_same(everything, "stdouts", "mmptcp_sim stdout")
    for r in everything:
        if not r["requested"] >= r["started"] >= r["completed"]:
            raise CheckFailed("flow counts out of order: %r" % (r,))
    values = end_to_end(untraced[0])
    # The run's digest covers the instances that untraced and traced
    # runs both time, so the two kinds of run can be compared by it.
    common = range(max(1, instance_count(args.workload, args.seconds) // 2))
    digests = untraced[0]["digests"]
    summary = {"workload": args.workload, "seed": args.seed,
               "instances": len({k.split(".")[0] for k in digests}),
               "digest": hashlib.sha256(" ".join(
                   v for k, v in sorted(digests.items())
                   if int(k.split(".")[0]) in common).encode()).hexdigest()[:32]}
    for name, unit in END_TO_END:
        summary[name] = {"value": values[name], "unit": unit}
    if not args.trace:
        return summary, {name: summary[name] for name, _ in END_TO_END}
    layer = layer_values(args, untraced, traced, values)
    lines = []
    for name, unit, target, applies in LAYERS:
        note = "" if args.workload in applies else "  (not exercised here)"
        lines.append("%-34s %16.6g %-6s -> %s%s" % (name, layer[name], unit, target, note))
    summary["per_layer"] = lines
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _, _ in LAYERS}
    return summary, metrics


def layer_values(args, untraced, traced, values):
    """Per-layer metrics of a traced run: counters from the traced pass,
    timings from the untraced pass over the same instances."""
    got = {name: 0.0 for name, _, _, _ in LAYERS}
    plain, layers = untraced[0], traced[0]["layers"]
    got.update((name, v) for name, v in layers.items() if name in got)
    _, _, out = spawn([WL, "drives"])
    got.update(last_json(out))
    events = plain["events"] if "events" in plain else layers["events"]
    cpu = values["cpu_s"]
    got["sim_engine.events"] = events
    got["sim_engine.ns_per_event"] = cpu * 1e9 / max(1, events)
    got["sim_engine.mw_per_event"] = values["alloc_mw"] * 1e6 / max(1, events)
    got["sim_workload.flows_requested"] = plain["requested"]
    got["sim_workload.flows_started"] = plain["started"]
    got["sim_workload.flows_completed"] = plain["completed"]
    got["sim_obs.trace_overhead"] = traced[0]["cpu_s"] / cpu
    got["runtime.wall_raw_s"] = plain["wall_s_raw"]
    got["runtime.cpu_raw_s"] = plain["cpu_s_raw"]
    got["runtime.ref_s"] = plain["ref_s"]
    got["runtime.minor_gcs"] = plain["minor_gcs"]
    got["runtime.major_gcs"] = plain["major_gcs"]
    if args.workload == "cli_sweep":
        point_s, wall = plain["point_s_sum"], values["wall_s"]
        got["sim_experiments.point_s_sum"] = point_s
        got["sim_experiments.coord_s"] = wall - point_s / CLI_JOBS
        got["sim_experiments.parallel_eff"] = point_s / (CLI_JOBS * wall)
    else:
        got["sim_net.build_s"] = values["setup_s"]
        got["runtime.top_heap_mb"] = plain["top_heap_mb"]
    return got


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Below 1 the workloads shrink proportionally (the self-test's size).
    ap.add_argument("--size", type=float, default=1.0)
    args = ap.parse_args()
    try:
        host = fingerprint(build())
        print(json.dumps({"host": host}), flush=True)
        reps, again = measure(args, host)
        summary, metrics = results(args, reps, again)
    except CheckFailed as e:
        log("perfbench: FAILED: %s" % e)
        sys.exit(1)
    finally:
        shutil.rmtree(CLI_OUT, ignore_errors=True)
    attempted = sum(r["parts"] for r in reps[False] + reps[True] + again)
    print(json.dumps({"summary": {k: v for k, v in summary.items() if k != "per_layer"}}))
    for line in summary.get("per_layer", []):
        print(line)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))


if __name__ == "__main__":
    main()
