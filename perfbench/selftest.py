#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py twice
untraced and twice traced at a tenth of the documented size, then
checks that:

- every end-to-end metric (untraced) and every per-layer metric
  (traced) is printed, with the unit BENCHMARK.json gives it;
- the result digest is the same in all four runs, so tracing leaves
  the simulated results unchanged;
- the deterministic counts repeat exactly across the two runs of each
  kind: sim_engine.events, the sim_fluid.* counters, sim_workload.flows_*
  and, for in-process workloads, alloc_mw.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

SIZE = "0.1"
SEED = "5"
DETERMINISTIC = [
    "sim_engine.events",
    "sim_fluid.alloc_flushes",
    "sim_fluid.alloc_waves",
    "sim_fluid.alloc_settles",
    "sim_fluid.alloc_heap_pops",
    "sim_fluid.rebalances",
    "sim_fluid.pops_per_flow",
    "sim_fluid.live_flows_max",
    "sim_workload.flows_requested",
    "sim_workload.flows_started",
    "sim_workload.flows_completed",
]


def fail(msg):
    print("selftest: FAILED: " + msg, file=sys.stderr)
    sys.exit(1)


def run(bench, workload, trace):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", SEED, "--seconds", "1", "--trace", str(trace), "--size", SIZE]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        fail("%s --trace %d exited %d:\n%s" % (workload, trace, proc.returncode,
                                              proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = next(json.loads(l)["summary"] for l in lines if l.startswith('{"summary"'))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: result %r" % (workload, result))
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            fail("%s --trace %d: metric %s not printed" % (workload, trace, m["name"]))
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s: %s printed with unit %r, BENCHMARK.json says %r"
                 % (workload, m["name"], got[m["name"]]["unit"], m["unit"]))
    if set(got) != {m["name"] for m in wanted}:
        fail("%s --trace %d: unexpected metrics %s"
             % (workload, trace, sorted(set(got) - {m["name"] for m in wanted})))
    return got, summary


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        plain = [run(bench, name, 0) for _ in range(2)]
        traced = [run(bench, name, 1) for _ in range(2)]
        digests = {s["digest"] for _, s in plain + traced}
        if len(digests) != 1:
            fail("%s: digests differ across runs: %s" % (name, sorted(digests)))
        for key in DETERMINISTIC:
            a, b = (m[key]["value"] for m, _ in traced)
            if a != b:
                fail("%s: %s is %r then %r" % (name, key, a, b))
        if name != "cli_sweep":
            a, b = (m["alloc_mw"]["value"] for m, _ in plain)
            if a != b:
                fail("%s: alloc_mw is %r then %r" % (name, a, b))
        print("selftest: %-16s ok (digest %s)" % (name, digests.pop()), flush=True)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
