#!/usr/bin/env python3
"""The SoftWalker simulator's benchmark: how fast the simulator runs.

Run from the repository root:

    python3 perfbench/run.py --workload gups-sw --seed 1 --seconds 20 --trace 0

It builds perfbench/ (driver.cc linked against ../src) into .bench_build/,
repeats the workload for --seconds, checks every simulated result against
its expected fingerprint, prints each metric with its unit, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run.  README.md defines every metric.

    python3 perfbench/run.py --regen-expected

rewrites expected/ from the program's own run(RunSpec) path for seeds
1..STORED_SEEDS.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected" / "fingerprints.txt"
WORKLOADS = ("gups-sw", "2dc-hw", "sweep", "gups-sw-obs")
# expected/ holds seeds 1..STORED_SEEDS; the driver runs run(RunSpec)
# for any other seed before it measures.
STORED_SEEDS = 20
# A driver that runs this long is hung: the whole run must end in 180 s.
DRIVER_TIMEOUT_S = 150
# The HostProbe's seconds around a round on the reference host, a shared
# 4-vCPU 2.0 GHz Xeon VM.  Every timing is scaled by (PROBE_REF_S / the
# probe's seconds around its round) ** PROBE_EXPONENT: it reads as
# seconds on a host whose probe takes PROBE_REF_S, so host speed drift
# cancels.  The probe reacts more to the host's load than the simulator
# does: over runs spanning a 30% change of host speed, 2dc-hw and gups-sw
# times moved as the probe's time to the power 0.81 and 0.76.
PROBE_REF_S = 0.13
PROBE_EXPONENT = 0.75

# Metric name -> unit.  BENCHMARK.json lists the same names.
END_TO_END = {
    "wall_s": "s",
    "warp_instr_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "job_tail_s": "s",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_instr": "events/instr",
    "sim.events_per_s": "1/s",
    "sim.loop_share": "fraction",
    "sim.dispatch_share": "fraction",
    "sim.queue_depth_max": "count",
    "gpu.warp_instrs": "count",
    "gpu.translations_per_instr": "1/instr",
    "gpu.accesses_per_instr": "1/instr",
    "gpu.mem_stall_frac": "fraction",
    "gpu.share": "fraction",
    "workload.next_ns": "ns",
    "workload.share": "fraction",
    "vm.l1tlb_hit_rate": "fraction",
    "vm.l2tlb_accesses": "count",
    "vm.l2tlb_hit_rate": "fraction",
    "vm.l2_mshr_fail_per_access": "fraction",
    "vm.intlb_allocs": "count",
    "vm.walks_per_kinstr": "1/kinstr",
    "vm.pwc_hit_rate": "fraction",
    "vm.translation_latency_cy": "cycles",
    "vm.share": "fraction",
    "core.sw_walks": "count",
    "core.pw_batch_size": "walks",
    "core.pw_instrs_per_walk": "instr/walk",
    "core.queued_no_capacity": "count",
    "core.share": "fraction",
    "mem.data_accesses": "count",
    "mem.pte_accesses": "count",
    "mem.l1d_hit_rate": "fraction",
    "mem.l2d_miss_rate": "fraction",
    "mem.l1d_mshr_failures": "count",
    "mem.l2d_mshr_failures": "count",
    "mem.dram_util": "fraction",
    "mem.share": "fraction",
    "alloc.run_per_event": "allocs/event",
    "alloc.run_bytes_per_event": "B/event",
    "alloc.setup_count": "count",
    "check.audit_violations": "count",
    "check.share": "fraction",
    "obs.install_s": "s",
    "obs.write_s": "s",
    "obs.artifact_mb": "MB",
    "obs.records": "count",
    "obs.overhead": "fraction",
    "harness.report_s": "s",
    "harness.job_p50_s": "s",
    "harness.job_max_s": "s",
    "harness.worker_idle_s": "s",
    "harness.parallel_efficiency": "fraction",
    "prof.overhead": "fraction",
    "prof.coverage": "fraction",
}

# The profiler's existing zones, by the src/ module (layer) they time.
# Zones outside Gpu::run (setup, report, checkpointing) are never armed.
ZONE_LAYER = {
    "sim_loop": "sim",
    "event_dispatch": "sim",
    "sm_exec": "gpu",
    "tlb_lookup": "vm",
    "ptw_walk": "vm",
    "pw_warp_exec": "core",
    "cache_dram": "mem",
    "stats_audit": "check",
    "obs_sample": "obs",
}


class DriverError(Exception):
    """The perfbench binary failed: a fatal, a panic or a crash."""


def build_root():
    return Path.cwd() / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(variant, hostprof):
    """Configure (once) and build one variant of the driver."""
    out = build_root() / variant
    out.mkdir(parents=True, exist_ok=True)
    log = build_root() / f"{variant}.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      f"-DSOFTWALKER_HOSTPROF={'ON' if hostprof else 'OFF'}"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    # Compiler temporaries stay inside the checkout too.
    tmp = build_root() / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              env=env, check=False).returncode != 0:
                sys.stderr.write(log.read_text()[-3000:])
                sys.exit(f"perfbench: building {variant} failed, see {log}")
    return out / "perfbench"


def drive(binary, workload, seed, seconds, spans_out=None):
    """Run one measurement; @return the driver's JSON document."""
    cmd = [str(binary), "measure", "--workload", workload, "--seed",
           str(seed), "--seconds", f"{seconds:g}", "--expected",
           str(EXPECTED)]
    if spans_out:
        cmd += ["--traced", "--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise DriverError(f"{' '.join(cmd)} ran past {err.timeout} s") from err
    if proc.returncode != 0:
        raise DriverError(f"{' '.join(cmd)} exited {proc.returncode}: "
                          + proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout)


def timed(doc, kind="plain"):
    """The measured rounds of one kind: the first round is a warm-up."""
    return [r for r in doc["rounds"][1:] if r["kind"] == kind]


def typical(rounds, key):
    """The mean over CPUs of each CPU's median round.  A single run pins
    its rounds to every allowed CPU in turn, so every CPU weighs the same
    however many rounds it got; the sweep is not pinned.  @p key is a
    round field or a function of the round."""
    value = key if callable(key) else (lambda r: r[key])
    by_cpu = {}
    for r in rounds:
        by_cpu.setdefault(r["pinned_cpu"], []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in by_cpu.values())


def speed(r):
    """How much faster the reference host is than the host was around
    round @p r, by the probe."""
    return (PROBE_REF_S / r["probe_s"]) ** PROBE_EXPONENT


def scaled(key):
    """Round field @p key in reference seconds."""
    return lambda r: r[key] * speed(r)


def tail(rounds):
    """The job wall time at the highest percentile with at least ten jobs
    per sweep beyond it (a sweep has 60 jobs), over the jobs of every
    sweep in @p rounds, each scaled by its sweep's probe: the percentile
    of each sweep's 11th-slowest job, estimated from all of the run's
    jobs rather than as a median of a handful of order statistics."""
    walls = sorted(w * speed(r) for r in rounds for w in r["job_wall_s"])
    return walls[-(10 * len(rounds) + 1)]


def end_to_end(doc):
    rounds = timed(doc)
    wall = typical(rounds, scaled("wall_s"))
    return {
        "wall_s": wall,
        "warp_instr_per_s": typical(
            rounds, lambda r: r["instr_per_s"] / speed(r)),
        "setup_s": typical(rounds, scaled("setup_s")),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "cpu_s": typical(rounds, scaled("cpu_s")),
        # A single run is one job per round: its tail is its wall time.
        "job_tail_s": tail(rounds) if doc["workload"] == "sweep" else wall,
    }


def harness_metrics(doc):
    rounds = timed(doc)
    if doc["workload"] != "sweep":
        # A single run is one job on one worker: nothing waits for it.
        return {"harness.report_s": typical(rounds, scaled("report_s")),
                "harness.job_p50_s": typical(rounds, scaled("wall_s")),
                "harness.job_max_s": max(r["wall_s"] * speed(r)
                                         for r in rounds),
                "harness.worker_idle_s": 0.0,
                "harness.parallel_efficiency": 1.0}
    busy = [sum(r["job_wall_s"]) for r in rounds]
    capacity = [r["workers"] * r["wall_s"] for r in rounds]
    return {
        "harness.report_s": typical(rounds, scaled("report_s")),
        "harness.job_p50_s": statistics.median(
            statistics.median(r["job_wall_s"]) * speed(r) for r in rounds),
        "harness.job_max_s": statistics.median(
            max(r["job_wall_s"]) * speed(r) for r in rounds),
        "harness.worker_idle_s": statistics.median(
            (c - b) * speed(r) for c, b, r in zip(capacity, busy, rounds)),
        "harness.parallel_efficiency": statistics.median(
            b / c for c, b in zip(capacity, busy)),
    }


def per_layer(doc):
    """Per-layer metrics of a traced measurement: counts from public
    stats, shares from the armed rounds' zones, timings from the plain
    rounds in between, scaled by the probe like the end-to-end ones."""
    m = {}
    # Counts and rates per job; a sweep sums counts and averages rates.
    jobs = doc["layers"]
    for key in jobs[0]:
        values = [job[key] for job in jobs]
        m[key] = (sum(values) if PER_LAYER[key] == "count"
                  else statistics.fmean(values))

    # Zones and next() times accumulate over every armed round.
    armed, plain, bare = (timed(doc, kind)
                          for kind in ("armed", "plain", "bare"))
    armed_s = sum(r["run_s"] for r in armed)
    layer_ns = dict.fromkeys(set(ZONE_LAYER.values()), 0.0)
    zone_ns = 0.0
    for name, zone in doc["zones"].items():
        zone_ns += zone["self_ns"]
        if name in ZONE_LAYER:
            layer_ns[ZONE_LAYER[name]] += zone["self_ns"]
    next_ns = sum(r["next_ns"] for r in armed)

    def share(ns):
        return ns / 1e9 / armed_s

    # Events repeat exactly from round to round.
    m["sim.events_per_s"] = (plain[0]["events"]
                              / typical(plain, scaled("run_s")))
    m["sim.loop_share"] = share(doc["zones"]["sim_loop"]["self_ns"])
    m["sim.dispatch_share"] = share(doc["zones"]["event_dispatch"]["self_ns"])
    m["sim.queue_depth_max"] = doc["queue_depth_max"]
    # next() runs inside sm_exec: its time moves from gpu to workload.
    m["gpu.share"] = share(layer_ns["gpu"] - next_ns)
    m["workload.next_ns"] = (sum(r["next_ns"] * speed(r) for r in armed)
                             / sum(r["next_calls"] for r in armed))
    m["workload.share"] = share(next_ns)
    for layer in ("vm", "core", "mem", "check"):
        m[f"{layer}.share"] = share(layer_ns[layer])

    last = armed[-1]
    m["alloc.run_per_event"] = last["alloc_run"] / last["events"]
    m["alloc.run_bytes_per_event"] = last["alloc_run_bytes"] / last["events"]
    m["alloc.setup_count"] = last["alloc_setup"]

    m["obs.install_s"] = typical(plain, scaled("obs_install_s"))
    m["obs.write_s"] = typical(plain, scaled("obs_write_s"))
    m["obs.artifact_mb"] = last["artifact_bytes"] / 1e6
    m["obs.records"] = last["obs_records"]
    m["obs.overhead"] = (typical(plain, scaled("wall_s"))
                         / typical(bare, scaled("wall_s")) - 1.0
                         if bare else 0.0)

    m.update(harness_metrics(doc))
    m["prof.overhead"] = (typical(armed, scaled("run_s"))
                          / typical(plain, scaled("run_s")) - 1.0)
    m["prof.coverage"] = share(zone_ns)
    return m


def unmapped_zones(doc):
    """Zones the traced run hit that ZONE_LAYER does not map."""
    return sorted(name for name, zone in doc["zones"].items()
                  if zone["hits"] and name not in ZONE_LAYER)


def absent_reasons(workload, metrics):
    """Why some per-layer metrics read 0 (or 1) on this workload."""
    notes = []
    if metrics["core.sw_walks"] == 0:
        notes.append("core.*: hardware PTWs only, no software walks")
    if workload != "gups-sw-obs":
        notes.append("obs.*: no observers attached")
    if workload != "sweep":
        notes.append("harness.*: a single run, no SweepRunner")
    return notes


def attempted_failed(doc):
    attempted = sum(r["jobs"] for r in doc["rounds"])
    failed = sum(len(r["failures"]) for r in doc["rounds"])
    return attempted, failed


def measure(args, binary):
    """@return (driver document, metrics, notes) for one invocation."""
    w, seed, secs = args.workload, args.seed, args.seconds
    if not args.trace:
        doc = drive(binary, w, seed, secs)
        return doc, end_to_end(doc), []
    spans = build_root() / f"spans-{w}.json"
    doc = drive(binary, w, seed, secs, spans_out=spans)
    metrics = per_layer(doc)
    notes = absent_reasons(w, metrics)
    missing = unmapped_zones(doc)
    if missing:
        notes.append(f"zones with no layer: {', '.join(missing)}")
    notes.append(f"spans written to {spans}")
    return doc, metrics, notes


def regen_expected(plain_bin):
    lines = ["# perfbench expected RunResult digests (FNV-1a of the %a "
             "fingerprint),",
             "# from run(RunSpec): <workload> <seed> <job> <digest>.",
             "# Regenerate: python3 perfbench/run.py --regen-expected"]
    for workload in ("gups-sw", "2dc-hw", "sweep"):
        for seed in range(1, STORED_SEEDS + 1):
            cmd = [str(plain_bin), "fingerprints", "--workload", workload,
                   "--seed", str(seed)]
            if seed == 1 and workload != "sweep":
                cmd += ["--fp-out",
                        str(EXPECTED.parent / f"{workload}.seed1.fp")]
            lines += subprocess.run(cmd, capture_output=True, text=True,
                                    check=True).stdout.splitlines()
    EXPECTED.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 3} digests to {EXPECTED}")


def report(args, doc, metrics, notes):
    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed = attempted_failed(doc)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  nproc {doc['nproc']}; rounds {len(doc['rounds'])} "
          f"(1 warm-up); expected fingerprints from "
          f"{doc['expected_source']}")
    print(f"  manifest {json.dumps(doc['manifest'], sort_keys=True)}")
    for r in doc["rounds"]:
        for failure in r["failures"]:
            print(f"  FAILED {failure}")
    rounds = timed(doc)
    print(f"  host probe {typical(rounds, 'probe_s'):.4g} s around each "
          f"round (reference {PROBE_REF_S:g} s); unscaled wall_s "
          f"{typical(rounds, 'wall_s'):.4g} s")
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:16.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite expected/ for seeds 1..%d" % STORED_SEEDS)
    args = parser.parse_args()
    if not args.workload and not args.regen_expected:
        parser.error("--workload is required")

    if args.regen_expected:
        regen_expected(build("plain", hostprof=False))
        return
    # Build only the variant this invocation runs.
    binary = (build("hostprof", hostprof=True) if args.trace
              else build("plain", hostprof=False))
    try:
        doc, metrics, notes = measure(args, binary)
    except DriverError as err:
        # The simulator died: every metric is missing, the run failed.
        print(f"  FAILED {err}")
        units = PER_LAYER if args.trace else END_TO_END
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {n: {"value": 0.0, "unit": u}
                                      for n, u in units.items()}}))
        return
    report(args, doc, metrics, notes)


if __name__ == "__main__":
    main()
