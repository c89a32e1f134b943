#!/usr/bin/env python3
"""End-to-end benchmark for pmacx.

    python3 perf_e2e/run.py --workload table1|whatif|ingest --seed N \
        --seconds S --trace 0|1
    python3 perf_e2e/run.py --selftest

Run from the root of a pmacx checkout.  Builds perf_e2e (and through it the
repository's libraries and pmacx_serve) in Release under .bench_build/, runs
the workload, and prints the operations report, a traced run's per-layer
ledger, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
are the per-layer metrics of a separate traced run.  See README.md.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perf_e2e")
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "result_p50_ms": "ms",
    "result_tail_ms": "ms",
    "results_per_s": "1/s",
}

APP_COUNTS = {"specfem3d": (96, 384, 1536), "uh3d": (1024, 2048, 4096)}

# Per-layer metrics every workload reports, with their units.
PER_LAYER = {
    "machine.probe_s": "s",
    "machine.probe_mrefs_per_s": "Mref/s",
    **{f"synth.collect_s.{app}.{cores}": "s"
       for app, counts in APP_COUNTS.items() for cores in counts},
    "memsim.refs": "count",
    "memsim.line_accesses": "count",
    "memsim.mrefs_per_s.specfem3d": "Mref/s",
    "memsim.mrefs_per_s.uh3d": "Mref/s",
    "core.fit_ms": "ms",
    "core.apply_ms": "ms",
    "fits.total": "count",
    "fits.simd_batches": "count",
    "fits.incremental.reused": "count",
    "fits.incremental.refit": "count",
    "fits.bayes.samples": "count",
    "psins.predict_ms": "ms",
    "psins.convolve_ms": "ms",
    "simmpi.replay_ms": "ms",
    "simmpi.events_per_replay": "count",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "io.ops.write": "count",
    "io.ops.fsync": "count",
    "ledger.coverage": "ratio",
}

# Spans that delimit phases rather than calls into a layer.
PHASES = {"workload", "checks", "setup", "inputs", "table1.round", "table1.app",
          "whatif.round", "ingest.round", "ingest.upload", "ingest.reader"}
# The benchmark's own waiting (STATUS polls and sleeps until a background
# refit is published): listed in the ledger, never counted as covered.
PACING = {"ingest.wait_refit"}


def fail(message):
    print(f"perf_e2e: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "pmacx_e2e",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                if step[1] == "-S":
                    shutil.rmtree(BUILD, ignore_errors=True)
                fail("build failed")
    return os.path.join(BUILD, "pmacx_e2e")


def run_program(binary, args, out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    # Its own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen([binary, "--out-dir", out_dir] + args, start_new_session=True)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"pmacx_e2e did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"pmacx_e2e exited with code {proc.returncode}")


# --------------------------------------------------------------------------
# The ledger of a traced run.

def union_length(intervals):
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def ledger(spans):
    """Per span name: calls, total, self time (minus covered children)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    rows = {}
    for s in spans:
        duration = s["end"] - s["start"]
        covered = union_length([(max(c["start"], s["start"]), min(c["end"], s["end"]))
                                for c in children.get(s["id"], [])
                                if c["end"] > s["start"] and c["start"] < s["end"]])
        row = rows.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered
    return rows


def coverage(spans):
    """Share of the workload span's wall time covered by layer spans that
    descend from it.  Side load with a root of its own (the ingest reader)
    and the benchmark's pacing do not count."""
    root = next(s for s in spans if s["name"] == "workload")
    in_tree = {root["id"]}
    for s in spans:  # a parent is recorded before its children
        if s["parent"] in in_tree:
            in_tree.add(s["id"])
    inside = [(max(s["start"], root["start"]), min(s["end"], root["end"]))
              for s in spans if s["id"] in in_tree and s["name"] not in PHASES | PACING
              and s["end"] > root["start"] and s["start"] < root["end"]]
    return union_length(inside) / (root["end"] - root["start"])


def per_layer(report, spans, snapshot):
    detail = report["detail"]
    rounds = max(1, report["rounds"])
    inproc = report["workload"] == "table1"
    counters, timers = snapshot["counters"], snapshot["timers"]

    # Inputs made by a tool: its snapshot holds the memsim counts and the
    # time inside synth::trace_task.
    tool_collect_s = {}
    for tool in report["input_snapshots"]:
        with open(tool["path"]) as f:
            tool_counters = json.load(f)
        for name in ("memsim.refs", "memsim.line_accesses"):
            key = f"{name}.{tool['app']}"
            detail[key] = detail.get(key, 0) + tool_counters["counters"].get(name, 0)
        task = tool_counters["timers"]["trace.task.wall_ns"]
        tool_collect_s[f"{tool['app']}.{tool['cores']}"] = task["sum"] / task["count"] / 1e9

    def spans_named(names, label=None):
        return [s["end"] - s["start"] for s in spans
                if s["name"] in names and (label is None or s["label"] == label)]

    def span_median(names, label=None):
        durations = spans_named(names, label)
        return statistics.median(durations) if durations else 0.0

    def timer_mean_ms(*names):
        count = timers.get(names[-1] + ".wall_ns", {}).get("count", 0)
        total = sum(timers.get(n + ".wall_ns", {}).get("sum", 0) for n in names)
        return total / count / 1e6 if count else 0.0

    def count(name):
        # table1 repeats its in-process work every round; a served workload's
        # counts are its measured server's: set-up plus the traced run's
        # fixed rounds.
        value = counters.get(name, 0)
        return value / rounds if inproc else value

    m = {}
    m["machine.probe_s"] = span_median({"machine.build_profile"})
    m["machine.probe_mrefs_per_s"] = detail["machine.probe_refs"] / m["machine.probe_s"] / 1e6
    for app, counts in APP_COUNTS.items():
        for cores in counts:
            label = f"{app}.{cores}"
            m[f"synth.collect_s.{app}.{cores}"] = tool_collect_s.get(label) or span_median(
                {"synth.collect_signature", "synth.trace_task"}, label)
    m["memsim.refs"] = sum(v for k, v in detail.items() if k.startswith("memsim.refs."))
    m["memsim.line_accesses"] = sum(
        v for k, v in detail.items() if k.startswith("memsim.line_accesses."))
    for app in APP_COUNTS:
        m[f"memsim.mrefs_per_s.{app}"] = (
            detail[f"memsim.refs.{app}"] / detail[f"memsim.collect_s.{app}"] / 1e6)
    if inproc:
        m["core.fit_ms"] = 1e3 * span_median({"core.fit_task_models"})
        m["core.apply_ms"] = 1e3 * span_median({"core.extrapolate_from_models"})
        m["psins.predict_ms"] = 1e3 * span_median({"psins.predict"})
    else:
        m["core.fit_ms"] = timer_mean_ms("extrapolate.fit")
        m["core.apply_ms"] = timer_mean_ms("extrapolate.select", "extrapolate.apply")
        m["psins.predict_ms"] = timer_mean_ms("psins.predict")
    m["psins.convolve_ms"] = timer_mean_ms("psins.convolve")
    m["simmpi.replay_ms"] = timer_mean_ms("simmpi.replay")
    for name in ("fits.total", "fits.simd_batches", "fits.incremental.reused",
                 "fits.incremental.refit", "fits.bayes.samples", "service.cache.hits",
                 "service.cache.misses", "io.ops.write", "io.ops.fsync"):
        m[name] = count(name)
    replays = counters.get("simmpi.replays", 0)
    m["simmpi.events_per_replay"] = (
        counters.get("simmpi.events_replayed", 0) / replays if replays else 0)
    m["ledger.coverage"] = coverage(spans)

    # Figures of one workload only: printed in the ledger, not in the result.
    extra = {}
    latency = {n[len("service.latency."):]: v for n, v in timers.items()
               if n.startswith("service.latency.") and v["count"]}
    for kind, v in latency.items():
        extra[f"service.handle_ms.{kind}"] = v["sum"] / v["count"] / 1e6
    # Client-side latency of the requests the measured server answered: the
    # snapshot is that server's, and it was spawned by the last set-up.
    last_setup = max((s["start"] for s in spans if s["name"] == "setup"), default=0.0)
    client = {}
    for s in spans:
        if (s["name"] in ("service.predict", "service.predict_interval")
                and s["start"] >= last_setup):
            client.setdefault(s["name"][len("service."):], []).append(s["end"] - s["start"])
    for kind, durations in client.items():
        if kind in latency:
            extra[f"service.rpc_overhead_ms.{kind}"] = (
                1e3 * statistics.mean(durations) - extra[f"service.handle_ms.{kind}"])
    hits, misses = counters.get("service.cache.hits", 0), counters.get("service.cache.misses", 0)
    if hits + misses:
        extra["service.cache.hit_ratio"] = hits / (hits + misses)
    for name in ("ingest.begin", "ingest.chunk", "ingest.commit"):
        if spans_named({name}):
            extra[name + "_ms"] = 1e3 * span_median({name})
    if "ingest.swap_latency" in timers and timers["ingest.swap_latency"]["count"]:
        t = timers["ingest.swap_latency"]
        extra["ingest.swap_ms"] = t["sum"] / t["count"] / 1e6
    if "ingest.refits" in counters:
        extra["ingest.refits"] = counters["ingest.refits"]
    extra.update({k: v for k, v in detail.items()
                  if not k.startswith(("memsim.", "machine."))})
    return m, extra


def print_ledger(rows, layer, extra, report):
    print(f"per-layer ledger ({report['workload']}, traced, {report['rounds']} round):")
    print(f"  {'span':34s} {'calls':>7s} {'total s':>10s} {'self s':>10s}")
    for name in sorted(rows, key=lambda n: -rows[n]["self_s"]):
        r = rows[name]
        print(f"  {name:34s} {r['calls']:7d} {r['total_s']:10.4f} {r['self_s']:10.4f}")
    print(f"  layer spans cover {100 * layer['ledger.coverage']:.1f}% of the workload's "
          f"wall time; {100 * (1 - layer['ledger.coverage']):.1f}% is dark")
    for name in sorted(layer):
        print(f"  {name:40s} {layer[name]:.6g} {PER_LAYER[name]}")
    for name in sorted(extra):
        print(f"  {name:40s} {extra[name]:.6g}")
    print("  traced end-to-end figures: " +
          ", ".join(f"{k} {v:.6g}" for k, v in sorted(report["e2e"].items())))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["table1", "whatif", "ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker threads, connections and server handler threads")
    parser.add_argument("--selftest", action="store_true",
                        help="check that every output check fails on a perturbed output")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        out_dir = os.path.join(BUILD, "runs", "selftest")
        run_program(binary, ["--selftest", "--threads", str(args.threads)], out_dir)
        return

    name = f"{args.workload}-{args.seed}-{args.trace}"
    out_dir = os.path.join(BUILD, "runs", name)
    run_program(binary, ["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--threads", str(args.threads)], out_dir)
    with open(os.path.join(out_dir, "report.json")) as f:
        report = json.load(f)

    ops = report["ops"]
    print(f"operations ({args.workload}, seed {args.seed}): attempted {ops['attempted']}, "
          f"ok {ops['ok']}, busy {ops['busy']}, error {ops['error']}; "
          f"{report['rounds']} round(s) in {report['measured_s']:.3f} s; "
          f"connections {ops['connections']}; pacing: {ops['pacing']}; "
          f"status polls {ops['status_polls']}; checks {report['checks_run']}")
    for failure in report["failures"]:
        print(f"check failed: {failure}")

    if args.trace:
        with open(os.path.join(out_dir, "spans.json")) as f:
            spans = json.load(f)
        with open(report["snapshot"]) as f:
            snapshot = json.load(f)
        rows = ledger(spans)
        layer, extra = per_layer(report, spans, snapshot)
        print_ledger(rows, layer, extra, report)
        with open(os.path.join(BUILD, "runs", f"ledger-{name}.json"), "w") as f:
            json.dump({"spans": rows, "per_layer": layer, "workload_figures": extra,
                       "end_to_end_traced": report["e2e"], "ops": ops}, f, indent=1)
        metrics = {k: {"value": layer[k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        metrics = {k: {"value": report["e2e"][k], "unit": unit} for k, unit in END_TO_END.items()}
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"correct": report["correct"], "attempted": ops["attempted"],
                      "failed": ops["busy"] + ops["error"], "metrics": metrics}))


if __name__ == "__main__":
    main()
