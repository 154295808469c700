#!/usr/bin/env python3
"""End-to-end recovery benchmark.

One workload, as BENCHMARK.json's command runs it (the last line of stdout
is the JSON result):

    python3 bench/e2e/run.py --workload rack_1m_car --seed 7 --seconds 25 --trace 0

Every workload, each in its own processes, with a table of medians and
quartiles and a results file for compare.py:

    python3 bench/e2e/run.py --seed 7 [--out results.json]
    python3 bench/e2e/run.py --seed 7 --trace      # per-layer run + traces
    python3 bench/e2e/run.py --smoke               # 1/100 scale, 2 reps

A workload runs as a closed loop of repetitions ("reps"), one recovery at a
time, each rep in a fresh car_bench process; the first rep is a discarded
warm-up, and reps continue until --seconds have elapsed.  The first call
builds car_bench (car_bench.cc against this checkout's src/) into
.bench_build/e2e.  README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "car_bench"
MIB = float(1 << 20)
GIB = float(1 << 30)

# End-to-end metrics that come from the virtual clock: a given seed
# reproduces them bit for bit, and so must every host-only change.
MODELLED = ("makespan_s", "cross_rack_gib", "lambda", "max_exposure_s")
# The top-level recovery spans of a one-shot rep, for the coverage check.
TOP_SPANS = ("census", "solve", "lower.reserve", "replay")
# The paper's headline savings of CAR over RR (Figs. 7 and 9).
PAPER_TRAFFIC_SAVING = 0.669
PAPER_TIME_SAVING = 0.597
# Reps per run at least, and at most this much wall time for the reps, so a
# run stays bounded (well under 3 minutes) even on a slow host.
MIN_REPS = 3
MAX_REPS_S = 120.0


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_quiet(cmd, timeout):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        log(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def build():
    """Configure once, then (re)build car_bench; a no-op build is fast."""
    if not (BUILD / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "car_bench",
               "-j", jobs], timeout=840)


def car_bench(workload, seed, *flags):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError("car_bench exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


def run_reps(workload, seed, seconds, trace, smoke):
    """Warm-up, then reps until `seconds` have elapsed.  A traced run
    alternates untraced and traced reps, so the tracing overhead is
    measured in the same run."""
    scale = ["--smoke"] if smoke else []
    warmup = car_bench(workload, seed, *scale)
    reps = []
    min_reps = 2 if smoke else (2 * MIN_REPS if trace else MIN_REPS)
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(car_bench(workload, seed, *scale,
                              *(["--trace"] if traced else [])))
        elapsed = time.monotonic() - start
        if smoke and len(reps) >= min_reps:
            break
        if (elapsed >= seconds and len(reps) >= min_reps) \
                or elapsed >= MAX_REPS_S:
            break
    return warmup, reps, time.monotonic() - start


# ---------------------------------------------------------------------------
# Host fingerprint.

def host_fingerprint(build_info):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    host = dict(cpu=cpu, nproc=nproc, git_commit=commit, warnings=[],
                **build_info)
    if nproc < 4:
        host["warnings"].append(
            "nproc=%d < 4: a workload runs up to 4 busy threads, so host "
            "times are not comparable with a 4-core run" % nproc)
    return host


# ---------------------------------------------------------------------------
# Turning reps into metrics.

def stats(values):
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def e2e_samples(docs):
    reps = [d["rep"] for d in docs]
    return {
        "recover_s": [r["recover_s"] for r in reps],
        "setup_s": [r["placement_s"] + r["populate_s"] for r in reps],
        "peak_rss_mib": [d["peak_rss_bytes"] / MIB for d in docs],
        "makespan_s": [r["makespan_s"] for r in reps],
        "cross_rack_gib": [r["cross_rack_bytes"] / GIB for r in reps],
        "lambda": [r["lambda"] for r in reps],
        "max_exposure_s": [r["max_exposure_s"] for r in reps],
    }


def check(warmup, reps):
    """Correctness of every rep: (problems, attempted, failed)."""
    problems = []
    attempted = 0
    failed = 0
    first = warmup["rep"]
    if first["threw"]:
        problems.append("warm-up rep threw: " + first["error"])
    for i, doc in enumerate(reps, start=1):
        rep = doc["rep"]
        lost = first["lost_chunks"] if rep["threw"] else rep["lost_chunks"]
        attempted += lost
        if rep["threw"]:
            failed += lost
            problems.append("rep %d threw: %s" % (i, rep["error"]))
            continue
        missing = rep["lost_chunks"] - rep["rebuilt_chunks"]
        mismatched = rep["checked_chunks"] - rep["matching_chunks"]
        failed += missing + mismatched
        if rep["lost_chunks"] == 0:
            problems.append("rep %d lost no chunks" % i)
        if missing:
            problems.append("rep %d: %d lost chunks never rebuilt"
                            % (i, missing))
        if mismatched:
            problems.append("rep %d: %d recovered chunks differ from the "
                            "originals" % (i, mismatched))
        if rep["checked_chunks"] == 0:
            problems.append("rep %d byte-checked no chunk" % i)
        if not rep["traffic_claim_ok"]:
            problems.append("rep %d: emulated cross-rack bytes differ from "
                            "the planner's claim" % i)
    good = [d["rep"] for d in [warmup] + reps if not d["rep"]["threw"]]
    for key in ("makespan_s", "cross_rack_bytes", "lambda",
                "max_exposure_s", "counts"):
        if len({json.dumps(r[key], sort_keys=True) for r in good}) > 1:
            problems.append("%s differs between reps of one seed" % key)
    return problems, attempted, failed


def layer_metrics(untraced, traced, micro):
    """Per-layer values of a traced run: medians over its traced reps, the
    exact counts, and the microbenchmarks."""
    def med(values):
        return statistics.median(values) if values else 0.0

    def layer(key):
        return med([d["rep"]["layers"].get(key, 0.0) for d in traced])

    def per(total_s, n):
        return total_s / n * 1e9 if n else 0.0

    counts = traced[0]["rep"]["counts"]
    census_s = layer("census.s")
    solve_s = layer("solve.s")
    reserve_s = layer("lower.reserve_s")
    append_s = layer("lower.append_s")
    replay_s = layer("replay.s")
    payload_s = med([d["rep"]["layers"].get("payload.real_replay_s", 0.0)
                     - d["rep"]["layers"].get("payload.meta_replay_s", 0.0)
                     for d in traced])
    lookups = counts["template.hits"] + counts["template.misses"]
    replay_ns = per(replay_s, counts["replay.events"])
    model_ns = micro["calendar.ns_per_event"] + micro["link.ns_per_reserve"]
    return {
        "setup.placement_s": med([d["rep"]["placement_s"] for d in traced]),
        "setup.populate_s": med([d["rep"]["populate_s"] for d in traced]),
        "census.s": census_s,
        "census.ns_per_stripe": per(census_s, counts["census.stripe_scans"]),
        "census.affected": counts["census.affected"],
        "solve.s": solve_s,
        "solve.ns_per_affected": per(solve_s, counts["solve.planned_stripes"]),
        "solve.substitutions": counts["solve.substitutions"],
        "lower.reserve_s": reserve_s,
        "lower.append_s": append_s,
        "lower.ns_per_step": per(reserve_s + append_s, counts["lower.steps"]),
        "lower.first_publish_s": layer("lower.first_publish_s"),
        "lower.publishes": int(layer("lower.publishes")),
        "template.hits": counts["template.hits"],
        "template.misses": counts["template.misses"],
        "template.hit_ratio": counts["template.hits"] / lookups
        if lookups else 0.0,
        "replay.s": replay_s,
        "replay.tail_s": layer("replay.tail_s"),
        "replay.events": counts["replay.events"],
        "replay.ns_per_event": replay_ns,
        "payload.est_s": payload_s,
        "payload.gbps": layer("payload.bytes") / payload_s / 1e9
        if payload_s > 0 else 0.0,
        "rebuild.batches": counts["rebuild.batches"],
        "rebuild.cancelled": counts["rebuild.cancelled"],
        "rebuild.requeued": counts["rebuild.requeued"],
        "rebuild.useful_ratio": counts["rebuild.completed"]
        / counts["rebuild.batches"],
        "rebuild.transfer_attempts": counts["rebuild.transfer_attempts"],
        "verify.s": med([d["rep"]["verify_s"] for d in traced]),
        "verify.chunks": counts["verify.chunks"],
        "gf.mul_acc_gbps": micro["gf.mul_acc_gbps"],
        "calendar.ns_per_event": micro["calendar.ns_per_event"],
        "link.ns_per_reserve": micro["link.ns_per_reserve"],
        "spsc.ns_per_item": micro["spsc.ns_per_item"],
        "replay.model_ratio": replay_ns / model_ns if model_ns else 0.0,
        "trace.overhead_frac":
            med([d["rep"]["recover_s"] for d in traced])
            / med([d["rep"]["recover_s"] for d in untraced]) - 1.0,
    }


# ---------------------------------------------------------------------------
# Spans: Chrome trace-event files, self time, coverage.

def union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def span_analysis(traced):
    """Median self time (span minus the part its children cover) per span
    name, and the share of each one-shot recovery its top-level spans
    cover."""
    self_times = {}
    coverage = []
    for doc in traced:
        spans = doc["spans"]
        children = {}
        for s in spans:
            children.setdefault(int(s["parent"]), []).append(s)
        for i, s in enumerate(spans):
            kids = children.get(i, [])
            lo, hi = s["start_s"], s["end_s"]
            busy = union_length([(k["start_s"], k["end_s"]) for k in kids],
                                lo, hi)
            self_times.setdefault(s["name"], []).append(hi - lo - busy)
            top = [(k["start_s"], k["end_s"]) for k in kids
                   if k["name"] in TOP_SPANS]
            if s["name"] == "recover" and top and hi > lo:
                coverage.append(union_length(top, lo, hi) / (hi - lo))
    return ({name: statistics.median(v) for name, v in self_times.items()},
            coverage)


def write_trace(workload, seed, traced, path):
    """One Chrome trace-event file per workload; each traced rep is its own
    process track (it ran in its own process)."""
    events = []
    for rep, doc in enumerate(traced, start=1):
        events.append({"ph": "M", "name": "process_name", "pid": rep,
                       "args": {"name": "%s rep %d" % (workload, rep)}})
        for tid, name in ((0, "main"), (1, "plan producer")):
            events.append({"ph": "M", "name": "thread_name", "pid": rep,
                           "tid": tid, "args": {"name": name}})
        spans = doc["spans"]
        for s in spans:
            parent = int(s["parent"])
            events.append({
                "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
                "pid": rep, "tid": s["tid"], "ts": s["start_s"] * 1e6,
                "dur": (s["end_s"] - s["start_s"]) * 1e6,
                "args": {"parent": spans[parent]["name"]
                         if parent >= 0 else None},
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms",
                                "otherData": {"workload": workload,
                                              "seed": seed}}))


# ---------------------------------------------------------------------------

def measure(spec, workload, seed, seconds, trace, smoke):
    """Run one workload and summarise it."""
    warmup, reps, reps_s = run_reps(workload, seed, seconds, trace, smoke)
    problems, attempted, failed = check(warmup, reps)
    good = [d for d in reps if not d["rep"]["threw"]]
    untraced = [d for d in good if not d["trace"]]
    traced = [d for d in good if d["trace"]]
    result = {"workload": workload, "seed": seed,
              "host": host_fingerprint(warmup["build"]),
              "inputs": warmup["inputs"], "problems": problems,
              "attempted": attempted, "failed": failed, "reps": len(reps),
              "reps_s": reps_s}
    if not untraced:
        problems.append("no untraced rep completed")
    if trace and not traced:
        problems.append("no traced rep completed")
    result["correct"] = not problems and failed == 0
    if not result["correct"]:
        return result
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    result["e2e"] = {}
    for name, values in e2e_samples(untraced).items():
        entry = stats(values)
        entry.update(unit=bounds[name]["unit"], better=bounds[name]["better"],
                     bound=bounds[name]["bound"], exact=name in MODELLED)
        result["e2e"][name] = entry
    result["counts"] = untraced[0]["rep"]["counts"]
    if trace:
        micro = car_bench(workload, seed, "--micro",
                          *(["--smoke"] if smoke else []))
        result["layers"] = layer_metrics(untraced, traced, micro["micro"])
        result["self_s"], result["coverage"] = span_analysis(traced)
        result["micro"] = micro["micro"]
        if "rr_baseline" in micro:
            rr = micro["rr_baseline"]
            car = untraced[0]["rep"]
            result["fidelity"] = {
                "traffic_saving": 1 - car["cross_rack_bytes"]
                / rr["cross_rack_bytes"],
                "time_saving": 1 - car["makespan_s"] / rr["makespan_s"]}
        path = BUILD / "traces" / ("%s.trace.json" % workload)
        write_trace(workload, seed, traced, path)
        result["trace_file"] = str(path)
    return result


def result_line(spec, result, trace):
    """The last stdout line: every e2e metric, or with --trace 1 every
    per-layer metric, by name with its unit."""
    if trace:
        wanted = spec["per_layer"]
        values = result.get("layers", {})
    else:
        wanted = spec["end_to_end"]
        values = {k: v["median"] for k, v in result.get("e2e", {}).items()}
    correct = result["correct"] and all(m["name"] in values for m in wanted)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    return json.dumps({"correct": correct,
                       "attempted": max(1, result["attempted"]),
                       "failed": result["failed"], "metrics": metrics})


def print_summary(result, trace):
    inputs = result["inputs"]
    print("== %s  seed %d  %d stripes, %d nodes, RS(%d,%d), %s  "
          "(%d reps in %.1f s)" % (
              result["workload"], result["seed"], inputs["stripes"],
              inputs["nodes"], inputs["k"], inputs["m"], inputs["strategy"],
              result["reps"], result["reps_s"]))
    for problem in result["problems"]:
        print("   FAIL " + problem)
    for name, e in result.get("e2e", {}).items():
        print("   %-16s %-6s median %-14.6g q1 %-14.6g q3 %-14.6g n %d"
              % (name, e["unit"], e["median"], e["q1"], e["q3"], e["n"]))
    if not (trace and "layers" in result):
        return
    for name, value in result["layers"].items():
        print("   layer %-26s %.6g" % (name, value))
    for name, value in sorted(result["self_s"].items()):
        print("   self  %-26s %.6f s" % (name, value))
    if result["coverage"]:
        print("   top-level spans cover %.1f%% .. %.1f%% of each traced "
              "recovery" % (100 * min(result["coverage"]),
                            100 * max(result["coverage"])))
    fidelity = result.get("fidelity")
    if fidelity:
        print("   paper fidelity: CAR vs RR saves %.1f%% cross-rack traffic "
              "(paper %.1f%%) and %.1f%% recovery time (paper %.1f%%)" % (
                  100 * fidelity["traffic_saving"],
                  100 * PAPER_TRAFFIC_SAVING,
                  100 * fidelity["time_saving"], 100 * PAPER_TIME_SAVING))
    print("   trace written to " + result["trace_file"])


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload and print the JSON result line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="1/100 of the stripes, 2 reps per workload")
    parser.add_argument("--out", type=Path,
                        help="results file (all-workload mode); default "
                             ".bench_build/e2e/results-seed<N>.json")
    args = parser.parse_args()

    try:
        build()
        results = []
        for workload in [args.workload] if args.workload else names:
            result = measure(spec, workload, args.seed, args.seconds,
                             args.trace, args.smoke)
            results.append(result)
            print_summary(result, args.trace)
            for warning in result["host"]["warnings"]:
                log("warning: " + warning)
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log("run.py: %s" % e)
        return 1

    if args.workload:
        print(result_line(spec, results[0], args.trace))
        return 0 if results[0]["correct"] else 1
    out = args.out or BUILD / ("results-seed%d%s%s.json" % (
        args.seed, "-smoke" if args.smoke else "",
        "-trace" if args.trace else ""))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "trace": bool(args.trace),
                               "smoke": args.smoke,
                               "host": results[0]["host"],
                               "workloads": {r["workload"]: r
                                             for r in results}}, indent=1))
    print("results written to %s" % out)
    ok = all(r["correct"] for r in results)
    if args.smoke:
        print("smoke %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
