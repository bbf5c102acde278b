#!/usr/bin/env python3
"""HotStuff-1 simulator benchmark: builds the runner, measures, checks outputs.

One workload (the last stdout line is the JSON result):
    python3 bench/perf/run.py --workload lan_n32 --seed 1 --seconds 12 --trace 0
Every workload (prints a table, writes a results JSON):
    python3 bench/perf/run.py [--seed 1] [--seconds S] [--sets K] [--trace 1]
        [--smoke] [--out PATH] [--trace-json PATH]
Compare two results JSONs (exit 2 on digest drift or build-type mismatch,
1 on a regression, 0 otherwise):
    python3 bench/perf/run.py --compare BASE.json CAND.json

Workloads, metrics and bounds are declared in BENCHMARK.json at the
repository root; bench/perf/README.md explains each one.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / ".bench_build"
RUNNER = BUILD_DIR / "hs1perf"
SCHEMA = "hs1-perf-v1"

# A parallel-executor workload and the serial workload it must reproduce
# byte for byte; the serial twin also gives sim.par_speedup.
SERIAL_TWIN = {"votes_n128_sj4": "votes_n128"}
MIN_CYCLES = 3
POINT_TIMEOUT_S = 150

# Interference from other tenants of a shared host only ever slows a point
# down, in bursts of seconds that can cover half a run and move its median
# by 20-30%, while the run's fastest point moves by a few percent. So wall_s
# and events_per_s report the run's best point; every other metric reports
# its median (README.md, "Why best point").
BEST_OF = {"wall_s": min, "events_per_s": max}


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


# --- Build ---------------------------------------------------------------------


def build():
    """Builds the runner into BUILD_DIR and returns the CMake build type."""
    if not (ROOT / "src" / "runtime" / "experiment.h").is_file():
        sys.exit(f"run.py: no simulator sources under {ROOT}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "perf"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "hs1perf"])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return cmake_build_type()


def cmake_build_type():
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


# --- Points ------------------------------------------------------------------


def run_point(workload, seed, traced, smoke):
    """Runs one runner process; returns its JSON plus exit code and peak RSS."""
    cmd = [str(RUNNER), f"--workload={workload}", f"--seed={seed}"]
    if traced:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    killer = threading.Timer(POINT_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    point = {}
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            point = json.loads(lines[-1])
        except json.JSONDecodeError:
            point = {}
    point["exit"] = proc.returncode
    point["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    point["started"] = started
    return point


def point_failures(point, reference_digest):
    """Names every check the point fails."""
    if point["exit"] != 0:
        return [f"runner exited with {point['exit']}"]
    if "digest" not in point:
        return ["runner printed no result"]
    failed = []
    checks = point["checks"]
    if not checks["safety_ok"]:
        failed.append("committed prefixes disagree")
    if checks["event_cap_hit"]:
        failed.append("event cap hit")
    if checks["oracle_violations"]:
        failed.append(f"{checks['oracle_violations']} safety-oracle violations")
    if checks["liveness_violations"]:
        failed.append(f"{checks['liveness_violations']} liveness-oracle violations")
    for name in ("quantiles_match", "crypto_replay_ok", "ledger_replay_ok"):
        if checks.get(name) is False:
            failed.append(f"{name} is false")
    if point["digest"]["accepted"] == 0:
        failed.append("no transaction accepted")
    if reference_digest is not None and point["digest"] != reference_digest:
        failed.append("digest differs from the reference run")
    return failed


def measure(workload, seed, seconds, trace, smoke):
    """Runs one workload for `seconds` and returns its points by kind.

    A warm-up point (of the serial twin, for a parallel workload) is run
    first and discarded from the timings; its digest is the reference every
    later point must reproduce. With tracing, untraced, traced and (for a
    parallel workload) serial points alternate, so the traced and serial
    numbers come from the same stretch of time as the untraced ones.
    """
    twin = SERIAL_TWIN.get(workload, workload)
    cycle = [("plain", workload, False)]
    if trace:
        cycle.append(("traced", workload, True))
        if twin != workload:
            cycle.append(("serial", twin, False))
    points = {"warmup": [], "plain": [], "traced": [], "serial": []}
    failures = []

    def record(kind, point):
        bad = point_failures(point, reference)
        if bad:
            failures.append(bad)
            for what in bad:
                print(f"run.py: FAIL workload={workload} seed={seed} "
                      f"({kind} point): {what}", file=sys.stderr)
        points[kind].append(point)

    reference = None
    warmup = run_point(twin, seed, False, smoke)
    record("warmup", warmup)
    reference = warmup.get("digest")

    start = time.monotonic()
    cycles = 0
    while True:
        for kind, name, traced in cycle:
            record(kind, run_point(name, seed, traced, smoke))
        cycles += 1
        elapsed = time.monotonic() - start
        if smoke or (cycles >= MIN_CYCLES and
                     elapsed * (cycles + 1) / cycles > seconds):
            break
    attempted = sum(len(v) for v in points.values())
    return {"points": points, "attempted": attempted, "failed": len(failures),
            "digest": reference}


# --- Metrics -------------------------------------------------------------------


def ratio(num, den):
    return num / den if den else 0.0


def ok_points(points):
    return [p for p in points if "digest" in p]


def end_to_end_samples(run):
    samples = {"wall_s": [], "events_per_s": [], "setup_s": [], "peak_rss_mb": []}
    for p in ok_points(run["points"]["plain"]):
        wall = p["times"]["wall_s"]
        samples["wall_s"].append(wall)
        samples["events_per_s"].append(ratio(p["digest"]["events"], wall))
        samples["setup_s"].append(p["times"]["setup_s"])
        samples["peak_rss_mb"].append(p["peak_rss_mb"])
    return samples


def layer_samples(run):
    points = run["points"]
    plain = [p["times"]["wall_s"] for p in ok_points(points["plain"])]
    serial = [p["times"]["wall_s"] for p in ok_points(points["serial"])]
    traced = ok_points(points["traced"])
    samples = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    for p in traced:
        t, d, c, lay = p["times"], p["digest"], p["counts"], p["layers"]
        add("runtime.run_s", t["run_s"])
        add("runtime.teardown_s", t["teardown_s"])
        add("runtime.unattributed_s",
            t["wall_s"] - t["setup_s"] - t["teardown_s"] -
            lay["crypto_replay_s"] - lay["ledger_replay_s"])
        add("sim.events", d["events"])
        add("sim.messages", d["messages"])
        add("sim.bytes_per_txn", ratio(d["bytes"], d["committed_txns"]))
        add("crypto.replay_s", lay["crypto_replay_s"])
        add("crypto.cert_verify_us", lay["cert_verify_us"])
        add("crypto.sign_ns", lay["sign_ns"])
        add("consensus.views", d["views"])
        add("consensus.timeouts", c["timeouts"])
        add("consensus.votes", c["votes"])
        add("consensus.commit_ratio",
            ratio(c["blocks_committed"], c["blocks_proposed"]))
        add("ledger.replay_s", lay["ledger_replay_s"])
        add("ledger.undo_ns", lay["undo_ns"])
        add("ledger.state_keys", c["state_keys"])
        add("ledger.blocks_stored", c["blocks_stored"])
        add("ledger.rollbacks", d["rollbacks"])
        add("client.quantile_ms", t["collect_s"] * 1e3)
        add("client.spec_ratio", ratio(c["accepted_speculative"], d["accepted"]))
        add("client.retry_ratio", ratio(d["resubmissions"], d["accepted"]))
        add("client.backlog", d["backlog"])
        add("workload.gen_ns", lay["gen_ns"])
    if traced and plain:
        # Best points on both sides, for the reason given at BEST_OF.
        untraced_wall = min(plain)
        samples["trace.overhead_pct"] = [100.0 * (
            min(p["times"]["wall_s"] for p in traced) / untraced_wall - 1.0)]
        # 1 on a serial workload: its executor is the serial one.
        samples["sim.par_speedup"] = [
            min(serial) / untraced_wall if serial else 1.0]
    return samples


def summarize(name, values, unit):
    """Quartiles of the samples, and `value`: the number a run reports."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0] if values else 0.0
    best = BEST_OF.get(name)
    value = best(values) if best and values else median
    return {"unit": unit, "value": value, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def summaries(samples, specs):
    return {m["name"]: summarize(m["name"], samples.get(m["name"], []), m["unit"])
            for m in specs}


def print_table(workload, table):
    for name, s in table.items():
        print(f"{workload:<15} {name:<24} {s['unit']:<6} value={s['value']:.6g} "
              f"median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
              f"n={s['n']}")


def result_line(correct, attempted, failed, table):
    metrics = {name: {"value": s["value"], "unit": s["unit"]}
               for name, s in table.items()}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


# --- Chrome trace ------------------------------------------------------------


def chrome_trace(traced_runs, origin):
    """Chrome trace-event JSON for the traced points: one process per
    workload, one thread per point. Open it in https://ui.perfetto.dev."""
    events = []
    for pid, (workload, run) in enumerate(traced_runs, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": workload}})
        for tid, p in enumerate(ok_points(run["points"]["traced"]), start=1):
            base_us = (p["started"] - origin) * 1e6
            for s in p["spans"]:
                events.append({"name": s["name"], "ph": "X", "pid": pid,
                               "tid": tid, "ts": base_us + s["ts_us"],
                               "dur": s["dur_us"],
                               "args": {"parent": s["parent"],
                                        "seed": p["seed"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path, doc):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


# --- Modes -------------------------------------------------------------------


def run_one(args, bench):
    build()
    origin = time.monotonic()
    run = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    if args.trace:
        table = summaries(layer_samples(run), bench["per_layer"])
        write_json(args.trace_json or BUILD_DIR / f"trace-{args.workload}.json",
                   chrome_trace([(args.workload, run)], origin))
    else:
        table = summaries(end_to_end_samples(run), bench["end_to_end"])
    print_table(args.workload, table)
    print(result_line(run["failed"] == 0, run["attempted"], run["failed"], table))
    return 0


def host_facts(build_type):
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = subprocess.run(["c++", "--version"], capture_output=True,
                              text=True).stdout.splitlines()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": compiler[0] if compiler else "unknown",
            "build_type": build_type}


def run_suite(args, bench):
    build_type = build()
    workloads = [w["name"] for w in bench["workloads"]]
    origin = time.monotonic()
    doc = {"schema": SCHEMA, "claim": None, "host": host_facts(build_type),
           "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
           "sets": [], "traced": None}
    failed = 0

    def entry(run, table):
        return {"attempted": run["attempted"], "failed": run["failed"],
                "digest": run["digest"], "metrics": table}

    for _ in range(args.sets):
        current = {}
        for w in workloads:
            run = measure(w, args.seed, args.seconds, False, args.smoke)
            table = summaries(end_to_end_samples(run), bench["end_to_end"])
            print_table(w, table)
            current[w] = entry(run, table)
            failed += run["failed"]
        doc["sets"].append(current)
    if args.trace or args.smoke:  # smoke runs every check, traced ones too
        traced_runs = []
        doc["traced"] = {}
        for w in workloads:
            run = measure(w, args.seed, args.seconds, True, args.smoke)
            table = summaries(layer_samples(run), bench["per_layer"])
            print_table(w, table)
            doc["traced"][w] = entry(run, table)
            traced_runs.append((w, run))
            failed += run["failed"]
        if args.trace_json:
            write_json(args.trace_json, chrome_trace(traced_runs, origin))
    out = args.out or BUILD_DIR / "perf-results.json"
    write_json(out, doc)
    print(f"run.py: wrote {out}; {failed} failed point(s)")
    return 1 if failed else 0


def compare(base, cand, bench):
    """Verdict per (end-to-end metric, workload) and the exit code."""
    errors = []
    if base["host"]["build_type"] != cand["host"]["build_type"]:
        errors.append(f"build type {base['host']['build_type']!r} vs "
                      f"{cand['host']['build_type']!r}")
    base_set, cand_set = base["sets"][0], cand["sets"][0]
    if list(base_set) != list(cand_set):
        errors.append(f"workloads {list(base_set)} vs {list(cand_set)}")
    for w in base_set:
        if w in cand_set and base_set[w]["digest"] != cand_set[w]["digest"]:
            errors.append(f"{w}: digest drift (behaviour changed, not speed)")

    def pooled(doc, w, name):
        values = [v for s in doc["sets"] for v in s[w]["metrics"][name]["values"]]
        return summarize(name, values, "")

    verdicts = []
    for w in base_set:
        if w not in cand_set:
            continue
        for m in bench["end_to_end"]:
            b, c = pooled(base, w, m["name"]), pooled(cand, w, m["name"])
            spread_b = ratio(b["q3"] - b["q1"], b["median"])
            spread_c = ratio(c["q3"] - c["q1"], c["median"])
            change = ratio(c["value"] - b["value"], b["value"])
            worse = change > 0 if m["better"] == "lower" else change < 0
            if max(spread_b, spread_c) > m["bound"]:
                verdict = "unresolved"
            elif worse and abs(change) > m["bound"]:
                verdict = "regressed"
            elif not worse and abs(change) > max(spread_b, spread_c):
                verdict = "improved"
            else:
                verdict = "unchanged"
            verdicts.append((w, m["name"], b["value"], c["value"], change,
                             verdict))
    if errors:
        code = 2
    elif any(v[-1] == "regressed" for v in verdicts):
        code = 1
    else:
        code = 0
    return verdicts, errors, code


def run_compare(paths, bench):
    docs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != SCHEMA:
            sys.exit(f"run.py: {path}: schema {doc.get('schema')!r} != {SCHEMA!r}")
        docs.append(doc)
    verdicts, errors, code = compare(docs[0], docs[1], bench)
    for w, name, b, c, change, verdict in verdicts:
        print(f"{w:<15} {name:<13} base={b:<12.6g} cand={c:<12.6g} "
              f"{change:+8.2%}  {verdict}")
    for e in errors:
        print(f"run.py: compare error: {e}", file=sys.stderr)
    return code


def parse_args(argv, bench):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-json", help="write the traced points' spans here")
    ap.add_argument("--smoke", action="store_true",
                    help="a tenth of the virtual time, one point per workload")
    ap.add_argument("--sets", type=int, default=1,
                    help="untraced passes over every workload (suite mode)")
    ap.add_argument("--out", help="results JSON (suite mode)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "CAND"))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.sets < 1:
        ap.error("--seed must be >= 0, --seconds and --sets >= 1")
    return args


def main(argv=None):
    bench = load_benchmark()
    args = parse_args(argv, bench)
    if args.compare:
        return run_compare(args.compare, bench)
    if args.workload:
        return run_one(args, bench)
    return run_suite(args, bench)


if __name__ == "__main__":
    sys.exit(main())
