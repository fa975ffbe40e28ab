#!/usr/bin/env python3
"""Served-path benchmark for rankcubed.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ingest_mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds rankcubed and rcbench from source (Release, into .bench_build/),
then runs one workload (see perfbench/README.md):

  --trace 0  starts several fresh daemons in turn, each on a seed derived
             from --seed; times spawn to the end of its set-up (the
             forced engine builds); warms it up with seeded requests;
             drives each with closed-loop connections for its share of
             --seconds; checks answers; prints the end-to-end metrics.
  --trace 1  measures PING round trips on a live daemon, then replays the
             same seeded request streams in-process with spans on and
             prints the per-layer metrics.

The metric names and units come from BENCHMARK.json. The last line of
standard output is the result object; the line before it is the run's
provenance. Both are also saved under .bench_runs/results/.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_runs"
RCBENCH = BUILD_DIR / "rcbench"
RANKCUBED = BUILD_DIR / "rankcube" / "rankcubed"

# Daemon instances per end-to-end run, each on its own seed derived from
# --seed. The planner's page-cost feedback settles into a different routing
# state on each, so a run that saw only one would report that draw; set-up
# time is their median. ingest_mixed's routing state moves its write
# latency too, and its set-up is short, so it samples more of them; each
# still gets six seconds of a 30-second run, four times its compaction.
INSTANCES = {"dashboard_repeat": 4, "ingest_mixed": 5}
# Everything a run does must finish within 180 s.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


def run_quiet(cmd, deadline=None, **kw):
    """Runs a build step; its output goes to stderr only on failure."""
    timeout = deadline.left() if deadline else None
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=timeout, **kw)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-20000:])
        raise BenchError(f"{' '.join(map(str, cmd))} exited {p.returncode}")


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no rankcube sources in {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
               "--target", *targets])


def build_type():
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def git_describe():
    try:
        p = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable (not a git checkout)"


class Processes:
    """Every child the run starts; all are stopped and reaped on exit."""

    def __init__(self):
        self.procs = []

    def start(self, cmd, **kw):
        p = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, **kw)
        self.procs.append(p)
        return p

    def stop(self, p, sig=signal.SIGKILL, timeout=60.0):
        if p.poll() is None:
            p.send_signal(sig)
            try:
                p.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        for stream in (p.stdout, p.stderr):
            if stream:
                stream.close()

    def stop_all(self):
        for p in self.procs:
            self.stop(p)


def read_line(p, deadline, what):
    """The next stdout line of `p`, or BenchError when it exits first."""
    while True:
        ready, _, _ = select.select([p.stdout], [], [], min(deadline.left(), 5))
        if ready:
            line = p.stdout.readline()
            if not line:
                raise BenchError(f"{what} exited (code {p.wait()})")
            return line.rstrip("\n")
        if p.poll() is not None:
            raise BenchError(f"{what} exited (code {p.returncode})")


def finish(p, deadline, what):
    """Reads `p`'s remaining stdout to EOF and returns its last line. The
    buffered reader may already hold lines, so read through it rather than
    the raw pipe; a timer kills `p` if it outlives the deadline."""
    timer = threading.Timer(deadline.left(), p.kill)
    timer.start()
    try:
        out = p.stdout.read()
    finally:
        timer.cancel()
    if p.wait() != 0:
        raise BenchError(f"{what} exited {p.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed no report")
    return json.loads(lines[-1])


def rcbench(mode, args, seed, extra=()):
    return [RCBENCH, mode, f"--workload={args.workload}", f"--seed={seed}",
            *extra]


def start_daemon(procs, args, seed, data_dir, deadline, log_path):
    if data_dir.exists():
        shutil.rmtree(data_dir)
    flags = subprocess.run(
        [str(c) for c in rcbench("args", args, seed, [f"--data_dir={data_dir}"])],
        stdout=subprocess.PIPE, text=True, check=True,
        timeout=deadline.left()).stdout.splitlines()
    cmd = [str(RANKCUBED), *flags]
    t0 = time.monotonic()
    with open(log_path, "ab") as err:
        daemon = procs.start(cmd, stdout=subprocess.PIPE, stderr=err,
                             text=True)
    line = read_line(daemon, deadline, "rankcubed")
    if "listening on" not in line:
        raise BenchError(f"unexpected rankcubed output: {line}")
    port = int(line.rsplit(":", 1)[1])
    return daemon, port, t0, cmd


def client(procs, args, seed, mode, port, deadline, extra=()):
    """Runs rcbench against the daemon; returns (set-up end, report)."""
    p = procs.start(rcbench(mode, args, seed, [f"--port={port}", *extra]),
                    stdout=subprocess.PIPE, text=True)
    if read_line(p, deadline, "rcbench") != "setup":
        raise BenchError("rcbench did not finish its set-up")
    set_up = time.monotonic()
    return set_up, finish(p, deadline, f"rcbench {mode}")


def cpu_times():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for rankcubed")


def run_e2e(args, procs, run_dir, deadline, prov):
    """INSTANCES[workload] fresh daemons in turn, each on its own derived
    seed: set-up is their median and the timed phase is split across them,
    so one run samples the planner's routing state that many times."""
    count = INSTANCES[args.workload]
    instances = []
    samples = []
    for rep in range(count):
        seed = args.seed * count + rep
        daemon, port, t0, cmd = start_daemon(
            procs, args, seed, run_dir / "data", deadline,
            run_dir / "rankcubed.log")
        path = run_dir / f"samples{rep}.bin"
        set_up, report = client(procs, args, seed, "load", port, deadline,
                                [f"--seconds={args.seconds / count}",
                                 f"--samples={path}"])
        samples.append(str(path))
        report["setup_s"] = set_up - t0
        report["rss_mb"] = vm_hwm_mb(daemon.pid)
        report["seed"] = seed
        report["rankcubed_cmd"] = " ".join(cmd)
        procs.stop(daemon, signal.SIGTERM)
        instances.append(report)
        lazy = report["engines_built_after"] - report["engines_built_before"]
        if lazy:
            log(f"instance {rep}: {lazy} lazy engine build(s) landed inside "
                "the timed phase")
    pooled = subprocess.run(
        [str(RCBENCH), "pool", f"--samples={','.join(samples)}"],
        stdout=subprocess.PIPE, text=True, check=True,
        timeout=deadline.left()).stdout
    pooled = json.loads(pooled.strip().splitlines()[-1])
    read, write = pooled["read"], pooled["write"]

    attempted = sum(r["attempted"] for r in instances)
    failed = sum(r["failed"] for r in instances)
    prov.update({
        "connections": instances[0]["connections"],
        "read_samples": read["read_n"],
        "read_tail_pct": read["read_tail_pct"],
        "read_tail_blocks": read["read_tail_blocks"],
        "write_samples": write["write_n"],
        "write_tail_pct": write["write_tail_pct"],
        "write_tail_blocks": write["write_tail_blocks"],
        "write_source": instances[0]["write_source"],
        "instances": [{
            "seed": r["seed"],
            "query_seed": r["query_seed"],
            "rankcubed_cmd": r["rankcubed_cmd"],
            "setup_s": r["setup_s"],
            "rss_mb": r["rss_mb"],
            "goodput_qps": r["goodput_qps"],
            "read_p50_ms": r["read"]["read_p50_ms"],
            "read_tail_ms": r["read"]["read_tail_ms"],
            "write_p50_ms": r["write"]["write_p50_ms"],
            "write_tail_ms": r["write"]["write_tail_ms"],
            "routes": r["routes"],
            "explained_routes_after_timed": r["explained_routes"],
            "engines_built_in_setup": r["engines_built_setup"],
            "lazy_builds_in_settle":
                r["engines_built_before"] - r["engines_built_setup"],
            "lazy_builds_in_timed_phase":
                r["engines_built_after"] - r["engines_built_before"],
            "compactions": r["compactions"],
            "timed_requests": r["timed_attempted"],
            "rejected": r["rejected"],
            "errors": r["errors"],
            "transport_failures": r["transport"],
            "answers_checked": r["checked"],
            "answer_mismatches": r["mismatches"],
        } for r in instances],
    })
    metrics = {
        "goodput_qps": sum(r["timed_ok"] for r in instances) /
                       sum(r["elapsed_s"] for r in instances),
        "read_p50_ms": read["read_p50_ms"],
        "read_p99_ms": read["read_tail_ms"],
        "write_p50_ms": write["write_p50_ms"],
        "write_p99_ms": write["write_tail_ms"],
        "ok_frac": 1.0 - failed / attempted,
        "setup_s": statistics.median(r["setup_s"] for r in instances),
        "rss_mb": statistics.median(r["rss_mb"] for r in instances),
    }
    correct = all(r["mismatches"] == 0 and r["checked"] > 0
                  for r in instances)
    return correct, attempted, failed, metrics


def run_traced(args, procs, run_dir, deadline, prov):
    seed = args.seed * INSTANCES[args.workload]
    daemon, port, _, cmd = start_daemon(procs, args, seed, run_dir / "data",
                                        deadline, run_dir / "rankcubed.log")
    _, ping = client(procs, args, seed, "ping", port, deadline)
    procs.stop(daemon)
    spans = RUNS_DIR / "spans" / f"{args.workload}-seed{args.seed}.tsv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    p = procs.start(rcbench("trace", args, seed,
                            [f"--seconds={args.seconds}",
                             f"--work_dir={run_dir / 'replay'}",
                             f"--spans={spans}"]),
                    stdout=subprocess.PIPE, text=True)
    trace = finish(p, deadline, "rcbench trace")
    metrics = dict(trace["metrics"])
    metrics["server.ping_rtt_us"] = ping["ping_rtt_us"]
    prov.update({
        "seed": seed,
        "rankcubed_cmd": " ".join(cmd),
        "query_seed": trace["query_seed"],
        "connections": trace["connections"],
        "replayed_requests": trace["replayed"],
        "spans": trace["spans"],
        "spans_file": str(spans.relative_to(ROOT)),
        "traced_request_s": trace["traced_request_s"],
        "untraced_request_s": trace["untraced_request_s"],
        "answers_checked": trace["checked"],
        "answer_mismatches": trace["mismatches"],
    })
    correct = trace["mismatches"] == 0 and trace["checked"] > 0
    attempted = ping["attempted"] + trace["attempted"]
    failed = ping["failed"] + trace["failed"]
    return correct, attempted, failed, metrics


def selftest():
    build(["perfbench_test"])
    return subprocess.run([BUILD_DIR / "perfbench_test"]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in INSTANCES:
        ap.error(f"--workload must be one of {', '.join(INSTANCES)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build(["rcbench", "rankcubed"])
    deadline = Deadline(RUN_BUDGET_S)
    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    procs = Processes()
    prov = {
        "workload": args.workload,
        "git_describe": git_describe(),
        "build_type": build_type(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    steal0, total0 = cpu_times()
    try:
        run = run_traced if args.trace else run_e2e
        correct, attempted, failed, values = run(args, procs, run_dir,
                                                 deadline, prov)
    finally:
        procs.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)
    # Time the hypervisor gave to other guests: a noisy neighbour shows here.
    steal1, total1 = cpu_times()
    prov["cpu_steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
    if prov["build_type"] != "Release":
        prov["warning"] = "not a Release build; timings are not comparable"

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }
    results = RUNS_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"provenance": prov, "result": result}, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
