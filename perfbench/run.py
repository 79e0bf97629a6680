#!/usr/bin/env python3
"""Benchmark of the NoC simulation path (see perfbench/README.md).

Builds noc_bench and bench_noc_loadsweep from the checkout that holds this
file, runs one workload, checks its results and prints every metric by
name with its unit.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload mesh8_uniform --seed 1 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the span trace under .bench_build/traces/).  The exit code is
nonzero when a correctness check fails.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
import tty

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")

IN_PROCESS = ("mesh8_uniform", "mesh8_qos_vc4", "torus8_faults_reliable")
WORKLOADS = IN_PROCESS + ("loadsweep_cli",)
DEFAULT_SEED = 1

END_TO_END = {
    "sim_cycles_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pkt_latency_p50_cycles": "cycles",
    "pkt_latency_p99_cycles": "cycles",
    "ctrl_latency_p99_cycles": "cycles",
    "accepted_flits_per_node_cycle": "flit/node/cycle",
    "completion_cycles": "cycles",
}

PER_LAYER = {
    "sim.settle_us_per_cycle": "us",
    "sim.edge_us_per_cycle": "us",
    "sim.step_us_p50": "us",
    "sim.step_us_p99": "us",
    "sim.step_samples": "count",
    "sim.thunks": "count",
    "sim.ops": "count",
    "sim.evals_per_cycle": "count",
    "sim.segments": "count",
    "sim.iterate_segments": "count",
    "sim.edge_items": "count",
    "sim.arena_words": "count",
    "sim.program_build_s": "s",
    "noc.build_s": "s",
    "router.units_per_cycle": "count",
    "link.units_per_cycle": "count",
    "ni.units_per_cycle": "count",
    "noc.inflight_mean": "packets",
    "noc.send_queue_flits_max": "flits",
    "noc.link_util_mean": "ratio",
    "noc.link_util_max": "ratio",
    "noc.drain_s": "s",
    "noc.drain_cycles": "cycles",
    "reliable.retransmissions": "count",
    "reliable.timeouts": "count",
    "reliable.duplicates_dropped": "count",
    "reliable.useful_frame_ratio": "ratio",
    "router.flits_corrupted": "count",
    "router.flits_dropped": "count",
    "router.fault_stall_cycles": "cycles",
    "bench.measure_self_us_per_cycle": "us",
    "trace.overhead_ratio": "ratio",
}

# CLI runs per second of --seconds (at least CLI_MIN_RUNS).  The count is
# fixed, not time-bounded, so a faster CLI does not take its per-line
# floors over more runs; one run takes about 4.7 s on a quiet 4-core Xeon
# VM.  Past twice --seconds (a heavily loaded host), no run starts once
# CLI_MIN_RUNS are in.
CLI_RUNS_PER_SECOND = 0.25
CLI_MIN_RUNS = 3
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- arguments

def _whole(lo, hi):
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text):
            raise argparse.ArgumentTypeError(f"'{text}' is not a whole number")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {hi}]")
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="NoC simulator benchmark (perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=_whole(0, 2**32 - 1), default=DEFAULT_SEED)
    p.add_argument("--seconds", type=_whole(1, 60), default=15)
    p.add_argument("--trace", type=_whole(0, 1), default=0)
    p.add_argument("--golden-dir", default=os.path.join(HERE, "golden"),
                   help="reference results (default: perfbench/golden)")
    return p.parse_args(argv)


# ------------------------------------------------------------------- build

def build():
    for needed in ("src/CMakeLists.txt", "bench/CMakeLists.txt",
                   "bench/bench_noc_loadsweep.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} is missing: run from a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake is not on PATH")
    build_dir = os.path.join(BUILD_ROOT, "build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "noc_bench",
                  "bench_noc_loadsweep", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stdin=subprocess.DEVNULL,
                          cwd=ROOT).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(build_dir, "noc_bench"),
            os.path.join(build_dir, "rasoc_bench", "bench_noc_loadsweep"))


# ------------------------------------------------------------------- stamp

def src_stamp():
    """Line count of src/ without tests, and a digest of its contents."""
    digest = hashlib.sha256()
    lines = 0
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, ROOT)
            with open(path, "rb") as f:
                data = f.read()
            digest.update(rel.encode() + b"\0" + data)
            if "test" not in rel and name.endswith((".cpp", ".hpp", ".h", ".cc")):
                lines += data.count(b"\n")
    return lines, digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def stamp(noc_bench_out):
    lines, tree = src_stamp()
    return {
        "git_sha": git_sha(),
        "src_sha256": tree,
        "src_lines": lines,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "compiler": noc_bench_out.get("compiler", "unknown"),
        "build_type": noc_bench_out.get("build_type", "unknown"),
        "assertions": noc_bench_out.get("assertions", True),
    }


# --------------------------------------------------------------- in-process

def run_noc_bench(binary, args):
    r = subprocess.run([binary] + args, capture_output=True, text=True,
                       stdin=subprocess.DEVNULL, cwd=ROOT,
                       timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    if r.returncode != 0 or not r.stdout.strip():
        raise BenchError(f"noc_bench {' '.join(args)} exited {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def load_golden(golden_dir, name):
    with open(os.path.join(golden_dir, name), encoding="utf-8") as f:
        return f.read()


def trace_out(name):
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    return ["--trace-out", os.path.join(trace_dir, name + ".json")]


def in_process(args, noc_bench):
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += trace_out(f"{args.workload}-seed{args.seed}")
    out = run_noc_bench(noc_bench, cmd)
    problems = []
    if not out["ok"]:
        problems.append(f"invariant check failed: {out['checks']}, "
                        f"deterministic={out['deterministic']}")
    if args.seed == DEFAULT_SEED:
        golden = json.loads(load_golden(args.golden_dir,
                                        args.workload + ".json"))["sub_digests"]
        # A traced run replays only the first sub-seed.
        got = out["sub_digests"]
        if got != golden[:len(got)]:
            problems.append(f"digest {got} differs from golden {golden}")
    info = [f"digest {out['digest']} over {len(out['sub_digests'])} "
            f"sub-seed(s), {out['reps']} repetitions "
            f"({out['timing_reps']:.0f} of {out['timing_reps_wanted']:.0f} timed, "
            f"{out['setup_groups']:.0f} set-up groups)",
            f"latency samples: {out['pkt_latency_samples']:.0f} packets, "
            f"{out['ctrl_latency_samples']:.0f} top-class packets",
            "medians over timed repetitions (not the reported floors): "
            + ", ".join(f"{k}={v:.6g}" for k, v in out["medians"].items())]
    metrics = out["per_layer"] if args.trace else out["metrics"]
    return out, problems, int(out["attempted"]), int(out["failed"]), metrics, info


# ---------------------------------------------------------------- CLI sweep

def mask_stdout(text):
    text = re.sub(r"(cycles, )\S+( kernel\))", r"\1<kernel>\2", text)
    return re.sub(r"(RunReport JSON written to ).*", r"\1<path>", text)


def mask_report(text):
    return re.sub(r'("kernel": )"[^"]*"', r'\1"<kernel>"', text)


def run_cli_once(cli, report_path):
    """Runs the CLI with stdout on a pseudo-terminal, so it is line
    buffered and each line's arrival can be timed.  Returns exit code,
    stdout, line arrival times (seconds since spawn; then the exit) and
    peak RSS."""
    master, slave = os.openpty()
    tty.setraw(slave)  # no newline translation
    t0 = time.perf_counter()
    proc = subprocess.Popen([cli, report_path], stdout=slave,
                            stdin=subprocess.DEVNULL, cwd=ROOT)
    os.close(slave)
    data = b""
    marks = []
    deadline = t0 + CHILD_TIMEOUT_S
    try:
        while True:
            if not select.select([master], [], [], 1.0)[0]:
                if time.perf_counter() > deadline:
                    proc.kill()
                continue
            try:
                chunk = os.read(master, 65536)
            except OSError:  # EIO once the child has closed the terminal
                break
            if not chunk:
                break
            now = time.perf_counter() - t0
            data += chunk
            marks.extend([now] * chunk.count(b"\n"))
    finally:
        os.close(master)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks.append(time.perf_counter() - t0)
    return proc.returncode, data.decode(errors="replace"), marks, usage.ru_maxrss / 1024.0


def table_rows(text):
    return [line.split() for line in text.splitlines()
            if re.match(r"[0-9]+\.[0-9]+\s", line)]


def cli_sweep(args, noc_bench, cli):
    golden_stdout = load_golden(args.golden_dir, "loadsweep_cli.stdout")
    problems = []
    if args.trace:
        # The CLI cannot be looked into from outside; its cells are replayed
        # in process with spans, and the replay must print the CLI's rows.
        out = run_noc_bench(noc_bench, [
            "--workload", "loadsweep_replay", "--seconds", str(args.seconds),
            "--trace", "1"] + trace_out("loadsweep_replay"))
        want = table_rows(golden_stdout)
        got = out["rows"]
        failed = sum(1 for i, row in enumerate(want)
                     if i >= len(got) or got[i] != row)
        if not out["ok"] or failed or len(got) != len(want):
            problems.append(f"replay rows differ from the CLI's ({failed} rows)")
        info = [f"replayed {len(got)} rows of bench_noc_loadsweep's tables"]
        return out, problems, len(want), failed, out["per_layer"], info

    golden_report = load_golden(args.golden_dir, "loadsweep_cli.report.json")
    report_path = os.path.join(BUILD_ROOT, "loadsweep", "report.json")
    os.makedirs(os.path.dirname(report_path), exist_ok=True)
    runs = []
    setup_samples = []
    want = max(CLI_MIN_RUNS, round(args.seconds * CLI_RUNS_PER_SECOND))
    give_up = time.perf_counter() + 2 * args.seconds
    while len(runs) < want and not (len(runs) >= CLI_MIN_RUNS
                                    and time.perf_counter() > give_up):
        if os.path.exists(report_path):
            os.remove(report_path)
        code, stdout, marks, rss = run_cli_once(cli, report_path)
        report = ""
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as f:
                report = f.read()
        why = []
        if code != 0:
            why.append(f"exit code {code}")
        if any(line.startswith("!!") for line in stdout.splitlines()):
            why.append("'!!' line in output")
        if mask_stdout(stdout) != golden_stdout:
            why.append("stdout differs from golden")
        if mask_report(report) != golden_report:
            why.append("report JSON differs from golden")
        runs.append({"ok": not why, "stdout": stdout, "report": report,
                     "marks": marks, "rss": rss})
        if why:
            problems.append(f"run {len(runs)}: " + ", ".join(why))
        # Set-up of every cell, in process, between the CLI runs.  Cells
        # differ in cost, so a sweep's set-up is their sum.
        setup_out = run_noc_bench(noc_bench, ["--workload", "loadsweep_replay",
                                              "--setup-only"])
        setup_samples.append(sum(setup_out["setup_samples"]))
        if setup_out["row_count"] != len(table_rows(stdout)):
            problems.append(f"set-up replay has {setup_out['row_count']:.0f} "
                            f"rows, the CLI {len(table_rows(stdout))}")

    good = [r for r in runs if r["ok"]] or runs
    # Line by line, the fastest run's time (see timeFloor in noc_bench.cpp):
    # runs print identical lines, one per table row.
    n = min(len(r["marks"]) for r in good)
    wall = sum(min(r["marks"][k] - (r["marks"][k - 1] if k else 0.0)
                   for r in good) for k in range(n))
    first = good[0]
    reports = json.loads(first["report"]) if first["report"] else [{}]
    cells = sum((len(row) - 1) // 2 for row in table_rows(first["stdout"]))
    # Every table cell runs as many cycles (warm-up + measured) as a
    # report run.
    run_cycles = [r.get("run", {}).get("cycles", 0) for r in reports]
    cycles = cells * run_cycles[0] + sum(run_cycles)
    ledger = reports[0].get("ledger", {})
    run_info = reports[0].get("run", {})
    nodes = 1
    for dim in str(run_info.get("mesh", "1")).split("x"):
        nodes *= int(dim)
    metrics = {
        "sim_cycles_per_s": cycles / wall,
        "wall_s": wall,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(r["rss"] for r in good),
        "pkt_latency_p50_cycles": ledger.get("packet_latency_p50", 0),
        "pkt_latency_p99_cycles": ledger.get("packet_latency_p99", 0),
        "ctrl_latency_p99_cycles": ledger.get("packet_latency_p99", 0),
        "accepted_flits_per_node_cycle": ledger.get("flits_delivered", 0)
        / max(1, run_info.get("cycles", 1) * nodes),
        "completion_cycles": cycles,
    }
    walls = sorted(r["marks"][-1] for r in runs)
    info = [f"{len(runs)} of {want} CLI runs, {cells} table cells + {len(reports)} "
            f"report runs, {cycles} simulated cycles per run",
            "process wall times: " + ", ".join(f"{w:.3f}" for w in walls) + " s",
            f"set-up: median over {len(setup_samples)} replays of all cells' set-ups",
            f"latency from the {ledger.get('packet_latency_samples', 0)} "
            "samples of the first report run (UniformRandom, load 0.20)"]
    failed = sum(1 for r in runs if not r["ok"])
    return setup_out, problems, len(runs), failed, metrics, info


# -------------------------------------------------------------------- main

def main(argv):
    args = parse_args(argv)
    try:
        noc_bench, cli = build()
        if args.workload in IN_PROCESS:
            facts, problems, attempted, failed, metrics, info = in_process(
                args, noc_bench)
        else:
            facts, problems, attempted, failed, metrics, info = cli_sweep(
                args, noc_bench, cli)
    except (BenchError, OSError, subprocess.TimeoutExpired, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        log(f"perfbench: metric set mismatch: {sorted(set(metrics) ^ set(units))}")
        return 1
    st = stamp(facts)
    print("stamp: " + json.dumps(st, sort_keys=True))
    if st["build_type"] != "Release" or st["assertions"]:
        print(f"WARNING: {st['build_type']} build (assertions "
              f"{'on' if st['assertions'] else 'off'}): timings are not "
              "comparable with Release runs")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    for line in info:
        print("  " + line)
    for name in units:
        print(f"  {name:34s} {metrics[name]:.6g} {units[name]}")
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'failed_packet_ratio' if args.workload in IN_PROCESS else 'failed_run_ratio':34s} "
          f"{ratio:.6g} ({failed} of {attempted})")
    for p in problems:
        print("CHECK FAILED: " + p)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
