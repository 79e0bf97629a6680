#!/usr/bin/env python3
"""Self-tests of the benchmark itself (perfbench/README.md).

    python3 perfbench/selftest.py

Checks that the digest captures simulated behaviour and not kernel
artefacts (a short prefix of every in-process workload digests the same
under the compiled and the event-driven kernel), that it depends on the
seed, that a tampered golden makes run.py exit nonzero, and that bad
arguments are refused with a usage line.  Exits nonzero on any failure.
"""
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout clean
import run  # noqa: E402

FAILURES = []


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def short_digests(noc_bench, workload, kernel, seed):
    return run.run_noc_bench(noc_bench, [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--short", "--kernel", kernel])["sub_digests"]


def run_py(*argv):
    return subprocess.run([sys.executable, os.path.join(run.HERE, "run.py")]
                          + list(argv), capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=300)


def main():
    noc_bench, _ = run.build()

    for workload in run.IN_PROCESS:
        compiled = short_digests(noc_bench, workload, "compiled", 1)
        event = short_digests(noc_bench, workload, "event", 1)
        check(f"{workload}: compiled and event-driven digests agree",
              compiled == event, f"{compiled} vs {event}")
        other = short_digests(noc_bench, workload, "compiled", 2)
        check(f"{workload}: another seed changes every sub-seed digest",
              all(a != b for a, b in zip(compiled, other)))

    tampered = os.path.join(run.BUILD_ROOT, "selftest", "golden")
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(os.path.join(run.HERE, "golden"), tampered)
    path = os.path.join(tampered, "mesh8_uniform.json")
    with open(path, encoding="utf-8") as f:
        golden = json.load(f)
    golden["sub_digests"][0] = "0" * 16
    with open(path, "w", encoding="utf-8") as f:
        json.dump(golden, f)
    path = os.path.join(tampered, "loadsweep_cli.stdout")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace("0.1960", "0.1961", 1))
    for workload in ("mesh8_uniform", "loadsweep_cli"):
        r = run_py("--workload", workload, "--seed", "1", "--seconds", "1",
                   "--golden-dir", tampered)
        last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "{}"
        check(f"{workload}: tampered golden exits nonzero",
              r.returncode != 0 and json.loads(last).get("correct") is False,
              f"exit {r.returncode}")
    r = run_py("--workload", "mesh8_uniform", "--seed", "1", "--seconds", "1")
    check("mesh8_uniform: committed golden passes", r.returncode == 0,
          r.stdout[-300:])

    for argv in (["--workload", "mesh9"], ["--workload", "mesh8_uniform", "--seed", "x1"],
                 ["--workload", "mesh8_uniform", "--seed", "4294967296"],
                 ["--workload", "mesh8_uniform", "--seconds", "0"],
                 ["--workload", "mesh8_uniform", "--trace", "2"],
                 ["--workload", "mesh8_uniform", "--frobnicate"]):
        r = run_py(*argv)
        check(f"run.py {' '.join(argv)} is refused",
              r.returncode != 0 and "usage:" in r.stderr and not r.stdout.strip())
        b = subprocess.run([noc_bench] + argv, capture_output=True, text=True)
        check(f"noc_bench {' '.join(argv)} is refused",
              b.returncode != 0 and "usage:" in b.stderr and not b.stdout.strip())

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
