#!/usr/bin/env python3
"""Builds and runs the VDrift benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call builds the library and the `vbench` program from source with
CMake and fills the warm model cache (the untimed prepare step); later calls
reuse both. Everything is written under .bench_build/ in the repository
root. The last line of standard output is the JSON result; the full output
of each run is also kept in .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the vbench program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no VDrift sources under {ROOT / 'src'}", code=2)
    build_dir = OUT / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "vbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "vbench"


def prepare(vbench):
    """Fills the warm model cache once (untimed, idempotent)."""
    cache = OUT / "cache"
    if (cache / "prepared.json").is_file():
        return cache
    cache.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, VDRIFT_THREADS=str(min(4, os.cpu_count() or 1)))
    if subprocess.run([str(vbench), "prepare", "--cache", str(cache)],
                      env=env).returncode != 0:
        fail("prepare failed")
    return cache


def revision():
    """The git revision when there is one, else a digest of src/."""
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            return "git:" + git.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src:" + digest.hexdigest()[:12]


def declared_metrics(trace):
    """{name: unit} of one level, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    level = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in level}


def mismatches(result, trace):
    """Differences between a result's metrics and the declared ones."""
    declared = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = [f"{name} missing" for name in declared if name not in got]
    problems += [f"{name} not declared" for name in got if name not in declared]
    problems += [f"{name} has unit {got[name]}, declared {unit}"
                 for name, unit in declared.items()
                 if name in got and got[name] != unit]
    return problems


def run_benchmark(args, vbench, cache):
    started = time.monotonic()
    command = [str(vbench), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--cache", str(cache),
               "--work", str(OUT / "work"), "--rev", revision()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    log = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    log.write_text(proc.stdout)
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail(f"vbench exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    problems = mismatches(result, args.trace)
    if problems:
        print("\n".join(lines[:-1]))
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    print("\n".join(lines[:-1]))
    print(f"run took {time.monotonic() - started:.1f} s; log in {log}")
    print(lines[-1])
    return 0 if proc.returncode == 0 and result["correct"] else 1


def run_selftest(vbench, cache):
    proc = subprocess.run([str(vbench), "selftest", "--cache", str(cache),
                           "--work", str(OUT / "work")],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT)
    print(proc.stdout, end="")
    ok = proc.returncode == 0
    checked = 0
    for line in proc.stdout.splitlines():
        if not line.startswith("selftest-result "):
            continue
        _, workload, trace, payload = line.split(" ", 3)
        problems = mismatches(json.loads(payload), int(trace))
        checked += 1
        for problem in problems:
            ok = False
            print(f"SELFTEST FAILED: {workload} trace {trace}: {problem}")
    if checked != 6:
        ok = False
        print(f"SELFTEST FAILED: {checked} of 6 tiny runs reported a result")
    print("perfbench selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["fleet_steady", "stream_live", "fleet_adapt"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    vbench = build()
    cache = prepare(vbench)
    if args.selftest:
        return run_selftest(vbench, cache)
    return run_benchmark(args, vbench, cache)


if __name__ == "__main__":
    sys.exit(main())
