"""Smoke test of the benchmark itself, at reduced sizes (about a minute).

    python3 perfbench/smoke.py

Checks, from the repository root:
- every workload in BENCHMARK.json runs with --size small, with --trace 0
  and --trace 1, and its last output line is the result object with exactly
  the metrics BENCHMARK.json names, each with its unit and a finite value;
- every op that passes its oracle fails it once its value is perturbed by
  1e-3 (the oracles can see an error of that size);
- ``attempted`` and ``failed`` are the same for runs of one seed that take
  different numbers of timing samples;
- run.py exits non-zero, printing no result, in a directory that holds only
  BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run_benchmark(cwd, workload, trace, seconds=1):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", str(seconds),
                 "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_output(spec, workload, trace, proc):
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append("attempted/failed are not whole numbers")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, entry in got.items():
        if entry.get("unit") != wanted.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {wanted.get(name)!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def check_perturbation():
    """Ops that pass must fail when their value is off by 1e-3."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    workdir = os.path.join(ROOT, ".bench_out", f"smoke-{os.getpid()}")
    os.makedirs(workdir)
    problems, checked = [], 0
    try:
        for name in ("verify-all", "circle-requests", "combinatorial"):
            workload = workloads.build(name, 7, workdir, small=True)
            clean = {r.name: r for r in workload.run_pass()}
            for r in workload.run_pass(perturb=1e-3):
                if clean[r.name].outcome == "ok":
                    checked += 1
                    if r.outcome != "wrong":
                        problems.append(f"{name}/{r.name}: perturbed value still {r.outcome}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems, checked


def check_counts_repeatable():
    """``attempted`` and ``failed`` count ops, not timing samples: a longer run
    of the same seed takes more samples but must report the same counts."""
    counts = []
    for seconds in (1, 3):
        proc = run_benchmark(ROOT, "circle-requests", 0, seconds)
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr[-400:]}"]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    if counts[0] != counts[1]:
        return [f"(attempted, failed) {counts[0]} at 1 s but {counts[1]} at 3 s"]
    return []


def check_bare_directory():
    """Without the sources, run.py must fail cleanly and print no result."""
    bare = os.path.join(ROOT, ".bench_out", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, "combinatorial", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_output(spec, workload, trace, run_benchmark(ROOT, workload, trace))
            problems += [f"{workload} --trace {trace}: {p}" for p in found]
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
    found, checked = check_perturbation()
    problems += found
    print(f"perturbation: {checked} passing ops checked, {len(found)} not caught", flush=True)
    found = check_counts_repeatable()
    problems += found
    print(f"counts repeatable: {'ok' if not found else 'FAIL'}", flush=True)
    found = check_bare_directory()
    problems += found
    print(f"bare directory: {'ok' if not found else 'FAIL'}", flush=True)
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
