#!/usr/bin/env python3
"""The an2sim benchmark: build the workload runner, run one workload, check
its simulated output, and print every metric by name with its unit.

    python3 perfbench/run.py --workload iq16-pim --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record 0-99

Run from anywhere; paths are resolved from this file. The runner is built
from the repository's sources into .bench_build/ at the repository root.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics; a per-layer
metric of a layer the workload does not run through its timed interface
reads 0. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUNNER = BUILD / "an2bench"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

SWITCH_WORKLOADS = ("iq16-pim", "iq1024-islip", "cioq16-3class")
# lan-fattree16-sharded runs but is not in BENCHMARK.json: its 2-shard
# frame times were too unsteady on a shared host to gate (README.md).
LAN_WORKLOADS = ("lan-fattree16-sharded", "lan-fattree8-serial")
# Per-layer metric prefixes each kind of workload measures.
SWITCH_LAYERS = ("sim.", "queueing.", "matching.", "bench.")
LAN_LAYERS = ("topo.", "network.", "cbr.", "bench.")
RUN_TIMEOUT_S = 170
# glibc >= 2.35: malloc asks for transparent huge pages (madvise).
HUGE_PAGE_TUNABLE = "glibc.malloc.hugetlb=1"


def fail(msg, code=2):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then (re)build the runner; build output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"an2 sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "an2bench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def runner_env():
    """The environment with the runner's heap on transparent huge pages.

    iq1024-islip touches a 1 GB heap at random. On 4 KiB pages its slot
    times spread continuously with the host's other load; on huge pages they
    sit in two tight states, which the 90th percentile separates (README.md,
    "Noise"). Hosts whose THP setting is "never" ignore the tunable.
    """
    env = dict(os.environ)
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + [HUGE_PAGE_TUNABLE])
    return env


def run_runner(workload, seed, seconds, trace, tiny=False):
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, env=runner_env())
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        fail(f"{workload} seed {seed} exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def load_spec():
    if not SPEC.is_file():
        fail(f"{SPEC} not found")
    return json.loads(SPEC.read_text())


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def output_errors(workload, result, expected):
    """Why the run's simulated output is wrong ([] when it is right)."""
    errors = []
    sim = result["sim"]
    if workload in LAN_WORKLOADS:
        if sim["order_violations"] != 0:
            errors.append(f"{sim['order_violations']:.0f} order violations")
        if sim["delivered"] + sim["link_lost"] + sim["vbr_dropped"] > sim["injected"]:
            errors.append("delivered + lost + dropped exceeds injected")
    want = expected.get(workload, {}).get(str(result["seed"]))
    if want is not None and not result["tiny"] and want != sim:
        diff = {k: (sim.get(k), v) for k, v in want.items() if sim.get(k) != v}
        errors.append(f"simulated stats differ from the recorded ones: {diff}")
    return errors


def host_meta():
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    if (BUILD / "CMakeCache.txt").is_file():
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        thp = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
        thp = thp.split("[", 1)[1].split("]", 1)[0]
    except (OSError, IndexError):
        thp = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "an2_obs_disabled": cache.get("AN2_OBS_DISABLED", "OFF") == "ON",
            "thp": thp, "malloc_tunables": runner_env()["GLIBC_TUNABLES"]}


def report_metrics(spec, workload, result, trace):
    """The metrics BENCHMARK.json names for this trace mode, in its order."""
    emitted = result["metrics"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = emitted.get(m["name"])
        if got is None:
            if not trace:
                fail(f"{workload} did not emit {m['name']}")
            got = {"value": 0.0, "unit": m["unit"]}  # layer not run here
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r}, expected {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def run_workload(args):
    spec = load_spec()
    names = SWITCH_WORKLOADS + LAN_WORKLOADS
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    build()
    result = run_runner(args.workload, args.seed, args.seconds, args.trace)
    errors = output_errors(args.workload, result, load_expected())
    attempted = result["reps"]
    # The runner counts reps that disagree with the first; a wrong output
    # fails every rep, since all reps repeat it.
    failed = attempted if errors else result["failed"]
    errors += result["errors"]
    metrics = report_metrics(spec, args.workload, result, args.trace)

    print("meta " + json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "host": host_meta()}))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':36s} {failed / attempted:>16.6g} share")
    for e in errors:
        print(f"check failed: {e}")
    print(json.dumps({"correct": not errors and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def self_test():
    """Every workload at a tiny size: names, units, shares, trace identity."""
    spec = load_spec()
    build()
    problems = []
    for workload in SWITCH_WORKLOADS + LAN_WORKLOADS:
        layers = SWITCH_LAYERS if workload in SWITCH_WORKLOADS else LAN_LAYERS
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_runner(workload, 1, 0, trace, tiny=True)
            emitted = result["metrics"]
            errors = result["errors"] + output_errors(workload, result, {})
            if result["failed"] or errors:
                problems.append(f"{workload}: {errors}")
            for m in wanted:
                if trace and not m["name"].startswith(layers):
                    continue
                got = emitted.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload}: {m['name']} missing or "
                                    f"not in {m['unit']}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{workload}: {m['name']} not finite")
            if trace and workload in SWITCH_WORKLOADS:
                shares = sum(v["value"] for k, v in emitted.items()
                             if k.endswith("_share"))
                if abs(shares - 1.0) > 1e-9:
                    problems.append(f"{workload}: shares sum to {shares}")
        print(f"self-test {workload}: done", file=sys.stderr)
    for p in problems:
        print(f"self-test failed: {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record(seed_range):
    """Record the simulated stats of each workload for seeds LO-HI."""
    lo, _, hi = seed_range.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    build()
    jobs = [(w, s) for w in SWITCH_WORKLOADS + LAN_WORKLOADS for s in seeds]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda j: run_runner(j[0], j[1], 0, 0), jobs))
    expected = load_expected()
    for (workload, seed), result in zip(jobs, results):
        if result["failed"] or output_errors(workload, result, {}):
            fail(f"{workload} seed {seed} failed its checks; not recorded")
        expected.setdefault(workload, {})[str(seed)] = result["sim"]
    # One line per (workload, seed), so a re-record diffs line by line.
    lines = []
    for workload in sorted(expected):
        seeds = sorted(expected[workload], key=int)
        rows = [f'  "{s}": {json.dumps(expected[workload][s], sort_keys=True)}'
                for s in seeds]
        lines.append(f' "{workload}": {{\n' + ",\n".join(rows) + "\n }")
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(jobs)} runs into {EXPECTED}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record", metavar="LO-HI")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")
    if args.self_test:
        sys.exit(self_test())
    if args.record:
        record(args.record)
        return
    if not args.workload:
        fail("--workload is required")
    run_workload(args)


if __name__ == "__main__":
    main()
