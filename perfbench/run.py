#!/usr/bin/env python3
"""Repository benchmark: builds the dynP libraries and the perfbench program
from source (Release, out of tree), runs one workload, and prints its
metrics. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload paper_replan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both modes

Run it from the repository root. The build lives in `$CARGO_TARGET_DIR`
(default `.bench_build`) under `perfbench/`. Exit status is non-zero when
the build fails, an output check fails, or a traced self-check fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "perfbench"


def build(bdir):
    """Configures (once) and builds perfbench; returns its path or None."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build step failed: " + " ".join(cmd))
            return None
    return bdir / "perfbench"


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout need
    not be a git repository, so this identifies the build instead)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = ROOT / top
        if not base.is_dir():
            continue
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def loadavg():
    try:
        return " ".join(pathlib.Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def expected_args(workload, seed):
    """--expect-* values when this workload has reference values recorded
    for this seed (the default seed)."""
    ref = json.loads((HERE / "expected.json").read_text())
    entry = ref["workloads"].get(workload)
    if seed != ref["default_seed"] or entry is None:
        return []
    return ["--expect-sldwa", repr(float(entry["sldwa"])),
            "--expect-decisions", str(entry["decisions"]),
            "--expect-switches", str(entry["switches"]),
            "--expect-digest", entry["digest"]]


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)] + expected_args(workload, seed)
    before = loadavg()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    for line in lines:
        print(line)
    print(f"host: nproc={os.cpu_count()} "
          f"usable_cpus={len(os.sched_getaffinity(0))} "
          f"loadavg_before={before!r} loadavg_after={loadavg()!r}")
    return proc.returncode, result


def listed_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build(build_dir())
    if binary is None:
        return 1
    print(f"source: git={git_sha()} src_digest={source_digest()}")

    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed, args.seconds,
                               args.trace)
        if result is not None:
            print(json.dumps(result))
        return code

    # Every listed workload, untraced then traced; the summary line carries
    # each metric as <workload>.<metric>.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in listed_workloads():
        for trace in (0, 1):
            code, result = run_one(binary, name, args.seed, args.seconds,
                                   trace)
            worst = worst or code
            if result is None:
                summary["correct"] = False
                continue
            print(json.dumps(result))
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
