#!/usr/bin/env python3
"""End-to-end benchmark of the GDI-RMA stack: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check      # every workload, short mode

Run from the repository root. The first run builds perfbench/ (which compiles
../src) in Release mode into $CARGO_TARGET_DIR, or .bench_build when unset.
Offered rates come from perfbench/workloads.json, never from the run itself.

The human-readable report of the benchmark binary is passed through; the last
line printed is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end metrics named in
BENCHMARK.json, with --trace 1 the per_layer ones; the command checks that
every one of them was emitted, with its unit, and exits nonzero when one is
missing, when an output check failed, or when any request failed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build; returns the binary path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logf = os.path.join(out, "perfbench-build.log")
    with open(logf, "w") as lf:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            r = subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                                "-DCMAKE_BUILD_TYPE=Release"] + gen,
                               stdout=lf, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                # Leave no half-configured tree behind: the next run retries.
                cache = os.path.join(out, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return None, logf
        r = subprocess.run(["cmake", "--build", out, "--target", "gdibench", "-j",
                            str(min(4, os.cpu_count() or 1))],
                           stdout=lf, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            return None, logf
    return os.path.join(out, "gdibench"), logf


def source_id():
    """git sha when the checkout is a repository, else a hash of the sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_once(binary, spec, rates, workload, seed, seconds, trace, inject_wrong=False,
             quiet=False):
    """Run the binary once; returns (exit code, parsed last line or None)."""
    rate = rates.get(workload, {}).get("rate_kqps", 0)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--rate-kqps", str(rate),
           "--out-dir", os.path.join(ROOT, ".bench_out"), "--sha", source_id()]
    if inject_wrong:
        cmd.append("--inject-wrong")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 124, None
    lines = r.stdout.rstrip("\n").split("\n")
    if not quiet:
        for line in lines[:-1]:
            print(line)
        if r.stderr:
            sys.stderr.write(r.stderr)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(f"{workload}: no result line (exit {r.returncode})")
        return r.returncode or 1, None
    return r.returncode, result


def missing_metrics(spec, result, trace):
    """Names in BENCHMARK.json the result lacks, or emits with another unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result.get("metrics", {})
    bad = []
    for m in wanted:
        v = got.get(m["name"])
        if v is None or v.get("unit") != m["unit"] or not isinstance(v.get("value"), (int, float)):
            bad.append(m["name"])
        elif not trace and v["value"] == 0:
            bad.append(m["name"] + " (zero)")
    return bad


def contract_line(spec, result, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    return {
        "correct": bool(result["correct"]) and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": got[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }


def self_check(binary, spec, rates):
    """Short mode: every workload, both trace modes, plus an injected wrong
    answer that must make the command fail."""
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, result = run_once(binary, spec, rates, name, 1, 1, trace, quiet=True)
            bad = missing_metrics(spec, result, trace) if result else ["<no result>"]
            fine = code == 0 and not bad and result["correct"]
            ok = ok and fine
            print(f"{name:22s} trace={trace}: exit {code}, "
                  f"{len(spec['per_layer'] if trace else spec['end_to_end'])} metrics, "
                  + ("all present with units" if not bad else "missing " + ", ".join(bad)))
        code, result = run_once(binary, spec, rates, name, 1, 1, 0, inject_wrong=True,
                                quiet=True)
        caught = code != 0 and result is not None and not result["correct"]
        ok = ok and caught
        print(f"{name:22s} injected wrong answer: exit {code}, "
              + ("caught" if caught else "NOT caught"))
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt one answer before the checks (must fail)")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    rates_path = os.path.join(BENCH_DIR, "workloads.json")
    if not os.path.exists(spec_path) or not os.path.exists(rates_path):
        log("BENCHMARK.json or perfbench/workloads.json not found")
        return 2
    spec, rates = load_json(spec_path), load_json(rates_path)

    binary, logf = build()
    if binary is None:
        log(f"build failed, see {logf}")
        return 3
    if args.self_check:
        return self_check(binary, spec, rates)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"--workload must be one of {names}")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    code, result = run_once(binary, spec, rates, args.workload, args.seed, seconds,
                            args.trace, inject_wrong=args.inject_wrong)
    if result is None:
        return code or 1
    bad = missing_metrics(spec, result, args.trace)
    if bad:
        log("metrics missing or with the wrong unit: " + ", ".join(bad))
        return 4
    line = contract_line(spec, result, args.trace)
    print(json.dumps(line), flush=True)
    return 0 if code == 0 and line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
