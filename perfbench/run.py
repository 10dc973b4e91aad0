"""vcmkit benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload certify|check_cm|search|algebra|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; stdlib only.  Each run is a fresh
single-threaded worker process (VCMKIT_THREADS unset) that imports vcmkit
from this checkout's src/.  Set-up time is the median over a few fresh
processes that only start, import and generate inputs, plus the worker's
own.  With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, and the spans go to
perfbench/_traces/.  Earlier lines record the machine, seed and round
count.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify", "check_cm", "search", "algebra")
SETUP_PROBES = 6
TIMEOUT_S = 170


def worker(args, workdir, extra):
    env = dict(os.environ)
    env.pop("VCMKIT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", workdir,
            "--t0", repr(time.monotonic())] + extra
    return subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def last_json(proc):
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def run_one(args):
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    setups = []
    for _ in range(SETUP_PROBES):
        probe_dir = tempfile.mkdtemp(dir=work_root)
        try:
            _, probe = last_json(worker(args, probe_dir, ["--setup-only"]))
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        setups.append(probe["setup_s"])
    extra = []
    if args.trace:
        trace_dir = os.path.join(HERE, "_traces")
        os.makedirs(trace_dir, exist_ok=True)
        extra = ["--trace-out",
                 os.path.join(trace_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        lines, result = last_json(worker(args, workdir, extra))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vcmkit", "__init__.py")):
        print(f"no vcmkit sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a vcmkit checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        lines, results[name] = run_one(args)
        for line in lines:
            print(line)
        res = results[name]
        if not args.trace:  # the traced worker already printed its layer table
            for metric, m in res["metrics"].items():
                print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
