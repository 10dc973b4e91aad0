"""One benchmark run of one workload, in a fresh Python process.

Started by run.py, which passes the monotonic clock reading taken just
before it started this process: interpreter start, `import vcmkit` and
generating the first round's inputs make up this run's set-up time.  The
process then runs whole rounds until --seconds have passed, checks every
output, and prints one JSON line.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


SHOULD_MOVE = (
    ("linalg.", "check_cm round_s by field; certify and search only through gf2"),
    ("homology.hochster", "certify and check_cm round_s"),
    ("homology.restrictions", "certify and check_cm round_s"),
    ("homology.reisner", "search round_s (most), check_cm (little)"),
    ("homology.rank_cache", "search round_s and peak_rss_mb"),
    ("shelling.", "certify round_s only"),
    ("complexes.", "search and certify round_s"),
    ("vres.compose", "algebra round_s"),
    ("vres.products", "algebra round_s"),
    ("vres.", "certify and search round_s"),
    ("stanley_reisner.", "algebra round_s"),
    ("documents.", "certify and algebra round_s"),
    ("cli.", "round_s of every workload"),
    ("ops.", "round_s of its workload"),
    ("run.", "traced minus untraced round_s is the tracing overhead"),
)


def should_move(name):
    return next(text for prefix, text in SHOULD_MOVE if name.startswith(prefix))


# The machine's speed swings by a third within seconds (most likely other
# tenants on its cores), and the swings slow this loop and the program
# alike.  Each operation's seconds are rescaled by the loop's time measured
# just before and just after it, to seconds at the speed where the loop
# takes REFERENCE_S (this machine's fast state, Python 3.11).
REFERENCE_S = 0.00105


def reference_loop():
    """Fastest of three runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc ^= (i * 2654435761) & 0xFFFF
        best = min(best, time.perf_counter() - t)
    return best


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import vcmkit
    if not os.path.abspath(vcmkit.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"vcmkit imported from {vcmkit.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    first = workload.round_ops(0)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    kinds = workloads.KINDS[args.workload]
    slot_kinds = [op.kind for op in first]
    rounds = []  # per round: (raw seconds, rescaled seconds) of each operation
    records = []
    peak_rss_mb = None
    started = time.perf_counter()
    ops = first
    speed_before = reference_loop()
    while True:
        times = []
        for op in ops:
            run = tracer.wrap("op." + op.kind, op.run) if tracer else op.run
            t = time.perf_counter()
            result = run()
            raw = time.perf_counter() - t
            speed_after = reference_loop()
            times.append((raw, raw * REFERENCE_S * 2 / (speed_before + speed_after)))
            speed_before = speed_after
            if op.after:
                op.after(result)
            records.append((op, result))
        rounds.append(times)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - started >= args.seconds:
            break
        ops = workload.round_ops(len(rounds))
    if tracer:
        tracer.uninstall()

    failed = 0
    problems = []
    for op, result in records:
        op_failed, op_problems = op.check(result)
        failed += op_failed
        problems += [f"{op.kind}: {p}" for p in op_problems]
    for line in problems[:20]:
        print("CHECK FAILED " + line.replace("\n", " | "), file=sys.stderr)

    n = len(rounds)
    machine = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
               "python": platform.python_version(), "platform": platform.platform(),
               "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
               "rounds": n, "trace": args.trace,
               "final_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    print("machine " + json.dumps(machine, sort_keys=True))
    def per_round(which, kind=None):
        """A round's time: each slot at its median over the run's rounds."""
        return sum(statistics.median(times[i][which] for times in rounds)
                   for i, k in enumerate(slot_kinds) if kind in (None, k))

    round_s = per_round(1)
    for kind in kinds:
        print(f"op {kind}: {per_round(1, kind):.4f} s per round rescaled, "
              f"{per_round(0, kind):.4f} s raw (slot medians)")
    print(f"round: {round_s:.4f} s rescaled, {per_round(0):.4f} s raw; raw per round "
          + " ".join(f"{sum(raw for raw, _ in times):.3f}" for times in rounds))
    if tracer:
        layer = {name: (value / n, unit) for name, (value, unit) in tracer.metrics().items()}
        for kind in ("certify", "recheck", "shelling", "check_cm_gf2", "check_cm_gf3",
                     "check_cm_q", "search", "sr", "verify_complex"):
            total = sum(raw for times in rounds for (raw, _), k in zip(times, slot_kinds)
                        if k == kind)
            layer[f"ops.{kind}_s"] = (total / n, "s")
        layer["run.round_s"] = (round_s, "s")
        layer["run.rounds"] = (n, "count")
        for name, (value, unit) in layer.items():
            print(f"layer {name:34s} {value:14.6f} {unit:5s}  moves: {should_move(name)}")
        if args.trace_out:
            tracer.write(args.trace_out, {"machine": machine, "metrics": layer})
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "round_s": {"value": round_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    print(json.dumps({"correct": not problems, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
