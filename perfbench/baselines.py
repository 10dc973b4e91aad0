"""Re-measure the single-call timings quoted in ROADMAP.md item 1.

    python3 perfbench/baselines.py [--seed N]

Not part of the benchmark command: each figure is one raw call on a seeded
input (30% of the balanced grid), printed with the quoted figure beside it
and with the reference loop's speed before the call (see worker.py), since
this machine's speed swings by about a third.  Takes about three minutes.
"""

import argparse
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import vcmkit  # noqa: E402
import vcmkit.cli  # noqa: E402
from vcmkit import GF, QQ, Shape, SimplicialComplex, shelling, union  # noqa: E402
from vcmkit.homology import _ranks_from_faces  # noqa: E402
from worker import REFERENCE_S, reference_loop  # noqa: E402


def balanced(entries, rng):
    grid = gen.balanced_grid(entries)
    return SimplicialComplex(Shape(entries), tuple(rng.sample(grid, round(0.3 * len(grid)))))


def timed(label, quoted, fn):
    speed = reference_loop() / REFERENCE_S
    t = time.perf_counter()
    result = fn()
    print(f"{label}: {time.perf_counter() - t:.3f} s (quoted {quoted}; "
          f"machine at {speed:.2f}x the reference loop time)", flush=True)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    rng = random.Random(parser.parse_args().seed)

    d16 = balanced((3, 3, 3, 3), rng)
    cert = timed("(3,3,3,3) balanced_vcm_certificate", "1.1 s",
                 lambda: vcmkit.balanced_vcm_certificate(d16))
    u16 = union(d16, cert.delta_prime)
    timed("(3,3,3,3) is_cm_reisner over GF(2) on the union", "0.39 s",
          lambda: vcmkit.is_cm_reisner(u16, GF(2)))
    timed("(3,3,3,3) is_cm_reisner over Q on the union", "23.0 s",
          lambda: vcmkit.is_cm_reisner(u16, QQ))
    timed("(3,3,3,3) certify_balanced over GF(2)", "80.3 s",
          lambda: vcmkit.certify_balanced(d16, GF(2)))

    d20 = balanced((4, 4, 4, 4), rng)
    spent = []
    verify = shelling.verify_shelling

    def timed_verify(*args):
        t = time.perf_counter()
        try:
            return verify(*args)
        finally:
            spent.append(time.perf_counter() - t)

    shelling.verify_shelling = timed_verify
    try:
        timed("(4,4,4,4) balanced_vcm_certificate", "7.6 s, 23.8 s under cProfile",
              lambda: vcmkit.balanced_vcm_certificate(d20))
    finally:
        shelling.verify_shelling = verify
    print(f"  of which verify_shelling: {sum(spent):.3f} s (quoted 6.4 s, 19.6 s under cProfile)")

    d12 = balanced((2, 2, 2, 2), rng)
    u12 = union(d12, vcmkit.balanced_vcm_certificate(d12).delta_prime)
    print(f"(2,2,2,2) shellable union: {len(u12.facet_masks)} facets, 12 vertices")
    _ranks_from_faces.cache_clear()
    for field, quoted in ((GF(2), "1.27 s"), (GF(3), "3.62 s"), (QQ, "22.9 s")):
        timed(f"  projective_dimension over {field}", quoted,
              lambda: vcmkit.projective_dimension(u12, field))
        if field == GF(2):
            info = _ranks_from_faces.cache_info()
            print(f"  rank cache after the first 4096-subset sweep: {info.hits} hits, "
                  f"{info.misses} misses (quoted: 0 hits)")

    doc = os.path.join(HERE, "_work", "latin666.json")
    os.makedirs(os.path.dirname(doc), exist_ok=True)
    with open(doc, "w", encoding="utf-8") as handle:
        handle.write(gen.dump(gen.complex_doc((6, 6, 6), gen.latin_balanced((6, 6, 6)))))
    try:
        code = timed("(6,6,6) certify-balanced (49 facets)", "1.1 s, then exit 3",
                     lambda: vcmkit.cli.main(["certify-balanced", doc]))
    finally:
        os.remove(doc)
    print(f"  exit code {code}")


if __name__ == "__main__":
    main()
