"""Rebuild search_pool.json, the base complexes of the search workload.

The search workload needs a fixed mix of outcomes in every round, or its
time would follow how many slow exhausted searches a seed happens to draw.
Outcome classes are not predictable from a formula, so this script samples
random pure relevant 3-dimensional complexes on (1,1,2), classifies them
with vcmkit's search over GF(2), and keeps one complex per isomorphism
class: exhausted ones whose search time is close to the median, and
certified ones that need three added facets.  The benchmark then draws
seeded relabellings of these.  The class is a mathematical property of the
input (whether some augmentation of each size is Cohen-Macaulay), so a
correct change to the program never alters it.

Run from the repository root:  python3 perfbench/make_search_pool.py
"""

import itertools
import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
from vcmkit import GF, Shape, SimplicialComplex, augmentation_search  # noqa: E402

ENTRIES = (1, 1, 2)
WANT = 12


def symmetries(entries):
    offs = gen.offsets(entries)
    r = len(entries)
    for order in itertools.permutations(range(r)):
        if any(entries[c] != entries[order[c]] for c in range(r)):
            continue
        for idxs in itertools.product(*[itertools.permutations(range(n + 1)) for n in entries]):
            yield {offs[c] + j: offs[order[c]] + idxs[c][j]
                   for c in range(r) for j in range(entries[c] + 1)}


def main():
    shape = Shape(ENTRIES)
    n = gen.num_vertices(ENTRIES)
    relevant = [m for m in (sum(1 << p for p in c) for c in itertools.combinations(range(n), 4))
                if shape.is_relevant_mask(m)]
    perms = list(symmetries(ENTRIES))
    rng = random.Random(2020)
    seen = set()
    certified, exhausted = [], []
    while len(certified) < WANT or len(exhausted) < 3 * WANT:
        masks = sorted(rng.sample(relevant, rng.randint(4, 8)))
        canon = min(tuple(gen.relabel(masks, p)) for p in perms)
        if canon in seen:
            continue
        seen.add(canon)
        delta = SimplicialComplex(shape, tuple(canon))
        out = augmentation_search(delta, GF(2), budget=240)
        if out.status == "certified":
            if len(out.certificate.delta_prime.facet_masks) == 3 and len(certified) < WANT:
                certified.append(list(canon))
            continue
        started = time.perf_counter()
        out = augmentation_search(delta, GF(2))
        elapsed = time.perf_counter() - started
        if out.status == "exhausted":
            exhausted.append((elapsed, list(canon)))
    mid = statistics.median(t for t, _ in exhausted)
    exhausted.sort(key=lambda item: abs(item[0] - mid))
    pool = {
        "shape": list(ENTRIES),
        "certified_3": certified,
        "exhausted": [masks for _, masks in exhausted[:WANT]],
    }
    with open(os.path.join(HERE, "search_pool.json"), "w", encoding="utf-8") as handle:
        handle.write(dump_pool(pool))


def dump_pool(pool):
    """JSON with one complex per line."""
    parts = [f' "shape": {json.dumps(pool["shape"])}']
    for cls in ("certified_3", "exhausted"):
        rows = ",\n".join("  " + json.dumps(masks) for masks in pool[cls])
        parts.append(f' "{cls}": [\n{rows}\n ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
