"""Self-tests of the benchmark's generators and independent checkers.

    python3 perfbench/test_checks.py
"""

import itertools
import os
import random
import sys
import unittest
from collections import Counter
from math import comb

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402


def naive_is_shelling(order):
    """Textbook definition: each facet meets the earlier ones in a pure
    complex of codimension one."""
    size = checks.popcount(order[0])
    for i in range(1, len(order)):
        meets = {order[i] & order[j] for j in range(i)}
        maximal = [m for m in meets if not any(m != o and m & ~o == 0 for o in meets)]
        if any(checks.popcount(m) != size - 1 for m in maximal):
            return False
    return True


def products(mats):
    """Nonzero positions of matrices[k] @ matrices[k+1], by expanding every sum."""
    out = set()
    for k in range(len(mats) - 1):
        acc = Counter()
        for (a, t), (s1, x1) in mats[k].items():
            for (t2, b), (s2, x2) in mats[k + 1].items():
                if t == t2:
                    acc[(a, b, tuple(sorted((x1, x2))))] += s1 * s2
        out |= {(k, a, b) for (a, b, _), c in acc.items() if c}
    return out


class ShellingCheck(unittest.TestCase):
    def test_agrees_with_definition(self):
        rng = random.Random(7)
        for _ in range(400):
            n, size = rng.randint(4, 6), rng.randint(2, 3)
            facets = gen.random_pure(n, rng.randint(2, min(5, comb(n, size))), size, rng)
            order = facets[:]
            rng.shuffle(order)
            failed, _ = checks.restriction_sets(order)
            self.assertEqual(failed is None, naive_is_shelling(order), order)

    def test_sphere_h_vector_and_failures(self):
        tetra_boundary = [0b1110, 0b1101, 0b1011, 0b0111]
        self.assertEqual(checks.h_vector(tetra_boundary), [1, 1, 1, 1])
        self.assertEqual(checks.shelling_problems(tetra_boundary, set(tetra_boundary)), [])
        two_edges = [0b0011, 0b1100]
        self.assertTrue(checks.shelling_problems(two_edges, set(two_edges)))
        self.assertTrue(checks.shelling_problems(two_edges[:1], set(two_edges)))

    def test_generated_union_orders(self):
        # The base facet, then the irrelevant facets, shell the union exactly
        # when they are put in a shelling order; a random order usually fails.
        entries = (1, 1, 1)
        base = gen.balanced_grid(entries)[0]
        irr = gen.irrelevant_facets(entries)
        self.assertEqual(len(irr), 3 * 2 * 2)
        rng = random.Random(3)
        order = [base] + irr
        rng.shuffle(order)
        failed, _ = checks.restriction_sets(order)
        self.assertEqual(failed is None, naive_is_shelling(order))


class OtherChecks(unittest.TestCase):
    def test_irrelevance_violations(self):
        entries = (1, 1)
        delta = [0b0101]  # x_1_0 x_2_0
        self.assertEqual(checks.irrelevance_problems(entries, delta, [0b0011]), [])
        self.assertTrue(checks.irrelevance_problems(entries, delta, [0b0110]))  # relevant
        self.assertTrue(checks.irrelevance_problems(entries, delta, [0b0111]))  # size
        self.assertTrue(checks.irrelevance_problems(entries, [0b0111], [0b0011]))  # a face

    def test_codims(self):
        self.assertEqual(checks.codim((1, 1), [0b0101, 0b0011]), 2)
        self.assertEqual(checks.codim_affine((1, 1), [0b0101, 0b0011]), 2)
        self.assertEqual(checks.codim((2, 2), [0b001011]), 3)

    def test_candidates_and_window(self):
        entries = (1, 1, 2)
        relevant = [m for m in (sum(1 << p for p in c) for c in itertools.combinations(range(7), 4))
                    if all(m & cm for cm in gen.component_masks(entries))]
        self.assertEqual(checks.candidate_count(entries, relevant[:3]), 11)
        self.assertEqual(checks.certified_window(11, 3), (67, 232))
        self.assertEqual(checks.certified_window(11, 0), (0, 1))

    def test_minimal_nonfaces(self):
        hollow = [0b011, 0b101, 0b110]
        self.assertEqual(checks.minimal_nonfaces((2,), hollow), {0b111})
        self.assertEqual(checks.minimal_nonfaces((3,), hollow), {0b111, 0b1000})

    def test_flip_prediction_matches_products(self):
        entries = (2, 2)
        ranks, mats = gen.koszul_chain(entries, [4, 0, 5, 2])
        self.assertEqual(products(mats), set())
        for k, cells in enumerate(mats):
            for cell in cells:
                flipped = [dict(c) for c in mats]
                sign, bit = flipped[k][cell]
                flipped[k][cell] = (-sign, bit)
                self.assertEqual(products(flipped), checks.flip_failures(ranks, mats, k, cell))


class Generators(unittest.TestCase):
    def test_documents_round_trip(self):
        entries = (2, 0, 1)
        for mask in gen.balanced_grid(entries):
            self.assertEqual(gen.json_to_mask(gen.face_to_json(mask, entries), entries), mask)
        self.assertEqual(len(gen.latin_balanced((6, 6, 6))), 49)

    def test_relabelling_is_a_symmetry(self):
        entries = (1, 1, 2)
        rng = random.Random(5)
        cms = set(gen.component_masks(entries))
        for _ in range(20):
            perm = gen.shape_relabelling(entries, rng)
            self.assertEqual(sorted(perm.values()), list(range(gen.num_vertices(entries))))
            self.assertEqual({gen.relabel([cm], perm)[0] for cm in cms}, cms)


if __name__ == "__main__":
    unittest.main()
