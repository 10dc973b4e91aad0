import itertools
import random
from functools import cmp_to_key

import pytest

from vcmkit import (
    Shape,
    SimplicialComplex,
    Vertex,
    balanced_vcm_certificate,
    irrelevant_complex,
    irrelevant_shelling_order,
    is_relevant,
    union,
    verify_shelling,
)
from helpers import (
    DESK_SHAPES,
    FacetKey,
    PairKey,
    balanced_bases,
    compare_facets,
    compare_pairs,
    cx,
    desk_scale_cases,
    face_from_key,
    facet_key,
    find_shelling,
    random_balanced,
    random_certificate_cases,
    verify_shelling_pairwise,
)

V = Vertex


def fs(*verts):
    return frozenset(V(c, j) for c, j in verts)


class TestFacetOrdering:
    def test_pair_order(self):
        a = PairKey(1, 0, 1)
        b = PairKey(1, 0, 2)
        c = PairKey(2, 0, 1)
        assert compare_pairs(a, a) == 0
        assert compare_pairs(a, b) == -1
        assert compare_pairs(b, a) == 1
        assert compare_pairs(b, c) == -1

    def test_rest_dominates_pair(self):
        early = FacetKey(3, PairKey(2, 0, 5), (0,))
        late = FacetKey(3, PairKey(1, 0, 1), (1,))
        assert compare_facets(early, late) == -1
        assert compare_facets(late, early) == 1
        assert compare_facets(early, early) == 0

    def test_same_rest_falls_back_to_pair(self):
        a = FacetKey(2, PairKey(1, 0, 1), (4,))
        b = FacetKey(2, PairKey(3, 0, 1), (4,))
        assert compare_facets(a, b) == -1

    def test_blocks_do_not_mix(self):
        with pytest.raises(ValueError):
            compare_facets(FacetKey(1, PairKey(2, 0, 1), ()),
                           FacetKey(2, PairKey(1, 0, 1), ()))

    def test_sorting_is_total(self):
        keys = [FacetKey(1, PairKey(c, a, b), (r,))
                for c in (2, 3) for a, b in [(0, 1), (0, 2), (1, 2)] for r in (0, 1)]
        ordered = sorted(keys, key=cmp_to_key(compare_facets))
        for x, y in zip(ordered, ordered[1:]):
            assert compare_facets(x, y) <= 0


class TestFacetKey:
    def test_worked_example(self):
        shape = Shape((5, 4, 2, 2))
        face = fs((1, 3), (2, 1), (2, 3), (3, 2))
        key = facet_key(face, shape, excluded=4)
        assert key == FacetKey(4, PairKey(2, 1, 3), (3, 2))
        assert face_from_key(key, shape) == face

    def test_round_trip_all_block_facets(self):
        shape = Shape((2, 1, 1))
        for excluded in (1, 2, 3):
            block = [f for f in irrelevant_complex(shape).facets
                     if not any(v.component == excluded for v in f)]
            for face in block:
                assert face_from_key(facet_key(face, shape, excluded), shape) == face

    def test_rejects_bad_faces(self):
        shape = Shape((2, 2, 2))
        with pytest.raises(ValueError):
            facet_key(fs((1, 0), (1, 1), (3, 0)), shape, excluded=3)  # touches excluded
        with pytest.raises(ValueError):
            facet_key(fs((1, 0), (1, 1), (2, 0), (2, 1)), shape, excluded=3)  # two pairs
        with pytest.raises(ValueError):
            facet_key(fs((1, 0), (2, 0), (3, 0)), shape, excluded=3)  # no pair
        with pytest.raises(ValueError):
            facet_key(fs((1, 0), (1, 1)), shape, excluded=3)  # misses component 2


class TestVerifyShelling:
    def test_two_triangles_sharing_an_edge(self):
        d = cx((3,), [(1, 0), (1, 1), (1, 2)], [(1, 0), (1, 1), (1, 3)])
        assert verify_shelling(d, d.facets) == (True, None)

    def test_order_dependence(self):
        abc = [(1, 0), (1, 1), (1, 2)]
        bcd = [(1, 1), (1, 2), (1, 3)]
        cde = [(1, 2), (1, 3), (1, 4)]
        d = cx((4,), abc, bcd, cde)
        good = [fs(*abc), fs(*bcd), fs(*cde)]
        bad = [fs(*abc), fs(*cde), fs(*bcd)]
        assert verify_shelling(d, good).ok
        assert verify_shelling(d, bad) == (False, (2, 1))

    def test_disjoint_edges_fail_both_ways(self):
        d = cx((3,), [(1, 0), (1, 1)], [(1, 2), (1, 3)])
        e1, e2 = d.facets
        assert verify_shelling(d, [e1, e2]) == (False, (2, 1))
        assert verify_shelling(d, [e2, e1]) == (False, (2, 1))

    def test_singletons_always_shell(self):
        d = cx((2,), [(1, 0)], [(1, 1)], [(1, 2)])
        assert verify_shelling(d, d.facets).ok

    def test_empty_face_complex(self):
        d = cx((1,), [])
        assert verify_shelling(d, [frozenset()]).ok

    def test_witness_names_the_offending_pair(self):
        # The fourth facet is fine against the first two but meets the third
        # in a vertex outside every ridge, so the witness is (4, 3).
        f1 = [(1, 0), (1, 1), (1, 2)]
        f2 = [(1, 1), (1, 2), (1, 3)]
        f3 = [(1, 2), (1, 3), (1, 4)]
        f4 = [(1, 0), (1, 1), (1, 4)]
        d = cx((4,), f1, f2, f3, f4)
        order = [fs(*f) for f in (f1, f2, f3, f4)]
        assert verify_shelling(d, order) == (False, (4, 3))

    def test_validation(self):
        pure = cx((2,), [(1, 0), (1, 1)], [(1, 1), (1, 2)])
        impure = cx((2,), [(1, 0), (1, 1)], [(1, 2)])
        with pytest.raises(ValueError):
            verify_shelling(impure, impure.facets)
        with pytest.raises(ValueError):
            verify_shelling(SimplicialComplex.from_facets(Shape((1,)), []), [])
        with pytest.raises(ValueError):
            verify_shelling(pure, pure.facets[:1])
        with pytest.raises(ValueError):
            verify_shelling(pure, [pure.facets[0], pure.facets[0]])

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(20260831)
        found_some, found_none = 0, 0
        while found_some < 5 or found_none < 2:
            size = rng.randint(2, 3)
            pool = [frozenset(rng.sample(range(5), size)) for _ in range(rng.randint(2, 4))]
            facets = [[(1, i) for i in f] for f in pool]
            d = cx((4,), *facets)
            if not d.is_pure() or len(d.facets) < 2:
                continue
            order = find_shelling(d)
            if order is None:
                found_none += 1
                for perm in [list(d.facets), list(reversed(d.facets))]:
                    assert not verify_shelling(d, perm).ok
            else:
                found_some += 1
                assert verify_shelling(d, order).ok



class TestVerifyShellingAgainstPairwiseOracle:
    """The restriction-set checker against the pairwise O(F^2) scan."""

    @staticmethod
    def emitted_orders():
        # The orders of acceptance criteria 5 and 6; criterion 9 replays them.
        yield from desk_scale_cases()
        for delta, cert in random_certificate_cases():
            yield union(delta, cert.delta_prime), cert.order

    def test_emitted_orders_and_their_shuffles(self):
        rng = random.Random(20261017)
        outcomes = {True: 0, False: 0}
        for target, order in self.emitted_orders():
            assert verify_shelling(target, order) == verify_shelling_pairwise(target, order)
            assert verify_shelling(target, order).ok
            for _ in range(3):
                shuffled = rng.sample(order, len(order))
                got = verify_shelling(target, shuffled)
                assert got == verify_shelling_pairwise(target, shuffled)
                outcomes[got.ok] += 1
        assert outcomes[False] > outcomes[True] > 0

    def test_random_pure_complexes(self):
        rng = random.Random(20261018)
        sizes, outcomes = set(), set()
        for _ in range(3000):
            n = rng.randint(1, 9)
            size = rng.randint(0, n)
            pool = list(itertools.combinations(range(n), size))
            facets = rng.sample(pool, rng.randint(1, min(len(pool), 12)))
            d = SimplicialComplex.from_facets(
                Shape((n - 1,)), [[V(1, i) for i in f] for f in facets])
            order = rng.sample(d.facets, len(d.facets))
            got = verify_shelling(d, order)
            assert got == verify_shelling_pairwise(d, order)
            sizes.add(size)
            outcomes.add(got.ok)
        assert sizes == set(range(10)) and outcomes == {True, False}


class TestIrrelevantComplex:
    def test_two_factors_of_lines(self):
        d = irrelevant_complex(Shape((1, 1)))
        assert set(d.facets) == {fs((1, 0), (1, 1)), fs((2, 0), (2, 1))}

    @pytest.mark.parametrize("entries,count", [
        ((2, 1), 4),
        ((2, 2), 6),
        ((1, 1, 1), 12),
        ((2, 1, 1), 22),
        ((2, 2, 2), 54),
    ])
    def test_facet_counts(self, entries, count):
        assert len(irrelevant_complex(Shape(entries)).facets) == count

    def test_single_factor_is_void(self):
        assert irrelevant_complex(Shape((3,))).is_void
        assert irrelevant_complex(Shape((0, 0))).is_void

    def test_structure(self):
        shape = Shape((2, 1, 1))
        d = irrelevant_complex(shape)
        assert d.is_pure() and d.dim == shape.r - 1
        for f in d.facets:
            assert not is_relevant(f, shape)
            per_component = [sum(v.component == c for v in f) for c in (1, 2, 3)]
            assert sorted(per_component) == [0, 1, 2]


    @pytest.mark.parametrize("entries", DESK_SHAPES + ((2, 0, 1), (1, 0), (1, 1, 1, 1)))
    def test_matches_brute_force(self, entries):
        # Every r-set with one component doubled, one missed, one vertex elsewhere.
        shape = Shape(entries)
        want = set()
        for face in itertools.combinations(shape.vertices(), shape.r):
            counts = sorted(sum(v.component == c for v in face)
                            for c in range(1, shape.r + 1))
            if counts == [0] + [1] * (shape.r - 2) + [2]:
                want.add(frozenset(face))
        assert set(irrelevant_complex(shape).facets) == want


class TestIrrelevantShellingOrder:
    @pytest.mark.parametrize("entries", DESK_SHAPES)
    def test_order_lists_the_irrelevant_complex_once(self, entries):
        shape = Shape(entries)
        irr = irrelevant_complex(shape)
        for base in balanced_bases(shape):
            order = irrelevant_shelling_order(shape, base)
            assert len(set(order[1:])) == len(order) - 1
            assert set(order[1:]) == set(irr.facets)
            delta = SimplicialComplex.from_facets(shape, [base])
            assert balanced_vcm_certificate(delta).delta_prime == irr

    def test_two_lines(self):
        shape = Shape((1, 1))
        base = fs((1, 0), (2, 0))
        order = irrelevant_shelling_order(shape, base)
        assert order == (base, fs((1, 0), (1, 1)), fs((2, 0), (2, 1)))

    def test_base_away_from_zero(self):
        shape = Shape((1, 1))
        base = fs((1, 1), (2, 0))
        order = irrelevant_shelling_order(shape, base)
        assert order == (base, fs((1, 0), (1, 1)), fs((2, 0), (2, 1)))

    def test_two_planes(self):
        shape = Shape((2, 2))
        base = fs((1, 0), (2, 0))
        order = irrelevant_shelling_order(shape, base)
        assert order == (
            base,
            fs((1, 0), (1, 1)), fs((1, 0), (1, 2)), fs((1, 1), (1, 2)),
            fs((2, 0), (2, 1)), fs((2, 0), (2, 2)), fs((2, 1), (2, 2)),
        )

    def test_three_lines_block_structure(self):
        shape = Shape((1, 1, 1))
        base = fs((1, 0), (2, 0), (3, 0))
        order = irrelevant_shelling_order(shape, base)
        assert len(order) == 13
        assert order[:5] == (
            base,
            fs((1, 0), (1, 1), (2, 0)),
            fs((1, 0), (2, 0), (2, 1)),
            fs((1, 0), (1, 1), (2, 1)),
            fs((1, 1), (2, 0), (2, 1)),
        )
        # Blocks exclude components r, r-1, ..., 1 in turn.
        excluded = [next(c for c in (1, 2, 3)
                         if not any(v.component == c for v in f))
                    for f in order[1:]]
        assert excluded == [3] * 4 + [2] * 4 + [1] * 4

    @pytest.mark.parametrize("entries", [(1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 2, 2)])
    def test_orders_verify(self, entries):
        shape = Shape(entries)
        rng = random.Random(sum(entries))
        base = random_balanced(shape, rng).facets[0]
        order = irrelevant_shelling_order(shape, base)
        target = union(irrelevant_complex(shape),
                       SimplicialComplex.from_facets(shape, [base]))
        assert verify_shelling(target, order).ok

    @pytest.mark.parametrize("entries", DESK_SHAPES)
    def test_blocks_follow_compare_facets(self, entries):
        shape = Shape(entries)
        base = frozenset(V(c, 0) for c in range(1, shape.r + 1))
        order = irrelevant_shelling_order(shape, base)[1:]
        rng = random.Random(sum(entries))
        for k in range(shape.r, 0, -1):
            block = [facet_key(f, shape, k) for f in order
                     if not any(v.component == k for v in f)]
            shuffled = rng.sample(block, len(block))
            assert sorted(shuffled, key=cmp_to_key(compare_facets)) == block
            assert sorted(shuffled, key=lambda key: (key.rest, key.pair)) == block

    def test_validation(self):
        with pytest.raises(ValueError):
            irrelevant_shelling_order(Shape((1, 0)), fs((1, 0), (2, 0)))
        with pytest.raises(ValueError):
            irrelevant_shelling_order(Shape((1, 1)), fs((1, 0), (1, 1)))


class TestBalancedCertificate:
    def test_single_balanced_edge(self):
        d = cx((1, 1), [(1, 0), (2, 0)])
        cert = balanced_vcm_certificate(d)
        assert cert.delta_prime == irrelevant_complex(d.shape)
        assert len(cert.order) == 3
        assert verify_shelling(union(d, cert.delta_prime), cert.order).ok

    def test_every_balanced_facet(self):
        shape = Shape((1, 1))
        d = SimplicialComplex(shape, shape.balanced_masks())
        cert = balanced_vcm_certificate(d)
        assert len(cert.order) == 6
        assert verify_shelling(union(d, cert.delta_prime), cert.order).ok

    def test_cone_shape(self):
        d = cx((1, 0), [(1, 0), (2, 0)], [(1, 1), (2, 0)])
        cert = balanced_vcm_certificate(d)
        assert cert.delta_prime.is_void
        assert cert.order == (fs((1, 0), (2, 0)), fs((1, 1), (2, 0)))

    def test_point_shape(self):
        d = cx((0, 0), [(1, 0), (2, 0)])
        cert = balanced_vcm_certificate(d)
        assert cert.delta_prime.is_void
        assert cert.order == (fs((1, 0), (2, 0)),)

    def test_zero_entry_in_the_middle(self):
        d = cx((2, 0, 1), [(1, 0), (2, 0), (3, 0)], [(1, 2), (2, 0), (3, 1)])
        cert = balanced_vcm_certificate(d)
        apex = V(2, 0)
        assert not cert.delta_prime.is_void
        for f in cert.delta_prime.facets:
            assert apex in f
            assert not is_relevant(f, d.shape)
        assert verify_shelling(union(d, cert.delta_prime), cert.order).ok

    @pytest.mark.parametrize("entries", [(1, 1), (2, 1), (1, 0), (2, 0, 1), (1, 1, 1)])
    def test_random_balanced_complexes(self, entries):
        shape = Shape(entries)
        rng = random.Random(7000 + sum(entries) * 7 + len(entries))
        for _ in range(5):
            d = random_balanced(shape, rng)
            cert = balanced_vcm_certificate(d)
            assert all(not is_relevant(f, shape) for f in cert.delta_prime.facets)
            combined = union(d, cert.delta_prime)
            assert verify_shelling(combined, cert.order).ok
            assert set(cert.order) == set(combined.facets)

    def test_validation(self):
        with pytest.raises(ValueError):
            balanced_vcm_certificate(SimplicialComplex.from_facets(Shape((1, 1)), []))
        with pytest.raises(ValueError, match="x_1_1"):
            balanced_vcm_certificate(cx((1, 1), [(1, 0), (1, 1)]))
