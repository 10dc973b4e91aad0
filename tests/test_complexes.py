import itertools
import random

import pytest

from vcmkit import (
    InvalidVertexError,
    Shape,
    SimplicialComplex,
    Vertex,
    irrelevant_complex,
    is_relevant,
    union,
)
from helpers import (
    ODD_VERTICES,
    FaceNotInComplexError,
    antichains_nonvoid,
    bits_key_tuple,
    cone,
    cx,
    faces_bruteforce,
    gallery_connected_pairwise,
    link,
    link_bruteforce,
    mask_of_bits,
    maximal_masks_pairwise,
    outcome,
    random_complex,
    restriction,
    restriction_bruteforce,
)

V = Vertex


class TestShape:
    def test_validation(self):
        with pytest.raises(ValueError):
            Shape(())
        with pytest.raises(ValueError):
            Shape((1, -1))
        assert Shape([2, 2]).entries == (2, 2)

    def test_counts(self):
        s = Shape((2, 0, 1))
        assert s.r == 3
        assert s.weight == 3
        assert s.num_vertices == 6

    def test_bit_round_trip(self):
        for entries in [(1,), (2, 2), (2, 0, 1), (0, 0)]:
            s = Shape(entries)
            for pos in range(s.num_vertices):
                v = s.vertex_at(pos)
                assert s.bit(v) == pos
            assert len(s.vertices()) == s.num_vertices

    def test_vertex_validation(self):
        s = Shape((1, 1))
        assert s.is_valid_vertex(V(1, 1))
        assert not s.is_valid_vertex(V(3, 0))
        assert not s.is_valid_vertex(V(1, 2))
        assert not s.is_valid_vertex(V(0, 0))
        with pytest.raises(InvalidVertexError):
            s.bit(V(3, 0))
        with pytest.raises(InvalidVertexError):
            s.vertex_at(4)

    def test_component_masks_partition(self):
        s = Shape((2, 0, 1))
        acc = 0
        for m in s.component_masks:
            assert acc & m == 0
            acc |= m
        assert acc == s.full_mask

    def test_balanced_masks(self):
        assert len(Shape((1, 1)).balanced_masks()) == 4
        assert len(Shape((2, 1)).balanced_masks()) == 6
        assert len(Shape((2, 2)).balanced_masks()) == 9
        assert Shape((0, 0)).balanced_masks() == (0b11,)

    def test_bits_key_orders_as_the_bit_tuples(self):
        # Seeded masks of mixed sizes, with 0, prefixes of one another and
        # masks of up to 70 bits: sorting by the string key and by the tuple
        # of bit positions gives one order, and equal keys mean equal masks.
        s = Shape((2, 2))
        rng = random.Random(20261018)
        masks = [0, 1, 2, 3, 5, 1 << 69, (1 << 70) - 1]
        for _ in range(3000):
            m = rng.getrandbits(rng.randint(1, 70))
            masks += [m, m & ((1 << rng.randint(0, m.bit_length())) - 1)]
        assert sorted(masks, key=s.bits_key) == sorted(masks, key=bits_key_tuple)
        assert len({s.bits_key(m) for m in masks}) == len(set(masks))
        assert s.bits_key(0) == ""

    def test_mask_face_round_trip(self):
        s = Shape((2, 2))
        face = frozenset({V(1, 0), V(2, 2)})
        assert s.face_from_mask(s.mask_of(face)) == face


class TestMaskOfTable:
    """Shape.mask_of reads vertices through its table and falls back to
    Shape.bit; it must agree with the bit() path on every input."""

    SHAPES = [(1,), (2, 2), (2, 0, 1), (0, 0), (3, 1, 2)]

    @staticmethod
    def as_vertex_like(item):
        # Lists are unhashable; give the table tuples, Vertex and lists alike.
        return tuple(item) if isinstance(item, list) else item

    def test_valid_faces_in_every_spelling(self):
        rng = random.Random(20261018)
        for entries in self.SHAPES:
            s = Shape(entries)
            for _ in range(50):
                face = rng.sample(s.vertices(), rng.randint(0, s.num_vertices))
                want = mask_of_bits(s, face)
                assert s.mask_of(face) == want
                assert s.mask_of([tuple(v) for v in face]) == want
                assert s.mask_of([list(v) for v in face]) == want
                assert s.mask_of(iter(face)) == want

    def test_odd_vertices_match_the_bit_path(self):
        rng = random.Random(20261019)
        for entries in self.SHAPES:
            s = Shape(entries)
            valid = list(s.vertices())
            for odd in ODD_VERTICES:
                for item in (odd, self.as_vertex_like(odd)):
                    for _ in range(4):
                        face = rng.sample(valid, rng.randint(0, len(valid)))
                        face.insert(rng.randrange(len(face) + 1), item)
                        want = outcome(mask_of_bits, s, face)
                        assert outcome(s.mask_of, face) == want, (entries, face)
                        # A one-pass iterator must give the same answer: the
                        # fallback picks up at the odd vertex, not at the start.
                        assert outcome(s.mask_of, iter(face)) == want, (entries, face)

    def test_bool_and_float_vertices_read_as_today(self):
        s = Shape((1, 1))
        assert s.mask_of([(True, 0)]) == s.mask_of([(1.0, 0)]) == s.mask_of([V(1, 0)]) == 1
        assert s.mask_of(["21"]) == 1 << s.bit(V(2, 1))
        with pytest.raises(InvalidVertexError, match="does not live on shape"):
            s.mask_of([(1, -1)])
        with pytest.raises(InvalidVertexError, match="cannot read"):
            s.mask_of([(1, 0, 0)])


class TestConstruction:
    def test_absorption_and_dedup(self):
        d = cx((3,), [(1, 0), (1, 1)], [(1, 0)], [(1, 0), (1, 1)], [(1, 2)])
        assert d.facets == (frozenset({V(1, 0), V(1, 1)}), frozenset({V(1, 2)}),)

    def test_void_and_empty_face(self):
        void = SimplicialComplex.from_facets(Shape((1,)), [])
        assert void.is_void
        assert void.dim is None
        assert void.face_masks() == ()
        irr = cx((1,), [])
        assert not irr.is_void
        assert irr.dim == -1
        assert irr.facet_masks == (0,)

    def test_invalid_facet(self):
        with pytest.raises(InvalidVertexError):
            cx((1, 1), [(1, 0), (3, 0)])

    def test_canonical_facet_order(self):
        # Lexicographic on vertex tuples, not on raw masks.
        d = cx((1, 1), [(1, 1), (2, 0)], [(1, 0), (2, 1)])
        assert d.facets == (
            frozenset({V(1, 0), V(2, 1)}),
            frozenset({V(1, 1), V(2, 0)}),
        )


    def test_matches_pairwise_domination_scan(self):
        rng = random.Random(20261019)
        cases = [(), (0,), (0, 0), (0, 0b1), (0b1, 0b10, 0)]
        for _ in range(2000):
            n = rng.randint(1, 9)
            masks = [rng.getrandbits(n) for _ in range(rng.randint(1, 10))]
            masks += [m & rng.getrandbits(n) for m in rng.sample(masks, rng.randint(0, len(masks)))]
            masks += rng.sample(masks, rng.randint(0, min(3, len(masks))))
            if rng.random() < 0.2:
                masks.append(0)
            rng.shuffle(masks)
            cases.append(tuple(masks))
        shape = Shape((8,))
        for masks in cases:
            want = tuple(sorted(maximal_masks_pairwise(masks), key=shape.bits_key))
            assert SimplicialComplex(shape, masks).facet_masks == want


class TestQueries:
    def test_dim_and_pure(self, fig1):
        assert fig1.complex.dim == 3
        assert fig1.complex.is_pure()
        mixed = cx((3,), [(1, 0), (1, 1)], [(1, 2)])
        assert not mixed.is_pure()
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets(Shape((1,)), []).is_pure()

    def test_faces_against_bruteforce(self):
        rng = random.Random(20260823)
        for entries in [(2, 1), (1, 1, 1), (4,)]:
            for _ in range(10):
                d = random_complex(Shape(entries), rng)
                got = set(d.faces())
                assert got == faces_bruteforce(d)

    def test_is_face(self, fig1):
        d = fig1.complex
        assert d.is_face([V(2, 0), V(2, 1)])
        assert d.is_face([])
        assert not d.is_face([V(1, 0), V(1, 1)])


class TestLink:
    def test_fig1_de_link(self, fig1):
        lk = link(fig1.complex, [V(2, 0), V(2, 1)])
        assert set(lk.facets) == {
            frozenset({V(1, 0), V(2, 2)}),
            frozenset({V(1, 1), V(1, 2)}),
        }

    def test_link_of_empty_face(self, fig1):
        assert link(fig1.complex, []) == fig1.complex

    def test_link_missing_face(self, fig1):
        with pytest.raises(FaceNotInComplexError):
            link(fig1.complex, [V(1, 0), V(1, 1)])

    def test_link_against_bruteforce(self):
        rng = random.Random(7)
        for _ in range(25):
            d = random_complex(Shape((2, 2)), rng)
            if d.is_void:
                continue
            faces = sorted(d.face_masks())
            sigma = d.shape.face_from_mask(rng.choice(faces))
            assert set(link(d, sigma).facets) == link_bruteforce(d, sigma)


class TestRestriction:
    def test_fig1_restriction(self, fig1):
        r = restriction(fig1.complex, [V(1, 0), V(1, 1)])
        assert set(r.facets) == {frozenset({V(1, 0)}), frozenset({V(1, 1)})}

    def test_full_and_empty_window(self, fig1):
        d = fig1.complex
        assert restriction(d, d.shape.vertices()) == d
        assert restriction(d, []).facet_masks == (0,)

    def test_restriction_against_bruteforce(self):
        rng = random.Random(11)
        shape = Shape((2, 1))
        for _ in range(25):
            d = random_complex(shape, rng)
            window = rng.sample(shape.vertices(), rng.randint(0, shape.num_vertices))
            got = restriction(d, window)
            if d.is_void:
                assert got.is_void
                continue
            assert set(got.facets) == restriction_bruteforce(d, window)


class TestCone:
    def test_cone_simplex(self):
        d = cx((3,), [(1, 0), (1, 1)])
        c = cone(d, V(1, 3))
        assert c.facets == (frozenset({V(1, 0), V(1, 1), V(1, 3)}),)

    def test_cone_of_empty_face_complex(self):
        d = cx((1,), [])
        assert cone(d, V(1, 0)).facets == (frozenset({V(1, 0)}),)

    def test_cone_void(self):
        void = SimplicialComplex.from_facets(Shape((1,)), [])
        assert cone(void, V(1, 0)).is_void

    def test_cone_used_vertex(self, fig1):
        with pytest.raises(ValueError):
            cone(fig1.complex, V(1, 0))

    def test_cone_dim(self):
        rng = random.Random(13)
        shape = Shape((5,))
        for _ in range(10):
            d = random_complex(Shape((4,)), rng, max_facets=3)
            if d.is_void:
                continue
            lifted = SimplicialComplex(shape, d.facet_masks)
            c = cone(lifted, V(1, 5))
            assert c.dim == d.dim + 1
            assert all(m >> 5 & 1 for m in c.facet_masks)


class TestComponentPredicates:
    def test_is_relevant(self):
        shape = Shape((2, 2))
        assert is_relevant([V(1, 0), V(2, 1)], shape)
        assert not is_relevant([V(1, 0), V(1, 1)], shape)
        assert not is_relevant([], shape)

    def test_is_balanced(self, fig1):
        assert not fig1.complex.is_balanced()
        grid = cx((1, 1), [(1, 0), (2, 0)], [(1, 1), (2, 1)])
        assert grid.is_balanced()
        assert not cx((1, 1), []).is_balanced()
        assert SimplicialComplex.from_facets(Shape((1, 1)), []).is_balanced()

    def test_remove_irrelevant_facets(self, c34):
        assert c34.complex.remove_irrelevant_facets() == c34.complex
        mixed = cx((1, 1), [(1, 0), (2, 0)], [(1, 1)])
        cleaned = mixed.remove_irrelevant_facets()
        assert cleaned.facets == (frozenset({V(1, 0), V(2, 0)}),)
        assert cleaned.remove_irrelevant_facets() == cleaned

    def test_remove_irrelevant_all(self):
        d = cx((1, 1), [(1, 0)], [(1, 1)])
        assert d.remove_irrelevant_facets().is_void


class TestGallery:
    def test_fig1_not_gallery_connected(self, fig1):
        assert not fig1.complex.gallery_connected()

    def test_single_facet(self):
        assert cx((2,), [(1, 0), (1, 1)]).gallery_connected()
        assert cx((1,), []).gallery_connected()

    def test_path_of_triangles(self):
        d = cx((5,), [(1, 0), (1, 1), (1, 2)], [(1, 1), (1, 2), (1, 3)],
               [(1, 2), (1, 3), (1, 4)])
        assert d.gallery_connected()

    def test_impure_raises(self):
        with pytest.raises(ValueError):
            cx((3,), [(1, 0), (1, 1)], [(1, 2)]).gallery_connected()

    def test_against_bruteforce(self):
        rng = random.Random(23)
        for _ in range(30):
            masks = [sum(1 << p for p in rng.sample(range(6), 3)) for _ in range(rng.randint(1, 5))]
            d = SimplicialComplex(Shape((5,)), tuple(masks))
            if not d.is_pure():
                continue
            # Independent reachability over the facet graph.
            fs = d.facet_masks
            adj = {i: [j for j in range(len(fs)) if j != i
                       and bin(fs[i] & fs[j]).count("1") == 2]
                   for i in range(len(fs))}
            seen, frontier = {0}, [0]
            while frontier:
                nxt = [j for i in frontier for j in adj[i] if j not in seen]
                seen.update(nxt)
                frontier = nxt
            assert d.gallery_connected() == (len(seen) == len(fs))

    def test_against_pairwise_on_all_pure_five_vertex_complexes(self):
        shape = Shape((4,))
        cases = [SimplicialComplex(shape, masks) for masks in antichains_nonvoid(5)]
        cases.append(SimplicialComplex(shape, (0,)))
        verdicts = set()
        for d in cases:
            if d.is_pure():
                want = gallery_connected_pairwise(d)
                assert d.gallery_connected() == want
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_against_pairwise_on_seeded_unions(self):
        rng = random.Random(20261018)
        verdicts = set()
        for entries in [(1, 1, 1), (2, 2, 2), (3, 3, 2), (2, 2, 1, 1)]:
            shape = Shape(entries)
            grid = shape.balanced_masks()
            top = min(12, len(grid))
            for _ in range(8):
                a, b = (SimplicialComplex(shape, tuple(rng.sample(grid, rng.randint(1, top))))
                        for _ in range(2))
                for d in (a, union(a, b), union(a, irrelevant_complex(shape))):
                    want = gallery_connected_pairwise(d)
                    assert d.gallery_connected() == want
                    verdicts.add(want)
        assert verdicts == {True, False}


class TestRelabelling:
    def test_union(self):
        a = cx((1, 1), [(1, 0), (2, 0)])
        b = cx((1, 1), [(1, 0)], [(1, 1), (2, 1)])
        u = union(a, b)
        assert len(u.facet_masks) == 2  # (1,0) absorbed into a's facet
        with pytest.raises(ValueError):
            union(a, cx((2,), [(1, 0)]))

    def test_antichain_preserved_under_ops(self):
        rng = random.Random(31)
        for _ in range(20):
            d = random_complex(Shape((2, 2)), rng)
            for derived in [restriction(d, rng.sample(d.shape.vertices(), 3))]:
                masks = derived.facet_masks
                for a, b in itertools.combinations(masks, 2):
                    assert a & b not in (a, b)
