import functools
import operator
import random

import pytest

from vcmkit import (
    EmptyVarietyError,
    FaceLimitError,
    Shape,
    SimplicialComplex,
    SqfIdeal,
    UnitIdealError,
    Vertex,
    VertexLimitError,
    codim,
    codim_affine,
    complex_of,
    ideal_of,
    irrelevant_complex,
    saturate_by_B,
    saturation_oracle,
    union,
)
from vcmkit import complexes, homology, stanley_reisner
from vcmkit.stanley_reisner import _intersect, _minimalize, _Packing, is_saturated
from helpers import (
    antichains_nonvoid,
    complex_of_table,
    contains_monomial_mask,
    cx,
    exponent_vectors,
    ideal_from_faces,
    ideal_of_grown,
    ideal_of_walk,
    intersect_pairwise,
    irrelevant_as_ideal,
    minimal_generators_pairwise,
    minimal_nonfaces_bruteforce,
    minimalize_pairwise,
    prime_components,
    random_balanced,
    random_complex,
    saturation_oracle_tuples,
)

V = Vertex


def _label_faces(words):
    table = {"a": V(1, 0), "b": V(1, 1), "c": V(1, 2),
             "d": V(2, 0), "e": V(2, 1), "f": V(2, 2)}
    return {frozenset(table[ch] for ch in w) for w in words}


class TestSqfIdeal:
    def test_minimalisation(self):
        shape = Shape((3,))
        ideal = ideal_from_faces(shape, [[V(1, 0)], [V(1, 0), V(1, 1)], [V(1, 2), V(1, 3)]])
        assert ideal.generators == (
            frozenset({V(1, 0)}),
            frozenset({V(1, 2), V(1, 3)}),
        )

    def test_unit_flag(self):
        shape = Shape((1,))
        ideal = ideal_from_faces(shape, [[]])
        assert ideal.is_unit and ideal.generator_masks == ()
        assert contains_monomial_mask(ideal, 0)

    def test_zero_ideal(self):
        ideal = SqfIdeal(Shape((1,)), ())
        assert ideal.is_zero and not ideal.is_unit

    def test_membership(self):
        shape = Shape((3,))
        ideal = ideal_from_faces(shape, [[V(1, 0), V(1, 1)]])
        assert contains_monomial_mask(ideal, 0b011)
        assert contains_monomial_mask(ideal, 0b111)
        assert not contains_monomial_mask(ideal, 0b101)


class TestIdealOf:
    def test_full_simplex(self):
        assert ideal_of(cx((2,), [(1, 0), (1, 1), (1, 2)])).is_zero

    def test_empty_face_complex(self):
        shape = Shape((1, 0))
        ideal = ideal_of(cx((1, 0), []))
        assert ideal.generators == tuple(frozenset({v}) for v in shape.vertices())

    def test_void_is_unit(self):
        assert ideal_of(SimplicialComplex.from_facets(Shape((1,)), [])).is_unit

    def test_single_balanced_edge(self):
        ideal = ideal_of(cx((1, 1), [(1, 0), (2, 0)]))
        assert ideal.generators == (frozenset({V(1, 1)}), frozenset({V(2, 1)}))

    def test_fig1_generators(self, fig1):
        assert set(ideal_of(fig1.complex).generators) == _label_faces(
            ["ab", "ac", "bf", "cf"])

    def test_counterexample_generators(self, c34):
        assert set(ideal_of(c34.complex).generators) == _label_faces(
            ["abcd", "abcf", "abde", "abef", "adef", "bcef", "cdef"])

    def test_one_edge_on_a_wide_shape(self):
        # 1,998 singleton generators, minimal as found, so only sorted.
        shape = Shape((1999,))
        ideal = ideal_of(SimplicialComplex(shape, (0b11,)))
        assert ideal.generator_masks == tuple(1 << p for p in range(2, 2000))
        assert not ideal.is_unit

    def test_against_bruteforce(self):
        rng = random.Random(41)
        for entries in [(2, 1), (1, 1, 1)]:
            for _ in range(15):
                d = random_complex(Shape(entries), rng)
                if d.is_void:
                    continue
                assert set(ideal_of(d).generators) == minimal_nonfaces_bruteforce(d)


class TestComplexOf:
    def test_unit_raises(self):
        with pytest.raises(UnitIdealError):
            complex_of(ideal_from_faces(Shape((1,)), [[]]))

    def test_zero_gives_full_simplex(self):
        for entries in [(1, 1), (999,)]:
            shape = Shape(entries)
            d = complex_of(SqfIdeal(shape, ()))
            assert d.facet_masks == (shape.full_mask,)

    def test_cone_round_trip(self):
        # A seeded complex joined with apex vertices, which lie in every
        # facet and in no generator; the apexes are spread over components.
        rng = random.Random(20261105)
        for entries in [(2, 2, 3), (3, 0, 4), (1, 5, 1, 1)]:
            shape = Shape(entries)
            for _ in range(20):
                apexes = rng.randrange(1 << shape.num_vertices)
                base = random_complex(shape, rng, max_facets=6)
                d = SimplicialComplex(shape, tuple(f | apexes for f in base.facet_masks))
                if d.is_void:
                    continue
                ideal = ideal_of(d)
                assert not any(g & apexes for g in ideal.generator_masks)
                assert complex_of(ideal) == d

    def test_round_trip_exhaustive_small(self):
        for entries in [(3,), (1, 1)]:
            shape = Shape(entries)
            for masks in antichains_nonvoid(shape.num_vertices):
                d = SimplicialComplex(shape, masks)
                assert complex_of(ideal_of(d)) == d
            empty_face = SimplicialComplex(shape, (0,))
            assert complex_of(ideal_of(empty_face)) == empty_face

    def test_round_trip_sampled_six_vertices(self):
        rng = random.Random(43)
        for entries in [(2, 2), (5,), (1, 0, 1)]:
            shape = Shape(entries)
            for _ in range(40):
                d = random_complex(shape, rng, max_facets=6)
                if d.is_void:
                    continue
                assert complex_of(ideal_of(d)) == d

    def test_ideal_round_trip(self):
        rng = random.Random(47)
        shape = Shape((4,))
        for _ in range(40):
            d = random_complex(shape, rng)
            if d.is_void:
                continue
            ideal = ideal_of(d)
            assert ideal_of(complex_of(ideal)) == ideal


class TestAgainstSubsetWalks:
    """ideal_of, complex_of and SqfIdeal's minimisation against the 2^n walks."""

    SHAPES = ((0,), (1, 0), (0, 0), (0, 2), (2, 0, 1), (0, 0, 0), (2, 2), (1, 1, 1))

    def check(self, d):
        ideal = ideal_of(d)
        if d.is_void:
            assert ideal.is_unit and ideal.generator_masks == ()
            return
        assert ideal.generator_masks == ideal_of_walk(d)
        back = complex_of(ideal)
        assert back == d and set(back.facet_masks) == set(complex_of_table(ideal))

    def test_empty_face_and_void(self):
        for entries in self.SHAPES:
            shape = Shape(entries)
            empty_face = SimplicialComplex(shape, (0,))
            self.check(empty_face)
            assert ideal_of(empty_face).generator_masks == tuple(
                1 << p for p in range(shape.num_vertices))
            self.check(SimplicialComplex(shape, ()))

    def test_zero_ideal(self):
        for entries in self.SHAPES:
            shape = Shape(entries)
            zero = SqfIdeal(shape, ())
            assert complex_of(zero).facet_masks == complex_of_table(zero) == (shape.full_mask,)
            assert ideal_of(complex_of(zero)).is_zero

    def test_vertices_in_no_face(self):
        # Every facet misses the last vertex of each component.
        rng = random.Random(20261101)
        for entries in [(2, 2), (1, 2, 1), (3, 0)]:
            shape = Shape(entries)
            unused = 0
            for bits in shape.component_bits():
                unused |= bits[-1]
            for _ in range(30):
                d = random_complex(shape, rng)
                d = SimplicialComplex(shape, tuple(f & ~unused for f in d.facet_masks))
                self.check(d)
                if not d.is_void:
                    singles = {g for g in ideal_of(d).generator_masks if g.bit_count() == 1}
                    assert singles >= {1 << p for p in range(shape.num_vertices) if unused >> p & 1}

    def test_random_complexes_with_zero_entries(self):
        rng = random.Random(20261102)
        for entries in self.SHAPES:
            shape = Shape(entries)
            for _ in range(25):
                self.check(random_complex(shape, rng, max_facets=6))

    def test_minimisation_with_duplicates_dominated_and_zero(self):
        rng = random.Random(20261103)
        for entries in [(2, 2), (1, 0, 2), (0,), (3, 3)]:
            shape = Shape(entries)
            n = shape.num_vertices
            for _ in range(200):
                masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 8))]
                masks += [m | rng.randrange(1 << n) for m in masks[:rng.randint(0, 3)]]
                masks += rng.sample(masks, min(len(masks), rng.randint(0, 3)))
                if rng.random() < 0.15:
                    masks.append(0)
                rng.shuffle(masks)
                unit = rng.random() < 0.05
                ideal = SqfIdeal(shape, tuple(masks), is_unit=unit)
                assert (ideal.generator_masks, ideal.is_unit) == minimal_generators_pairwise(
                    shape, masks, unit)

    def test_bits_outside_shape(self):
        shape = Shape((1, 1))
        for masks in [(0b10000,), (0b1, 0b100001), (0b11, 0b11, 1 << 70)]:
            with pytest.raises(ValueError, match="uses bits outside shape") as want:
                minimal_generators_pairwise(shape, masks)
            with pytest.raises(ValueError, match="uses bits outside shape") as got:
                SqfIdeal(shape, masks)
            assert str(got.value) == str(want.value)
        # The unit rule comes first: a unit ideal carries no generators to check.
        assert SqfIdeal(shape, (0, 0b10000)).is_unit


def _sampled_union(entries, k, seed):
    """k seeded balanced facets and the irrelevant complex: the unions of the
    benchmark's `algebra` workload and of CI's round-trip step."""
    shape = Shape(entries)
    chosen = SimplicialComplex(shape, tuple(random.Random(seed).sample(shape.balanced_masks(), k)))
    return union(chosen, irrelevant_complex(shape))


class TestAgainstGrownFaces:
    """ideal_of from `face_layers` against growing the faces with a nonface
    test of its own."""

    def test_seeded_unions(self):
        for entries, k in [((3, 3, 3), 19), ((4, 3, 3), 24), ((4, 4, 3), 30), ((6, 6, 5), 40)]:
            for seed in (20261020, 1, 2, 3):
                u = _sampled_union(entries, k, seed)
                ideal = ideal_of(u)
                assert ideal == ideal_of_grown(u)
                assert complex_of(ideal) == u

    def test_dense_18_vertices(self):
        shape = Shape((17,))
        simplex = SimplicialComplex(shape, (shape.full_mask,))
        boundary = SimplicialComplex(shape, tuple(shape.full_mask ^ 1 << p for p in range(18)))
        assert ideal_of(simplex) == ideal_of_grown(simplex) == SqfIdeal(shape, ())
        assert ideal_of(boundary) == ideal_of_grown(boundary) == SqfIdeal(shape, (shape.full_mask,))


class TestFaceBound:
    shape = Shape((20,))  # 21 vertices

    def test_ideal_of_refuses_before_listing_faces(self):
        full = SimplicialComplex(self.shape, (self.shape.full_mask,))
        with pytest.raises(FaceLimitError, match="may hold 2097152 faces, more than the max_faces=1048576"):
            ideal_of(full)

    def test_complex_of_refuses_one_face_past_the_bound(self, monkeypatch):
        # complex_of counts the faces on the generators' vertices only; the
        # other vertices are cone apexes and are never grown.
        shape = Shape((3, 3))
        rng = random.Random(20261104)
        boundary = SimplicialComplex(shape, tuple(shape.full_mask ^ 1 << p for p in range(8)))
        cases = [SimplicialComplex(shape, (shape.full_mask,)), boundary]
        cases += [random_complex(Shape((2, 3)), rng, max_facets=4) for _ in range(10)]
        for d in cases:
            if d.is_void:
                continue
            ideal = ideal_of(d)
            used = functools.reduce(operator.or_, ideal.generator_masks, 0)
            count = sum(1 for layer in d.face_layers() for f in layer if not f & ~used)
            if count == 1:
                # A simplex (the full one has the zero ideal): its vertices are
                # apexes and the others generators, so no face grows at all.
                monkeypatch.setattr(stanley_reisner, "MAX_FACES", 0)
                assert complex_of(ideal) == d
                continue
            if d is boundary:
                assert count == 255
            monkeypatch.setattr(stanley_reisner, "MAX_FACES", count - 1)
            with pytest.raises(FaceLimitError, match=f"more faces than the max_faces={count - 1} face bound"):
                complex_of(ideal)
            monkeypatch.setattr(stanley_reisner, "MAX_FACES", count)
            assert complex_of(ideal) == d

    def test_sparse_complexes_past_20_vertices_round_trip(self):
        wide = Shape((29,))
        cases = [_sampled_union((5, 5, 5, 5), 40, 20261020),
                 SimplicialComplex(wide, (0b111, 0b111 << 27, 1 << 14 | 1 << 29, 0))]
        for d in cases:
            ideal = ideal_of(d)
            assert ideal == ideal_of_grown(d)
            assert complex_of(ideal) == d

    def test_void_complex_is_unit_past_the_bound(self):
        # The void complex has no faces to list, so the bound does not apply.
        assert ideal_of(SimplicialComplex(self.shape, ())).is_unit

    def test_unit_ideal_raises_unit_error_past_the_bound(self):
        with pytest.raises(UnitIdealError):
            complex_of(SqfIdeal(self.shape, (), is_unit=True))

    def test_one_class_everywhere(self):
        assert homology.VertexLimitError is complexes.VertexLimitError is VertexLimitError
        assert issubclass(VertexLimitError, ValueError)
        assert stanley_reisner.FaceLimitError is complexes.FaceLimitError is FaceLimitError


class TestPrimeComponents:
    def test_fig1(self, fig1):
        comps = prime_components(fig1.complex)
        assert [(set(c.vertices), c.codim) for c in comps] == [
            ({V(1, 1), V(1, 2)}, 2),
            ({V(1, 0), V(2, 2)}, 2),
        ]

    def test_counterexample_codims(self, c34):
        comps = prime_components(c34.complex)
        assert len(comps) == 8
        assert all(c.codim == 2 for c in comps)

    def test_full_simplex(self):
        comps = prime_components(cx((2,), [(1, 0), (1, 1), (1, 2)]))
        assert comps == ((frozenset(), 0),)

    def test_intersection_is_ideal(self):
        # A monomial lies in the ideal iff it lies in every minimal prime.
        rng = random.Random(53)
        for _ in range(20):
            d = random_complex(Shape((2, 1)), rng)
            if d.is_void:
                continue
            ideal = ideal_of(d)
            comps = prime_components(d)
            for _ in range(20):
                mask = rng.randrange(1 << d.shape.num_vertices)
                in_every_prime = all(
                    mask & d.shape.mask_of(c.vertices) for c in comps) if comps else True
                assert contains_monomial_mask(ideal, mask) == in_every_prime
                assert contains_monomial_mask(ideal, mask) == (not d.has_face_mask(mask))


class TestIrrelevantIdeal:
    def test_generators(self):
        s = Shape((1, 1))
        assert {s.face_from_mask(m) for m in s.balanced_masks()} == {
            frozenset({V(1, 0), V(2, 0)}),
            frozenset({V(1, 0), V(2, 1)}),
            frozenset({V(1, 1), V(2, 0)}),
            frozenset({V(1, 1), V(2, 1)}),
        }

    def test_as_ideal(self):
        ideal = irrelevant_as_ideal(Shape((0, 0)))
        assert ideal.generator_masks == (0b11,)


class TestSaturation:
    def test_worked_example(self):
        d = cx((1, 1), [(1, 0), (2, 0)], [(1, 1)])
        s = saturate_by_B(d)
        assert s.facets == (frozenset({V(1, 0), V(2, 0)}),)

    def test_fixed_points(self, fig1, c34):
        assert saturate_by_B(fig1.complex) == fig1.complex
        assert saturate_by_B(c34.complex) == c34.complex
        assert is_saturated(fig1.complex)

    def test_all_irrelevant(self):
        d = cx((1, 1), [(1, 0)], [(2, 1)])
        assert saturate_by_B(d).is_void
        assert not is_saturated(d)

    def test_sorts_nothing(self, monkeypatch):
        # Saturation filters the facet set: no facet is put in canonical order.
        def refuse(self, mask):
            raise AssertionError("saturate_by_B sorted facets")

        shape = Shape((1, 2))
        relevant = (0b01001, 0b10010, 0b00110)
        d = SimplicialComplex(shape, relevant + (0b00011, 0b11000))
        monkeypatch.setattr(Shape, "bits_key", refuse)
        assert saturate_by_B(d) == SimplicialComplex(shape, relevant)

    def test_idempotent(self):
        rng = random.Random(59)
        for _ in range(20):
            d = random_complex(Shape((1, 1, 1)), rng)
            s = saturate_by_B(d)
            assert saturate_by_B(s) == s


class TestCodim:
    def test_fixtures(self, fig1, c34):
        assert codim(fig1.complex) == 2
        assert codim_affine(fig1.complex) == 2
        assert codim(c34.complex) == 2
        assert codim_affine(c34.complex) == 2

    def test_balanced_codim_is_weight(self):
        rng = random.Random(61)
        for entries in [(1, 1), (2, 1), (2, 2), (1, 0)]:
            shape = Shape(entries)
            for _ in range(5):
                d = random_balanced(shape, rng)
                assert codim(d) == shape.weight

    def test_no_relevant_facets(self):
        with pytest.raises(EmptyVarietyError):
            codim(cx((1, 1), [(1, 0)]))

    def test_codim_affine_void(self):
        with pytest.raises(EmptyVarietyError):
            codim_affine(SimplicialComplex.from_facets(Shape((1,)), []))

    def test_codim_affine_empty_face(self):
        assert codim_affine(cx((1, 1), [])) == 4

    def test_saturated_pure_agreement(self):
        rng = random.Random(67)
        count = 0
        while count < 25:
            d = saturate_by_B(random_complex(Shape((2, 1)), rng))
            if d.is_void or not d.is_pure():
                continue
            count += 1
            assert codim(d) == codim_affine(d)


class TestSaturationOracle:
    def test_unit_stays_unit(self):
        out = saturation_oracle([(0, 0)], [(1, 0), (0, 1)])
        assert out == [(0, 0)]

    def test_zero_stays_zero(self):
        assert saturation_oracle([], [(1, 0)]) == []

    def test_saturating_by_itself(self):
        gens = [(1, 1, 0), (0, 1, 1)]
        out = saturation_oracle(gens, gens)
        assert out == [(0, 0, 0)]

    def test_worked_example(self):
        # I = (x2, ab-type gens) on four variables a, b, c, d with B the
        # balanced pairs of (1,1): saturation drops to (b, d).
        i_gens = [(0, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0)]
        b_gens = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
        out = saturation_oracle(i_gens, b_gens)
        assert sorted(out) == [(0, 0, 0, 1), (0, 1, 0, 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            saturation_oracle([(1, 0)], [])
        with pytest.raises(ValueError):
            saturation_oracle([(1,)], [(1, 0)])
        with pytest.raises(ValueError):
            saturation_oracle([(-1, 0)], [(1, 0)])

    def test_exponents_above_the_number_of_variables(self):
        # Every degree saturates; nothing is refused for its size.
        assert saturation_oracle([(3, 2)], [(1, 0)]) == [(0, 2)]
        gens = [(9, 0, 4), (5, 7, 0), (0, 6, 8)]
        b = [(2, 0, 0), (0, 0, 5)]
        assert saturation_oracle(gens, b) == saturation_oracle_tuples(gens, b) == [
            (0, 7, 0), (0, 6, 4), (9, 0, 4)]

    def test_intersection_of_support_colons(self):
        # I : B^∞ is the intersection of the I : b^∞, and I : b^∞ sets
        # every variable of supp(b) to 1.
        def minimal(gens):
            kept = []
            for g in sorted(set(gens), key=lambda g: (sum(g), g)):
                if not any(all(x <= y for x, y in zip(k, g)) for k in kept):
                    kept.append(g)
            return kept

        rng = random.Random(83)
        for _ in range(200):
            n = rng.randint(1, 5)
            ideal = [_random_vector(rng, n) for _ in range(rng.randint(1, 4))]
            b = [_random_vector(rng, n) for _ in range(rng.randint(1, 3))]
            per_b = [minimal(tuple(0 if e else x for x, e in zip(g, v)) for g in ideal)
                     for v in b]
            for v, want in zip(b, per_b):
                assert saturation_oracle(ideal, [v]) == want
            whole = per_b[0]
            for part in per_b[1:]:
                whole = minimal(tuple(map(max, x, y)) for x in whole for y in part)
            assert saturation_oracle(ideal, b) == whole == saturation_oracle_tuples(ideal, b)

    def test_matches_combinatorial_on_samples(self):
        rng = random.Random(71)
        shape = Shape((2, 1))
        n = shape.num_vertices
        b_vecs = [tuple(m >> i & 1 for i in range(n)) for m in shape.balanced_masks()]
        for _ in range(20):
            d = random_complex(shape, rng)
            if d.is_void:
                continue
            got = saturation_oracle(exponent_vectors(ideal_of(d)), b_vecs)
            want = exponent_vectors(ideal_of(saturate_by_B(d)))
            assert sorted(got) == sorted(want)


def _outcome(oracle, *args):
    """The oracle's result, or the type and message of what it raised."""
    try:
        return oracle(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _same_as_tuples(*args):
    want = _outcome(saturation_oracle_tuples, *args)
    assert _outcome(saturation_oracle, *args) == want
    return want


def _random_vector(rng, nvars):
    return tuple(rng.randint(1, 9) if rng.random() < 0.5 else 0 for _ in range(nvars))


class TestSaturationOracleAgainstTuples:
    """The packed-int oracle against the colon iteration on plain tuples."""

    def test_random_inputs(self):
        rng = random.Random(20261018)
        outcomes = set()
        for _ in range(1000):
            n = rng.randint(1, 6)
            ideal = [_random_vector(rng, n) for _ in range(rng.randint(0, 4))]
            b = [_random_vector(rng, n) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.1:
                b.insert(rng.randint(0, len(b)), (0,) * n)
            want = _same_as_tuples(ideal, b)
            outcomes.add(want[0] if isinstance(want, tuple) else len(want) > 1)
        # Every input saturates, to one generator or none as well as to several.
        assert outcomes == {True, False}

    def test_zero_vector_in_b(self):
        rng = random.Random(73)
        for _ in range(100):
            n = rng.randint(1, 5)
            ideal = [_random_vector(rng, n) for _ in range(rng.randint(1, 4))]
            b = [_random_vector(rng, n) for _ in range(rng.randint(0, 3))] + [(0,) * n]
            rng.shuffle(b)
            assert _same_as_tuples(ideal, b) == saturation_oracle_tuples(ideal, [(0,) * n])

    def test_unit_zero_and_empty_cases(self):
        for ideal, b in [
            ([(0, 0, 0)], [(1, 0, 2)]),
            ([(3, 1, 0), (0, 0, 0), (0, 2, 0)], [(1, 1, 1), (0, 0, 4)]),
            ([], [(1, 0, 0)]),
            ([], [(0, 0, 0)]),
            ([()], [()]),
            ([], [()]),
        ]:
            _same_as_tuples(ideal, b)

    def test_validation_errors(self):
        for ideal, b in [
            ([(1, 0)], []),
            ([], []),
            ([(1,)], [(1, 0)]),
            ([(1, 0)], [(1, 0), (1,)]),
            ([(-1, 0)], [(1, 0)]),
            ([(1, 0)], [(0, -2)]),
        ]:
            want = _same_as_tuples(ideal, b)
            assert want[0] is ValueError

    def test_all_five_vertex_complexes_on_2_1(self):
        shape = Shape((2, 1))
        n = shape.num_vertices
        b = [tuple(m >> i & 1 for i in range(n)) for m in shape.balanced_masks()]
        cases = [SimplicialComplex(shape, masks) for masks in antichains_nonvoid(5)]
        cases.append(SimplicialComplex(shape, (0,)))
        assert len(cases) == 7580
        for d in cases:
            # The same loop checks the face-set translation against the subset walks.
            ideal = ideal_of(d)
            assert ideal.generator_masks == ideal_of_walk(d)
            assert ideal == SqfIdeal(shape, ideal.generator_masks, ideal.is_unit)
            back = complex_of(ideal)
            assert back == d and set(back.facet_masks) == set(complex_of_table(ideal))
            gens = exponent_vectors(ideal)
            saturated = saturation_oracle(gens, b)
            assert saturated == saturation_oracle_tuples(gens, b)
            # Squaring every exponent commutes with saturation.
            doubled = [tuple(2 * e for e in g) for g in gens]
            assert saturation_oracle(doubled, b) == [tuple(2 * e for e in g) for g in saturated]

    def test_product_structured_b(self):
        # Balanced grids share their prefixes in variable order, so most
        # colons come from the prefix memo, which hands out shared lists.
        rng = random.Random(20261019)
        outcomes = set()
        for entries in [(1, 1), (2, 1), (1, 1, 1), (2, 2)]:
            shape = Shape(entries)
            n = shape.num_vertices
            grid = [[m >> i & 1 for i in range(n)] for m in shape.balanced_masks()]
            for _ in range(80):
                top = rng.choice((1, 3, 9))
                ideal = [[rng.randint(0, top) if rng.random() < 0.4 else 0 for _ in range(n)]
                         for _ in range(rng.randint(0, 8))]
                power = rng.choice((1, 1, 2))
                b = [[e * power for e in v] for v in grid]
                b += [list(v) for v in rng.sample(b, rng.randint(0, 3))]
                if rng.random() < 0.2:
                    b.append([0] * n)
                rng.shuffle(b)
                ideal_before = [list(v) for v in ideal]
                b_before = [list(v) for v in b]
                want = _same_as_tuples(ideal, b)
                assert ideal == ideal_before and b == b_before
                outcomes.add(want[0] if isinstance(want, tuple) else len(want) > 1)
                # Saturating by b depends on supp(b) alone, however large b's exponents.
                for top in (1, 10**6):
                    supports = [[top if e else 0 for e in v] for v in b]
                    assert saturation_oracle(ideal, supports) == want
        assert outcomes == {True, False}


def _seeded_union(shape, rng):
    """A random set of balanced facets together with the irrelevant complex."""
    grid = shape.balanced_masks()
    chosen = SimplicialComplex(shape, tuple(rng.sample(grid, rng.randint(1, len(grid) // 2))))
    return union(chosen, irrelevant_complex(shape))


def _b_vectors(shape):
    n = shape.num_vertices
    return [tuple(m >> i & 1 for i in range(n)) for m in shape.balanced_masks()]


@pytest.fixture
def intersections(monkeypatch):
    """A list that grows by one entry per `_intersect` call."""
    calls = []
    intersect = stanley_reisner._intersect

    def counted(*args):
        calls.append(None)
        return intersect(*args)

    monkeypatch.setattr(stanley_reisner, "_intersect", counted)
    return calls


class TestOnePassOnSquarefreeInput:
    """The oracle saturates in one pass, with one intersection per
    distinct support of B after the first, for squarefree and other input
    alike."""

    def test_pass_count(self, intersections):
        rng = random.Random(20261020)
        calls = intersections
        for entries in [(2, 1), (1, 1, 1), (2, 2, 1)]:
            shape = Shape(entries)
            b = _b_vectors(shape)
            per_pass = len(b) - 1
            for _ in range(4):
                gens = exponent_vectors(ideal_of(_seeded_union(shape, rng)))
                calls.clear()
                once = saturation_oracle(gens, b)
                assert len(calls) == per_pass
                assert once == saturation_oracle_tuples(gens, b)
                # One exponent 2 makes the ideal non-squarefree, still one pass.
                squared = [tuple(2 * e for e in gens[0])] + gens[1:]
                calls.clear()
                _same_as_tuples(squared, b)
                assert len(calls) == per_pass

    def test_frobenius_crosses_the_loop_and_the_single_pass(self):
        # Squaring every exponent commutes with saturation (Frobenius is
        # flat); the tuple oracle iterates on the doubled ideal.
        rng = random.Random(20261021)
        for entries in [(2, 1), (1, 1, 1), (2, 2, 1)]:
            shape = Shape(entries)
            b = _b_vectors(shape)
            for _ in range(4):
                gens = exponent_vectors(ideal_of(_seeded_union(shape, rng)))
                doubled = [tuple(2 * e for e in g) for g in gens]
                want = [tuple(2 * e for e in g) for g in saturation_oracle(gens, b)]
                assert saturation_oracle(doubled, b) == want
                assert saturation_oracle_tuples(doubled, b) == want

    def test_squarefree_at_bounds_around_nvars(self):
        rng = random.Random(89)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 6)
            ideal = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 5))]
            # Any B, with exponents up to 2.
            b = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                 for _ in range(rng.randint(1, 4))]
            want = _same_as_tuples(ideal, b)
            outcomes.add(want[0] if isinstance(want, tuple) else len(want) > 1)
        assert outcomes == {True, False}


def _trie_leaves(b):
    """The distinct supports of B, as sorted variable tuples, that have no
    other support as a proper prefix."""
    supports = {tuple(i for i, e in enumerate(v) if e) for v in b}
    return [s for s in supports if not any(len(t) < len(s) and s[:len(t)] == t for t in supports)]


class TestSupportTrie:
    """The oracle walks the trie of B's distinct supports: one intersection
    per leaf after the first, where a leaf is a support with no other
    support as a proper prefix, and the same ideal as the tuple oracle."""

    def check(self, calls, ideal, b):
        calls.clear()
        want = _same_as_tuples(ideal, b)
        if isinstance(want, list) and want:
            assert len(calls) == len(_trie_leaves(b)) - 1
        return want

    def test_repeated_supports(self, intersections):
        rng = random.Random(20261101)
        for _ in range(100):
            n = rng.randint(1, 6)
            ideal = [_random_vector(rng, n) for _ in range(rng.randint(1, 5))]
            b = [_random_vector(rng, n) for _ in range(rng.randint(1, 4))]
            # The same supports again, with other exponents.
            b += [tuple(rng.randint(1, 5) if e else 0 for e in v) for v in b]
            rng.shuffle(b)
            self.check(intersections, ideal, b)
            distinct = {tuple(map(bool, v)) for v in b}
            assert len(_trie_leaves(b)) <= len(distinct) < len(b)

    def test_support_that_is_a_proper_prefix(self, intersections):
        # {x0} is a prefix of {x0, x2} and of {x0, x1, x3}, but {x1} is a
        # subset of {x0, x1, x3} and no prefix of it.
        ideal = [(2, 1, 0, 1), (0, 3, 1, 0), (1, 0, 2, 2), (0, 0, 1, 3)]
        b = [(1, 0, 1, 0), (0, 1, 0, 0), (3, 0, 0, 0), (1, 1, 0, 1)]
        assert sorted(_trie_leaves(b)) == [(0,), (1,)]
        self.check(intersections, ideal, b)
        rng = random.Random(20261102)
        for _ in range(100):
            n = rng.randint(2, 6)
            ideal = [_random_vector(rng, n) for _ in range(rng.randint(1, 5))]
            b = [_random_vector(rng, n) for _ in range(rng.randint(1, 4))]
            # Cut each support after one of its variables, and keep both.
            for v in list(b):
                held = [i for i, e in enumerate(v) if e]
                if len(held) > 1:
                    cut = rng.choice(held[:-1])
                    b.append(tuple(e if i <= cut else 0 for i, e in enumerate(v)))
            rng.shuffle(b)
            self.check(intersections, ideal, b)

    def test_zero_vector_stops_at_the_root(self, intersections):
        rng = random.Random(20261103)
        for _ in range(50):
            n = rng.randint(1, 5)
            ideal = [_random_vector(rng, n) for _ in range(rng.randint(1, 4))]
            b = [_random_vector(rng, n) for _ in range(rng.randint(0, 3))] + [(0,) * n]
            rng.shuffle(b)
            assert _trie_leaves(b) == [()]
            self.check(intersections, ideal, b)

    def test_random_supports_without_product_structure(self, intersections):
        rng = random.Random(20261104)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 7)
            ideal = [tuple(rng.choice((0, 0, 1, 1, 2, 5)) for _ in range(n))
                     for _ in range(rng.randint(1, 6))]
            b = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 8))]
            want = self.check(intersections, ideal, b)
            outcomes.add(want[0] if isinstance(want, tuple) else len(want) > 1)
        assert outcomes == {True, False}

    def test_branching_at_every_depth(self):
        # Supports {x0..x(k-1), x(k+1)} and the whole set branch the trie at
        # every one of its n levels, deeper than Python's recursion limit.
        # Only {x0, x2} misses x1 and x(n-1) and x(n/2), so it keeps the
        # ideal whole, and the saturation is the ideal itself.
        n = 1050
        b = [tuple(1 if i < k or i == k + 1 else 0 for i in range(n)) for k in range(n - 1)]
        b.append((1,) * n)
        ideal = [tuple(2 if i == n // 2 else 0 for i in range(n)),
                 tuple(1 if i in (1, n - 1) else 0 for i in range(n))]
        assert saturation_oracle(ideal, b) == ideal


class TestMinimalizeAgainstPairwise:
    """The support-indexed _minimalize against the pairwise scan."""

    def test_random_lists(self):
        rng = random.Random(20261019)
        for width in range(2, 7):
            top = (1 << (width - 1)) - 1  # the largest exponent a field holds
            for _ in range(200):
                packing = _Packing.for_exponents(rng.randint(0, 7), top)
                assert packing.width == width
                vecs = [tuple(rng.choice((0, 0, 0, 1, top, rng.randint(0, top)))
                              for _ in range(packing.nvars))
                        for _ in range(rng.randint(0, 12))]
                gens = [packing.pack(v) for v in vecs]
                assert [packing.unpack(g) for g in gens] == vecs
                gens += rng.sample(gens, rng.randint(0, len(gens)))
                if rng.random() < 0.2:
                    gens.append(0)
                rng.shuffle(gens)
                want = minimalize_pairwise(gens, packing)
                assert _minimalize(gens, packing) == want
                assert _minimalize(want, packing) == want
            assert _minimalize([], packing) == []

    def test_already_minimal_lists(self):
        rng = random.Random(97)
        for entries in [(2, 1), (2, 2), (1, 1, 2)]:
            shape = Shape(entries)
            for _ in range(30):
                vecs = exponent_vectors(ideal_of(random_complex(shape, rng)))
                for top in (1, 2, 9):
                    packing = _Packing.for_exponents(shape.num_vertices, top)
                    gens = [packing.pack(v) for v in vecs]
                    want = minimalize_pairwise(gens, packing)
                    assert sorted(want) == sorted(gens)
                    assert _minimalize(gens, packing) == want


def _random_packed_ideal(rng, packing, size):
    """Minimal generators of an ideal of up to `size` random exponent
    vectors (entries 0-3), packed."""
    vecs = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(packing.nvars))
            for _ in range(size)]
    return _minimalize([packing.pack(v) for v in vecs], packing)


class TestIntersectAgainstPairwise:
    """_intersect, which skips the lcms of generators lying in the other
    ideal, against the lcm of every pair."""

    def same(self, a, c, packing):
        want = intersect_pairwise(a, c, packing)
        assert _intersect(a, c, packing) == want
        assert _intersect(c, a, packing) == want
        return want

    def test_random_ideals(self):
        rng = random.Random(20261018)
        for _ in range(600):
            packing = _Packing.for_exponents(rng.randint(1, 6), 3)
            a = _random_packed_ideal(rng, packing, rng.randint(0, 6))
            c = _random_packed_ideal(rng, packing, rng.randint(0, 6))
            self.same(a, c, packing)
            # Generators of both A and C come out once.
            shared = _minimalize(a[:len(a) // 2 + 1] + c, packing)
            got = self.same(a, shared, packing)
            assert len(got) == len(set(got))

    def test_containment_equality_unit_and_empty(self):
        rng = random.Random(83)
        for _ in range(200):
            packing = _Packing.for_exponents(rng.randint(1, 5), 3)
            a = _random_packed_ideal(rng, packing, rng.randint(1, 5))
            # c lies inside a: each generator of c is a multiple of one of a.
            c = _minimalize([g + packing.pack(
                [rng.randint(0, 3 - e) for e in packing.unpack(g)]) for g in a], packing)
            assert self.same(a, c, packing) == c
            assert self.same(a, a, packing) == a
            assert self.same(a, [0], packing) == a
            assert self.same(a, [], packing) == []
        packing = _Packing.for_exponents(3, 1)
        assert self.same([0], [0], packing) == [0]
        assert self.same([0], [], packing) == []
        assert self.same([], [], packing) == []
