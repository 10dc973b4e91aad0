import random

import pytest

from vcmkit import (
    QQ,
    GF,
    CoefficientField,
    Shape,
    SimplicialComplex,
    Vertex,
    VertexLimitError,
    codim_affine,
    has_field_dependent_homology,
    hochster_betti,
    ideal_of,
    irrelevant_complex,
    is_cm_pdim,
    is_cm_reisner,
    projective_dimension,
    reduced_homology_ranks,
    union,
)
from vcmkit.homology import (
    _boundary_rank,
    _canon,
    _layers,
    _link_defect,
    _ranks_from_faces,
    _ranks_from_layers,
    _signed_boundary,
)
from helpers import (
    antichains_nonvoid,
    canon_faces,
    cx,
    euler_characteristic_reduced,
    faces_bruteforce,
    fraction_rank,
    gf_rank_naive,
    hochster_betti_oracle,
    link_bruteforce,
    random_complex,
    ranks_from_faces_oracle,
)

V = Vertex


@pytest.fixture(scope="module")
def rp2():
    """Six-vertex triangulation of the real projective plane."""
    tris = ["125", "126", "134", "136", "145", "234", "235", "246", "356", "456"]
    facets = [[V(1, int(ch) - 1) for ch in word] for word in tris]
    return SimplicialComplex.from_facets(Shape((5,)), facets)


@pytest.fixture(scope="module")
def five_vertex():
    """All 7,580 nonvoid complexes on five vertices."""
    shape = Shape((4,))
    cases = [SimplicialComplex(shape, masks) for masks in antichains_nonvoid(5)]
    cases.append(SimplicialComplex(shape, (0,)))
    return cases


def seeded_unions():
    """Irrelevant complex plus seeded balanced facets on 9, 10 and 11 vertices."""
    rng = random.Random(20261018)
    out = []
    for entries, k in (((2, 2, 2), 8), ((3, 2, 2), 11), ((3, 3, 2), 14)):
        shape = Shape(entries)
        chosen = SimplicialComplex(shape, tuple(rng.sample(shape.balanced_masks(), k)))
        out.append(union(chosen, irrelevant_complex(shape)))
    return out


def hollow_triangle():
    return cx((2,), [(1, 0), (1, 1)], [(1, 0), (1, 2)], [(1, 1), (1, 2)])


def table_rows(table):
    return sorted(
        (i, tuple(sorted(str(v) for v in sigma)), m)
        for (i, sigma), m in table.entries.items()
    )


def boundary(delta, d):
    """Signed boundary matrix from the d-faces to the (d-1)-faces of delta,
    rows and columns in face_masks order, with its column count."""
    faces = delta.face_masks()
    cols = [m for m in faces if m.bit_count() == d + 1]
    rows = [m for m in faces if m.bit_count() == d]
    return _signed_boundary(cols, rows), len(cols)


def rank_over(rows, characteristic):
    return gf_rank_naive(rows, characteristic) if characteristic else fraction_rank(rows)


class TestBoundaryMatrix:
    def test_triangle_edge_map(self):
        m, _ = boundary(hollow_triangle(), 1)
        assert m == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]

    def test_degree_zero_and_ends(self):
        d = hollow_triangle()
        assert boundary(d, 0) == ([[1, 1, 1]], 3)
        assert boundary(d, -1) == ([], 1)
        assert boundary(d, d.dim + 1) == ([[], [], []], 0)

    def test_range_validation(self):
        # The rows span the map's range: a row list missing a facet of some
        # column face is refused, not turned into a matrix with a lost entry.
        faces = hollow_triangle().face_masks()
        edges = [m for m in faces if m.bit_count() == 2]
        vertices = [m for m in faces if m.bit_count() == 1]
        for rows in (vertices[:-1], vertices[1:], []):
            with pytest.raises(KeyError):
                _signed_boundary(edges, rows)

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
    def test_compose_to_zero(self, field, fig1, c34):
        p = field.characteristic
        for d in (fig1.complex, c34.complex, hollow_triangle()):
            for deg in range(0, d.dim + 2):
                low, _ = boundary(d, deg - 1)
                high, ncols = boundary(d, deg)
                for row in low:
                    for j in range(ncols):
                        entry = sum(a * high[k][j] for k, a in enumerate(row))
                        assert (entry % p if p else entry) == 0

    def test_rank_nullity_matches_homology(self):
        rng = random.Random(20260827)
        for _ in range(10):
            d = random_complex(Shape((2, 1)), rng)
            if d.is_void:
                continue
            for field in (QQ, GF(2)):
                p = field.characteristic
                ranks = reduced_homology_ranks(d, field)
                for deg in range(-1, d.dim + 1):
                    m, ncols = boundary(d, deg)
                    expected = ncols - rank_over(m, p) - rank_over(boundary(d, deg + 1)[0], p)
                    assert ranks[deg] == expected


class TestReducedHomology:
    def test_void(self):
        d = SimplicialComplex.from_facets(Shape((1,)), [])
        assert reduced_homology_ranks(d, QQ) == {}

    def test_empty_face_only(self):
        d = cx((1,), [])
        assert reduced_homology_ranks(d, QQ) == {-1: 1}

    def test_contractible(self):
        point = cx((1,), [(1, 0)])
        assert reduced_homology_ranks(point, QQ) == {-1: 0, 0: 0}
        simplex = cx((3,), [(1, 0), (1, 1), (1, 2), (1, 3)])
        assert all(h == 0 for h in reduced_homology_ranks(simplex, GF(2)).values())

    def test_two_points(self):
        d = cx((1,), [(1, 0)], [(1, 1)])
        assert reduced_homology_ranks(d, QQ) == {-1: 0, 0: 1}

    def test_circle(self):
        assert reduced_homology_ranks(hollow_triangle(), QQ) == {-1: 0, 0: 0, 1: 1}

    def test_two_sphere(self):
        verts = [V(1, i) for i in range(4)]
        facets = [[v for v in verts if v != skip] for skip in verts]
        d = SimplicialComplex.from_facets(Shape((3,)), facets)
        assert reduced_homology_ranks(d, GF(2)) == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_link_of_balanced_edge(self, fig1):
        link = fig1.complex.link([V(2, 0), V(2, 1)])
        assert reduced_homology_ranks(link, GF(2))[0] == 1

    def test_projective_plane_torsion(self, rp2):
        assert reduced_homology_ranks(rp2, QQ) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert reduced_homology_ranks(rp2, GF(2)) == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert reduced_homology_ranks(rp2, GF(3)) == {-1: 0, 0: 0, 1: 0, 2: 0}

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
    def test_euler_characteristic(self, field):
        rng = random.Random(300 + field.characteristic)
        for _ in range(12):
            d = random_complex(Shape((1, 1, 1)), rng)
            if d.is_void:
                continue
            ranks = reduced_homology_ranks(d, field)
            alternating = sum((-1) ** deg * h for deg, h in ranks.items())
            assert alternating == euler_characteristic_reduced(d)

    def test_cone_is_acyclic(self):
        rng = random.Random(20260828)
        for _ in range(8):
            d = random_complex(Shape((2, 1)), rng)
            apex = V(2, 1)
            if d.is_void or any(apex in f for f in d.facets):
                continue
            coned = d.cone(apex)
            assert all(h == 0 for h in reduced_homology_ranks(coned, GF(2)).values())


class TestHochster:
    def test_two_points_table(self):
        d = cx((1,), [(1, 0)], [(1, 1)])
        assert table_rows(hochster_betti(d, QQ)) == [
            (0, (), 1),
            (1, ("x_1_0", "x_1_1"), 1),
        ]

    def test_koszul_table(self):
        d = cx((1,), [])
        assert table_rows(hochster_betti(d, GF(2))) == [
            (0, (), 1),
            (1, ("x_1_0",), 1),
            (1, ("x_1_1",), 1),
            (2, ("x_1_0", "x_1_1"), 1),
        ]

    def test_void_table_is_zero(self):
        d = SimplicialComplex.from_facets(Shape((1,)), [])
        table = hochster_betti(d, QQ)
        assert table.entries == {} and table.max_index is None

    def test_beta_zero_is_single_unit(self):
        rng = random.Random(20260829)
        for _ in range(10):
            d = random_complex(Shape((2, 1)), rng)
            if d.is_void:
                continue
            table = hochster_betti(d, GF(2))
            assert table.total(0) == 1
            assert table.multiplicity(0, frozenset()) == 1

    def test_beta_one_support_is_minimal_nonfaces(self):
        rng = random.Random(20260830)
        for _ in range(10):
            d = random_complex(Shape((1, 1, 1)), rng)
            if d.is_void:
                continue
            table = hochster_betti(d, QQ)
            support = {sigma for (i, sigma), m in table.entries.items() if i == 1}
            mults = {m for (i, _), m in table.entries.items() if i == 1}
            assert support == set(ideal_of(d).generators)
            assert mults <= {1}

    def test_fixture_totals(self, fig1, c34):
        t1 = hochster_betti(fig1.complex, GF(2))
        assert [t1.total(i) for i in range(4)] == [1, 4, 4, 1]
        t2 = hochster_betti(c34.complex, GF(2))
        assert [t2.total(i) for i in range(4)] == [1, 7, 8, 2]
        assert t1.max_index == 3 and t2.max_index == 3

    def test_vertex_limit(self):
        # 21 vertices: refused before any of the 2^21 subsets is visited.
        d = cx((20,), [(1, 0), (1, 1)])
        message = "21 vertices exceed the max_vertices=20 subset sweep bound"
        with pytest.raises(VertexLimitError, match=message):
            hochster_betti(d, QQ)
        with pytest.raises(VertexLimitError, match=message):
            projective_dimension(d, QQ)
        with pytest.raises(VertexLimitError, match=message):
            is_cm_pdim(d, QQ)

class TestSweepAgainstOracle:
    """The layered sweep, with Q ranks certified by GF(2), against the plain
    sweep that ranks every boundary of every restriction directly."""

    def test_all_five_vertex_complexes_over_q(self, five_vertex):
        for delta in five_vertex:
            assert hochster_betti(delta, QQ) == hochster_betti_oracle(delta, 0)

    @pytest.mark.parametrize("p", [2, 3])
    def test_seeded_five_vertex_complexes_over_gfp(self, five_vertex, p):
        for delta in random.Random(20261018 + p).sample(five_vertex, 1000):
            assert hochster_betti(delta, GF(p)) == hochster_betti_oracle(delta, p)

    @pytest.mark.parametrize("characteristic", [0, 2, 3])
    def test_torsion_unused_vertices_and_unions(self, rp2, characteristic):
        # RP^2 on 6 of 8 vertices, and a strip missing the whole second component.
        rp2_wide = SimplicialComplex(Shape((3, 3)), rp2.facet_masks)
        strip = cx((3, 3), [(1, 0), (1, 1), (1, 2)], [(1, 1), (1, 2), (1, 3)])
        field = CoefficientField(characteristic)
        for delta in [rp2, rp2_wide, strip] + seeded_unions():
            assert hochster_betti(delta, field) == hochster_betti_oracle(delta, characteristic)

    def test_certified_q_ranks_equal_bareiss(self, rp2):
        rng = random.Random(20261019)
        cases = [rp2] + [random_complex(Shape((3, 2)), rng, max_facets=6) for _ in range(80)]
        bareiss_needed = 0
        for delta in cases:
            if delta.is_void:
                continue
            layers = _layers(_canon(delta.face_masks()))
            top = len(layers) - 1
            branks = [0] * (top + 2)
            for s in range(1, top + 1):
                branks[s] = _boundary_rank(layers[s], layers[s - 1], 0)
                assert branks[s] == fraction_rank(_signed_boundary(layers[s], layers[s - 1]))
            want = tuple((s - 1, len(layers[s]) - branks[s] - branks[s + 1])
                         for s in range(top + 1))
            assert _ranks_from_layers(layers, 0) == want
            if want != _ranks_from_layers(layers, 2):
                bareiss_needed += 1
        assert bareiss_needed  # RP^2: its GF(2) ranks alone would be wrong over Q

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
    def test_projective_dimension_is_max_index(self, rp2, field):
        rng = random.Random(20261020 + field.characteristic)
        cases = [rp2] + [random_complex(Shape((2, 2)), rng) for _ in range(40)]
        for delta in cases:
            if delta.is_void:
                continue
            assert projective_dimension(delta, field) == hochster_betti(delta, field).max_index

    def test_sweep_leaves_rank_cache_alone(self, fig1):
        before = _ranks_from_faces.cache_info()
        for field in (QQ, GF(2), GF(3)):
            hochster_betti(fig1.complex, field)
            projective_dimension(fig1.complex, field)
        after = _ranks_from_faces.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_rank_cache_is_bounded(self):
        assert _ranks_from_faces.cache_info().maxsize is not None


class TestProjectiveDimension:
    def test_fixtures(self, fig1, c34):
        for field in (GF(2), GF(3), QQ):
            assert projective_dimension(fig1.complex, field) == 3
            assert projective_dimension(c34.complex, field) == 3

    def test_small_cases(self):
        assert projective_dimension(cx((1,), [(1, 0)], [(1, 1)]), QQ) == 1
        assert projective_dimension(cx((1,), []), QQ) == 2
        full = cx((1,), [(1, 0), (1, 1)])
        assert projective_dimension(full, QQ) == 0

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            projective_dimension(SimplicialComplex.from_facets(Shape((1,)), []), QQ)

    def test_field_dependence_on_rp2(self, rp2):
        assert projective_dimension(rp2, QQ) == 3
        assert projective_dimension(rp2, GF(2)) == 4


class TestReisner:
    def test_simplex_is_cm(self):
        d = cx((2,), [(1, 0), (1, 1), (1, 2)])
        assert is_cm_reisner(d, QQ) == (True, None)

    def test_circle_is_cm(self):
        assert is_cm_reisner(hollow_triangle(), GF(2)) == (True, None)

    def test_disconnected_witness(self):
        d = cx((3,), [(1, 0), (1, 1)], [(1, 2), (1, 3)])
        verdict = is_cm_reisner(d, QQ)
        assert not verdict.is_cm
        assert verdict.witness == (frozenset(), 0)

    def test_fig1_witness(self, fig1):
        verdict = is_cm_reisner(fig1.complex, GF(2))
        assert not verdict.is_cm
        assert verdict.witness == (frozenset({V(2, 0), V(2, 1)}), 0)

    def test_rp2_depends_on_field(self, rp2):
        assert is_cm_reisner(rp2, QQ) == (True, None)
        assert is_cm_reisner(rp2, GF(2)) == (False, (frozenset(), 1))

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            is_cm_reisner(SimplicialComplex.from_facets(Shape((1,)), []), QQ)

    @pytest.mark.parametrize("field", [QQ, GF(2)])
    def test_agrees_with_pdim_test(self, field):
        rng = random.Random(500 + field.characteristic)
        for _ in range(15):
            d = random_complex(Shape((2, 1)), rng)
            if d.is_void:
                continue
            assert is_cm_reisner(d, field).is_cm == is_cm_pdim(d, field)


class TestLinkDefect:
    """The link test shared by `is_cm_reisner` and the augmentation search,
    on links taken by brute force and ranked by the direct oracle."""

    def expected(self, delta, sigma, characteristic):
        link = SimplicialComplex.from_facets(delta.shape, link_bruteforce(delta, sigma))
        ranks = ranks_from_faces_oracle(canon_faces(link.face_masks()), characteristic)
        top = ranks[-1][0]
        return next((d for d, h in ranks if d < top and h), None), link.face_masks()

    @pytest.mark.parametrize("characteristic", [0, 2, 3])
    def test_random_links(self, rp2, characteristic):
        rng = random.Random(20261104 + characteristic)
        cases = [rp2] + [random_complex(Shape((2, 2)), rng, max_facets=7) for _ in range(30)]
        failing = 0
        for delta in cases:
            if delta.is_void:
                continue
            for sigma in faces_bruteforce(delta):
                want, link_faces = self.expected(delta, sigma, characteristic)
                shuffled = list(link_faces)
                rng.shuffle(shuffled)
                assert _link_defect(shuffled, characteristic) == want
                failing += want is not None
        assert failing

    def test_rp2_fails_only_over_gf2(self, rp2):
        faces = rp2.face_masks()
        assert _link_defect(faces, 2) == 1
        assert _link_defect(faces, 3) is None and _link_defect(faces, 0) is None


class TestCmPdim:
    def test_fixtures_are_not_cm(self, fig1, c34):
        assert not is_cm_pdim(fig1.complex, GF(2))
        assert not is_cm_pdim(c34.complex, GF(2))
        assert codim_affine(fig1.complex) == 2

    def test_rp2(self, rp2):
        assert is_cm_pdim(rp2, QQ)
        assert not is_cm_pdim(rp2, GF(2))

    def test_simplex(self):
        d = cx((2,), [(1, 0), (1, 1), (1, 2)])
        assert is_cm_pdim(d, QQ)


class TestFieldDependence:
    def test_rp2(self, rp2):
        assert has_field_dependent_homology(rp2)
        assert not has_field_dependent_homology(rp2, primes=(3, 5))

    def test_fixtures(self, fig1, c34):
        assert not has_field_dependent_homology(fig1.complex)
        assert not has_field_dependent_homology(c34.complex)

    def test_circle(self):
        assert not has_field_dependent_homology(hollow_triangle())
