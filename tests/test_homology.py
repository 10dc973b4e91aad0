import itertools
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
    enumerate_irrelevant_candidate_facets,
    hochster_betti,
    ideal_of,
    irrelevant_complex,
    is_cm_pdim,
    is_cm_reisner,
    projective_dimension,
    reduced_homology_ranks,
    union,
)
from vcmkit import homology
from vcmkit.homology import (
    UnionReisner,
    _canon,
    _layers,
    _link_defect,
    _packed_boundaries,
    _planes,
    _ranks_from_faces,
    _ranks_from_layers,
    _restricted_layers,
    _signed_rank,
    cm_verdicts,
)
from vcmkit.linalg import gf3_rank
from helpers import (
    _signed_boundary,
    antichains_nonvoid,
    boundary_rank_direct,
    canon_faces,
    cm_verdicts_both,
    cone,
    cx,
    disconnected_pure_masks,
    euler_characteristic_reduced,
    face_masks,
    face_masks_sorted,
    faces_bruteforce,
    failing_links_cached,
    fraction_rank,
    gf_rank_naive,
    hochster_betti_oracle,
    integer_rank,
    link,
    link_bruteforce,
    max_index,
    random_complex,
    random_pure_masks,
    random_pure_relevant,
    ranks_from_faces_oracle,
    reisner_verdict_cached,
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
    faces = face_masks(delta)
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
        faces = face_masks(hollow_triangle())
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


class TestSignedColumns:
    """Ranks of the signed columns read off `_packed_boundaries` against the
    dense signed matrix, on every boundary of seeded complexes, of their
    links and of their sweep restrictions, with faces layered in vertex
    order (as `face_layers()` lists them) and in int order (as `_canon`).
    The GF(3) bitplanes of `_planes` are the dense signed columns up to
    sign, and `gf3_rank` ranks them as the dense oracle does."""

    CHARACTERISTICS = (3, 5, 2147483647, 0)

    @staticmethod
    def layer_orders(shape, faces):
        by_vertices = sorted(faces, key=lambda m: (m.bit_count(), shape.bits_key(m)))
        return _layers(by_vertices), _layers(_canon(faces))

    def check(self, layers, packed, sub):
        """Every boundary of `sub`, whose layers are sublists of `layers`,
        from the columns `packed` built on `layers`."""
        for s in range(1, len(sub)):
            columns = [packed[f] for f in sub[s]]
            for f, bits in zip(sub[s], columns):
                # Bits listed bottom-up name f's vertices top-down.
                removed = [f ^ layers[s - 1][i] for i in range(bits.bit_length()) if bits >> i & 1]
                assert sorted(removed, reverse=True) == removed
                assert sum(removed) == f and all(v.bit_count() == 1 for v in removed)
            for p in self.CHARACTERISTICS:
                assert _signed_rank(columns, p) == boundary_rank_direct(sub[s], sub[s - 1], p)
            dense = _signed_boundary(sub[s], layers[s - 1])
            planes = [_planes(bits) for bits in columns]
            for j, signs in enumerate(planes):
                plus = sum(1 << i for i, row in enumerate(dense) if row[j] == 1)
                minus = sum(1 << i for i, row in enumerate(dense) if row[j] == -1)
                assert signs in ((plus, minus), (minus, plus))
            assert gf3_rank(planes) == boundary_rank_direct(sub[s], sub[s - 1], 3)

    def test_complexes_links_and_restrictions(self, rp2):
        rng = random.Random(20261119)
        cases = [rp2, seeded_unions()[0]]
        cases += [random_complex(Shape((3, 2)), rng, max_facets=6) for _ in range(12)]
        checked = 0
        for delta in cases:
            if delta.is_void:
                continue
            faces = face_masks(delta)
            assert _layers(faces) == self.layer_orders(delta.shape, faces)[0]
            for layers in self.layer_orders(delta.shape, faces):
                packed = _packed_boundaries(layers)
                self.check(layers, packed, layers)
                n = delta.shape.num_vertices
                for out in rng.sample(range(1, 1 << n), min(12, (1 << n) - 1)):
                    self.check(layers, packed, _restricted_layers(layers, out))
                checked += 1
            for sigma in rng.sample(faces[1:], min(8, len(faces) - 1)):
                link_faces = [f ^ sigma for f in faces if f & sigma == sigma]
                for layers in self.layer_orders(delta.shape, link_faces):
                    self.check(layers, _packed_boundaries(layers), layers)
        assert checked >= 20


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
        lk = link(fig1.complex, [V(2, 0), V(2, 1)])
        assert reduced_homology_ranks(lk, GF(2))[0] == 1

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
            coned = cone(d, apex)
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
        assert table.entries == {} and max_index(table) is None

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
        assert max_index(t1) == 3 and max_index(t2) == 3

    def test_vertex_limit(self):
        # 21 vertices: the full sweep is refused before any of the 2^21
        # subsets is visited; the pruned pdim sweep has none to visit.
        d = cx((20,), [(1, 0), (1, 1)])
        message = "21 vertices exceed the max_vertices=20 subset sweep bound"
        with pytest.raises(VertexLimitError, match=message):
            hochster_betti(d, QQ)
        assert projective_dimension(d, QQ) == 19
        assert is_cm_pdim(d, QQ) is True


class TestSweepAgainstOracle:
    """The layered sweep, with Q ranks certified by GF(2), against the plain
    sweep that ranks every boundary of every restriction directly."""

    def test_all_five_vertex_complexes_over_q(self, five_vertex):
        for delta in five_vertex:
            assert face_masks(delta) == face_masks_sorted(delta)
            table = hochster_betti(delta, QQ)
            assert table == hochster_betti_oracle(delta, 0)
            assert projective_dimension(delta, QQ) == max_index(table)

    @pytest.mark.parametrize("p", [2, 3])
    def test_seeded_five_vertex_complexes_over_gfp(self, five_vertex, p):
        for delta in random.Random(20261018 + p).sample(five_vertex, 1000):
            table = hochster_betti(delta, GF(p))
            assert table == hochster_betti_oracle(delta, p)
            assert projective_dimension(delta, GF(p)) == max_index(table)

    @pytest.mark.parametrize("characteristic", [0, 2, 3])
    def test_torsion_unused_vertices_and_unions(self, rp2, characteristic):
        # RP^2 on 6 of 8 vertices, and a strip missing the whole second component.
        rp2_wide = SimplicialComplex(Shape((3, 3)), rp2.facet_masks)
        strip = cx((3, 3), [(1, 0), (1, 1), (1, 2)], [(1, 1), (1, 2), (1, 3)])
        field = CoefficientField(characteristic)
        for delta in [rp2, rp2_wide, strip] + seeded_unions():
            table = hochster_betti(delta, field)
            assert table == hochster_betti_oracle(delta, characteristic)
            assert projective_dimension(delta, field) == max_index(table)

    def test_certified_q_ranks_equal_bareiss(self, rp2):
        rng = random.Random(20261019)
        cases = [rp2] + [random_complex(Shape((3, 2)), rng, max_facets=6) for _ in range(80)]
        bareiss_needed = 0
        for delta in cases:
            if delta.is_void:
                continue
            layers = _layers(_canon(face_masks(delta)))
            packed = _packed_boundaries(layers)
            top = len(layers) - 1
            branks = [0] * (top + 2)
            for s in range(1, top + 1):
                branks[s] = _signed_rank([packed[f] for f in layers[s]], 0)
                matrix = _signed_boundary(layers[s], layers[s - 1])
                assert branks[s] == fraction_rank(matrix) == integer_rank(matrix)
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
            assert projective_dimension(delta, field) == max_index(hochster_betti(delta, field))

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

    def test_pruned_sweep_edge_cases(self, rp2):
        # {emptyset} presents the Koszul complex (pdim n), the full simplex a
        # free module (pdim 0), and every vertex in no face adds one.
        for n in (1, 4, 7):
            shape = Shape((n - 1,))
            assert projective_dimension(SimplicialComplex(shape, (0,)), GF(2)) == n
            assert projective_dimension(SimplicialComplex(shape, (shape.full_mask,)), QQ) == 0
        rp2_wide = SimplicialComplex(Shape((8,)), rp2.facet_masks)
        for field, want in ((QQ, 6), (GF(2), 7), (GF(3), 6)):
            assert projective_dimension(rp2_wide, field) == want
            assert max_index(hochster_betti(rp2_wide, field)) == want

    def test_sweep_bound_is_checked_before_enumerating(self, monkeypatch):
        # One 7-vertex facet and 43 isolated points on 50 vertices: the sweep
        # would visit sum_{j < 6} C(50, j) = 2,369,936 > 2^20 subsets.
        shape = Shape((49,))
        d = SimplicialComplex(shape, (0b1111111,) + tuple(1 << b for b in range(7, 50)))
        lone = SimplicialComplex(shape, (0b1111111,))

        def no_enumeration(*args):
            raise AssertionError("a subset enumeration started")

        monkeypatch.setattr(itertools, "combinations", no_enumeration)
        message = r"would visit 2369936 vertex subsets, more than the 2\*\*20 subset sweep bound"
        with pytest.raises(VertexLimitError, match=message):
            projective_dimension(d, GF(2))
        with pytest.raises(VertexLimitError, match=message):
            is_cm_pdim(d, QQ)
        monkeypatch.undo()
        # The facet alone leaves 43 vertices in no face, which are not enumerated.
        assert projective_dimension(lone, GF(2)) == 43


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

    def test_whole_complex_bypasses_rank_cache(self):
        # On a graph only the link of the empty face, the whole graph, can fail.
        before = _ranks_from_faces.cache_info()
        for field in (QQ, GF(2), GF(3)):
            assert is_cm_reisner(hollow_triangle(), field) == (True, None)
            disjoint = cx((3,), [(1, 0), (1, 1)], [(1, 2), (1, 3)])
            assert is_cm_reisner(disjoint, field) == (False, (frozenset(), 0))
        after = _ranks_from_faces.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("field", [QQ, GF(2)])
    def test_agrees_with_pdim_test(self, field):
        rng = random.Random(500 + field.characteristic)
        for _ in range(15):
            d = random_complex(Shape((2, 1)), rng)
            if d.is_void:
                continue
            assert is_cm_reisner(d, field).is_cm == is_cm_pdim(d, field)


class TestCmVerdicts:
    """`cm_verdicts`, the one preparation of `check-cm`, against
    `is_cm_reisner` and `projective_dimension` called apart, and against the
    largest index of the full Hochster sweep."""

    FIELDS = (GF(2), GF(3), GF(5), QQ)

    @staticmethod
    def cases(rp2):
        rp2_on_7 = SimplicialComplex(Shape((6,)), rp2.facet_masks)
        simplex = cx((2,), [(1, 0), (1, 1), (1, 2)])
        return [
            rp2,
            cone(rp2_on_7, V(1, 6)),
            SimplicialComplex(Shape((8,)), rp2.facet_masks),  # three vertices in no face
            simplex,  # W = the vertices in use is a face
            SimplicialComplex(Shape((4,)), simplex.facet_masks),  # and two free vertices
            SimplicialComplex(Shape((3,)), (0,)),  # {emptyset}
        ]

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_separate_calls_and_full_sweep(self, rp2, field):
        for delta in self.cases(rp2):
            verdict, pdim = cm_verdicts(delta, field)
            assert verdict == is_cm_reisner(delta, field)
            assert pdim == projective_dimension(delta, field)
            assert pdim == max_index(hochster_betti(delta, field))

    def test_field_dependence(self, rp2):
        for delta in self.cases(rp2)[:3]:
            for field in self.FIELDS:
                verdict, pdim = cm_verdicts(delta, field)
                cm = field != GF(2)
                assert verdict.is_cm is cm and (pdim == codim_affine(delta)) is cm

    @pytest.mark.parametrize("field", FIELDS)
    def test_whole_complex_ranked_once(self, rp2, field, monkeypatch):
        # RP^2 on 9 vertices: the empty face's link and the restriction to
        # the six vertices in use are both the whole complex.
        delta = SimplicialComplex(Shape((8,)), rp2.facet_masks)
        whole = _layers(face_masks(delta))
        calls = []
        original = homology._ranks_from_layers

        def counting(layers, *args):
            calls.append(layers == whole)
            return original(layers, *args)

        monkeypatch.setattr(homology, "_ranks_from_layers", counting)
        cm_verdicts(delta, field)
        assert calls.count(True) == 1

    @staticmethod
    def non_cm_cases(rp2):
        """RP^2 and seeded draws like the check-cm benchmark's: random pure
        complexes and pure complexes on two disjoint vertex sets."""
        rng = random.Random(20261025)
        cases = [rp2]
        for entries, k, size in (((4, 4), 10, 4), ((4, 5), 12, 3)):
            shape = Shape(entries)
            cases += [SimplicialComplex(shape, random_pure_masks(shape.num_vertices, k, size, rng))
                      for _ in range(4)]
        for entries in ((4, 4), (3, 3, 3)):
            shape = Shape(entries)
            cases += [SimplicialComplex(shape, disconnected_pure_masks(shape.num_vertices, 5, 3, rng))
                      for _ in range(3)]
        return cases

    @pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
    def test_witnesses_match_cached_walk(self, rp2, field):
        witnesses = set()
        for delta in self.non_cm_cases(rp2):
            want = reisner_verdict_cached(delta, field.characteristic)
            assert is_cm_reisner(delta, field) == want
            assert cm_verdicts(delta, field)[0] == want
            witnesses.add(want[1] and bool(want[1][0]))
        assert {False, True} <= witnesses  # the empty face and a nonempty face

    def test_no_cached_rank_lookup(self, rp2, monkeypatch):
        calls = []
        original = homology._ranks_from_faces

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(homology, "_ranks_from_faces", counting)
        for delta in self.non_cm_cases(rp2)[:6]:
            for field in self.FIELDS:
                cm_verdicts(delta, field)
        assert not calls

    @pytest.mark.parametrize("field", FIELDS)
    def test_cone_links_are_not_ranked(self, field, monkeypatch):
        # In one facet every face lies with a further vertex, so every link
        # Reisner's test would rank is a cone: `is_cm_reisner` ranks only
        # the whole.  Every vertex subset is a face, so the sweep ranks
        # nothing, and `cm_verdicts`, which then walks no link, ranks nothing.
        delta = SimplicialComplex(Shape((11, 0)), ((1 << 13) - 1,))
        calls = []
        original = homology._ranks_from_layers

        def counting(layers, *args):
            calls.append(len(layers))
            return original(layers, *args)

        monkeypatch.setattr(homology, "_ranks_from_layers", counting)
        assert is_cm_reisner(delta, field) == (True, None)
        assert calls == [14]
        calls.clear()
        assert cm_verdicts(delta, field) == ((True, None), 0)
        assert calls == []

    @staticmethod
    def differential_cases(rp2):
        """`cases` (RP^2 and the cone over it among them), `non_cm_cases`,
        and CI's kind of seeded shellable unions, which are CM."""
        return TestCmVerdicts.cases(rp2) + TestCmVerdicts.non_cm_cases(rp2) + seeded_unions()

    @pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
    def test_matches_both_tests_in_full(self, rp2, field):
        verdicts = set()
        for delta in self.differential_cases(rp2):
            got = cm_verdicts(delta, field)
            assert got == cm_verdicts_both(delta, field)
            verdicts.add(got[0].is_cm)
        assert verdicts == {False, True}

    @pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
    def test_links_walked_only_for_a_witness(self, rp2, field, monkeypatch):
        # A CM complex never enters Reisner's walk.  A non-CM one runs
        # `_reisner` once, which enters `_failing_links` unless the link of
        # the empty face, the whole complex, already fails.
        cases = self.differential_cases(rp2)
        wants = [cm_verdicts_both(delta, field)[0] for delta in cases]
        walks, entered = [], []
        reisner, failing_links = homology._reisner, homology._failing_links

        def counting_reisner(prep):
            walks.append(prep)
            return reisner(prep)

        def counting_links(*args):
            entered.append(args)
            yield from failing_links(*args)

        monkeypatch.setattr(homology, "_reisner", counting_reisner)
        monkeypatch.setattr(homology, "_failing_links", counting_links)
        kinds = set()
        for delta, want in zip(cases, wants):
            walks.clear()
            entered.clear()
            assert cm_verdicts(delta, field)[0] == want
            if want.is_cm:
                assert not walks and not entered
            else:
                nonempty = bool(want.witness[0])
                assert len(walks) == 1 and len(entered) == nonempty
                kinds.add(nonempty)
        assert kinds == {False, True}

    @pytest.mark.parametrize("characteristic", [0, 2, 3])
    def test_union_bad_faces_match_cached_walk(self, characteristic):
        rng = random.Random(20261026 + characteristic)
        shape = Shape((2, 2, 2))
        failing = 0
        for _ in range(12):
            base = random_pure_relevant(shape, rng, 3, max_facets=8)
            candidates = enumerate_irrelevant_candidate_facets(base)
            want = {s: sum(1 << i for i, c in enumerate(candidates) if s & c == s)
                    for s, _ in failing_links_cached(base, characteristic) if s}
            assert UnionReisner(base, candidates, characteristic).bad == want
            failing += bool(want)
        assert failing

    def test_void_and_sweep_bound(self):
        with pytest.raises(ValueError, match="undefined for the void complex"):
            cm_verdicts(SimplicialComplex.from_facets(Shape((1,)), []), QQ)
        shape = Shape((49,))
        d = SimplicialComplex(shape, (0b1111111,) + tuple(1 << b for b in range(7, 50)))
        with pytest.raises(VertexLimitError, match="would visit 2369936 vertex subsets"):
            cm_verdicts(d, GF(3))


class TestLinkDefect:
    """The link test shared by `is_cm_reisner` and the augmentation search,
    on links taken by brute force and ranked by the direct oracle."""

    def expected(self, delta, sigma, characteristic):
        link = SimplicialComplex.from_facets(delta.shape, link_bruteforce(delta, sigma))
        ranks = ranks_from_faces_oracle(canon_faces(face_masks(link)), characteristic)
        top = ranks[-1][0]
        return next((d for d, h in ranks if d < top and h), None), face_masks(link)

    def cases(self, rp2, characteristic):
        """The seeded complexes, with the generator that drew them."""
        rng = random.Random(20261104 + characteristic)
        cases = [rp2] + [random_complex(Shape((2, 2)), rng, max_facets=7) for _ in range(30)]
        return rng, [delta for delta in cases if not delta.is_void]

    def failing(self, delta, characteristic):
        """{mask: lowest homology below the top} of the faces whose links
        fail, in `face_layers()` order."""
        shape = delta.shape
        lows = {m: self.expected(delta, shape.face_from_mask(m), characteristic)[0]
                for m in face_masks(delta)}
        return {m: d for m, d in lows.items() if d is not None}

    @pytest.mark.parametrize("characteristic", [0, 2, 3])
    def test_random_links(self, rp2, characteristic):
        rng, cases = self.cases(rp2, characteristic)
        failing = 0
        for delta in cases:
            for sigma in faces_bruteforce(delta):
                want, link_faces = self.expected(delta, sigma, characteristic)
                shuffled = list(link_faces)
                rng.shuffle(shuffled)
                assert _link_defect(shuffled, characteristic) == want
                failing += want is not None
        assert failing

    @pytest.mark.parametrize("characteristic", [0, 2, 3])
    def test_faces_of_size_dim_or_more_never_fail(self, rp2, characteristic):
        for delta in self.cases(rp2, characteristic)[1]:
            assert all(m.bit_count() < delta.dim for m in self.failing(delta, characteristic))

    @pytest.mark.parametrize("characteristic", [0, 2, 3])
    def test_walk_finds_every_failing_face(self, rp2, characteristic):
        """The union engine's failing base faces are the nonempty failing
        faces, and `is_cm_reisner` reports the first failing face."""
        field = CoefficientField(characteristic)
        nonempty = 0
        for delta in self.cases(rp2, characteristic)[1]:
            failing = self.failing(delta, characteristic)
            engine = UnionReisner(delta, [], characteristic)
            assert set(engine.bad) == set(failing) - {0}
            nonempty += len(engine.bad)
            verdict = is_cm_reisner(delta, field)
            if failing:
                first = next(iter(failing))
                assert verdict == (False, (delta.shape.face_from_mask(first), failing[first]))
            else:
                assert verdict == (True, None)
            if delta.is_pure():
                assert engine.is_cm(()) == verdict.is_cm
        assert nonempty

    def test_rp2_fails_only_over_gf2(self, rp2):
        faces = face_masks(rp2)
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
    """Reduced homology ranks agree across fields exactly when there is no torsion."""

    def test_rp2(self, rp2):
        rational = reduced_homology_ranks(rp2, QQ)
        assert reduced_homology_ranks(rp2, GF(2)) != rational
        for p in (3, 5):
            assert reduced_homology_ranks(rp2, GF(p)) == rational

    def test_fixtures(self, fig1, c34):
        for delta in (fig1.complex, c34.complex):
            rational = reduced_homology_ranks(delta, QQ)
            for p in (2, 3):
                assert reduced_homology_ranks(delta, GF(p)) == rational

    def test_circle(self):
        rational = reduced_homology_ranks(hollow_triangle(), QQ)
        for p in (2, 3):
            assert reduced_homology_ranks(hollow_triangle(), GF(p)) == rational
