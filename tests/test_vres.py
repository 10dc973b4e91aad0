import itertools
import random

import pytest

from vcmkit import (
    QQ,
    CandidateLimitError,
    EmptyVarietyError,
    FreeComplexPresentation,
    GF,
    Polynomial,
    Shape,
    ShellingEvidence,
    SimplicialComplex,
    Vertex,
    augmentation_search,
    balanced_vcm_certificate,
    certify_balanced,
    certify_vcm_via_union,
    compose_failures,
    enumerate_irrelevant_candidate_facets,
    irrelevant_complex,
    paper_fixture,
    saturate_by_B,
    union,
    verify_shelling,
)
from vcmkit.vres import (
    BUDGET_EXCEEDED,
    CERTIFIED,
    EXHAUSTED,
    FIXTURE_NAMES,
    PdimEvidence,
    parse_polynomial,
    render_polynomial,
)
from vcmkit import vres
from helpers import (
    augmentation_search_oracle,
    compose_failures_dense,
    cx,
    flip_one_entry,
    is_relevant,
    koszul_presentation,
    random_balanced,
    random_polynomial,
    random_presentation,
    random_pure_relevant,
)

V = Vertex


def fs(*verts):
    return frozenset(V(c, j) for c, j in verts)


class TestPolynomial:
    def test_merge_and_drop(self):
        p = Polynomial(2, [((1, 0), 2), ((1, 0), -2), ((0, 1), 3)])
        assert p.terms == {(0, 1): 3}
        assert Polynomial(2, {(1, 1): 0}).is_zero()

    def test_constructors(self):
        assert Polynomial.zero(3).is_zero()
        assert Polynomial.variable(3, 1).terms == {(0, 1, 0): 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1,): 1})
        with pytest.raises(ValueError):
            Polynomial(2, {(-1, 0): 1})

    def test_ring_identities(self):
        a = Polynomial.variable(2, 0)
        b = Polynomial.variable(2, 1)
        square = (a + b) * (a + b)
        assert square == a * a + 2 * (a * b) + b * b
        assert (a - a).is_zero()
        assert -a + a == Polynomial.zero(2)
        assert 3 * a == a * 3
        assert (a * b).terms == {(1, 1): 1}

    def test_mismatched_nvars(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0) * Polynomial.variable(3, 0)
        assert Polynomial.variable(2, 0) != Polynomial.variable(3, 0)


class TestParseRender:
    shape = Shape((2, 2))

    def test_parse_monomials(self):
        p = parse_polynomial("x_1_0*x_2_1", self.shape)
        assert p == Polynomial.variable(6, 0) * Polynomial.variable(6, 4)

    def test_parse_signs_and_constants(self):
        p = parse_polynomial("x_1_0-x_1_1+3", self.shape)
        a, b = Polynomial.variable(6, 0), Polynomial.variable(6, 1)
        assert p == a - b + Polynomial(6, {(0,) * 6: 3})
        assert parse_polynomial("+2*x_2_0", self.shape).terms == {(0, 0, 0, 1, 0, 0): 2}
        assert parse_polynomial("-4", self.shape) == Polynomial(6, {(0,) * 6: -4})
        assert parse_polynomial("x_1_0-x_1_0", self.shape) == Polynomial.zero(6)

    def test_whitespace(self):
        assert parse_polynomial(" x_1_0 + x_1_1 ", self.shape) == parse_polynomial(
            "x_1_0+x_1_1", self.shape)

    def test_repeated_factor(self):
        p = parse_polynomial("x_1_0*x_1_0", self.shape)
        assert p.terms == {(2, 0, 0, 0, 0, 0): 1}

    def test_multidigit_indices(self):
        shape = Shape((10,))
        p = parse_polynomial("x_1_10", shape)
        assert p == Polynomial.variable(11, 10)

    @pytest.mark.parametrize("bad", [
        "", "  ", "x_1", "x_1_9", "y_1_0", "x_1_0**2", "1++2", "-", "x_1_0*",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_polynomial(bad, self.shape)

    def test_render_known_forms(self):
        a = Polynomial.variable(6, 0)
        b = Polynomial.variable(6, 1)
        assert render_polynomial(Polynomial.zero(6), self.shape) == "0"
        assert render_polynomial(Polynomial(6, {(0,) * 6: -3}), self.shape) == "-3"
        assert render_polynomial(a * b, self.shape) == "x_1_0*x_1_1"
        assert render_polynomial(-a, self.shape) == "-x_1_0"
        assert render_polynomial(2 * a, self.shape) == "2*x_1_0"
        assert render_polynomial(a * a, self.shape) == "x_1_0*x_1_0"
        assert render_polynomial(a - b, self.shape) == "x_1_0-x_1_1"

    def test_round_trip_random(self):
        rng = random.Random(20260901)
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                expo = tuple(rng.randint(0, 2) for _ in range(6))
                terms[expo] = rng.choice([-3, -1, 1, 2, 7])
            p = Polynomial(6, terms)
            assert parse_polynomial(render_polynomial(p, self.shape), self.shape) == p

    def test_render_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            render_polynomial(Polynomial.zero(4), self.shape)


class TestFreeComplexPresentation:
    shape = Shape((1,))

    def koszul(self):
        a = Polynomial.variable(2, 0)
        b = Polynomial.variable(2, 1)
        return FreeComplexPresentation(
            self.shape, (1, 2, 1), (((a, b),), ((-b,), (a,))))

    def test_valid(self):
        pres = self.koszul()
        assert pres.ranks == (1, 2, 1)
        assert not compose_failures(pres)

    def test_no_matrices(self):
        assert FreeComplexPresentation(self.shape, (3,), ()).matrices == ()
        assert FreeComplexPresentation(self.shape, (), ()).ranks == ()

    def test_validation_messages(self):
        a = Polynomial.variable(2, 0)
        with pytest.raises(ValueError, match="negative rank"):
            FreeComplexPresentation(self.shape, (1, -1), (((a,),),))
        with pytest.raises(ValueError, match="1 matrices"):
            FreeComplexPresentation(self.shape, (1, 1), ())
        with pytest.raises(ValueError, match=r"matrices\[0\] has 2 rows"):
            FreeComplexPresentation(self.shape, (1, 1), (((a,), (a,)),))
        with pytest.raises(ValueError, match=r"matrices\[0\] row 0 has 2"):
            FreeComplexPresentation(self.shape, (1, 1), (((a, a),),))
        with pytest.raises(ValueError, match=r"matrices\[0\]\[0\]\[0\]"):
            FreeComplexPresentation(self.shape, (1, 1), (((7,),),))
        with pytest.raises(ValueError, match="2 variables"):
            FreeComplexPresentation(self.shape, (1, 1), (((Polynomial.variable(3, 0),),),))

    def test_broken_koszul_failure_position(self):
        a = Polynomial.variable(2, 0)
        b = Polynomial.variable(2, 1)
        bad = FreeComplexPresentation(
            self.shape, (1, 2, 1), (((a, b),), ((b,), (a,))))
        assert compose_failures(bad) == ((0, 0, 0),)


class TestComposeAgainstDense:
    """Sparse composition against the dense sum over every product."""

    def check(self, pres):
        want = compose_failures_dense(pres)
        assert compose_failures(pres) == want
        return want

    def test_random_sparse_matrices(self):
        rng = random.Random(20261019)
        reported = clean = 0
        for entries in [(1,), (1, 1), (2, 1)]:
            for _ in range(150):
                failures = self.check(random_presentation(Shape(entries), rng))
                reported += bool(failures)
                clean += not failures
        assert reported and clean

    def test_cancellation_across_t(self):
        shape = Shape((1,))
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        pres = FreeComplexPresentation(
            shape, (1, 2, 2), (((x, y),), ((y, x * y), (-x, -y * x))))
        assert self.check(pres) == ((0, 0, 1),)

    def test_constant_entries(self):
        shape = Shape((1,))
        one, x = Polynomial(2, {(0,) * 2: 1}), Polynomial.variable(2, 0)
        pres = FreeComplexPresentation(
            shape, (1, 2, 2), (((2 * one, x),), ((x, one), (-2 * one, one))))
        assert self.check(pres) == ((0, 0, 1),)

    def test_rank_zero_summand_in_the_middle(self):
        shape = Shape((1,))
        x = Polynomial.variable(2, 0)
        pres = FreeComplexPresentation(
            shape, (2, 1, 0, 2, 1), (((x,), (x,)), ((),), (), ((x,), (x,))))
        assert self.check(pres) == ()

    def test_single_matrix(self):
        x = Polynomial.variable(2, 0)
        assert self.check(FreeComplexPresentation(Shape((1,)), (1, 2), (((x, x),),))) == ()

    def test_paper_fixtures(self, fig1, c34):
        assert self.check(fig1.presentation) == ()
        assert self.check(c34.presentation) == ()
        rng = random.Random(20261105)
        for pres in (fig1.presentation, c34.presentation):
            for _ in range(10):
                assert self.check(flip_one_entry(pres, rng))

    def test_exponents_up_to_a_million(self):
        rng = random.Random(20261106)
        top = 10 ** 6
        reported = clean = 0
        for entries in [(1,), (1, 1), (2, 1)]:
            for _ in range(60):
                failures = self.check(random_presentation(Shape(entries), rng, top=top))
                reported += bool(failures)
                clean += not failures
        assert reported and clean
        # With fields of top.bit_length() bits, x1^top * x1^top would carry
        # into x0's field and cancel against x0 * x1^(2 * top - 2^20).
        x0, x1_top = Polynomial.variable(2, 0), Polynomial(2, {(0, top): 1})
        other = Polynomial(2, {(0, 2 * top - 2 ** top.bit_length()): -1})
        pres = FreeComplexPresentation(
            Shape((1,)), (1, 2, 1), (((x1_top, x0),), ((x1_top,), (other,))))
        assert self.check(pres) == ((0, 0, 0),)

    def test_products_that_cancel_to_zero(self):
        # Row (p, q) against the column (q, -p): every coefficient cancels.
        rng = random.Random(20261107)
        shape = Shape((1, 1))
        zero = Polynomial.zero(4)
        for top in (1, 2, 10 ** 6):
            for _ in range(40):
                p, q, r = (random_polynomial(4, rng, top, max_terms=4) for _ in range(3))
                pres = FreeComplexPresentation(
                    shape, (1, 3, 2), (((p, q, r),), ((q, r), (-p, zero), (zero, -p))))
                assert self.check(pres) == ()

    def test_shared_and_unshared_entries(self):
        # The same presentation with each cell a fresh copy, and with every
        # cell drawn from a pool of a few shared objects.
        rng = random.Random(20261108)
        shape = Shape((2, 1))
        nvars = shape.num_vertices
        for _ in range(60):
            pres = random_presentation(shape, rng, density=0.7)
            copied = [[[Polynomial(nvars, p.terms) for p in row] for row in mat]
                      for mat in pres.matrices]
            assert compose_failures(FreeComplexPresentation(shape, pres.ranks, copied)) \
                == self.check(pres)
            pool = [random_polynomial(nvars, rng) for _ in range(3)] + [Polynomial.zero(nvars)]
            shared = [[[rng.choice(pool) for _ in row] for row in mat] for mat in pres.matrices]
            self.check(FreeComplexPresentation(shape, pres.ranks, shared))

    def test_all_zero_and_empty_shapes(self):
        shape = Shape((1,))
        for ranks in [(0, 0, 0), (0, 3, 2), (2, 3, 0), (2, 0, 3), (3, 2, 0, 1), (1, 1, 1), (2, 3, 2, 1)]:
            zero = Polynomial.zero(2)
            mats = tuple(((zero,) * ranks[k + 1],) * ranks[k] for k in range(len(ranks) - 1))
            assert self.check(FreeComplexPresentation(shape, ranks, mats)) == ()

    def test_koszul_chains(self):
        rng = random.Random(20261020)
        shape = Shape((3, 3))
        for m in (2, 3, 4, 5, 6):
            variables = rng.sample(range(shape.num_vertices), m)
            pres = koszul_presentation(shape, variables)
            assert self.check(pres) == ()
            assert self.check(flip_one_entry(pres, rng))


class TestPaperFixtures:
    def test_names(self):
        assert FIXTURE_NAMES == ("fig1", "counterexample34")
        with pytest.raises(ValueError, match="unknown fixture"):
            paper_fixture("fig2")

    def test_fig1_contents(self, fig1):
        assert set(fig1.complex.facets) == {
            fs((1, 0), (2, 0), (2, 1), (2, 2)),
            fs((1, 1), (1, 2), (2, 0), (2, 1)),
        }
        assert fig1.presentation.ranks == (2, 4, 2)
        assert fig1.labels["a"] == V(1, 0) and fig1.labels["f"] == V(2, 2)

    def test_counterexample_contents(self, c34):
        assert len(c34.complex.facets) == 8
        assert c34.complex.shape == Shape((2, 2))
        assert c34.presentation.ranks == (3, 8, 5)
        assert fs((1, 1), (2, 0), (2, 1), (2, 2)) in c34.complex.facets

    def test_displayed_matrices_compose(self, fig1, c34):
        assert not compose_failures(fig1.presentation)
        assert not compose_failures(c34.presentation)

    def test_corrupted_entry_is_detected(self, c34):
        pres = c34.presentation
        d2 = [list(row) for row in pres.matrices[1]]
        d2[6][4] = -d2[6][4]
        bad = FreeComplexPresentation(pres.shape, pres.ranks, (pres.matrices[0], d2))
        assert compose_failures(bad) == ((0, 2, 4),)


class TestCandidateFacets:
    def test_fixtures_have_none(self, fig1, c34):
        assert enumerate_irrelevant_candidate_facets(fig1.complex) == ()
        assert enumerate_irrelevant_candidate_facets(c34.complex) == ()

    def test_single_edge(self):
        d = cx((1, 1), [(1, 0), (2, 0)])
        assert enumerate_irrelevant_candidate_facets(d) == tuple(map(d.shape.mask_of, (
            fs((1, 0), (1, 1)), fs((2, 0), (2, 1)))))

    def test_single_vertex(self):
        d = cx((1, 1), [(1, 0)])
        assert enumerate_irrelevant_candidate_facets(d) == tuple(map(d.shape.mask_of, (
            fs((1, 1)), fs((2, 0)), fs((2, 1)))))

    def test_masks_match_the_face_walk(self):
        rng = random.Random(20261019)
        for entries in [(1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 1), (2, 1, 0)]:
            shape = Shape(entries)
            for _ in range(5):
                d = SimplicialComplex(shape, tuple(
                    rng.sample(shape.balanced_masks(), rng.randint(1, 3))))
                want = tuple(shape.mask_of(c)
                             for c in itertools.combinations(shape.vertices(), d.dim + 1)
                             if not is_relevant(c, shape) and not d.has_face_mask(shape.mask_of(c)))
                assert enumerate_irrelevant_candidate_facets(d) == want, (entries, d)

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            enumerate_irrelevant_candidate_facets(
                SimplicialComplex.from_facets(Shape((1, 1)), []))

    def test_walk_bound_checked_before_the_walk(self, monkeypatch):
        shape = Shape((30, 30))
        facet = [V(1, j) for j in range(8)] + [V(2, j) for j in range(8)]
        d = SimplicialComplex.from_facets(shape, [facet])

        def no_walk(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(vres.itertools, "combinations", no_walk)
        with pytest.raises(CandidateLimitError, match="candidate walk bound"):
            enumerate_irrelevant_candidate_facets(d)
        with pytest.raises(CandidateLimitError):
            augmentation_search(d)


class TestCertifyViaUnion:
    def test_counterexample_plain_union_fails(self, c34):
        empty = SimplicialComplex.from_facets(Shape((2, 2)), [])
        cert = certify_vcm_via_union(c34.complex, empty)
        assert not cert.verdict
        assert cert.codim == 2
        assert cert.evidence == PdimEvidence(field=GF(2), pdim=3, codim_affine=2)

    def test_good_augmentation(self):
        d = cx((1, 1), [(1, 0), (2, 0)], [(1, 1), (2, 1)])
        dp = cx((1, 1), [(1, 0), (1, 1)])
        cert = certify_vcm_via_union(d, dp)
        assert cert.verdict and cert.codim == 2
        assert cert.evidence.pdim == 2

    def test_relevant_augmentation_rejected(self):
        d = cx((1, 1), [(1, 0), (2, 0)])
        dp = cx((1, 1), [(1, 1), (2, 1)])
        with pytest.raises(ValueError, match="x_1_1"):
            certify_vcm_via_union(d, dp)

    def test_shape_mismatch(self):
        d = cx((1, 1), [(1, 0), (2, 0)])
        dp = SimplicialComplex.from_facets(Shape((2, 2)), [])
        with pytest.raises(ValueError):
            certify_vcm_via_union(d, dp)


class TestAugmentationSearch:
    def disjoint_edges(self):
        return cx((1, 1), [(1, 0), (2, 0)], [(1, 1), (2, 1)])

    def test_certified_with_one_facet(self):
        out = augmentation_search(self.disjoint_edges())
        assert out.status == CERTIFIED
        assert out.subsets_tested == 2
        assert out.reason is None
        assert out.certificate.delta_prime.facets == (fs((1, 0), (1, 1)),)
        assert out.certificate.verdict

    def test_already_cm_certifies_immediately(self):
        out = augmentation_search(cx((1, 1), [(1, 0), (2, 0)]))
        assert out.status == CERTIFIED
        assert out.subsets_tested == 1
        assert out.certificate.delta_prime.is_void

    def test_counterexample_is_exhausted(self, c34):
        out = augmentation_search(c34.complex)
        assert out.status == EXHAUSTED
        assert out.certificate is None
        assert out.subsets_tested == 1
        assert out.reason == "no irrelevant candidate facets of required dimension"

    @pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
    def test_fig1_is_exhausted_over_every_field(self, field, fig1):
        out = augmentation_search(fig1.complex, field)
        assert out.status == EXHAUSTED
        assert out.reason == "no irrelevant candidate facets of required dimension"

    def test_budget(self):
        out = augmentation_search(self.disjoint_edges(), budget=1)
        assert out.status == BUDGET_EXCEEDED
        assert out.subsets_tested == 1
        assert "budget of 1" in out.reason
        assert augmentation_search(self.disjoint_edges(), budget=2).status == CERTIFIED

    def test_search_is_deterministic(self):
        assert augmentation_search(self.disjoint_edges()) == augmentation_search(
            self.disjoint_edges())

    def test_rational_field(self):
        out = augmentation_search(self.disjoint_edges(), QQ)
        assert out.status == CERTIFIED and out.subsets_tested == 2

    def test_works_on_the_saturation(self):
        noisy = cx((1, 1), [(1, 0), (2, 0)], [(1, 1), (2, 1)], [(1, 1)])
        assert augmentation_search(noisy) == augmentation_search(self.disjoint_edges())

    def test_all_irrelevant_rejected(self):
        with pytest.raises(EmptyVarietyError):
            augmentation_search(cx((1, 1), [(1, 0)]))

    def test_impure_saturation_rejected(self):
        d = cx((2, 2), [(1, 0), (1, 1), (2, 0), (2, 1)], [(1, 2), (2, 2)])
        with pytest.raises(ValueError, match="impure"):
            augmentation_search(d)

    def test_negative_budget_rejected_before_any_work(self):
        with pytest.raises(ValueError, match="budget must be nonnegative, got -5"):
            augmentation_search(self.disjoint_edges(), budget=-5)
        # an all-irrelevant input would fail later, in the saturation
        with pytest.raises(ValueError, match="budget") as info:
            augmentation_search(cx((1, 1), [(1, 0)]), budget=-1)
        assert not isinstance(info.value, EmptyVarietyError)

    def test_zero_budget_tests_nothing(self):
        out = augmentation_search(self.disjoint_edges(), budget=0)
        assert out.status == BUDGET_EXCEEDED and out.subsets_tested == 0
        assert out.reason == "stopped after the budget of 0 candidate subsets"


FIELDS = [GF(2), GF(3), QQ]


class TestSearchAgainstOracle:
    """The bitmask search against the search that builds every union as a
    complex and runs the full Reisner test on it."""

    def check(self, delta, field, budget=10 ** 6):
        want = augmentation_search_oracle(delta, field, budget)
        assert augmentation_search(delta, field, budget) == want
        return want

    @pytest.mark.parametrize("field", FIELDS)
    def test_random_pure_relevant(self, field):
        rng = random.Random(20261101)
        outcomes = []
        for entries in [(1, 1), (2, 1), (1, 1, 1), (1, 1, 2)]:
            shape = Shape(entries)
            for size in range(shape.r, shape.num_vertices):
                for _ in range(5):
                    d = random_pure_relevant(shape, rng, size, max_facets=8)
                    outcomes.append(self.check(d, field, budget=150))
        assert {out.status for out in outcomes} == {CERTIFIED, EXHAUSTED, BUDGET_EXCEEDED}
        assert any(out.certificate and out.certificate.delta_prime.facet_masks
                   for out in outcomes)

    @pytest.mark.parametrize("field", FIELDS)
    def test_budgets_around_the_certifying_subset(self, field):
        rng = random.Random(20261102)
        shape = Shape((1, 1, 2))
        found = 0
        for _ in range(40):
            d = random_pure_relevant(shape, rng, 4)
            out = augmentation_search_oracle(d, field, budget=150)
            if out.status != CERTIFIED or out.subsets_tested < 3:
                continue
            k = out.subsets_tested
            for budget in (0, 1, k - 1, k):
                self.check(d, field, budget)
            found += 1
            if found == 2:
                break
        else:
            pytest.fail("fewer than two seeded inputs certify after two subsets")

    @pytest.mark.parametrize("field", FIELDS)
    def test_two_pinch_points(self, field):
        # x_1_0 and x_2_1 each have a disconnected link, so a CM union needs
        # added facets through both of them.
        d = cx((1, 1, 2), [(1, 0), (2, 0), (3, 0)], [(1, 0), (2, 1), (3, 1)],
               [(1, 1), (2, 1), (3, 2)])
        out = self.check(d, field)
        assert out.status == CERTIFIED and out.subsets_tested == 25

    @pytest.mark.parametrize("field", FIELDS)
    def test_paper_fixtures(self, field, fig1, c34):
        assert self.check(fig1.complex, field).status == EXHAUSTED
        assert self.check(c34.complex, field).status == EXHAUSTED

    def test_many_candidates_under_a_budget(self):
        rng = random.Random(20261103)
        shape = Shape((2, 2, 2))
        for _ in range(20):
            d = random_pure_relevant(shape, rng, 3, max_facets=10)
            if len(enumerate_irrelevant_candidate_facets(saturate_by_B(d))) <= 50:
                continue
            if self.check(d, GF(2), budget=300).status == BUDGET_EXCEEDED:
                break
        else:
            pytest.fail("no seeded input ran into the budget")


class TestCertifyBalanced:
    def test_single_edge(self):
        d = cx((1, 1), [(1, 0), (2, 0)])
        cert = certify_balanced(d)
        assert cert.verdict and cert.codim == 2
        assert cert.delta_prime == irrelevant_complex(d.shape)
        assert isinstance(cert.evidence, ShellingEvidence)
        assert cert.evidence == balanced_vcm_certificate(d)
        assert cert.evidence.delta_prime is cert.delta_prime
        assert len(cert.evidence.order) == 3

    @pytest.mark.parametrize("field", [GF(2), QQ])
    def test_random_balanced(self, field):
        rng = random.Random(20260902)
        for entries in [(2, 1), (1, 1, 1)]:
            shape = Shape(entries)
            d = random_balanced(shape, rng)
            cert = certify_balanced(d, field)
            assert cert.codim == shape.weight
            assert cert.evidence == balanced_vcm_certificate(d)
            assert cert.evidence.delta_prime is cert.delta_prime
            combined = union(d, cert.delta_prime)
            assert verify_shelling(combined, cert.evidence.order).ok

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            certify_balanced(cx((1, 1), [(1, 0), (1, 1)]))
