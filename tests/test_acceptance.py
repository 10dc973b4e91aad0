"""End-to-end acceptance gate.

Each test covers one numbered criterion and records a `[PASS]`/`[FAIL]`
line; the lines are printed as a block after the run (see conftest).  Wall
time bounds are part of the assertions.
"""

import json
import random
import time
from contextlib import contextmanager

from vcmkit import (
    QQ,
    GF,
    Shape,
    SimplicialComplex,
    balanced_vcm_certificate,
    codim,
    compose_failures,
    enumerate_irrelevant_candidate_facets,
    ideal_of,
    is_cm_pdim,
    is_cm_reisner,
    projective_dimension,
    saturate_by_B,
    saturation_oracle,
    union,
    verify_shelling,
)
from vcmkit.cli import main as cli_main
from vcmkit.documents import complex_document
from helpers import antichains_nonvoid, desk_scale_cases, exponent_vectors, is_relevant, random_balanced

CRITERION_LINES = []

# (complex, order) pairs gathered by the shelling criteria; criterion 9
# replays every one of them through the Cohen-Macaulay test.
SHELLED = []


@contextmanager
def criterion(number, name, limit=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        line = f"[FAIL] criterion {number}: {name}"
        CRITERION_LINES.append(line)
        print(line)
        raise
    elapsed = time.perf_counter() - started
    if limit is not None and elapsed > limit:
        line = f"[FAIL] criterion {number}: {name} ({elapsed:.1f}s over the {limit:.0f}s bound)"
        CRITERION_LINES.append(line)
        print(line)
        raise AssertionError(f"criterion {number} took {elapsed:.1f}s, bound {limit:.0f}s")
    line = f"[PASS] criterion {number}: {name} ({elapsed:.2f}s)"
    CRITERION_LINES.append(line)
    print(line)


def test_criterion_1_counterexample_invariants(c34):
    with criterion(1, "counterexample34: codim 2 and pdim 3 over GF(2)", limit=5.0):
        assert codim(c34.complex) == 2
        assert projective_dimension(c34.complex, GF(2)) == 3


def test_criterion_2_no_candidates_and_exhausted_search(c34, tmp_path, capsys):
    with criterion(2, "counterexample34: empty candidate pool, search exhausts", limit=1.0):
        assert c34.complex.shape == Shape((2, 2)) and c34.complex.dim == 3
        assert enumerate_irrelevant_candidate_facets(c34.complex) == ()
        path = tmp_path / "counterexample34.json"
        path.write_text(json.dumps(complex_document(c34.complex)))
        code = cli_main(["search", str(path)])
        out, _ = capsys.readouterr()
        assert code == 2
        assert json.loads(out)["status"] == "exhausted"


def test_criterion_3_matrix_pairs_compose(fig1, c34):
    with criterion(3, "displayed matrix pairs satisfy d^2 = 0", limit=1.0):
        assert not compose_failures(fig1.presentation)
        assert not compose_failures(c34.presentation)


def test_criterion_4_glued_tetrahedra(fig1):
    with criterion(4, "fig1: not gallery-connected, Reisner witness {d,e}, codim 2",
                   limit=1.0):
        assert fig1.complex.gallery_connected() is False
        de = frozenset({fig1.labels["d"], fig1.labels["e"]})
        for field in (GF(2), QQ):
            verdict = is_cm_reisner(fig1.complex, field)
            assert not verdict.is_cm
            assert verdict.witness == (de, 0)
        assert codim(fig1.complex) == 2


def test_criterion_5_explicit_orders_at_desk_scale():
    with criterion(5, "explicit shelling for every balanced base on 7 shapes",
                   limit=60.0):
        count = 0
        for target, order in desk_scale_cases():
            assert verify_shelling(target, order).ok
            for field in (GF(2), QQ):
                assert is_cm_reisner(target, field).is_cm
            SHELLED.append((target, order))
            count += 1
        assert count == 72


def test_criterion_6_random_balanced_certificates():
    with criterion(6, "200 random balanced complexes certify", limit=120.0):
        shapes = ((1, 1), (2, 1), (2, 2), (1, 1, 1), (1, 0), (2, 0, 1))
        rng = random.Random(20260823)
        for i in range(200):
            shape = Shape(shapes[i % len(shapes)])
            delta = random_balanced(shape, rng)
            cert = balanced_vcm_certificate(delta)
            assert all(not is_relevant(f, shape) for f in cert.delta_prime.facets)
            combined = union(delta, cert.delta_prime)
            assert verify_shelling(combined, cert.order).ok
            assert codim(delta) == shape.weight
            assert projective_dimension(combined, GF(2)) == shape.weight
            SHELLED.append((combined, cert.order))


def _saturation_agrees(delta):
    shape = delta.shape
    n = shape.num_vertices
    b_vecs = [tuple(m >> i & 1 for i in range(n))
              for m in shape.balanced_masks()]
    got = saturation_oracle(exponent_vectors(ideal_of(delta)), b_vecs)
    want = exponent_vectors(ideal_of(saturate_by_B(delta)))
    return sorted(got) == sorted(want)


def test_criterion_7_saturation_oracle_equivalence():
    with criterion(7, "combinatorial saturation matches the colon-ideal oracle"):
        shape = Shape((1, 1))
        cases = [SimplicialComplex(shape, masks) for masks in antichains_nonvoid(4)]
        cases.append(SimplicialComplex(shape, ()))
        cases.append(SimplicialComplex(shape, (0,)))
        assert len(cases) == 168
        for delta in cases:
            assert _saturation_agrees(delta)
        rng = random.Random(20260824)
        for entries in ((2, 1), (1, 1, 1)):
            other = Shape(entries)
            n = other.num_vertices
            for _ in range(100):
                masks = tuple(
                    sum(1 << p for p in rng.sample(range(n), rng.randint(0, n)))
                    for _ in range(rng.randint(1, 5)))
                assert _saturation_agrees(SimplicialComplex(other, masks))


def test_criterion_8_reisner_pdim_cross_validation():
    with criterion(8, "Reisner test == resolution-length test on all 5-vertex "
                      "complexes over GF(2) and Q", limit=600.0):
        shape = Shape((4,))
        cases = [SimplicialComplex(shape, masks) for masks in antichains_nonvoid(5)]
        cases.append(SimplicialComplex(shape, (0,)))
        assert len(cases) == 7580
        for delta in cases:
            for field in (GF(2), QQ):
                assert is_cm_reisner(delta, field).is_cm == is_cm_pdim(delta, field)


def test_criterion_9_shellings_are_cohen_macaulay():
    with criterion(9, "every emitted shelling order yields a Cohen-Macaulay union"):
        pairs = SHELLED if SHELLED else list(desk_scale_cases())
        seen = set()
        checked = 0
        for target, order in pairs:
            key = (target.shape.entries, target.facet_masks)
            if key in seen:
                continue
            seen.add(key)
            assert verify_shelling(target, order).ok
            assert is_cm_reisner(target, GF(2)).is_cm
            checked += 1
        assert checked > 0
