"""Brute-force oracles and generators shared by the test modules.

Everything here recomputes from first principles (subset enumeration,
Fraction Gaussian elimination, permutation search) so library results can
be checked against an independent implementation.
"""

import functools
import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from vcmkit import (
    BettiTable,
    DegreeBoundError,
    EmptyVarietyError,
    FreeComplexPresentation,
    Polynomial,
    SearchOutcome,
    Shape,
    SimplicialComplex,
    Vertex,
    balanced_vcm_certificate,
    certify_vcm_via_union,
    enumerate_irrelevant_candidate_facets,
    irrelevant_complex,
    irrelevant_shelling_order,
    is_cm_reisner,
    saturate_by_B,
    union,
    verify_shelling,
)
from vcmkit.complexes import format_face
from vcmkit.linalg import gf2_rank, integer_rank, rank_mod_p
from vcmkit.vres import BUDGET_EXCEEDED, CERTIFIED, DEFAULT_FIELD, EXHAUSTED


def cx(entries, *facets):
    """Build a complex from shape entries and facets given as (i, j) tuples."""
    shape = Shape(tuple(entries))
    return SimplicialComplex.from_facets(
        shape, [[Vertex(*v) for v in facet] for facet in facets])


def faces_bruteforce(delta):
    """Every face as a frozenset of vertices, by direct subset enumeration."""
    out = set()
    for facet in delta.facets:
        vs = sorted(facet)
        for k in range(len(vs) + 1):
            for combo in itertools.combinations(vs, k):
                out.add(frozenset(combo))
    return out


def maximal_sets(sets):
    return {s for s in sets if not any(s < t for t in sets)}


def link_bruteforce(delta, sigma):
    """Facets of the link as a set of frozensets."""
    sigma = frozenset(sigma)
    faces = faces_bruteforce(delta)
    return maximal_sets({f - sigma for f in faces if sigma <= f})


def restriction_bruteforce(delta, window):
    window = frozenset(window)
    faces = faces_bruteforce(delta)
    return maximal_sets({f & window for f in faces})


def minimal_nonfaces_bruteforce(delta):
    """Minimal non-faces over the full vertex set of the shape."""
    vertices = delta.shape.vertices()
    faces = faces_bruteforce(delta)
    nonfaces = []
    for k in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, k):
            s = frozenset(combo)
            if s in faces:
                continue
            if any(g <= s for g in nonfaces):
                continue
            nonfaces.append(s)
    return set(nonfaces)


def euler_characteristic_reduced(delta):
    """Sum of (-1)^dim over all faces including the empty one."""
    total = 0
    for face in faces_bruteforce(delta):
        total += (-1) ** (len(face) - 1)
    return total


def exponent_vectors(ideal):
    """Generators of a squarefree ideal as 0/1 exponent tuples."""
    n = ideal.shape.num_vertices
    if ideal.is_unit:
        return [(0,) * n]
    return [tuple(m >> i & 1 for i in range(n)) for m in ideal.generator_masks]


def fraction_rank(rows):
    """Rank by textbook Gaussian elimination over Fractions."""
    work = [[Fraction(e) for e in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / prow[col]
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        rank += 1
    return rank


def gf_rank_naive(rows, p):
    """Rank over GF(p) by full reduction, written independently of the library."""
    work = [[e % p for e in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [e * inv % p for e in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def antichains_nonvoid(num_vertices):
    """All antichains of nonempty subsets of the vertex positions, as mask tuples.

    These are exactly the facet lists of the complexes on the given vertices
    other than the void complex and {emptyset}.
    """
    subsets = list(range(1, 1 << num_vertices))
    found = []
    chosen = []

    def extend(start):
        for idx in range(start, len(subsets)):
            m = subsets[idx]
            if any((m & c) in (m, c) for c in chosen):
                continue
            chosen.append(m)
            found.append(tuple(chosen))
            extend(idx + 1)
            chosen.pop()

    extend(0)
    return found


def random_complex(shape, rng, max_facets=5):
    """Random complex from random candidate faces (absorbed on construction)."""
    n = shape.num_vertices
    masks = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(0, n)
        masks.append(sum(1 << p for p in rng.sample(range(n), size)))
    return SimplicialComplex(shape, tuple(masks))


def random_balanced(shape, rng):
    """Random nonempty set of balanced facets (always pure and balanced)."""
    grid = shape.balanced_masks()
    return SimplicialComplex(shape, tuple(rng.sample(grid, rng.randint(1, len(grid)))))


def find_shelling(delta):
    """First facet permutation passing the shelling check, or None."""
    for perm in itertools.permutations(delta.facets):
        if verify_shelling(delta, perm).ok:
            return perm
    return None


def verify_shelling_pairwise(delta, order):
    """Shelling check by comparing each facet with every earlier one: O(F^2).

    Step i passes when each intersection with an earlier facet lies in an
    intersection of full codimension one; returns (ok, witness) with the
    first failing (i, j), 1-based, as the library's checker does.
    """
    if delta.is_void or not delta.is_pure():
        raise ValueError("shellings are only defined for nonvoid pure complexes")
    masks = [delta.shape.mask_of(f) for f in order]
    if len(masks) != len(set(masks)) or set(masks) != set(delta.facet_masks):
        raise ValueError("order does not list the facets of the complex exactly once")
    size = masks[0].bit_count()
    for i in range(1, len(masks)):
        current = masks[i]
        meets = [current & masks[j] for j in range(i)]
        ridges = [m for m in meets if m.bit_count() == size - 1]
        for j, m in enumerate(meets):
            if not any(m & ~ridge == 0 for ridge in ridges):
                return False, (i + 1, j + 1)
    return True, None


def maximal_masks_pairwise(masks):
    """The masks contained in no other, by scanning every kept mask: O(F^2)."""
    kept = []
    for m in sorted(set(masks), key=lambda m: -m.bit_count()):
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    return set(kept)


DESK_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1), (2, 2, 2))


def balanced_bases(shape):
    per_component = [range(n + 1) for n in shape.entries]
    for picks in itertools.product(*per_component):
        yield frozenset(Vertex(c, j) for c, j in enumerate(picks, 1))


def desk_scale_cases():
    """(union, order) for every balanced base on the desk-scale shapes: 72 cases."""
    for entries in DESK_SHAPES:
        shape = Shape(entries)
        irr = irrelevant_complex(shape)
        for base in balanced_bases(shape):
            order = irrelevant_shelling_order(shape, base)
            target = union(irr, SimplicialComplex.from_facets(shape, [base]))
            yield target, order


class PairKey(NamedTuple):
    """Ordered same-component vertex pair (x_{c,low}, x_{c,high}), low < high."""

    component: int
    low: int
    high: int


class FacetKey(NamedTuple):
    """Facet of a one-pair block: the pair plus one index per remaining component.

    `excluded` is the component the block avoids entirely; `rest` lists the
    chosen indices of the other components in increasing component order.
    """

    excluded: int
    pair: PairKey
    rest: tuple


def compare_pairs(a, b):
    """Total order on pairs: by component, then (low, high) lexicographically."""
    ka, kb = (a.component, a.low, a.high), (b.component, b.low, b.high)
    return (ka > kb) - (ka < kb)


def compare_facets(a, b):
    """The within-block order of the irrelevant shelling, as a comparator:
    rest tuple lexicographically, then pair."""
    if a.excluded != b.excluded:
        raise ValueError(
            f"facet keys from different blocks (excluded {a.excluded} vs {b.excluded})")
    if a.rest != b.rest:
        return -1 if a.rest < b.rest else 1
    return compare_pairs(a.pair, b.pair)


def facet_key(face, shape, excluded):
    """Classify a block facet: exactly one doubled component, `excluded` empty."""
    by_comp = {}
    for v in face:
        v = Vertex(*v)
        by_comp.setdefault(v.component, []).append(v.index)
    if excluded in by_comp:
        raise ValueError(f"face touches the excluded component {excluded}")
    doubled = [c for c, idxs in by_comp.items() if len(idxs) == 2]
    if len(doubled) != 1 or any(len(i) > 2 for i in by_comp.values()):
        raise ValueError(f"{format_face(face)} is not a one-pair facet")
    c = doubled[0]
    lo, hi = sorted(by_comp[c])
    expected = set(range(1, shape.r + 1)) - {excluded, c}
    if set(by_comp) - {c} != expected:
        raise ValueError(f"{format_face(face)} does not cover the block components")
    rest = tuple(by_comp[t][0] for t in sorted(expected))
    return FacetKey(excluded, PairKey(c, lo, hi), rest)


def face_from_key(key, shape):
    vertices = [Vertex(key.pair.component, key.pair.low),
                Vertex(key.pair.component, key.pair.high)]
    others = sorted(set(range(1, shape.r + 1)) - {key.excluded, key.pair.component})
    vertices.extend(Vertex(c, j) for c, j in zip(others, key.rest))
    return frozenset(vertices)


RANDOM_CERTIFICATE_SHAPES = ((1, 1), (2, 1), (2, 2), (1, 1, 1), (1, 0), (2, 0, 1))
RANDOM_CERTIFICATE_SEED = 20260823


def random_certificate_cases(count=200):
    """(delta, certificate) for seeded random balanced complexes."""
    rng = random.Random(RANDOM_CERTIFICATE_SEED)
    for i in range(count):
        shape = Shape(RANDOM_CERTIFICATE_SHAPES[i % len(RANDOM_CERTIFICATE_SHAPES)])
        delta = random_balanced(shape, rng)
        yield delta, balanced_vcm_certificate(delta)


def boundary_rank_direct(cols, rows, characteristic):
    """Rank of the signed boundary map from `cols` faces to `rows` faces:
    packed elimination over GF(2), otherwise on a dense matrix (Bareiss
    over Q, modular elimination over odd GF(p))."""
    if not cols or not rows:
        return 0
    index = {m: i for i, m in enumerate(rows)}
    if characteristic == 2:
        packed = []
        for f in cols:
            bits = 0
            sub = f
            while sub:
                low = sub & -sub
                bits |= 1 << index[f ^ low]
                sub ^= low
            packed.append(bits)
        return gf2_rank(packed)
    matrix = [[0] * len(cols) for _ in rows]
    for j, f in enumerate(cols):
        sign = 1
        sub = f
        while sub:
            low = sub & -sub
            matrix[index[f ^ low]][j] = sign
            sign = -sign
            sub ^= low
    if characteristic == 0:
        return integer_rank(matrix)
    return rank_mod_p(matrix, characteristic)


def canon_faces(face_masks):
    return tuple(sorted(sorted(face_masks), key=int.bit_count))


@functools.lru_cache(maxsize=None)
def ranks_from_faces_oracle(faces, characteristic):
    """((dim, rank), ...) of a canonical face tuple, every boundary ranked
    directly (no GF(2) certificate over Q)."""
    if not faces:
        return ()
    top = max(m.bit_count() for m in faces)
    layers = [[m for m in faces if m.bit_count() == s] for s in range(top + 1)]
    branks = [0] * (top + 2)
    for s in range(1, top + 1):
        branks[s] = boundary_rank_direct(layers[s], layers[s - 1], characteristic)
    return tuple((s - 1, len(layers[s]) - branks[s] - branks[s + 1]) for s in range(top + 1))


def hochster_betti_oracle(delta, characteristic):
    """Betti table by the plain Hochster sweep: for every vertex subset,
    filter all faces, sort them canonically and rank every boundary."""
    faces = delta.face_masks()
    shape = delta.shape
    entries = {}
    for sigma in range(1 << shape.num_vertices):
        sub = canon_faces([f for f in faces if f & ~sigma == 0])
        size = sigma.bit_count()
        for d, h in ranks_from_faces_oracle(sub, characteristic):
            if h:
                entries[(size - 1 - d, shape.face_from_mask(sigma))] = h
    return BettiTable(entries)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _minimalize_tuples(gens):
    ordered = sorted(set(gens), key=lambda g: (sum(g), g))
    kept = []
    for g in ordered:
        if not any(_divides(k, g) for k in kept):
            kept.append(g)
    return kept


def saturation_oracle_tuples(ideal_gens, b_gens, degree_bound=None):
    """The colon-ideal saturation on plain exponent tuples: iterate
    (I : B) = intersection of (I : b) until it stabilises, with the
    library's validation, DegreeBoundError messages and output order."""
    ideal_gens = [tuple(int(e) for e in g) for g in ideal_gens]
    b_gens = [tuple(int(e) for e in g) for g in b_gens]
    if not b_gens:
        raise ValueError("cannot saturate by the zero ideal")
    nvars = len(b_gens[0])
    for g in ideal_gens + b_gens:
        if len(g) != nvars:
            raise ValueError("exponent vectors have inconsistent lengths")
        if any(e < 0 for e in g):
            raise ValueError(f"negative exponent in {g}")
    if degree_bound is None:
        degree_bound = nvars
    if not ideal_gens:
        return []

    def check(gens):
        worst = max((sum(g) for g in gens), default=0)
        if worst > degree_bound:
            raise DegreeBoundError(
                f"intermediate generator of degree {worst} exceeds bound {degree_bound}")
        return gens

    def colon(gens, b):
        return _minimalize_tuples(tuple(max(x - y, 0) for x, y in zip(g, b)) for g in gens)

    def intersect(a_gens, b_gens):
        return _minimalize_tuples(
            tuple(max(x, y) for x, y in zip(a, b)) for a in a_gens for b in b_gens)

    current = check(_minimalize_tuples(ideal_gens))
    while True:
        quotient = check(colon(current, b_gens[0]))
        for b in b_gens[1:]:
            quotient = check(intersect(quotient, colon(current, b)))
        if quotient == current:
            return current
        current = quotient


def compose_failures_dense(pres):
    """Positions (pair k, row, col) where matrices[k] @ matrices[k+1] is
    nonzero, summing every product, zero entries included, as Polynomials."""
    nvars = pres.shape.num_vertices
    bad = []
    for k in range(len(pres.matrices) - 1):
        left, right = pres.matrices[k], pres.matrices[k + 1]
        for i in range(len(left)):
            for j in range(pres.ranks[k + 2]):
                acc = Polynomial.zero(nvars)
                for t in range(pres.ranks[k + 1]):
                    acc = acc + left[i][t] * right[t][j]
                if not acc.is_zero():
                    bad.append((k, i, j))
    return tuple(bad)


def koszul_presentation(shape, variables):
    """Koszul complex on the given variable positions.

    matrices[k] maps the (k+1)-subsets of the variables to the k-subsets;
    entry [S][T] is (-1)^pos * x_v when S is T without its pos-th element v.
    """
    nvars = shape.num_vertices
    basis = [list(itertools.combinations(variables, k)) for k in range(len(variables) + 1)]
    matrices = []
    for k in range(len(variables)):
        index = {s: i for i, s in enumerate(basis[k])}
        rows = [[Polynomial.zero(nvars)] * len(basis[k + 1]) for _ in basis[k]]
        for col, subset in enumerate(basis[k + 1]):
            for pos, v in enumerate(subset):
                row = index[subset[:pos] + subset[pos + 1:]]
                rows[row][col] = (-1) ** pos * Polynomial.variable(nvars, v)
        matrices.append(rows)
    return FreeComplexPresentation(shape, tuple(len(b) for b in basis), tuple(matrices))


def flip_one_entry(pres, rng):
    """The presentation with one seeded nonzero entry negated."""
    k = rng.randrange(len(pres.matrices))
    i, j = rng.choice([(i, j) for i, row in enumerate(pres.matrices[k])
                       for j, entry in enumerate(row) if not entry.is_zero()])
    mats = [[list(row) for row in mat] for mat in pres.matrices]
    mats[k][i][j] = -mats[k][i][j]
    return FreeComplexPresentation(pres.shape, pres.ranks, mats)


def random_presentation(shape, rng, max_rank=4, max_length=5, density=0.4):
    """Free complex of random ranks with sparse random entries: each entry is
    zero with probability 1 - density, otherwise 1-3 terms with exponents
    0-1 and coefficients +-1, +-2 (constants included)."""
    nvars = shape.num_vertices

    def entry():
        if rng.random() >= density:
            return Polynomial.zero(nvars)
        return Polynomial(nvars, [
            (tuple(rng.randint(0, 1) for _ in range(nvars)), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(1, 3))])

    ranks = tuple(rng.randint(0, max_rank) for _ in range(rng.randint(1, max_length)))
    matrices = tuple(
        tuple(tuple(entry() for _ in range(ranks[k + 1])) for _ in range(ranks[k]))
        for k in range(len(ranks) - 1))
    return FreeComplexPresentation(shape, ranks, matrices)


def augmentation_search_oracle(delta, field=DEFAULT_FIELD, budget=10 ** 6):
    """The augmentation search building every union as a complex and
    running the full `is_cm_reisner` on it, subset by subset."""
    ds = saturate_by_B(delta)
    if ds.is_void:
        raise EmptyVarietyError("every facet is irrelevant; nothing remains to certify")
    if not ds.is_pure():
        raise ValueError("the saturation is impure; no equidimensional augmentation exists")
    candidates = enumerate_irrelevant_candidate_facets(ds)
    tested = 0
    for k in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, k):
            if tested >= budget:
                return SearchOutcome(
                    BUDGET_EXCEEDED, None,
                    f"stopped after the budget of {budget} candidate subsets", tested)
            tested += 1
            dp = SimplicialComplex.from_facets(ds.shape, subset)
            u = union(ds, dp)
            if is_cm_reisner(u, field).is_cm:
                cert = certify_vcm_via_union(ds, dp, field)
                if not cert.verdict:
                    raise AssertionError("Reisner-positive union with wrong resolution length")
                return SearchOutcome(CERTIFIED, cert, None, tested)
    if not candidates:
        reason = "no irrelevant candidate facets of required dimension"
    else:
        reason = (f"all {tested} subsets of the {len(candidates)} candidate facets "
                  "fail the Cohen-Macaulay test")
    return SearchOutcome(EXHAUSTED, None, reason, tested)


def random_pure_relevant(shape, rng, size, max_facets=6):
    """Complex of 1 to `max_facets` random relevant facets of `size` vertices
    (repeated draws merge); `size` must be at least the component count."""
    masks = []
    for _ in range(rng.randint(1, max_facets)):
        m = 0
        while not shape.is_relevant_mask(m):
            m = sum(1 << p for p in rng.sample(range(shape.num_vertices), size))
        masks.append(m)
    return SimplicialComplex(shape, tuple(masks))
