"""Brute-force oracles and generators shared by the test modules.

Everything here recomputes from first principles (subset enumeration,
Fraction Gaussian elimination, permutation search) so library results can
be checked against an independent implementation.
"""

import functools
import itertools
import json
import random
from fractions import Fraction
from operator import le
from typing import NamedTuple, Sequence

from vcmkit import (
    BettiTable,
    EmptyVarietyError,
    FreeComplexPresentation,
    Polynomial,
    SearchOutcome,
    ShellingCheck,
    ShellingEvidence,
    Shape,
    SimplicialComplex,
    SqfIdeal,
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
from vcmkit.complexes import _as_vertex, format_face
from vcmkit.documents import DocumentError, _load_json, _read_face, _read_shape
from vcmkit.homology import _Prepared, _link_defect, _pdim, _reisner, _sweep_vertices
from vcmkit.linalg import gf2_rank
from vcmkit.stanley_reisner import _by_degree
from vcmkit.vres import BUDGET_EXCEEDED, CERTIFIED, DEFAULT_FIELD, EXHAUSTED, parse_polynomial


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


class FaceNotInComplexError(ValueError):
    """An operation required a face the complex does not contain."""


def link(delta, face):
    """The link of a face, as a complex on the same shape."""
    sigma = delta.shape.mask_of(face)
    if not delta.has_face_mask(sigma):
        raise FaceNotInComplexError(f"{format_face(face)} is not a face")
    masks = tuple(f & ~sigma for f in delta.facet_masks if f & sigma == sigma)
    return SimplicialComplex(delta.shape, masks)


def restriction(delta, vertices):
    """The induced subcomplex on a set of vertices."""
    window = delta.shape.mask_of(vertices)
    return SimplicialComplex(delta.shape, tuple(f & window for f in delta.facet_masks))


def cone(delta, apex):
    """The cone over the complex with a vertex it does not use."""
    bit = 1 << delta.shape.bit(apex)
    if any(f & bit for f in delta.facet_masks):
        raise ValueError(f"cone apex {_as_vertex(apex)} is already a vertex of the complex")
    return SimplicialComplex(delta.shape, tuple(f | bit for f in delta.facet_masks))


def max_index(table):
    """Largest homological index of a BettiTable, or None for the zero module."""
    if not table.entries:
        return None
    return max(i for i, _ in table.entries)


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


def verify_shelling_oracle(delta, order):
    """verify_shelling as it read faces before the mask verifier: every face
    is turned into a mask with Shape.mask_of, then the restriction sets are
    checked as in verify_shelling_masks."""
    if delta.is_void or not delta.is_pure():
        raise ValueError("shellings are only defined for nonvoid pure complexes")
    masks = [delta.shape.mask_of(f) for f in order]
    if len(masks) != len(set(masks)) or set(masks) != set(delta.facet_masks):
        raise ValueError("order does not list the facets of the complex exactly once")
    ridges = set()
    holders = {}  # vertex bit -> bitset of the order positions whose facet holds it
    for i, current in enumerate(masks):
        vertex_bits = []
        rest = current
        while rest:
            low = rest & -rest
            vertex_bits.append(low)
            rest ^= low
        if i:
            earlier = (1 << i) - 1  # an empty R_i lies in every earlier facet
            for low in vertex_bits:
                if current ^ low in ridges:
                    earlier &= holders.get(low, 0)
            if earlier:
                return ShellingCheck(False, (i + 1, (earlier & -earlier).bit_length()))
        bit_i = 1 << i
        for low in vertex_bits:
            ridges.add(current ^ low)
            holders[low] = holders.get(low, 0) | bit_i
    return ShellingCheck(True, None)


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


def permute_components(delta, perm):
    """Relabel components by a bijection of 1..r; vertex (i, j) -> (perm[i-1], j).

    The shape entries travel with their components.
    """
    shape = delta.shape
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(1, shape.r + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{shape.r}")
    new_entries = [0] * shape.r
    for i, n in enumerate(shape.entries):
        new_entries[perm[i] - 1] = n
    new_shape = Shape(tuple(new_entries))
    facets = [
        [Vertex(perm[v.component - 1], v.index) for v in face]
        for face in delta.facets
    ]
    return SimplicialComplex.from_facets(new_shape, facets)


def _zero_free_certificate_oracle(delta):
    shape = delta.shape
    order = irrelevant_shelling_order(shape, delta.facets[0])
    delta_prime = SimplicialComplex.from_facets(shape, order[1:])
    return ShellingEvidence(delta_prime, tuple(map(shape.mask_of, order + delta.facets[1:])))


def balanced_vcm_certificate_oracle(delta):
    """The certificate of a balanced complex as `balanced_vcm_certificate`
    used to build it: zero entries of the shape are rotated to the end, the
    zero-free prefix gets the explicit order, and every face is lifted back
    through Vertex objects with the cone vertices put back."""
    shape = delta.shape
    nonzero = [c for c, n in enumerate(shape.entries, 1) if n > 0]
    zero = [c for c, n in enumerate(shape.entries, 1) if n == 0]
    if not zero:
        return _zero_free_certificate_oracle(delta)

    if not nonzero:
        # One vertex per component: the only balanced complex is one facet.
        return ShellingEvidence(SimplicialComplex(shape, ()), (delta.facet_masks[0],))

    # Permute components so the zero entries trail.
    perm = [0] * shape.r
    for new, old in enumerate(nonzero + zero, 1):
        perm[old - 1] = new
    inverse = {perm[i]: i + 1 for i in range(shape.r)}
    delta_p = permute_components(delta, perm)
    q = len(nonzero)
    prefix_shape = Shape(delta_p.shape.entries[:q])
    apex_mask = 0
    for c in range(q + 1, shape.r + 1):
        apex_mask |= sum(delta_p.shape.component_bits()[c - 1])
    # Leading components share bit positions with the prefix shape, so the
    # stripped masks transfer verbatim.
    prefix = SimplicialComplex(prefix_shape,
                               tuple(m & ~apex_mask for m in delta_p.facet_masks))
    cert_pre = _zero_free_certificate_oracle(prefix)

    def lift(face):
        lifted = set(Vertex(inverse[v.component], v.index) for v in face)
        lifted.update(Vertex(inverse[c], 0) for c in range(q + 1, shape.r + 1))
        return frozenset(lifted)

    delta_prime = SimplicialComplex.from_facets(
        shape, [lift(f) for f in cert_pre.delta_prime.facets])
    order = tuple(shape.mask_of(lift(f)) for f in cert_pre.order)
    return ShellingEvidence(delta_prime, order)


def is_prime_miller_rabin(n: int) -> bool:
    """Oracle for `linalg._is_prime`: deterministic Miller-Rabin with the 12
    prime bases up to 37, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # Deterministic Miller-Rabin for everything below 3.3e24.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _signed_boundary(cols: list, rows: list) -> list:
    """Dense signed boundary matrix from the `cols` faces down to the `rows`
    faces: entry (row of f minus its i-th vertex, column of f) is (-1)^i."""
    index = {m: i for i, m in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for j, f in enumerate(cols):
        sign = 1
        sub = f
        while sub:
            low = sub & -sub
            matrix[index[f ^ low]][j] = sign
            sign = -sign
            sub ^= low
    return matrix


def rank_mod_p(rows: Sequence, p: int) -> int:
    """Rank over GF(p) by plain Gaussian elimination."""
    work = [[e % p for e in row] for row in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        prow = work[rank]
        for i in range(rank + 1, len(work)):
            factor = work[i][col]
            if factor:
                mult = factor * inv % p
                row = work[i]
                for j in range(col, ncols):
                    row[j] = (row[j] - mult * prow[j]) % p
        rank += 1
    return rank


def integer_rank(rows: Sequence) -> int:
    """Rank over the rationals via Bareiss fraction-free elimination.

    Entries must be integers; all intermediate values stay integral.
    """
    work = [[int(e) for e in row] for row in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        for i in range(rank + 1, len(work)):
            row = work[i]
            head = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * prow[col] - head * prow[j]) // prev
            row[col] = 0
        prev = prow[col]
        rank += 1
    return rank


def boundary_rank_direct(cols, rows, characteristic):
    """Rank of the signed boundary map from `cols` faces to `rows` faces:
    packed elimination over GF(2), otherwise on the dense matrix of
    `_signed_boundary` (Bareiss over Q, modular elimination over odd GF(p))."""
    if not cols or not rows:
        return 0
    if characteristic == 2:
        index = {m: i for i, m in enumerate(rows)}
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
    matrix = _signed_boundary(cols, rows)
    if characteristic == 0:
        return integer_rank(matrix)
    return rank_mod_p(matrix, characteristic)


def canon_faces(face_masks):
    return tuple(sorted(sorted(face_masks), key=int.bit_count))


def face_masks(delta):
    """Every face mask of delta, by (size, vertex order): its face layers in turn."""
    return tuple(itertools.chain.from_iterable(delta.face_layers()))


def is_relevant(face, shape):
    return shape.is_relevant_mask(shape.mask_of(face))


def face_masks_sorted(delta):
    """Every face mask, from the subsets of each facet, sorted by (size,
    vertex order): `face_layers` grows them in layers instead."""
    seen = set()
    for f in delta.facet_set:
        sub = f
        while True:
            seen.add(sub)
            if not sub:
                break
            sub = (sub - 1) & f
    return tuple(sorted(seen, key=lambda m: (m.bit_count(), delta.shape.bits_key(m))))


def failing_links_cached(delta, characteristic):
    """(sigma, lowest homology below the top) for every face sigma, the empty
    one included, of size below delta's dimension whose link fails
    Reisner's test, in `face_masks_sorted` order.  Each link is filtered
    from all the faces and ranked through the cached `_link_defect`, and no
    cone is skipped: the walk `is_cm_reisner` made before it grew links
    from layers."""
    faces = face_masks_sorted(delta)
    for sigma in faces:
        if sigma.bit_count() >= delta.dim:
            break
        d = _link_defect([f ^ sigma for f in faces if f & sigma == sigma], characteristic)
        if d is not None:
            yield sigma, d


def reisner_verdict_cached(delta, characteristic):
    """`is_cm_reisner`'s verdict from the first face of `failing_links_cached`."""
    for sigma, d in failing_links_cached(delta, characteristic):
        return (False, (delta.shape.face_from_mask(sigma), d))
    return (True, None)


def cm_verdicts_both(delta, field):
    """The oracle of `cm_verdicts`: Reisner's walk and the pdim sweep both
    run in full on one preparation, whatever the sweep gives, so a CM
    verdict is computed by the walk, not taken from the theorem."""
    if delta.is_void:
        raise ValueError("Cohen-Macaulayness is undefined for the void complex")
    bits = _sweep_vertices(delta)
    prep = _Prepared(delta, field.characteristic)
    return _reisner(prep), _pdim(prep, bits)


def random_pure_masks(n, k, size, rng):
    """k distinct random facets of `size` of the n vertices."""
    masks = set()
    while len(masks) < k:
        masks.add(sum(1 << p for p in rng.sample(range(n), size)))
    return tuple(masks)


def disconnected_pure_masks(n, per_part, size, rng):
    """`per_part` random facets of `size` on each half of a random split of
    the n vertices: a pure complex with two components."""
    vertices = rng.sample(range(n), n)
    masks = set()
    for part in (vertices[:n // 2], vertices[n // 2:]):
        chosen = set()
        while len(chosen) < per_part:
            chosen.add(sum(1 << p for p in rng.sample(part, size)))
        masks |= chosen
    return tuple(masks)


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
    faces = face_masks(delta)
    shape = delta.shape
    entries = {}
    for sigma in range(1 << shape.num_vertices):
        sub = canon_faces([f for f in faces if f & ~sigma == 0])
        size = sigma.bit_count()
        for d, h in ranks_from_faces_oracle(sub, characteristic):
            if h:
                entries[(size - 1 - d, shape.face_from_mask(sigma))] = h
    return BettiTable(entries)


def ideal_of_walk(delta):
    """Minimal non-face masks of a non-void complex, by walking all 2^n vertex
    subsets by size: the subset walk `ideal_of` used to make.  Walk order is
    (size, vertex order), the order of SqfIdeal.generator_masks."""
    positions = range(delta.shape.num_vertices)
    gens = []
    for size in range(delta.shape.num_vertices + 1):
        for combo in itertools.combinations(positions, size):
            mask = 0
            for p in combo:
                mask |= 1 << p
            if any(g & ~mask == 0 for g in gens):
                continue
            if not delta.has_face_mask(mask):
                gens.append(mask)
    return tuple(gens)


def _grow_faces(full, nonfaces):
    """Walk the faces of a complex on the vertices `full`, layer by size.

    Each face F comes with `cand`, the vertices w outside F for which every
    facet of F | w is a face, and `ext`, those for which F | w is itself a
    face.  F | w with w in cand - ext is then a minimal nonface, and
    `nonfaces(F, cand)` must return exactly those w.  cand is the AND of ext
    over the facets of F, so a face costs |F| lookups in the layer below it;
    growing F only by vertices above its top one reaches every face once.
    Yields (F, cand, ext) for every face, the empty face first.
    """
    ext = full & ~nonfaces(0, full)
    yield 0, full, ext
    layer = {0: ext}
    while layer:
        grown_layer = {}
        for face, ext in layer.items():
            above = ext & -(1 << face.bit_length())
            while above:
                w = above & -above
                above ^= w
                grown = face | w
                cand = full & ~grown
                rest = grown
                while rest:
                    u = rest & -rest
                    rest ^= u
                    cand &= layer[grown ^ u]
                grown_ext = cand & ~nonfaces(grown, cand)
                grown_layer[grown] = grown_ext
                yield grown, cand, grown_ext
        layer = grown_layer


def ideal_of_grown(delta):
    """SqfIdeal of the minimal nonfaces, by growing the faces with a
    nonface test of its own: the facets holding F and w, one bitset of
    facet positions per vertex.  The way `ideal_of` grew faces before it
    read `face_layers`, without the vertex bound it applied."""
    shape = delta.shape
    if delta.is_void:
        return SqfIdeal(shape, (), is_unit=True)
    holders = delta.vertex_holders

    def nonfaces(face, cand):
        common = (1 << len(delta.facet_set)) - 1
        rest = face
        while rest:
            u = rest & -rest
            rest ^= u
            common &= holders[u]
        out = 0
        while cand:
            w = cand & -cand
            cand ^= w
            if not common & holders.get(w, 0):
                out |= w
        return out

    gens = []
    for face, cand, ext in _grow_faces(shape.full_mask, nonfaces):
        tops = cand & ~ext & -(1 << face.bit_length())
        while tops:
            w = tops & -tops
            tops ^= w
            gens.append(face | w)
    return SqfIdeal(shape, tuple(gens))


def complex_of_table(ideal):
    """Facet masks of the complex of a non-unit ideal, from a table of all
    2^n vertex subsets: the walk `complex_of` used to make."""
    n = ideal.shape.num_vertices
    gens = ideal.generator_masks
    is_face = bytearray(1 << n)
    for mask in range(1 << n):
        is_face[mask] = not any(g & ~mask == 0 for g in gens)
    facets = []
    for mask in range(1 << n):
        if not is_face[mask]:
            continue
        if any(not mask >> p & 1 and is_face[mask | (1 << p)] for p in range(n)):
            continue
        facets.append(mask)
    return tuple(facets)


def minimal_generators_pairwise(shape, generator_masks, is_unit=False):
    """SqfIdeal's (generator_masks, is_unit) by testing every generator
    against every one kept so far: O(G^2)."""
    masks = set(generator_masks)
    unit = is_unit or 0 in masks
    if unit:
        masks = set()
    else:
        full = shape.full_mask
        for m in masks:
            if m & ~full:
                raise ValueError(f"generator mask {m:#x} uses bits outside shape {shape}")
    by_size = sorted(masks, key=lambda m: m.bit_count())
    kept = []
    for m in by_size:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    kept.sort(key=lambda m: (m.bit_count(), shape.bits_key(m)))
    return tuple(kept), unit


def contains_monomial_mask(ideal, mask):
    """True when the squarefree monomial with support `mask` lies in the ideal."""
    if ideal.is_unit:
        return True
    return any(g & ~mask == 0 for g in ideal.generator_masks)


class PrimeComponent(NamedTuple):
    vertices: frozenset  # generators of the coordinate prime
    codim: int


def prime_components(delta):
    """Minimal primes of the Stanley-Reisner ideal: one coordinate prime per facet."""
    shape = delta.shape
    full = shape.full_mask
    out = []
    for f in delta.facet_masks:
        comp = full & ~f
        out.append(PrimeComponent(shape.face_from_mask(comp), comp.bit_count()))
    return tuple(out)


def ideal_from_faces(shape, generators):
    """The ideal generated by the squarefree monomials of these vertex sets."""
    return SqfIdeal(shape, tuple(shape.mask_of(g) for g in generators))


def irrelevant_as_ideal(shape):
    """The irrelevant ideal B as a squarefree monomial ideal."""
    return SqfIdeal(shape, shape.balanced_masks())


def gallery_connected_pairwise(delta):
    """SimplicialComplex.gallery_connected by comparing every pair of
    facets: a depth-first walk over facets sharing a ridge."""
    if not delta.is_pure():
        raise ValueError("gallery-connectedness is only defined for pure complexes")
    masks = delta.facet_masks
    if len(masks) <= 1:
        return True
    size = masks[0].bit_count()
    seen = {0}
    stack = [0]
    while stack:
        fa = masks[stack.pop()]
        for b in range(len(masks)):
            if b not in seen and (fa & masks[b]).bit_count() == size - 1:
                seen.add(b)
                stack.append(b)
    return len(seen) == len(masks)


def _divides(a, b):
    return all(map(le, a, b))


def _minimalize_tuples(gens):
    ordered = sorted(set(gens), key=lambda g: (sum(g), g))
    kept = []
    for g in ordered:
        if not any(map(_divides, kept, itertools.repeat(g))):
            kept.append(g)
    return kept


def saturation_oracle_tuples(ideal_gens, b_gens):
    """The colon-ideal saturation on plain exponent tuples: iterate
    (I : B) = intersection of (I : b) until it stabilises, with the
    library's validation and output order."""
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
    if not ideal_gens:
        return []

    def colon(gens, b):
        return _minimalize_tuples(tuple(max(x - y, 0) for x, y in zip(g, b)) for g in gens)

    def intersect(a_gens, b_gens):
        return _minimalize_tuples(
            tuple(max(x, y) for x, y in zip(a, b)) for a in a_gens for b in b_gens)

    current = _minimalize_tuples(ideal_gens)
    while True:
        quotient = colon(current, b_gens[0])
        for b in b_gens[1:]:
            quotient = intersect(quotient, colon(current, b))
        if quotient == current:
            return current
        current = quotient


def minimalize_pairwise(gens, packing):
    """stanley_reisner._minimalize testing each generator against every
    one kept so far, with no support index."""
    guard = packing.guard
    kept = []
    for g in sorted(set(gens)):
        lifted = g | guard
        for k in kept:
            if (lifted - k) & guard == guard:
                break
        else:
            kept.append(g)
    return _by_degree(kept, packing)


def intersect_pairwise(a_gens, c_gens, packing):
    """stanley_reisner._intersect forming the lcm of every pair, through
    the colon on packed ints: lcm(a, c) = c + fieldwise max(a - c, 0)."""
    guard, width = packing.guard, packing.width

    def colon(a, b):
        d = (a | guard) - b
        return d & ((d & guard) >> (width - 1)) * ((1 << (width - 1)) - 1)

    return minimalize_pairwise([c + colon(a, c) for a in a_gens for c in c_gens], packing)


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


def random_polynomial(nvars, rng, top=1, max_terms=3):
    """1 to max_terms terms with exponents 0 to `top` and coefficients
    +-1, +-2 (constants included)."""
    return Polynomial(nvars, [
        (tuple(rng.randint(0, top) for _ in range(nvars)), rng.choice((-2, -1, 1, 2)))
        for _ in range(rng.randint(1, max_terms))])


def random_presentation(shape, rng, max_rank=4, max_length=5, density=0.4, top=1):
    """Free complex of random ranks with sparse random entries: each entry is
    zero with probability 1 - density, otherwise a `random_polynomial`."""
    nvars = shape.num_vertices

    def entry():
        if rng.random() >= density:
            return Polynomial.zero(nvars)
        return random_polynomial(nvars, rng, top)

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
    candidates = tuple(map(ds.shape.face_from_mask, enumerate_irrelevant_candidate_facets(ds)))
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


# -- document I/O oracles -------------------------------------------------


def dump_oracle(data):
    """cli._dump as json.dumps writes it: indent 2, sorted keys, a newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def read_masks_oracle(data, shape, path):
    """documents._read_masks reading every vertex through _read_face, with
    the component offsets summed here from the shape's entries."""
    offsets = list(itertools.accumulate((n + 1 for n in shape.entries), initial=0))
    masks = []
    for i, item in enumerate(data):
        mask = 0
        for v in _read_face(item, shape, f"{path}[{i}]"):
            mask |= 1 << (offsets[v.component - 1] + v.index)
        masks.append(mask)
    return tuple(masks)


def parse_matrix_document_per_cell(text):
    """documents.parse_matrix_document parsing every cell on its own, with
    no memo of the texts already read."""
    data = _load_json(text)
    if not isinstance(data, dict):
        raise DocumentError("top level: expected an object")
    unknown = set(data) - {"shape", "ranks", "matrices"}
    if unknown:
        raise DocumentError(f"unknown keys: {', '.join(sorted(unknown))}")
    for key in ("shape", "ranks", "matrices"):
        if key not in data:
            raise DocumentError(f"missing key: {key}")
    shape = _read_shape(data["shape"])
    ranks = data["ranks"]
    if (not isinstance(ranks, list)
            or not all(isinstance(x, int) and x >= 0 for x in ranks)):
        raise DocumentError("ranks: expected a list of non-negative integers")
    raw_mats = data["matrices"]
    if not isinstance(raw_mats, list):
        raise DocumentError("matrices: expected a list")
    matrices = []
    for k, mat in enumerate(raw_mats):
        if not isinstance(mat, list):
            raise DocumentError(f"matrices[{k}]: expected a list of rows")
        rows = []
        for i, row in enumerate(mat):
            if not isinstance(row, list):
                raise DocumentError(f"matrices[{k}][{i}]: expected a list of entries")
            entries = []
            for j, cell in enumerate(row):
                if not isinstance(cell, str):
                    raise DocumentError(f"matrices[{k}][{i}][{j}]: expected a string")
                try:
                    entries.append(parse_polynomial(cell, shape))
                except ValueError as exc:
                    raise DocumentError(f"matrices[{k}][{i}][{j}]: {exc}") from None
            rows.append(tuple(entries))
        matrices.append(tuple(rows))
    try:
        return FreeComplexPresentation(shape, tuple(ranks), tuple(matrices))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def bits_key_tuple(mask):
    """Shape.bits_key as the tuple of the mask's bit positions, ascending."""
    return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)


def mask_of_bits(shape, face):
    """Shape.mask_of through Shape.bit, one validated vertex at a time."""
    mask = 0
    for v in face:
        mask |= 1 << shape.bit(v)
    return mask


def outcome(fn, *args):
    """fn(*args) as ("ok", value) or ("raise", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared whole by the caller
        return ("raise", type(exc), str(exc))


# Vertex-like values a document or a caller may hand over in place of a
# valid vertex: odd types, wrong lengths, and positions outside a shape.
ODD_VERTICES = (
    [True, 0], [1, False], [1.0, 0], [1, 0.0], [1.5, 0], ["1", 0], [1, "0"], "10",
    [1, 0, 0], [1], [], [0, 0], [-1, 0], [1, -1], [99, 0], [1, 99], None, 7,
    {"component": 1}, [[1, 0]], [None, 0], [float("nan"), 0],
)


def random_odd_faces(shape, rng, count):
    """Seeded faces on `shape`, most of them malformed: valid vertices with
    one or two replaced by ODD_VERTICES entries, a repeated vertex, or a
    face that is not a list at all."""
    valid = [list(v) for v in shape.vertices()]
    faces = []
    for _ in range(count):
        face = [list(v) for v in rng.sample(valid, rng.randint(0, len(valid)))]
        kind = rng.randrange(6)
        if kind in (1, 2) and face:
            for _ in range(kind):
                face[rng.randrange(len(face))] = rng.choice(ODD_VERTICES)
        elif kind == 3 and face:
            face.insert(rng.randrange(len(face) + 1), list(rng.choice(face)))
        elif kind == 4:
            face = rng.choice(({"a": 1}, {}, 3, None, "ab", (1, 0), True))
        faces.append(face)
    return faces


def random_json(rng, depth=0):
    """Seeded nested JSON-able data with what the report writer must keep:
    escapes, non-ASCII text, bools, None, big and negative ints, floats,
    tuples, empty and repeated int lists, and empty dicts."""
    pick = rng.randrange(10 if depth < 4 else 5)
    if pick == 0:
        return rng.choice((True, False, None, 0, -1, 2 ** 70, -(3 ** 50), 1.5, -0.0, 1e300,
                           float("inf"), float("nan")))
    if pick == 1:
        return rng.randint(-9, 9)
    if pick == 2:
        chars = 'ab"\\/\n\t\x00\x1f é€😀\u2028'
        return "".join(rng.choice(chars) for _ in range(rng.randint(0, 6)))
    if pick == 3:
        return rng.choice(([1, 0], [0, 1], [True, 0], [1, False], [], [5], [1, 0, 2], (1, 0)))
    if pick == 4:
        return [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
    if pick in (5, 6, 7):
        return [random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = ["a", "b", "Z", "é", "a b", "", "\"q\"", "10", "9"]
    return {rng.choice(keys): random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))}
