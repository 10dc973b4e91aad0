"""Shellability certificates for balanced complexes on products.

The constructive side of the toolkit: the irrelevant complex of a shape, the
explicit shelling order for (irrelevant complex + one balanced facet), and
the full pipeline that augments any balanced complex by irrelevant facets
until the union is shellable.  Shellings are always re-verified by the
order-checker here rather than trusted from construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .complexes import (
    Face,
    Shape,
    SimplicialComplex,
    Vertex,
    _popcount,
    format_face,
    permute_components,
    union,
)

ShellingOrder = tuple  # of Face


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


def compare_pairs(a: PairKey, b: PairKey) -> int:
    """Total order on pairs: by component, then (low, high) lexicographically."""
    ka, kb = (a.component, a.low, a.high), (b.component, b.low, b.high)
    return (ka > kb) - (ka < kb)


def compare_facets(a: FacetKey, b: FacetKey) -> int:
    """Total order within one block: rest tuple lexicographically, then pair."""
    if a.excluded != b.excluded:
        raise ValueError(
            f"facet keys from different blocks (excluded {a.excluded} vs {b.excluded})")
    if a.rest != b.rest:
        return -1 if a.rest < b.rest else 1
    return compare_pairs(a.pair, b.pair)


def facet_key(face, shape: Shape, excluded: int) -> FacetKey:
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


def face_from_key(key: FacetKey, shape: Shape) -> Face:
    vertices = [Vertex(key.pair.component, key.pair.low),
                Vertex(key.pair.component, key.pair.high)]
    others = sorted(set(range(1, shape.r + 1)) - {key.excluded, key.pair.component})
    vertices.extend(Vertex(c, j) for c, j in zip(others, key.rest))
    return frozenset(vertices)


# -- shelling verification ------------------------------------------------


class ShellingCheck(NamedTuple):
    ok: bool
    witness: tuple  # (i, j), 1-based order positions, for the first failure


def verify_shelling(delta: SimplicialComplex, order: Sequence) -> ShellingCheck:
    """Check a facet order for the shelling condition.

    A step i passes when every intersection with an earlier facet extends to
    an intersection of full codimension one; the witness is the first (i, j)
    where facet j's intersection is maximal but too small.  The order must
    list each facet of the pure complex exactly once.

    Checked through the restriction set R_i, the vertices v of F_i whose
    ridge F_i \\ v lies in an earlier facet: step i passes iff no earlier
    facet contains R_i (Bjorner-Wachs 1996), and the lowest such facet is
    the witness j.  One ridge set and one bitset of order positions per
    vertex make each step cost its facet size, not its position.
    """
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


# -- the irrelevant complex and its shelling ------------------------------


def irrelevant_complex(shape: Shape) -> SimplicialComplex:
    """All size-r faces with exactly one same-component vertex pair.

    Each facet doubles one component, misses exactly one other, and picks a
    single vertex everywhere else.  With one component there is nothing to
    double and miss at once: the complex is void.
    """
    masks = []
    offsets = shape._offsets
    for c, n in enumerate(shape.entries, 1):
        if n == 0:
            continue
        for a, b in itertools.combinations(range(n + 1), 2):
            pair_mask = (1 << (offsets[c - 1] + a)) | (1 << (offsets[c - 1] + b))
            for z in range(1, shape.r + 1):
                if z == c:
                    continue
                others = [t for t in range(1, shape.r + 1) if t not in (c, z)]
                choices = [range(shape.entries[t - 1] + 1) for t in others]
                for picks in itertools.product(*choices):
                    m = pair_mask
                    for t, j in zip(others, picks):
                        m |= 1 << (offsets[t - 1] + j)
                    masks.append(m)
    return SimplicialComplex(shape, tuple(masks))


def irrelevant_shelling_order(shape: Shape, base) -> ShellingOrder:
    """Shelling order for irrelevant_complex(shape) together with a balanced facet.

    The base facet comes first; after it the one-pair facets are grouped by
    excluded component, from the last component down to the first, each
    block sorted by compare_facets.  Vertices are relabelled internally so
    the base facet plays the all-zeroes role, and relabelled back on output.
    """
    if any(n == 0 for n in shape.entries):
        raise ValueError(f"shape {shape} has a zero entry; the one-pair blocks degenerate")
    base_mask = shape.mask_of(base)
    if any(_popcount(base_mask & cm) != 1 for cm in shape.component_masks):
        raise ValueError(f"base facet {format_face(base)} is not balanced")
    offsets = shape._offsets
    # Per-component swap 0 <-> (index used by the base facet).
    swap = []
    for c, n in enumerate(shape.entries, 1):
        comp_bits = base_mask & shape.component_masks[c - 1]
        j = comp_bits.bit_length() - 1 - offsets[c - 1]
        mapping = list(range(n + 1))
        mapping[0], mapping[j] = mapping[j], mapping[0]
        swap.append(mapping)

    def actual_bit(comp: int, std_index: int) -> int:
        return 1 << (offsets[comp - 1] + swap[comp - 1][std_index])

    order = [base_mask]
    for k in range(shape.r, 0, -1):
        keys = []
        for i in range(1, shape.r + 1):
            if i == k:
                continue
            others = [t for t in range(1, shape.r + 1) if t not in (i, k)]
            for a, b in itertools.combinations(range(shape.entries[i - 1] + 1), 2):
                choices = [range(shape.entries[t - 1] + 1) for t in others]
                for picks in itertools.product(*choices):
                    keys.append(FacetKey(k, PairKey(i, a, b), picks))
        keys.sort(key=lambda key: (key.rest, key.pair))
        for key in keys:
            m = actual_bit(key.pair.component, key.pair.low)
            m |= actual_bit(key.pair.component, key.pair.high)
            others = sorted(set(range(1, shape.r + 1)) - {key.excluded, key.pair.component})
            for t, j in zip(others, key.rest):
                m |= actual_bit(t, j)
            order.append(m)
    return tuple(shape.face_from_mask(m) for m in order)


# -- the balanced pipeline ------------------------------------------------


@dataclass(frozen=True)
class BalancedCertificate:
    """Irrelevant augmentation plus an explicit shelling order for the union."""

    delta_prime: SimplicialComplex
    order: ShellingOrder


def _zero_free_certificate(delta: SimplicialComplex) -> BalancedCertificate:
    shape = delta.shape
    base = delta.facets[0]
    order = list(irrelevant_shelling_order(shape, base))
    order.extend(f for f in delta.facets if f != base)
    return BalancedCertificate(irrelevant_complex(shape), tuple(order))


def balanced_vcm_certificate(delta: SimplicialComplex) -> BalancedCertificate:
    """Shellability certificate for any balanced complex.

    Zero entries of the shape are rotated to the end (each such component
    has a single vertex, which every balanced facet contains, so the complex
    is an iterated cone), the zero-free prefix gets the explicit order, and
    the cone vertices are put back.  The returned order is re-verified on
    the union before the certificate is handed out.
    """
    if delta.is_void:
        raise ValueError("cannot certify the void complex")
    if not delta.is_balanced():
        offender = next(f for f in delta.facets
                        if any(_popcount(delta.shape.mask_of(f) & cm) != 1
                               for cm in delta.shape.component_masks))
        raise ValueError(f"facet {format_face(offender)} is not balanced")
    shape = delta.shape
    nonzero = [c for c, n in enumerate(shape.entries, 1) if n > 0]
    zero = [c for c, n in enumerate(shape.entries, 1) if n == 0]
    if not zero:
        cert = _zero_free_certificate(delta)
        _check_certificate(delta, cert)
        return cert

    if not nonzero:
        # One vertex per component: the only balanced complex is one facet.
        cert = BalancedCertificate(SimplicialComplex(shape, ()), (delta.facets[0],))
        _check_certificate(delta, cert)
        return cert

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
        apex_mask |= delta_p.shape.component_masks[c - 1]
    # Leading components share bit positions with the prefix shape, so the
    # stripped masks transfer verbatim.
    prefix = SimplicialComplex(prefix_shape,
                               tuple(m & ~apex_mask for m in delta_p.facet_masks))
    cert_pre = _zero_free_certificate(prefix)

    def lift(face) -> Face:
        lifted = set(Vertex(inverse[v.component], v.index) for v in face)
        lifted.update(Vertex(inverse[c], 0) for c in range(q + 1, shape.r + 1))
        return frozenset(lifted)

    delta_prime = SimplicialComplex.from_facets(
        shape, [lift(f) for f in cert_pre.delta_prime.facets])
    order = tuple(lift(f) for f in cert_pre.order)
    cert = BalancedCertificate(delta_prime, order)
    _check_certificate(delta, cert)
    return cert


def _check_certificate(delta: SimplicialComplex, cert: BalancedCertificate) -> None:
    if any(delta.shape.is_relevant_mask(m) for m in cert.delta_prime.facet_masks):
        raise AssertionError("augmentation contains a relevant facet")
    check = verify_shelling(union(delta, cert.delta_prime), cert.order)
    if not check.ok:
        raise AssertionError(f"constructed order fails the shelling check at {check.witness}")
