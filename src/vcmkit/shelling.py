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
from typing import Iterator, NamedTuple, Sequence

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


def _component_bits(shape: Shape) -> list:
    """bits[c - 1][j] is the mask of vertex x_{c,j}."""
    offsets = shape._offsets
    return [[1 << (offsets[i] + j) for j in range(n + 1)] for i, n in enumerate(shape.entries)]


def _one_pair_block(bits: list, excluded: int) -> Iterator[tuple]:
    """The irrelevant facets missing component `excluded`, as
    (rest, component, low, high, mask) tuples: the facet doubles `component`
    at indices low < high and picks index rest[i] in the i-th other
    component, in increasing component order.  `bits` is laid out as by
    `_component_bits`."""
    for c, comp in enumerate(bits, 1):
        if c == excluded:
            continue
        others = [t for k, t in enumerate(bits, 1) if k not in (c, excluded)]
        for low, high in itertools.combinations(range(len(comp)), 2):
            pair = comp[low] | comp[high]
            for rest in itertools.product(*(range(len(t)) for t in others)):
                m = pair
                for t, j in zip(others, rest):
                    m |= t[j]
                yield rest, c, low, high, m


def irrelevant_complex(shape: Shape) -> SimplicialComplex:
    """All size-r faces with exactly one same-component vertex pair.

    Each facet doubles one component, misses exactly one other, and picks a
    single vertex everywhere else.  With one component there is nothing to
    double and miss at once: the complex is void.
    """
    bits = _component_bits(shape)
    return SimplicialComplex(shape, tuple(
        f[-1] for z in range(1, shape.r + 1) for f in _one_pair_block(bits, z)))


def _shelling_masks(shape: Shape, base_mask: int) -> list:
    """Masks of `irrelevant_shelling_order` for a zero-free shape and a
    balanced base: the base, then the one-pair blocks."""
    # Swap index 0 with the base facet's index in each component.
    bits = _component_bits(shape)
    for comp, cm in zip(bits, shape.component_masks):
        j = comp.index(base_mask & cm)
        comp[0], comp[j] = comp[j], comp[0]
    order = [base_mask]
    for k in range(shape.r, 0, -1):
        order.extend(f[-1] for f in sorted(_one_pair_block(bits, k)))
    return order


def irrelevant_shelling_order(shape: Shape, base) -> ShellingOrder:
    """Shelling order for irrelevant_complex(shape) together with a balanced facet.

    The base facet comes first; after it the one-pair facets are grouped by
    excluded component, from the last component down to the first, each
    block sorted by (rest, component, low, high): the indices picked in the
    other components, then the pair.  Indices are relabelled internally so
    the base facet plays the all-zeroes role, and relabelled back on output.
    """
    if any(n == 0 for n in shape.entries):
        raise ValueError(f"shape {shape} has a zero entry; the one-pair blocks degenerate")
    base_mask = shape.mask_of(base)
    if any(_popcount(base_mask & cm) != 1 for cm in shape.component_masks):
        raise ValueError(f"base facet {format_face(base)} is not balanced")
    return tuple(shape.face_from_mask(m) for m in _shelling_masks(shape, base_mask))


# -- the balanced pipeline ------------------------------------------------


@dataclass(frozen=True)
class BalancedCertificate:
    """Irrelevant augmentation plus an explicit shelling order for the union."""

    delta_prime: SimplicialComplex
    order: ShellingOrder


def _zero_free_certificate(delta: SimplicialComplex) -> BalancedCertificate:
    shape = delta.shape
    order = _shelling_masks(shape, delta.facet_masks[0])
    delta_prime = SimplicialComplex(shape, tuple(order[1:]))
    order.extend(delta.facet_masks[1:])
    return BalancedCertificate(delta_prime, tuple(shape.face_from_mask(m) for m in order))


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
