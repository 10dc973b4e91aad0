"""Shellability certificates for balanced complexes on products.

The constructive side of the toolkit: the irrelevant complex of a shape, the
explicit shelling order for (irrelevant complex + one balanced facet), and
the full pipeline that augments any balanced complex by irrelevant facets
until the union is shellable.  Its result, a `ShellingEvidence` (the
augmentation and the union's order), is also the evidence that a
certify-balanced `vres.VcmCertificate` carries.  Shellings are always
re-verified by the order-checker here rather than trusted from
construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .complexes import (
    Shape,
    SimplicialComplex,
    format_face,
    union,
)

ShellingOrder = tuple  # of Face


# -- shelling verification ------------------------------------------------


class ShellingCheck(NamedTuple):
    ok: bool
    witness: tuple  # (i, j), 1-based order positions, for the first failure


def verify_shelling(delta: SimplicialComplex, order: Sequence) -> ShellingCheck:
    """Check a facet order, given as faces, for the shelling condition.

    The faces are read with `Shape.mask_of` as `verify_shelling_masks`
    consumes them, so the checks and messages are that function's.
    """
    return verify_shelling_masks(delta, map(delta.shape.mask_of, order))


def verify_shelling_masks(delta: SimplicialComplex, order: Iterable[int]) -> ShellingCheck:
    """Check a facet order, given as masks, for the shelling condition.

    A step i passes when every intersection with an earlier facet extends to
    an intersection of full codimension one; the witness is the first (i, j)
    where facet j's intersection is maximal but too small.  The order must
    list each facet of the pure complex exactly once.

    Checked through the restriction set R_i, the vertices v of F_i whose
    ridge F_i \\ v lies in an earlier facet: step i passes iff no earlier
    facet contains R_i (Bjorner-Wachs 1996), and the lowest such facet is
    the witness j.  One ridge set and one bitset of order positions per
    vertex make each step cost its facet size, not its position: one pass
    over F_i's vertices both narrows the earlier facets to those holding
    R_i and records F_i's ridges and vertices for the steps after it.  A
    ridge of F_i is never another of its own ridges, and the bitsets read
    for F_i are those of the earlier facets, so recording in the same pass
    changes no outcome.
    """
    if delta.is_void or not delta.is_pure():
        raise ValueError("shellings are only defined for nonvoid pure complexes")
    masks = list(order)
    listed = set(masks)
    if len(masks) != len(listed) or listed != delta.facet_set:
        raise ValueError("order does not list the facets of the complex exactly once")
    ridges = set()
    holders = {}  # vertex bit -> bitset of the order positions whose facet holds it
    for i, current in enumerate(masks):
        earlier = (1 << i) - 1  # an empty R_i lies in every earlier facet
        bit_i = 1 << i
        rest = current
        while rest:
            low = rest & -rest
            rest ^= low
            held = holders.get(low, 0)
            holders[low] = held | bit_i
            ridge = current ^ low
            if ridge in ridges:
                earlier &= held
            else:
                ridges.add(ridge)
        if earlier:
            return ShellingCheck(False, (i + 1, (earlier & -earlier).bit_length()))
    return ShellingCheck(True, None)


# -- the irrelevant complex and its shelling ------------------------------


def _one_pair_block(bits: list, excluded: int) -> Iterator[tuple]:
    """The irrelevant facets missing component `excluded`, as
    (rest, component, low, high, mask) tuples: the facet doubles `component`
    at indices low < high and picks index rest[i] in the i-th other
    component, in increasing component order.  `bits` is laid out as by
    `Shape.component_bits`."""
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
    bits = shape.component_bits()
    return SimplicialComplex(shape, tuple(
        f[-1] for z in range(1, shape.r + 1) for f in _one_pair_block(bits, z)))


def _shelling_masks(bits: list, base_mask: int) -> list:
    """Masks of `irrelevant_shelling_order` for the components in `bits`
    (laid out as by `Shape.component_bits`, each with two or more vertices)
    and a base holding one vertex of each: the base, then the one-pair
    blocks."""
    # Swap index 0 with the base facet's index in each component.
    bits = [list(comp) for comp in bits]
    for comp in bits:
        j = next(j for j, b in enumerate(comp) if b & base_mask)
        comp[0], comp[j] = comp[j], comp[0]
    order = [base_mask]
    for k in range(len(bits), 0, -1):
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
    if not shape.is_balanced_mask(base_mask):
        raise ValueError(f"base facet {format_face(base)} is not balanced")
    masks = _shelling_masks(shape.component_bits(), base_mask)
    return tuple(shape.face_from_mask(m) for m in masks)


# -- the balanced pipeline ------------------------------------------------


@dataclass(frozen=True)
class ShellingEvidence:
    """Irrelevant augmentation plus a verified shelling order of the union.

    Shellable implies Cohen-Macaulay over every field, so no field is
    recorded.  The order is kept as facet masks; `order` builds its faces
    on demand.
    """

    delta_prime: SimplicialComplex
    order_masks: tuple  # of int

    @property
    def order(self) -> ShellingOrder:
        return tuple(map(self.delta_prime.shape.face_from_mask, self.order_masks))


def balanced_vcm_certificate(delta: SimplicialComplex) -> ShellingEvidence:
    """Shellability certificate for any balanced complex.

    A zero entry of the shape is a component with a single vertex, which
    every balanced facet contains, so the complex is a cone over those
    vertices.  The explicit order is built on the other components, with
    the first facet as base, and the cone vertices are ORed into every
    facet it yields as one mask; the rest of the complex's facets follow.
    The returned order is re-verified on the union before the certificate
    is handed out.
    """
    if delta.is_void:
        raise ValueError("cannot certify the void complex")
    shape = delta.shape
    if not delta.is_balanced():
        offender = next(m for m in delta.facet_masks if not shape.is_balanced_mask(m))
        raise ValueError(f"facet {format_face(shape.face_from_mask(offender))} is not balanced")
    comps = shape.component_bits()
    bits = [comp for comp in comps if len(comp) > 1]
    cone = sum(comp[0] for comp in comps if len(comp) == 1)
    order = [m | cone for m in _shelling_masks(bits, delta.facet_masks[0])]
    delta_prime = SimplicialComplex(shape, tuple(order[1:]))
    order.extend(delta.facet_masks[1:])
    cert = ShellingEvidence(delta_prime, tuple(order))
    _check_certificate(delta, cert)
    return cert


def _check_certificate(delta: SimplicialComplex, cert: ShellingEvidence) -> None:
    if any(delta.shape.is_relevant_mask(m) for m in cert.delta_prime.facet_set):
        raise AssertionError("augmentation contains a relevant facet")
    check = verify_shelling_masks(union(delta, cert.delta_prime), cert.order_masks)
    if not check.ok:
        raise AssertionError(f"constructed order fails the shelling check at {check.witness}")
