"""Stanley-Reisner dictionary between complexes and squarefree monomial ideals.

The ideal of a complex is generated by its minimal nonfaces; the complex of
an ideal collects the subsets containing no generator.  On a product of
projective spaces the irrelevant ideal B is the intersection of the
coordinate ideals of the components, equivalently the ideal generated by all
balanced monomials.  Saturating the Stanley-Reisner ideal by B is the same
as dropping the facets that miss a component, which is how `saturate_by_B`
computes it.  `saturation_oracle` is the independent ideal-theoretic version
used to cross-check that shortcut: it iterates the colon ideal on exponent
vectors packed into one int each, so divisibility, colons and lcms are a few
bit operations per pair.  `ideal_of` and `complex_of` walk all 2^n vertex
subsets and refuse shapes with more than MAX_SWEEP_VERTICES vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from .complexes import Face, Shape, SimplicialComplex, _check_vertex_bound, _popcount


class EmptyVarietyError(ValueError):
    """The associated variety is empty, so the requested invariant is undefined."""


class UnitIdealError(ValueError):
    """The unit ideal has no Stanley-Reisner complex."""


class DegreeBoundError(RuntimeError):
    """Intermediate monomials exceeded the allowed degree during saturation."""


@dataclass(frozen=True)
class SqfIdeal:
    """Squarefree monomial ideal, generators encoded as vertex-set masks.

    The unit ideal is flagged explicitly and carries no generators; the zero
    ideal has an empty generator tuple and no flag.
    """

    shape: Shape
    generator_masks: tuple  # tuple[int, ...]
    is_unit: bool = False

    def __post_init__(self):
        masks = set(self.generator_masks)
        unit = self.is_unit or 0 in masks
        if unit:
            masks = set()
        else:
            full = self.shape.full_mask
            for m in masks:
                if m & ~full:
                    raise ValueError(f"generator mask {m:#x} uses bits outside shape {self.shape}")
        # Keep only divisibility-minimal generators.
        by_size = sorted(masks, key=_popcount)
        kept = []
        for m in by_size:
            if not any(k & ~m == 0 for k in kept):
                kept.append(m)
        kept.sort(key=lambda m: (_popcount(m), self.shape.bits_key(m)))
        object.__setattr__(self, "generator_masks", tuple(kept))
        object.__setattr__(self, "is_unit", unit)

    @classmethod
    def from_faces(cls, shape: Shape, generators) -> "SqfIdeal":
        return cls(shape, tuple(shape.mask_of(g) for g in generators))

    @property
    def is_zero(self) -> bool:
        return not self.is_unit and not self.generator_masks

    @property
    def generators(self) -> tuple:
        return tuple(self.shape.face_from_mask(m) for m in self.generator_masks)

    def contains_monomial_mask(self, mask: int) -> bool:
        if self.is_unit:
            return True
        return any(g & ~mask == 0 for g in self.generator_masks)


@dataclass(frozen=True)
class IrrelevantIdealB:
    """The irrelevant ideal of the product, generated by balanced monomials."""

    shape: Shape

    @cached_property
    def generator_masks(self) -> tuple:
        return self.shape.balanced_masks()

    @property
    def generators(self) -> tuple:
        return tuple(self.shape.face_from_mask(m) for m in self.generator_masks)

    def as_ideal(self) -> SqfIdeal:
        return SqfIdeal(self.shape, self.generator_masks)


def ideal_of(delta: SimplicialComplex) -> SqfIdeal:
    """Stanley-Reisner ideal: generated by the minimal nonfaces of the complex.

    Walks the vertex subsets by size, so it refuses shapes with more than
    MAX_SWEEP_VERTICES vertices (VertexLimitError).
    """
    shape = delta.shape
    if delta.is_void:
        return SqfIdeal(shape, (), is_unit=True)
    _check_vertex_bound(shape)
    positions = range(shape.num_vertices)
    gens = []
    for size in range(shape.num_vertices + 1):
        for combo in itertools.combinations(positions, size):
            mask = 0
            for p in combo:
                mask |= 1 << p
            if any(g & ~mask == 0 for g in gens):
                continue
            if not delta.has_face_mask(mask):
                gens.append(mask)
    return SqfIdeal(shape, tuple(gens))


def complex_of(ideal: SqfIdeal) -> SimplicialComplex:
    """Stanley-Reisner complex: faces are the subsets containing no generator.

    Tabulates all 2^n vertex subsets, so it refuses shapes with more than
    MAX_SWEEP_VERTICES vertices (VertexLimitError) before allocating the table.
    """
    shape = ideal.shape
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal corresponds to no simplicial complex")
    _check_vertex_bound(shape)
    n = shape.num_vertices
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
    return SimplicialComplex(shape, tuple(facets))


class PrimeComponent(NamedTuple):
    vertices: Face  # generators of the coordinate prime
    codim: int


def prime_components(delta: SimplicialComplex) -> tuple:
    """Minimal primes of the Stanley-Reisner ideal: one coordinate prime per facet."""
    shape = delta.shape
    full = shape.full_mask
    out = []
    for f in delta.facet_masks:
        comp = full & ~f
        out.append(PrimeComponent(shape.face_from_mask(comp), _popcount(comp)))
    return tuple(out)


def saturate_by_B(delta: SimplicialComplex) -> SimplicialComplex:
    """Complex of the B-saturated Stanley-Reisner ideal.

    A coordinate prime contains B exactly when its facet misses a component,
    so saturation removes the irrelevant facets and nothing else.
    """
    return delta.remove_irrelevant_facets()


def is_saturated(delta: SimplicialComplex) -> bool:
    return delta.facet_masks == delta.remove_irrelevant_facets().facet_masks


def codim(delta: SimplicialComplex) -> int:
    """Codimension of the associated subscheme of the product.

    Computed from the relevant facets only; irrelevant facets do not cut out
    anything in the product.
    """
    shape = delta.shape
    rel = delta.relevant_facet_masks()
    if not rel:
        raise EmptyVarietyError("no relevant facets: the subscheme of the product is empty")
    return shape.weight - max(_popcount(f) - shape.r for f in rel)


def codim_affine(delta: SimplicialComplex) -> int:
    """Codimension of the affine cone in the Cox ring."""
    if delta.is_void:
        raise EmptyVarietyError("the void complex has an empty affine cone")
    return delta.shape.num_vertices - (delta.dim + 1)


# -- exponent-vector oracle ----------------------------------------------
#
# Exponent vectors are packed into one int each: one field of `width` bits
# per variable, variable 0 in the most significant field, so int order is
# tuple order.  Every value stays below the top bit of its field (colons
# and lcms never exceed the largest input exponent), which leaves that bit
# free as a guard: (a | guard) - b subtracts all fields at once without
# borrowing across them, and the surviving guard bits mark the fields where
# a >= b.


class _Packing(NamedTuple):
    nvars: int
    width: int
    ones: int  # the lowest bit of every field
    guard: int  # the top bit of every field

    @classmethod
    def for_exponents(cls, nvars: int, max_exponent: int) -> "_Packing":
        width = max_exponent.bit_length() + 1
        ones = sum(1 << (i * width) for i in range(nvars))
        return cls(nvars, width, ones, ones << (width - 1))

    def pack(self, vec) -> int:
        v = 0
        for e in vec:
            v = v << self.width | e
        return v

    def unpack(self, v: int) -> tuple:
        field = (1 << self.width) - 1
        return tuple(v >> (self.width * i) & field for i in reversed(range(self.nvars)))

    def degree(self, v: int) -> int:
        """Sum of the fields, one popcount per bit plane."""
        total = 0
        for j in range(self.width - 1):
            total += (v & (self.ones << j)).bit_count() << j
        return total

    def colon(self, a: int, b: int) -> int:
        """Fieldwise max(a - b, 0): the generator of (a : b)."""
        d = (a | self.guard) - b
        return d & ((d & self.guard) >> (self.width - 1)) * ((1 << (self.width - 1)) - 1)


def _minimalize(gens, packing: _Packing) -> list:
    """Divisibility-minimal generators, sorted by (degree, exponents).

    Int order is a linear extension of divisibility (a divisor is
    lexicographically no larger), so one pass in int order finds the
    minimal generators; only those are sorted by degree.
    """
    guard = packing.guard
    kept = []
    for g in sorted(set(gens)):
        lifted = g | guard
        for k in kept:
            if (lifted - k) & guard == guard:
                break
        else:
            kept.append(g)
    kept.sort(key=lambda v: (packing.degree(v), v))
    return kept


def _colon_monomial(gens, b, packing: _Packing) -> list:
    return _minimalize([packing.colon(g, b) for g in gens], packing)


def _intersect(a_gens, b_gens, packing: _Packing) -> list:
    # lcm(a, b) = b * (a : b): fieldwise max(a, b) = b + max(a - b, 0).
    return _minimalize([b + packing.colon(a, b) for a in a_gens for b in b_gens], packing)


def saturation_oracle(ideal_gens: Sequence, b_gens: Sequence,
                      degree_bound: int = None) -> list:
    """Saturate one monomial ideal by another on raw exponent vectors.

    Iterates the colon ideal (I : B) = intersection of (I : b) over the
    generators b of B until it stabilises, independently of the facet
    shortcut in `saturate_by_B`.  The exponent vectors are packed into ints
    for the iteration, so divisibility, colons and lcms are a few bit
    operations each, for any exponent size.  Intermediate generators whose
    total degree exceeds `degree_bound` (default: number of variables, which
    is safe for squarefree inputs) abort with DegreeBoundError.  Returns the
    minimal generators as tuples sorted by (degree, exponents); the unit
    ideal comes back as [the zero vector], the zero ideal as [].
    """
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
    packing = _Packing.for_exponents(nvars, max(max(g, default=0) for g in ideal_gens + b_gens))

    def check(gens):
        worst = packing.degree(gens[-1]) if gens else 0
        if worst > degree_bound:
            raise DegreeBoundError(
                f"intermediate generator of degree {worst} exceeds bound {degree_bound}")
        return gens

    b_packed = [packing.pack(b) for b in b_gens]
    current = check(_minimalize([packing.pack(g) for g in ideal_gens], packing))
    while True:
        quotient = check(_colon_monomial(current, b_packed[0], packing))
        for b in b_packed[1:]:
            quotient = check(_intersect(quotient, _colon_monomial(current, b, packing), packing))
        if quotient == current:
            return [packing.unpack(v) for v in current]
        current = quotient
