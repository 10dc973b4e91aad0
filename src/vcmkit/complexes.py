"""Component-aware simplicial complexes on products of projective spaces.

Vertices are the homogeneous coordinates x_{i,j} of a product
P^{n_1} x ... x P^{n_r}: component i is 1-based, the index j runs from 0 to
n_i.  Faces are stored as integer bitmasks over the canonical vertex order
(component-major, index-minor), so subset and intersection tests in the hot
loops are single integer operations; Python integers give the wide fallback
past 64 vertices for free.

A complex is an immutable antichain of facet masks.  Construction normalises
(absorbs dominated faces, dedupes, sorts canonically), so every derived
complex built from masks (a union, a saturation) is again in canonical form.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple


class Vertex(NamedTuple):
    """Coordinate vertex x_{i,j}: component i (1-based), index j (0-based)."""

    component: int
    index: int

    def __str__(self) -> str:
        return f"x_{self.component}_{self.index}"


Face = frozenset  # of Vertex


class InvalidVertexError(ValueError):
    """A vertex lies outside the ambient shape."""


class VertexLimitError(ValueError):
    """A step whose cost can reach 2^n on n vertices was refused before it
    started: the shape has more than MAX_SWEEP_VERTICES vertices, or a pruned
    sweep would visit more than 2**MAX_SWEEP_VERTICES vertex subsets."""


# Largest vertex count for a step whose cost can reach 2^n: the full Hochster
# sweep walks all vertex subsets, and the face sets that ideal_of and
# complex_of grow may hold up to 2^n faces.  projective_dimension's pruned
# sweep caps the subsets it visits at 2**MAX_SWEEP_VERTICES instead.
MAX_SWEEP_VERTICES = 20


def _check_vertex_bound(shape: Shape) -> None:
    """Refuse a step whose cost can reach 2^n (a full subset sweep, or a face
    set that may hold up to 2^n faces) when n > MAX_SWEEP_VERTICES."""
    n = shape.num_vertices
    if n > MAX_SWEEP_VERTICES:
        raise VertexLimitError(
            f"{n} vertices exceed the max_vertices={MAX_SWEEP_VERTICES} subset sweep bound")


def format_face(face: Iterable[Vertex]) -> str:
    return "{" + ",".join(str(v) for v in sorted(face)) + "}"


def _as_vertex(item) -> Vertex:
    if isinstance(item, Vertex):
        return item
    try:
        comp, idx = item
    except (TypeError, ValueError):
        raise InvalidVertexError(f"cannot read {item!r} as a vertex") from None
    return Vertex(int(comp), int(idx))


@dataclass(frozen=True)
class Shape:
    """Dimension vector (n_1, ..., n_r); component i carries n_i + 1 vertices.

    Entries may be zero: P^0 is a point but still contributes the single
    vertex x_{i,0}.
    """

    entries: tuple  # tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(n) for n in self.entries)
        if not entries:
            raise ValueError("shape needs at least one component")
        if any(n < 0 for n in entries):
            raise ValueError(f"negative entry in shape {entries}")
        object.__setattr__(self, "entries", entries)

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def weight(self) -> int:
        """Sum of the entries (the dimension of the ambient product)."""
        return sum(self.entries)

    @property
    def num_vertices(self) -> int:
        return self.r + self.weight

    @cached_property
    def _offsets(self) -> tuple:
        offs = [0]
        for n in self.entries:
            offs.append(offs[-1] + n + 1)
        return tuple(offs)

    def is_valid_vertex(self, vertex) -> bool:
        try:
            v = _as_vertex(vertex)
        except InvalidVertexError:
            return False
        return 1 <= v.component <= self.r and 0 <= v.index <= self.entries[v.component - 1]

    def bit(self, vertex) -> int:
        """Bit position of a vertex in the canonical order."""
        v = _as_vertex(vertex)
        if not self.is_valid_vertex(v):
            raise InvalidVertexError(f"{v} does not live on shape {self.entries}")
        return self._offsets[v.component - 1] + v.index

    def vertex_at(self, position: int) -> Vertex:
        if not 0 <= position < self._offsets[-1]:
            raise InvalidVertexError(f"bit {position} out of range for shape {self.entries}")
        comp = bisect_right(self._offsets, position)
        return Vertex(comp, position - self._offsets[comp - 1])

    @cached_property
    def _vertex_table(self) -> tuple:
        return tuple(self.vertex_at(p) for p in range(self._offsets[-1]))

    def vertices(self) -> tuple:
        return self._vertex_table

    @cached_property
    def component_masks(self) -> tuple:
        masks = []
        for i, n in enumerate(self.entries):
            lo = self._offsets[i]
            masks.append(((1 << (n + 1)) - 1) << lo)
        return tuple(masks)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.num_vertices) - 1

    @cached_property
    def _vertex_masks(self) -> dict:
        """(component, index) -> the vertex's one-bit mask, for every vertex.

        A Vertex is a NamedTuple, so it hashes and compares like its plain
        (component, index) tuple and finds the same entry."""
        return {v: 1 << p for p, v in enumerate(self._vertex_table)}

    def mask_of(self, face) -> int:
        """Bitmask of a face given as an iterable of vertices.

        Each vertex is one lookup in the shape's vertex table.  A vertex the
        table does not hold, or cannot hash (a list, a 3-tuple, a string, an
        out-of-shape or negative index), goes through `bit`, which converts
        it with int() and raises InvalidVertexError where it is invalid.
        """
        table = self._vertex_masks
        mask = 0
        for v in face:
            try:
                mask |= table[v]
            except (KeyError, TypeError):
                mask |= 1 << self.bit(v)
        return mask

    def face_from_mask(self, mask: int) -> Face:
        if mask >> self._offsets[-1]:
            raise InvalidVertexError(f"mask {mask:#x} has bits out of range for shape {self.entries}")
        table = self._vertex_table
        return frozenset([table[p] for p in _bits(mask)])

    def bits_key(self, mask: int) -> str:
        """Sort key putting faces in lexicographic vertex order.

        The key orders masks as the tuples of their bit positions do: the
        binary digits lowest bit first, up to the top set bit, with 0 and 1
        swapped.  At the first position where two masks differ the one
        holding that bit has the smaller character, and a mask whose bits
        are a prefix of another's gives a prefix of its key.
        """
        return format(mask, "b")[::-1].translate(_SWAP_BITS) if mask else ""

    def balanced_masks(self) -> tuple:
        """Masks of all faces with exactly one vertex in every component."""
        per_comp = [[1 << (self._offsets[i] + j) for j in range(n + 1)]
                    for i, n in enumerate(self.entries)]
        masks = []
        for choice in itertools.product(*per_comp):
            m = 0
            for b in choice:
                m |= b
            masks.append(m)
        return tuple(sorted(masks, key=self.bits_key))

    def is_relevant_mask(self, mask: int) -> bool:
        return all(mask & cm for cm in self.component_masks)

    def __str__(self) -> str:
        return "(" + ",".join(str(n) for n in self.entries) + ")"


_SWAP_BITS = str.maketrans("01", "10")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_relevant(face, shape: Shape) -> bool:
    """True when the face touches every component of the shape.

    Relevant faces are exactly those whose complementary coordinate ideal
    does not contain the irrelevant ideal.
    """
    return shape.is_relevant_mask(shape.mask_of(face))


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable simplicial complex given by its facets.

    ``facet_masks == ()`` is the void complex (no faces at all);
    ``facet_masks == (0,)`` is the complex whose only face is the empty face.
    """

    shape: Shape
    facet_masks: tuple  # tuple[int, ...]

    def __post_init__(self):
        full = self.shape.full_mask
        for m in self.facet_masks:
            if m & ~full:
                raise InvalidVertexError(f"facet mask {m:#x} uses bits outside shape {self.shape}")
        # Normalise: drop dominated faces, dedupe, sort canonically.  Distinct
        # masks of one size cannot contain each other, so only mixed sizes
        # need the domination pass.
        kept = set(self.facet_masks)
        if len(set(map(int.bit_count, kept))) > 1:
            kept = _maximal_masks(kept)
        object.__setattr__(self, "facet_masks", tuple(sorted(kept, key=self.shape.bits_key)))

    @classmethod
    def from_facets(cls, shape: Shape, facets: Iterable) -> "SimplicialComplex":
        """Build a complex from an iterable of vertex iterables.

        Dominated and duplicate candidates are absorbed; passing no facets
        gives the void complex, a single empty facet gives {emptyset}.
        """
        return cls(shape, tuple(shape.mask_of(f) for f in facets))

    # -- basic queries ----------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facet_masks

    @property
    def facets(self) -> tuple:
        return tuple(self.shape.face_from_mask(m) for m in self.facet_masks)

    @cached_property
    def dim(self) -> int:
        """Dimension, or None for the void complex."""
        if self.is_void:
            return None
        return max(_popcount(m) for m in self.facet_masks) - 1

    @cached_property
    def _face_masks(self) -> tuple:
        seen = set()
        for f in self.facet_masks:
            sub = f
            while True:
                seen.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & f
        return tuple(sorted(seen, key=lambda m: (_popcount(m), self.shape.bits_key(m))))

    def face_masks(self) -> tuple:
        """All face masks, sorted by (cardinality, vertex order)."""
        return self._face_masks

    def faces(self) -> tuple:
        return tuple(self.shape.face_from_mask(m) for m in self._face_masks)

    def has_face_mask(self, mask: int) -> bool:
        return any(mask & ~f == 0 for f in self.facet_masks)

    def is_face(self, face) -> bool:
        return self.has_face_mask(self.shape.mask_of(face))

    def is_pure(self) -> bool:
        if self.is_void:
            raise ValueError("purity is undefined for the void complex")
        sizes = {_popcount(m) for m in self.facet_masks}
        return len(sizes) == 1

    # -- component-aware predicates --------------------------------------

    def is_balanced(self) -> bool:
        """Every facet has exactly one vertex in every component."""
        cms = self.shape.component_masks
        return all(_popcount(f & cm) == 1 for f in self.facet_masks for cm in cms)

    def relevant_facet_masks(self) -> tuple:
        return tuple(f for f in self.facet_masks if self.shape.is_relevant_mask(f))

    def remove_irrelevant_facets(self) -> "SimplicialComplex":
        """Drop facets that miss some component (combinatorial B-saturation)."""
        return SimplicialComplex(self.shape, self.relevant_facet_masks())

    def gallery_connected(self) -> bool:
        """Facet-ridge connectivity of a pure complex.

        Two facets of a pure complex are adjacent iff they share a ridge, so
        each facet is joined to the first facet seen with each of its
        ridges, in one union-find pass.
        """
        if not self.is_pure():
            raise ValueError("gallery-connectedness is only defined for pure complexes")
        parent = list(range(len(self.facet_masks)))

        def root(i):
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        parts = len(parent)
        first = {}
        for i, f in enumerate(self.facet_masks):
            rest = f
            while rest:
                u = rest & -rest
                rest ^= u
                a, b = root(i), root(first.setdefault(f ^ u, i))
                if a != b:
                    parent[a] = b
                    parts -= 1
        return parts <= 1

    def __str__(self) -> str:
        if self.is_void:
            return f"void complex on {self.shape}"
        return f"<{', '.join(format_face(f) for f in self.facets)}> on {self.shape}"


def _popcount(mask: int) -> int:
    return mask.bit_count()


def _maximal_masks(masks) -> list:
    """The masks contained in no other mask, in no particular order.

    Walks the masks by decreasing size with one bitset of kept positions per
    vertex: a mask is dominated iff some kept mask holds all its vertices,
    i.e. the AND of its vertices' bitsets is nonzero.  The empty mask is thus
    dominated iff anything is kept.
    """
    kept = []
    holders = {}  # vertex bit -> bitset of the kept positions holding it
    for m in sorted(masks, key=int.bit_count, reverse=True):
        common = (1 << len(kept)) - 1
        rest = m
        while rest and common:
            low = rest & -rest
            common &= holders.get(low, 0)
            rest ^= low
        if common:
            continue
        bit = 1 << len(kept)
        kept.append(m)
        rest = m
        while rest:
            low = rest & -rest
            holders[low] = holders.get(low, 0) | bit
            rest ^= low
    return kept


def union(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    if a.shape != b.shape:
        raise ValueError("cannot union complexes on different shapes")
    return SimplicialComplex(a.shape, a.facet_masks + b.facet_masks)
