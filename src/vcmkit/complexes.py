"""Component-aware simplicial complexes on products of projective spaces.

Vertices are the homogeneous coordinates x_{i,j} of a product
P^{n_1} x ... x P^{n_r}: component i is 1-based, the index j runs from 0 to
n_i.  Faces are stored as integer bitmasks over the canonical vertex order
(component-major, index-minor), so subset and intersection tests in the hot
loops are single integer operations; Python integers give the wide fallback
past 64 vertices for free.

A complex is an immutable antichain of facet masks.  Construction normalises
to a frozenset of masks (absorbs dominated faces, dedupes), so every derived
complex built from masks (a union, a saturation) is again in normal form, and
two complexes are equal when their facet sets are.  The canonical facet order
(lexicographic on vertices) is sorted on first use, for output and for the
code that takes "the first facet"; membership, sizes and bits read the set.

Faces are grown, not sorted: one table gives each vertex the bitset of the
facets holding it, a face grows by each neighbour of its top vertex above
it whose bitset meets the AND of the face's own vertices' bitsets, and
each size comes out in lexicographic vertex order.
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
    """A Hochster subset sweep was refused before it started: the full sweep
    of `hochster_betti` on a shape with more than MAX_SWEEP_VERTICES
    vertices, or a pruned sweep that would visit more than
    2**MAX_SWEEP_VERTICES vertex subsets."""


# Largest vertex count for the full Hochster sweep, which walks all 2^n
# vertex subsets.  projective_dimension's pruned sweep caps the subsets it
# visits at 2**MAX_SWEEP_VERTICES instead.
MAX_SWEEP_VERTICES = 20


class FaceLimitError(ValueError):
    """Listing a complex's faces was refused: `SimplicialComplex.face_layers`
    refuses before it starts when they may number more than MAX_FACES, and
    `complex_of`, which grows the faces of an ideal's complex on the
    generators' vertices, refuses once more than MAX_FACES of those have
    grown."""


# Largest face count a face walk may reach: face_layers reads a complex's
# count as the smaller of sum 2^|F| over the facets F and 2^m on the m
# vertices in use, and complex_of counts the faces it grows on the
# generators' vertices (the others are cone apexes, in every facet).
MAX_FACES = 1 << MAX_SWEEP_VERTICES


# Largest vertex count of a shape: `info` on one small facet at the bound,
# on shape (N - 2, 0) or on N zero entries, peaks below 100 MB.
MAX_SHAPE_VERTICES = 1 << 20


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
        n = len(entries) + sum(entries)
        if n > MAX_SHAPE_VERTICES:
            raise ValueError(
                f"{n} vertices exceed the max_shape_vertices={MAX_SHAPE_VERTICES} shape bound")
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
            self.bit(vertex)
        except InvalidVertexError:
            return False
        return True

    def bit(self, vertex) -> int:
        """Bit position of a vertex in the canonical order."""
        c, j = v = _as_vertex(vertex)
        if not (1 <= c <= len(self.entries) and 0 <= j <= self.entries[c - 1]):
            raise InvalidVertexError(f"{v} does not live on shape {self.entries}")
        return self._offsets[c - 1] + j

    def vertex_at(self, position: int) -> Vertex:
        if not 0 <= position < self._offsets[-1]:
            raise InvalidVertexError(f"bit {position} out of range for shape {self.entries}")
        comp = bisect_right(self._offsets, position)
        return Vertex(comp, position - self._offsets[comp - 1])

    def vertices(self) -> tuple:
        return tuple(Vertex(c, j) for c, n in enumerate(self.entries, 1) for j in range(n + 1))

    def component_bits(self) -> list:
        """bits[c - 1][j] is the one-bit mask of vertex x_{c,j}."""
        return [[1 << (lo + j) for j in range(n + 1)]
                for lo, n in zip(self._offsets, self.entries)]

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.num_vertices) - 1

    def mask_of(self, face) -> int:
        """Bitmask of a face given as an iterable of vertices, each read by
        `bit`: int() converts it, and InvalidVertexError is raised where it
        is invalid."""
        mask = 0
        for v in face:
            mask |= 1 << self.bit(v)
        return mask

    def mask_of_pairs(self, face):
        """Mask of a face given as a list of [component, index] lists of
        exact ints on the shape, no vertex repeated; None for any other
        face, which the caller reads by its own, slower rules."""
        if type(face) is not list:
            return None
        spans = self._spans
        mask = 0
        for v in face:
            if type(v) is not list or len(v) != 2:
                return None
            c, j = v
            if type(c) is not int or type(j) is not int or c not in spans:
                return None
            base, top = spans[c]
            if not 0 <= j <= top:
                return None
            mask |= 1 << (base + j)
        return mask if mask.bit_count() == len(face) else None

    @cached_property
    def _spans(self) -> dict:
        """Component c (1-based) -> (bit of x_{c,0}, top index n_c): r entries."""
        return {c: (base, n) for c, (base, n) in enumerate(zip(self._offsets, self.entries), 1)}

    def face_from_mask(self, mask: int) -> Face:
        if mask >> self._offsets[-1]:
            raise InvalidVertexError(f"mask {mask:#x} has bits out of range for shape {self.entries}")
        return frozenset([self.vertex_at(p) for p in _bits(mask)])

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
        masks = map(sum, itertools.product(*self.component_bits()))
        return tuple(sorted(masks, key=self.bits_key))

    @cached_property
    def _ends(self) -> tuple:
        """(low, top): the masks of every component's first and last vertex."""
        low = "".join("1" + "0" * n for n in self.entries)
        top = "".join("0" * n + "1" for n in self.entries)
        return int(low[::-1], 2), int(top[::-1], 2)

    def is_relevant_mask(self, mask: int) -> bool:
        """True when the mask holds a vertex of every component.

        Below each component's top bit, `top - low` is all ones; adding it
        to the mask's bits there carries into the top bit exactly when the
        component holds a vertex below it, and never out of the component.
        """
        low, top = self._ends
        return ((mask & ~top) + top - low | mask) & top == top

    def is_balanced_mask(self, mask: int) -> bool:
        """True when the mask holds exactly one vertex of every component."""
        return mask.bit_count() == len(self.entries) and self.is_relevant_mask(mask)

    def __str__(self) -> str:
        return "(" + ",".join(str(n) for n in self.entries) + ")"


_SWAP_BITS = str.maketrans("01", "10")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable simplicial complex given by its facets.

    Built from a shape and facet masks, in any order and with repeats or
    dominated masks allowed.  The normal form is ``facet_set``, the
    frozenset of maximal masks; ``facet_masks``, the same masks in
    canonical order, is computed on first use.  ``facet_set`` empty is the
    void complex (no faces at all); ``facet_set == {0}`` is the complex
    whose only face is the empty face.
    """

    shape: Shape
    facet_set: frozenset  # frozenset[int]; a tuple, list or set of masks on input

    def __post_init__(self):
        full = self.shape.full_mask
        masks = self.facet_set
        for m in masks:
            if m & ~full:
                raise InvalidVertexError(f"facet mask {m:#x} uses bits outside shape {self.shape}")
        # Normalise: drop dominated faces, dedupe.  Distinct masks of one size
        # cannot contain each other, so only mixed sizes need the domination
        # pass.
        kept = frozenset(masks)
        if len(set(map(int.bit_count, kept))) > 1:
            kept = frozenset(_maximal_masks(kept))
        object.__setattr__(self, "facet_set", kept)

    @cached_property
    def facet_masks(self) -> tuple:
        """The facet masks in canonical order: lexicographic on vertices."""
        return tuple(sorted(self.facet_set, key=self.shape.bits_key))

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
        return not self.facet_set

    @property
    def facets(self) -> tuple:
        return tuple(self.shape.face_from_mask(m) for m in self.facet_masks)

    @cached_property
    def dim(self) -> int:
        """Dimension, or None for the void complex."""
        if self.is_void:
            return None
        return max(_popcount(m) for m in self.facet_set) - 1

    @cached_property
    def _vertex_table(self) -> tuple:
        """(holders, cover): vertex bit -> bitset of the facets holding it,
        and -> OR of those facets, the vertex's neighbours and itself."""
        holders, cover = {}, {}
        for i, f in enumerate(self.facet_set):
            bit = 1 << i
            rest = f
            while rest:
                low = rest & -rest
                holders[low] = holders.get(low, 0) | bit
                cover[low] = cover.get(low, 0) | f
                rest ^= low
        return holders, cover

    @property
    def vertex_holders(self) -> dict:
        """Vertex bit -> bitset of the facets holding it, bit i standing for
        the i-th facet of `facet_set`'s iteration order; the keys are the
        vertices in use.  A face lies in the facets of the AND of its
        vertices' bitsets."""
        return self._vertex_table[0]

    @cached_property
    def _face_layers(self) -> list:
        if not self.facet_set:
            return []
        bound = min(sum(1 << _popcount(f) for f in self.facet_set),
                    1 << len(self.vertex_holders))
        if bound > MAX_FACES:
            raise FaceLimitError(
                f"the facets may hold {bound} faces, more than the max_faces={MAX_FACES} face bound")
        # A face grows only by vertices above its top one, so each face has
        # one parent, and lexicographic order within a size is the parents'
        # order, then the added vertex's.  The added vertex shares a facet
        # with the top one, so `above` maps a face's bit_length to the
        # neighbours of its top vertex above it (the empty face: all
        # vertices), and the walk costs what the faces and edges do.
        holders, cover = self._vertex_table
        above = {0: sorted(holders.items())}
        for v, vcover in cover.items():
            rest = vcover & -(v << 1)
            grow = above[v.bit_length()] = []
            while rest:
                low = rest & -rest
                grow.append((low, holders[low]))
                rest ^= low
        layer, held = [0], [(1 << len(self.facet_set)) - 1]
        layers = [layer]
        while True:
            grown, grown_held = [], []
            for f, h in zip(layer, held):
                for w, hw in above[f.bit_length()]:
                    g = h & hw
                    if g:
                        grown.append(f | w)
                        grown_held.append(g)
            if not grown:
                return layers
            layers.append(grown)
            layer, held = grown, grown_held

    def face_layers(self) -> list:
        """layers[s] lists the masks of the faces of size s in lexicographic
        vertex order, from the empty face up; [] for the void complex.
        Computed once and shared: callers must not modify the lists.
        Refuses with FaceLimitError, before listing any face, a complex
        that may have more than MAX_FACES faces: more than the smaller of
        sum 2^|F| over its facets F and 2^m on its m vertices in use."""
        return self._face_layers

    def has_face_mask(self, mask: int) -> bool:
        return any(mask & ~f == 0 for f in self.facet_set)

    def is_pure(self) -> bool:
        if self.is_void:
            raise ValueError("purity is undefined for the void complex")
        sizes = {_popcount(m) for m in self.facet_set}
        return len(sizes) == 1

    # -- component-aware predicates --------------------------------------

    def is_balanced(self) -> bool:
        """Every facet has exactly one vertex in every component."""
        return all(map(self.shape.is_balanced_mask, self.facet_set))

    def gallery_connected(self) -> bool:
        """Facet-ridge connectivity of a pure complex.

        Two facets of a pure complex are adjacent iff they share a ridge, so
        each facet is joined to the first facet seen with each of its
        ridges, in one union-find pass.  One facet is connected with no
        ridge built.
        """
        if not self.is_pure():
            raise ValueError("gallery-connectedness is only defined for pure complexes")
        if len(self.facet_set) <= 1:
            return True
        parent = list(range(len(self.facet_set)))

        def root(i):
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        parts = len(parent)
        first = {}
        for i, f in enumerate(self.facet_set):
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
    return SimplicialComplex(a.shape, a.facet_set | b.facet_set)
