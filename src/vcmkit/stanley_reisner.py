"""Stanley-Reisner dictionary between complexes and squarefree monomial ideals.

The ideal of a complex is generated by its minimal nonfaces; the complex of
an ideal collects the subsets containing no generator.  On a product of
projective spaces the irrelevant ideal B is the intersection of the
coordinate ideals of the components, equivalently the ideal generated by all
balanced monomials.  Saturating the Stanley-Reisner ideal by B is the same
as dropping the facets that miss a component, which is how `saturate_by_B`
computes it.  `saturation_oracle` is the independent ideal-theoretic version
used to cross-check that shortcut, on exponent vectors packed into one int
each, so divisibility, colons and lcms are a few bit operations per pair.
It needs no iteration, by two monomial-ideal identities (Miller-Sturmfels,
Combinatorial Commutative Algebra, ch. 1): I : B^∞ is the intersection of
the I : b^∞ over the generators b of B, and I : b^∞ sets every variable of
supp(b) to 1.  Two more facts keep the one pass cheap without changing any
ideal it builds:

- (I : (xy)^∞) = ((I : x^∞) : y^∞), so B's distinct supports, each as its
  variables in order, form a trie, and the colon by each prefix is taken
  once, at its node.  A node intersects its children's results, so each
  intersection meets two sibling ideals, and a node whose prefix is a
  support stops there: its colon lies inside every extension's.  Colon by
  x^∞ changes only the generators that use x, so only those are
  minimalised, and then each untouched generator is tested against them.
- Intersecting two ideals forms lcms only between generators that lie
  outside the other ideal: a generator that lies in the other ideal is a
  generator of the intersection on its own, its lcms are its multiples,
  and it is already minimal there (a proper divisor in the intersection
  would lie in its own ideal), so only the lcms are minimalised.

`ideal_of` reads the complex's faces from `face_layers` and `complex_of`
grows the faces of the ideal's complex layer by layer, so both cost what
the faces do rather than 2^n.  `complex_of` grows them only on the
generators' vertices: every other vertex is a cone apex, in every facet,
so the zero ideal on any shape is the full simplex at once.  `ideal_of`
refuses a complex that may have more than MAX_FACES faces before listing
any, and `complex_of` refuses once more than MAX_FACES have grown
(FaceLimitError).  A set whose facets are all faces is either a face or a
minimal nonface: `ideal_of` finds the minimal nonfaces from the vertices
that extend each face, and `complex_of` tells faces from generators and
keeps the faces with no extension as facets.  SqfIdeal minimises its
generators as the complements of the maximal complements; the minimal
nonfaces `ideal_of` finds are already minimal and distinct, so it only
sorts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .complexes import (
    MAX_FACES,
    FaceLimitError,
    Shape,
    SimplicialComplex,
    _maximal_masks,
    _popcount,
)


class EmptyVarietyError(ValueError):
    """The associated variety is empty, so the requested invariant is undefined."""


class UnitIdealError(ValueError):
    """The unit ideal has no Stanley-Reisner complex."""


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
        full = self.shape.full_mask
        for m in masks:
            if m & ~full:
                raise ValueError(f"generator mask {m:#x} uses bits outside shape {self.shape}")
        # The divisibility-minimal generators are the complements of the
        # maximal complements.
        kept = [full & ~m for m in _maximal_masks([full & ~m for m in masks])]
        kept.sort(key=lambda m: (_popcount(m), self.shape.bits_key(m)))
        object.__setattr__(self, "generator_masks", tuple(kept))
        object.__setattr__(self, "is_unit", unit)

    @classmethod
    def _from_minimal(cls, shape: Shape, masks: list) -> "SqfIdeal":
        """Adopt distinct, pairwise incomparable, nonzero masks inside the
        shape, skipping __post_init__'s checks and minimisation; only the
        sort is left."""
        masks.sort(key=lambda m: (_popcount(m), shape.bits_key(m)))
        ideal = cls.__new__(cls)
        object.__setattr__(ideal, "shape", shape)
        object.__setattr__(ideal, "generator_masks", tuple(masks))
        object.__setattr__(ideal, "is_unit", False)
        return ideal

    @property
    def is_zero(self) -> bool:
        return not self.is_unit and not self.generator_masks

    @property
    def generators(self) -> tuple:
        return tuple(self.shape.face_from_mask(m) for m in self.generator_masks)


def ideal_of(delta: SimplicialComplex) -> SqfIdeal:
    """Stanley-Reisner ideal: generated by the minimal nonfaces of the complex.

    A minimal nonface N is F | w, for the face F that is N without its top
    vertex w, that is not a face although each of its facets is.  One pass
    over the faces gives ext[F], the vertices w for which F | w is a face,
    so the candidates w for F are those above its top vertex outside
    ext[F] and inside ext[F - u] for every u in F.  The faces come from
    `face_layers`, so a complex that may have more than MAX_FACES faces is
    refused with FaceLimitError before any is listed.
    """
    shape = delta.shape
    if delta.is_void:
        return SqfIdeal(shape, (), is_unit=True)
    layers = delta.face_layers()
    full = shape.full_mask
    gens = []
    below = {}  # ext of the faces one size down
    for layer, upper in zip(layers, layers[1:] + [[]]):
        ext = dict.fromkeys(layer, 0)
        for face in upper:
            rest = face
            while rest:
                u = rest & -rest
                rest ^= u
                ext[face ^ u] |= u
        for face, face_ext in ext.items():
            tops = full & ~face_ext & -(1 << face.bit_length())
            rest = face
            while rest and tops:
                u = rest & -rest
                rest ^= u
                tops &= below[face ^ u]
            while tops:
                w = tops & -tops
                tops ^= w
                gens.append(face | w)
        below = ext
    # Minimal nonfaces are distinct and form an antichain: only sort them.
    return SqfIdeal._from_minimal(shape, gens)


def complex_of(ideal: SqfIdeal) -> SimplicialComplex:
    """Stanley-Reisner complex: faces are the subsets containing no generator.

    A vertex in no generator lies in every facet (a cone apex), so the faces
    are grown only on the generators' vertices and the apexes are ORed into
    each facet; the zero ideal gives the full simplex without growing any
    face.  The faces grow layer by layer, each by the vertices above its top
    one: a set is a face when all its facets are faces and it is not a
    generator, and a face with no extension is a facet, so the cost is set
    by the number of faces on the generators' vertices.  Refuses with
    FaceLimitError once more than MAX_FACES of those have grown.
    """
    shape = ideal.shape
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal corresponds to no simplicial complex")
    # blocked[F] holds the vertices w with F | w a generator.
    blocked = {}
    used = 0
    for g in ideal.generator_masks:
        used |= g
        rest = g
        while rest:
            u = rest & -rest
            rest ^= u
            blocked[g ^ u] = blocked.get(g ^ u, 0) | u
    apexes = shape.full_mask & ~used
    # layer maps each face of one size to its extensions: the vertices w
    # outside it for which face | w is a face, among the generators' vertices.
    layer = {0: used & ~blocked.get(0, 0)}
    budget = MAX_FACES - 1
    facets = []
    while layer:
        grown_layer = {}
        for face, ext in layer.items():
            if not ext:
                facets.append(face | apexes)
            above = ext & -(1 << face.bit_length())
            while above:
                w = above & -above
                above ^= w
                grown = face | w
                grown_ext = used & ~grown & ~blocked.get(grown, 0)
                rest = grown
                while rest:
                    u = rest & -rest
                    rest ^= u
                    grown_ext &= layer[grown ^ u]
                grown_layer[grown] = grown_ext
                budget -= 1
                if budget < 0:
                    raise FaceLimitError(
                        f"the complex of the ideal has more faces than the max_faces={MAX_FACES} face bound")
        layer = grown_layer
    return SimplicialComplex(shape, tuple(facets))


def saturate_by_B(delta: SimplicialComplex) -> SimplicialComplex:
    """Complex of the B-saturated Stanley-Reisner ideal.

    A coordinate prime contains B exactly when its facet misses a component,
    so saturation removes the irrelevant facets and nothing else.
    """
    shape = delta.shape
    return SimplicialComplex(shape, frozenset(filter(shape.is_relevant_mask, delta.facet_set)))


def is_saturated(delta: SimplicialComplex) -> bool:
    return all(map(delta.shape.is_relevant_mask, delta.facet_set))


def codim(delta: SimplicialComplex) -> int:
    """Codimension of the associated subscheme of the product.

    Computed from the relevant facets only; irrelevant facets do not cut out
    anything in the product.
    """
    shape = delta.shape
    rel = [f for f in delta.facet_set if shape.is_relevant_mask(f)]
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
# and lcms never exceed the largest exponent of I), which leaves that bit
# free as a guard: (a | guard) - b subtracts all fields at once without
# borrowing across them, and the surviving guard bits mark the fields where
# a >= b.  `vres.compose_failures` packs its monomials with the same codec;
# there the guard bit takes the carry of a sum of two exponents.


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


def _by_degree(gens: list, packing: _Packing) -> list:
    """Sort packed generators in place by (degree, exponents).

    Sorts by int, then stably by degree: with one value bit per field the
    degree is the popcount, so both sorts run in C.
    """
    gens.sort()
    gens.sort(key=int.bit_count if packing.width == 2 else packing.degree)
    return gens


def _minimalize(gens, packing: _Packing) -> list:
    """Divisibility-minimal generators, sorted by (degree, exponents).

    Int order is a linear extension of divisibility (a divisor is
    lexicographically no larger), so one pass in int order finds the
    minimal generators; only those are sorted by degree.  A divisor of g
    holds no variable that g lacks, so each variable, keyed by its guard
    bit, keeps the bitset of the positions of the kept generators that
    hold it, and g is tested only against the kept generators outside the
    holders of the variables it lacks.  With one value bit per field that
    support test is divisibility itself.
    """
    guard, ones = packing.guard, packing.ones
    exact = packing.width == 2
    kept = []
    holders = {}
    for g in sorted(set(gens)):
        lifted = g | guard
        held = (lifted - ones) & guard  # the guard bits of g's nonzero fields
        lacking = guard ^ held
        blocked = 0
        while lacking:
            bit = lacking & -lacking
            lacking ^= bit
            blocked |= holders.get(bit, 0)
        cand = ((1 << len(kept)) - 1) & ~blocked
        while cand:
            low = cand & -cand
            if exact or (lifted - kept[low.bit_length() - 1]) & guard == guard:
                break
            cand ^= low
        else:
            position = 1 << len(kept)
            kept.append(g)
            while held:
                bit = held & -held
                held ^= bit
                holders[bit] = holders.get(bit, 0) | position
    return _by_degree(kept, packing)


def _colon_variable(gens, field: int, packing: _Packing) -> list:
    """Minimal generators of (G) : x^∞, for G minimal and x the variable of `field`.

    The colon zeroes x's field.  A generator g without x is unchanged, and
    it divides no colon g' : x^∞: g would then be a proper divisor of g'.
    So the unchanged generators stay minimal; only the colons are
    minimalised, and each unchanged generator is dropped if a colon divides
    it.  With one value bit per field the colons are g' minus x, so none
    divides another.
    """
    guard = packing.guard
    moved, fixed = [], []
    for g in gens:
        e = g & field
        if e:
            moved.append(g - e)
        else:
            fixed.append(g)
    if packing.width != 2:
        moved = _minimalize(moved, packing)
    out = list(moved)
    for g in fixed:
        lifted = g | guard
        for k in moved:
            if (lifted - k) & guard == guard:
                break
        else:
            out.append(g)
    return _by_degree(out, packing)


def _intersect(a_gens, c_gens, packing: _Packing) -> list:
    """Minimal generators of A ∩ C, from the minimal generators of A and of C.

    A ∩ C is generated by the lcms of all pairs.  A generator of one ideal
    that lies in the other is itself in A ∩ C, and all of its lcms are its
    multiples, so it stands for all of them; lcms are formed only between
    the generators that lie outside the other ideal.  Such a kept generator
    is already minimal in A ∩ C, since a proper divisor there would lie in
    its own ideal, and no lcm divides it (the lcm's factor from the same
    ideal would).  So only the lcms are minimalised, against each other and
    against the kept generators; a generator of both A and C is kept once.
    """
    guard = packing.guard
    shift = packing.width - 1
    low = (1 << shift) - 1
    kept = set()

    def outside(gens, other):
        # g lies in the ideal of `other` iff some h there divides it.
        listed = set(other)
        out = []
        for g in gens:
            if g in listed:
                kept.add(g)
                continue
            lifted = g | guard
            for h in other:
                if (lifted - h) & guard == guard:
                    kept.add(g)
                    break
            else:
                out.append(g)
        return out

    a_out = outside(a_gens, c_gens)
    c_out = outside(c_gens, a_gens)
    gens = list(kept)
    if a_out and c_out:
        # lcm(a, c) = c + (a : c): fieldwise max(a, c) = c + max(a - c, 0).
        lcms = set()
        for a in a_out:
            lifted = a | guard
            for c in c_out:
                d = lifted - c
                lcms.add(c + (d & ((d & guard) >> shift) * low))
        # Int order is a linear extension of divisibility, so each lcm is
        # tested against the kept generators and the smaller lcms kept.
        for g in sorted(lcms):
            lifted = g | guard
            for k in gens:
                if (lifted - k) & guard == guard:
                    break
            else:
                gens.append(g)
    return _by_degree(gens, packing)


def _saturate_trie(gens, trie: dict, packing: _Packing) -> list:
    """Minimal generators of the intersection of the I : b^∞ over B's
    supports, for I minimally generated by `gens`, depth-first along their
    trie.

    A node maps a variable's field to the child for the prefix grown by it,
    or to None where that prefix is a support.  Each child takes one colon
    of its parent's ideal, and each intersection meets two sibling results.
    The walk keeps its own stack, so a long support needs no recursion.
    """
    stack = [[gens, list(trie.items()), None]]  # [ideal, children left, their intersection]
    while True:
        frame = stack[-1]
        if frame[1]:
            field, child = frame[1].pop()
            colon = _colon_variable(frame[0], field, packing)
            if child:
                stack.append([colon, list(child.items()), None])
                continue
        else:
            colon = stack.pop()[2]
            if not stack:
                return colon
            frame = stack[-1]
        frame[2] = colon if frame[2] is None else _intersect(frame[2], colon, packing)


def saturation_oracle(ideal_gens: Sequence, b_gens: Sequence) -> list:
    """Saturate one monomial ideal by another on raw exponent vectors.

    Computes I : B^∞ as the intersection of the I : b^∞ over the generators
    b of B, in one pass, independently of the facet shortcut in
    `saturate_by_B`.  I : b^∞ sets every variable of supp(b) to 1: it is one
    colon by x^∞ per variable x of supp(b), in variable order, taken once
    per prefix along the trie of B's distinct supports (see
    `_saturate_trie`).  The exponent vectors are packed into ints, so
    divisibility, colons and lcms are a few bit operations each, for any
    exponent size.  Intersections minimalise only the lcms they form (see
    `_intersect`).  Returns the minimal generators as tuples sorted by
    (degree, exponents); the unit ideal comes back as [the zero vector], the
    zero ideal as [].
    """
    ideal_gens = [tuple(map(int, g)) for g in ideal_gens]
    b_gens = [tuple(map(int, g)) for g in b_gens]
    if not b_gens:
        raise ValueError("cannot saturate by the zero ideal")
    nvars = len(b_gens[0])
    vectors = ideal_gens + b_gens
    # Validate in C first; only a failed check walks the vectors in order
    # to report the first offender.
    if (min(map(len, vectors)) != nvars or max(map(len, vectors)) != nvars
            or nvars and min(map(min, vectors)) < 0):
        for g in vectors:
            if len(g) != nvars:
                raise ValueError("exponent vectors have inconsistent lengths")
            if any(e < 0 for e in g):
                raise ValueError(f"negative exponent in {g}")
    if not ideal_gens:
        return []
    # Colons only lower exponents and lcms take maxima, so I's largest
    # exponent bounds every field.
    packing = _Packing.for_exponents(nvars, max(map(max, ideal_gens)) if nvars else 0)
    gens = _minimalize([packing.pack(g) for g in ideal_gens], packing)
    # Each support as its variables' field masks, in variable order; sorted,
    # a support comes before its extensions, which then stay out of the trie.
    field = (1 << packing.width) - 1
    shifts = [(nvars - 1 - i) * packing.width for i in range(nvars)]
    supports = sorted({tuple(field << s for s, e in zip(shifts, b) if e) for b in b_gens})
    if supports[0]:
        trie = {}
        for support in supports:
            node = trie
            for f in support[:-1]:
                node = node.setdefault(f, {})
                if node is None:
                    break
            else:
                node[support[-1]] = None
        gens = _saturate_trie(gens, trie, packing)
    # Otherwise B holds the zero vector, and I : 1^∞ = I lies inside every colon.
    return [packing.unpack(v) for v in gens]
