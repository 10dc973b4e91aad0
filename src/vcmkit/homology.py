"""Reduced simplicial homology, Hochster's formula, and Cohen-Macaulay tests.

All homology is computed from full downward-closed face sets (not facet
lists), split into layers by face size; one routine turns layers into
ranks.  A complex's layers come from `SimplicialComplex.face_layers`, in
lexicographic vertex order.  Reisner's criterion walks the links of
nonempty faces once, in `_failing_links`, for `is_cm_reisner` and for the
base complex of `UnionReisner`, the union test of the search in `vres`.
It takes each link's layers from the complex's by a filter, ranks them
uncached, and skips the faces whose links are cones: a face lying in the
facets that hold it together with some further vertex v has every face of
its link in a facet with v, and a cone has no homology.  Only the links of
the search's unions go through the bounded lru_cache keyed on canonical
face-mask tuples, because they repeat across the unions of one search.
Whole complexes and the restrictions of the Hochster sweeps do not repeat,
so the sweeps filter the layered faces for each vertex subset and skip the
subsets that are faces (their restrictions are simplices).

One preparation per check: `_Prepared` layers and packs a complex's faces
once and ranks the whole complex at most once.  Over a field, Reisner's
condition holds iff pdim = `codim_affine` (Reisner 1976; Auslander-
Buchsbaum), so `cm_verdicts`, which `check-cm` calls, sweeps first and
walks links only to find a non-CM complex's witness.

There are two sweeps.  `hochster_betti` reports every Betti number, so it
walks all 2^n vertex subsets and shares work only between subsets that
differ in vertices lying in no face, through a dict dropped when the sweep
ends.  `projective_dimension` needs only the largest homological index, and
visits only the (W, d) pairs that can raise it.  By Hochster's formula
beta_{i,W} is the rank of the reduced homology of the restriction to W in
degree |W| - i - 1, and by Auslander-Buchsbaum pdim is at least the height,
`codim_affine`.  Starting from that bound, a pair (W, d) can raise the
running maximum only when d <= |W| - 2 - best.  A vertex in no face adds
one to every index it joins, so it joins every W and is not enumerated;
a nonempty W of vertices in use has no homology in degree -1.  So the
sweep walks the subsets W of the m vertices in use from the largest down,
stops once |W| - 2 - best falls below 0, skips faces, and filters and
ranks only the faces of size at most |W| - best.  It visits at most
sum_{j < dim} C(m, j) subsets, which it checks against
2**MAX_SWEEP_VERTICES before it starts.

Ranks are exact, every field reads its boundary columns from the one
builder, `_packed_boundaries`, and each field has one kernel.  GF(2)
eliminates the packed bitmasks themselves.  The other fields give them
alternating signs: GF(3) splits each column into a plus and a minus
bitplane for `linalg.gf3_rank`, and every other odd prime and the
rationals eliminate {row: sign} columns with the sparse
`linalg.sparse_rank`, over the integers for the rationals.  Over the
rationals the GF(2) ranks come first and certify
most boundaries: an integer matrix has rank over Q at least its rank mod 2,
and since the boundary of a boundary is zero, rank_Q(d_s) is at most
rank_2(d_s) plus the GF(2) homology on either side of d_s.  Only
boundaries with GF(2) homology on both sides (as in the real projective
plane) are eliminated over Q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import NamedTuple

from .complexes import MAX_SWEEP_VERTICES, SimplicialComplex, VertexLimitError, _popcount
from .linalg import CoefficientField, gf2_rank, gf3_rank, sparse_rank
from .stanley_reisner import codim_affine


def _canon(face_masks) -> tuple:
    """Face masks sorted by (size, mask): a stable sort by size of the sorted
    masks.  It makes the key of `_ranks_from_faces`; ranks do not depend on
    the order within a size, so the uncached sweeps layer faces as given."""
    return tuple(sorted(sorted(face_masks), key=int.bit_count))


def _layers(faces: tuple) -> list:
    """Faces grouped by cardinality: layers[s] lists the masks of size s."""
    top = max(_popcount(m) for m in faces)
    layers = [[] for _ in range(top + 1)]
    for m in faces:
        layers[_popcount(m)].append(m)
    return layers


def _packed_boundaries(layers: list) -> dict:
    """Boundary column of every nonempty face, as a bitmask over the
    positions of its facets in their layer: the GF(2) column itself, and
    the signed column up to sign for `_signed_rank`.

    The signs need one condition on the layer order: the row of f minus v
    must lie lower as v rises.  The vertex order of `face_layers()` and the
    int order of `_canon` both meet it, and so do sublists of such layers.
    Then the bits of f's column, read from the bottom, name f's vertices
    from the top, so alternating signs along them give the signed column
    times (-1)^(|f| - 1), which keeps every rank.

    A face set whose layers are sublists of `layers` (a link or restriction
    of it) reuses these columns: its boundary matrices only lose zero rows.
    """
    packed = {}
    for below, layer in zip(layers, layers[1:]):
        index = {m: i for i, m in enumerate(below)}
        for f in layer:
            bits = 0
            sub = f
            while sub:
                low = sub & -sub
                bits |= 1 << index[f ^ low]
                sub ^= low
            packed[f] = bits
    return packed


def _planes(bits: int) -> tuple:
    """The signed column packed in `bits` as the (plus, minus) bitplanes of
    `gf3_rank`: its bits from the bottom go to plus and minus in turn."""
    plus = minus = 0
    while bits:
        low = bits & -bits
        plus |= low
        bits ^= low
        low = bits & -bits
        minus |= low
        bits ^= low
    return plus, minus


def _signed_rank(columns: list, characteristic: int) -> int:
    """Rank over GF(p), or Q for 0, of the signed boundary map whose columns
    `_packed_boundaries` packed: signs alternate along each column's bits
    from the bottom.  GF(3) ranks them as bitplanes with `gf3_rank`, every
    other odd prime and Q as {row: sign} dicts with `sparse_rank`."""
    if characteristic == 3:
        return gf3_rank(map(_planes, columns))
    signed = []
    for bits in columns:
        col = {}
        sign = 1
        while bits:
            low = bits & -bits
            col[low.bit_length() - 1] = sign
            sign = -sign
            bits ^= low
        signed.append(col)
    return sparse_rank(signed, characteristic)


def _ranks_from_layers(layers: list, characteristic: int, packed: dict = None) -> tuple:
    """Reduced homology ranks of a face set split by size, as ((dim, rank), ...).

    layers[s] lists the masks of size s, from the empty face up to the top
    size, each layer nonempty.  `packed` holds boundary columns valid for
    these layers (see `_packed_boundaries`); it is built when not given.
    Over the rationals only the boundaries with GF(2) homology on both sides
    are ranked over Q; every other rank equals its GF(2) rank (see the
    module docstring).
    """
    top = len(layers) - 1
    branks = [0] * (top + 2)
    if top:
        branks[1] = 1  # every vertex maps onto the empty face
    if packed is None:
        packed = _packed_boundaries(layers)
    for s in range(2, top + 1):
        columns = [packed[f] for f in layers[s]]
        if characteristic in (0, 2):
            branks[s] = gf2_rank(columns)
        else:
            branks[s] = _signed_rank(columns, characteristic)
    sizes = [len(layer) for layer in layers]
    if characteristic == 0:
        h2 = [sizes[s] - branks[s] - branks[s + 1] for s in range(top + 1)]
        for s in range(2, top + 1):
            if h2[s] and h2[s - 1]:
                branks[s] = _signed_rank([packed[f] for f in layers[s]], 0)
    return tuple([(s - 1, sizes[s] - branks[s] - branks[s + 1]) for s in range(top + 1)])


@lru_cache(maxsize=4096)
def _ranks_from_faces(faces: tuple, characteristic: int) -> tuple:
    """Reduced homology ranks of a full face set in the `_canon` order.

    The cached entry point for the links of the search's unions: the key
    is shared by every link with the same face set, across unions.  On the
    benchmark's inputs (seed 7) 10 search rounds make 8,909 lookups and
    6,872 hits and leave 2,037 entries, so 4096 entries keep every hit an
    unbounded cache gets.  `check-cm` makes no lookups: its links are
    ranked uncached.
    """
    return _ranks_from_layers(_layers(faces), characteristic)


def _low_homology(ranks: tuple):
    """Lowest dimension below the top one with nonzero reduced homology in
    `ranks` ((dim, rank), ...), or None: a link fails Reisner's test iff
    this is not None."""
    top = ranks[-1][0]
    for d, h in ranks:
        if d < top and h:
            return d
    return None


def _link_defect(link_faces, characteristic: int):
    """Reisner's test on one link, given as its full face set in any order:
    `_low_homology` of its ranks, through the cached `_ranks_from_faces`."""
    return _low_homology(_ranks_from_faces(_canon(link_faces), characteristic))


def _failing_links(delta: SimplicialComplex, characteristic: int):
    """Yield (sigma, `_low_homology` of its link) for each nonempty face
    sigma of size below delta's dimension whose link fails Reisner's test,
    lazily, in the order of delta's `face_layers`.  Larger faces have
    links {emptyset} or points, which cannot fail, and a face whose link is
    a cone (see the module docstring) is skipped.  The link of the empty
    face, the whole complex, is ranked by the caller (see `_reisner`).

    Sigma's link takes its layers from the sizes |sigma| and up, as
    f ^ sigma for the faces f holding sigma.  Two faces of one size that
    hold sigma differ where their link faces do, so each link layer keeps
    the lexicographic order `_packed_boundaries` needs."""
    layers = delta.face_layers()
    vertex_holders = delta.vertex_holders
    vertices = list(vertex_holders.items())
    for size in range(1, len(layers) - 2):
        for sigma in layers[size]:
            held = -1
            rest = sigma
            while rest:
                low = rest & -rest
                held &= vertex_holders[low]
                rest ^= low
            if any(not held & ~hv for v, hv in vertices if not v & sigma):
                continue
            link = []
            for layer in layers[size:]:
                part = [f ^ sigma for f in layer if f & sigma == sigma]
                if not part:
                    break
                link.append(part)
            d = _low_homology(_ranks_from_layers(link, characteristic))
            if d is not None:
                yield sigma, d


def reduced_homology_ranks(delta: SimplicialComplex, field: CoefficientField) -> dict:
    """Ranks of all reduced homology groups, as {dimension: rank}.

    The void complex has no homology at all and returns {}; the complex
    {emptyset} has a single rank in dimension -1.
    """
    if delta.is_void:
        return {}
    return dict(_ranks_from_layers(delta.face_layers(), field.characteristic))


# -- Hochster's formula ---------------------------------------------------


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers beta_{i, sigma} with nonzero multiplicity."""

    entries: dict  # (homological index, Face) -> multiplicity

    def multiplicity(self, i: int, sigma) -> int:
        return self.entries.get((i, frozenset(sigma)), 0)

    def total(self, i: int) -> int:
        return sum(v for (k, _), v in self.entries.items() if k == i)


def _restricted_layers(layers: list, out: int) -> list:
    """The layers of the faces that miss every vertex of `out`, up to the
    first size with none."""
    sub = []
    for layer in layers:
        kept = [f for f in layer if not f & out]
        if not kept:
            break
        sub.append(kept)
    return sub


def _hochster_sweep(delta: SimplicialComplex, characteristic: int):
    """Yield (i, sigma mask, beta) for every nonzero beta_{i, sigma}, by sigma.

    The restriction to sigma keeps the faces missing every vertex outside
    sigma, filtered layer by layer from the faces of delta.  The restriction
    to a nonempty face is a simplex, which has no reduced homology.  When
    some vertices lie in no face, subsets that differ only in those have the
    same restriction and share one computation.
    """
    layers = delta.face_layers()
    packed = _packed_boundaries(layers)
    used = sum(delta.vertex_holders)
    unused = delta.shape.full_mask & ~used
    memo = {f: () for layer in layers[1:] for f in layer}
    for sigma in range(1 << delta.shape.num_vertices):
        key = sigma & used
        ranks = memo.get(key)
        if ranks is None:
            sub = _restricted_layers(layers, used & ~sigma)
            ranks = _ranks_from_layers(sub, characteristic, packed)
            if unused:
                memo[key] = ranks
        size = sigma.bit_count()
        for d, h in ranks:
            if h:
                yield size - 1 - d, sigma, h


def hochster_betti(delta: SimplicialComplex, field: CoefficientField) -> BettiTable:
    """Betti table of the Stanley-Reisner quotient via Hochster's formula.

    beta_{i, sigma} is the rank of the reduced homology of the restriction
    to sigma in dimension |sigma| - i - 1; the sweep walks all vertex
    subsets, so it refuses shapes with more than `MAX_SWEEP_VERTICES` vertices.
    """
    shape = delta.shape
    n = shape.num_vertices
    if n > MAX_SWEEP_VERTICES:
        raise VertexLimitError(
            f"{n} vertices exceed the max_vertices={MAX_SWEEP_VERTICES} subset sweep bound")
    if delta.is_void:
        return BettiTable({})
    return BettiTable({
        (i, shape.face_from_mask(sigma)): h
        for i, sigma, h in _hochster_sweep(delta, field.characteristic)
    })


class _Prepared:
    """The faces of one nonvoid complex, layered and packed once, for
    Reisner's test and the pdim sweep.  `packed` has a key for every
    nonempty face.  `whole` ranks the whole complex on first use: it is the
    link of the empty face in Reisner's test, and the sweep's restriction
    to W = the vertices in use."""

    def __init__(self, delta: SimplicialComplex, characteristic: int):
        self.delta = delta
        self.characteristic = characteristic
        self.layers = delta.face_layers()
        self.packed = _packed_boundaries(self.layers)

    @cached_property
    def whole(self) -> tuple:
        return _ranks_from_layers(self.layers, self.characteristic, self.packed)


def _sweep_vertices(delta: SimplicialComplex) -> list:
    """The vertices in use, as single-bit masks, once the pdim sweep's
    subset count is checked against the bound."""
    bits = sorted(delta.vertex_holders)
    count = sum(comb(len(bits), j) for j in range(delta.dim))
    if count > 1 << MAX_SWEEP_VERTICES:
        raise VertexLimitError(
            f"the projective dimension sweep would visit {count} vertex subsets, "
            f"more than the 2**{MAX_SWEEP_VERTICES} subset sweep bound")
    return bits


def _pdim(prep: _Prepared, bits: list) -> int:
    """The pruned Hochster sweep of the module docstring over the vertices
    in use, `bits`, from the largest subset down."""
    delta = prep.delta
    used = sum(bits)
    free = delta.shape.num_vertices - len(bits)  # vertices in no face
    best = codim_affine(delta)
    layers, packed, characteristic = prep.layers, prep.packed, prep.characteristic
    for size in range(len(bits), 0, -1):
        k = size + free
        if best >= k - 1:  # only d = -1 is left, and W has vertices of delta
            break
        for combo in itertools.combinations(bits, size):
            w = sum(combo)
            if w in packed:  # a nonempty face
                continue
            top = k - best  # faces above this size cannot raise best
            if w == used:
                # The restriction is the complex itself, and best is still
                # codim_affine, so top is dim + 1: no layer is cut.
                ranks = prep.whole
            else:
                # Layer `top` may be cut short; the ranks of the sizes below
                # it are exact (the layers kept form a complex, so the GF(2)
                # bound on rational ranks still holds).
                sub = _restricted_layers(layers[:top + 1], used & ~w)
                ranks = _ranks_from_layers(sub, characteristic, packed)
            for d, h in ranks[:top]:
                if h:
                    best = k - 1 - d
                    break
    return best


def projective_dimension(delta: SimplicialComplex, field: CoefficientField) -> int:
    """Length of the minimal free resolution of the Stanley-Reisner quotient.

    The pruned Hochster sweep of the module docstring: it refuses a complex
    whose sweep could visit more than 2**MAX_SWEEP_VERTICES vertex subsets
    (VertexLimitError) before visiting any.
    """
    if delta.is_void:
        raise ValueError("the void complex presents the zero module; no projective dimension")
    bits = _sweep_vertices(delta)
    return _pdim(_Prepared(delta, field.characteristic), bits)


# -- Cohen-Macaulay tests -------------------------------------------------


class ReisnerVerdict(NamedTuple):
    is_cm: bool
    witness: tuple  # (Face, homology index) for the first failure, else None


def _reisner(prep: _Prepared) -> ReisnerVerdict:
    """Reisner's test on the prepared complex: the empty face's link, the
    whole complex, from `prep.whole`, then `_failing_links` on the rest."""
    delta = prep.delta
    if delta.dim > 0:  # the empty face has size below dim
        d = _low_homology(prep.whole)
        if d is not None:
            return ReisnerVerdict(False, (frozenset(), d))
    for sigma, d in _failing_links(delta, prep.characteristic):
        return ReisnerVerdict(False, (delta.shape.face_from_mask(sigma), d))
    return ReisnerVerdict(True, None)


def is_cm_reisner(delta: SimplicialComplex, field: CoefficientField) -> ReisnerVerdict:
    """Reisner's criterion: every link is homology-free below its dimension.

    Faces are visited in canonical order (cardinality, then vertex order)
    and the witness reports the first face whose link has nonvanishing
    reduced homology strictly below its dimension (see `_failing_links`).
    """
    if delta.is_void:
        raise ValueError("Cohen-Macaulayness is undefined for the void complex")
    return _reisner(_Prepared(delta, field.characteristic))


def cm_verdicts(delta: SimplicialComplex, field: CoefficientField) -> tuple:
    """(`is_cm_reisner`, `projective_dimension`) from one preparation, the
    sweep bound checked first.  A CM complex (pdim = `codim_affine`) gets
    (True, None) by Reisner's theorem, with no link walked."""
    if delta.is_void:
        raise ValueError("Cohen-Macaulayness is undefined for the void complex")
    bits = _sweep_vertices(delta)
    prep = _Prepared(delta, field.characteristic)
    pdim = _pdim(prep, bits)
    cm = pdim == codim_affine(delta)
    return (ReisnerVerdict(True, None) if cm else _reisner(prep)), pdim


class UnionReisner:
    """Reisner's criterion for the unions of a pure base complex with
    subsets of its candidate facets, on face masks only.

    Adding facets changes only the links of faces inside the added facets:
    if no added facet contains a face sigma, every face of the union
    containing sigma is a face of the base, so sigma's link in the union is
    its link in the base.  So the failing base faces are found once, and a
    subset leaving one of them uncovered fails with no rank computed.
    Every other subset needs only the whole union (ranked uncached, since
    every union is new) and the links of the faces of size below dim
    inside its added facets.

    Every face of the universe (the base faces and all candidate submasks)
    maps to a bitset: bit i when candidate i contains it, and the `base`
    bit when it is a base face.  A union is then the bitset `base` plus the
    chosen candidates' bits, and a universe face belongs to it iff the two
    bitsets meet.
    """

    def __init__(self, base: SimplicialComplex, candidates: list, characteristic: int):
        self.characteristic = characteristic
        self.base = 1 << len(candidates)
        holders = dict.fromkeys(itertools.chain.from_iterable(base.face_layers()), self.base)
        for i, c in enumerate(candidates):
            bit = 1 << i
            sub = c
            while True:
                holders[sub] = holders.get(sub, 0) | bit
                if not sub:
                    break
                sub = (sub - 1) & c
        self.holders = holders
        # The nonempty base faces failing Reisner's test in the base, each
        # with its candidate bitset: a union keeps such a failure unless a
        # chosen candidate contains the face.
        self.bad = {s: holders[s] & ~self.base
                    for s, _ in _failing_links(base, characteristic)}
        self.universe = _canon(holders)
        # The nonempty universe faces whose links can fail.
        self.low = [f for f in self.universe[1:] if f.bit_count() < base.dim]
        self.stars = {}  # face -> the universe faces containing it

    def is_cm(self, subset) -> bool:
        """Whether the base plus the candidates at these indices is CM."""
        chosen = self.base
        for i in subset:
            chosen |= 1 << i
        if not all(h & chosen for h in self.bad.values()):
            return False
        holders = self.holders
        kept = _layers([f for f in self.universe if holders[f] & chosen])
        if _low_homology(_ranks_from_layers(kept, self.characteristic)) is not None:
            return False
        added = chosen ^ self.base
        for sigma in self.low:
            if holders[sigma] & added:
                star = self.stars.get(sigma)
                if star is None:
                    star = self.stars[sigma] = [f for f in self.universe if f & sigma == sigma]
                link = [f ^ sigma for f in star if holders[f] & chosen]
                if _link_defect(link, self.characteristic) is not None:
                    return False
        return True


def is_cm_pdim(delta: SimplicialComplex, field: CoefficientField) -> bool:
    """Cohen-Macaulay test via Auslander-Buchsbaum: pdim equals affine codim."""
    return projective_dimension(delta, field) == codim_affine(delta)
