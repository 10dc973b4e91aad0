"""Reduced simplicial homology, Hochster's formula, and Cohen-Macaulay tests.

All homology is computed from full downward-closed face sets (not facet
lists), split into layers by face size; one routine turns layers into
ranks.  The Reisner link test, `_link_defect`, serves `is_cm_reisner` and
the augmentation search in `vres`; it goes through a bounded lru_cache
keyed on the canonical face-mask tuple, because links of different
complexes in a search repeat.  The Hochster subset sweeps do not: their
restrictions are distinct within a sweep, so they filter pre-layered faces
for each vertex subset and skip the subsets that are faces (their
restrictions are simplices).

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

Ranks are exact: GF(2) uses packed bitmask elimination on the columns of
`_packed_boundaries`, odd primes modular elimination and the rationals
Bareiss elimination over the integers, both on the dense signed matrices of
`_signed_boundary`, the one dense boundary builder.  Over the
rationals the GF(2) ranks come first and certify most boundaries: an
integer matrix has rank over Q at least its rank mod 2, and since the
boundary of a boundary is zero, rank_Q(d_s) is at most rank_2(d_s) plus
the GF(2) homology on either side of d_s.  Bareiss runs only on boundaries
with GF(2) homology on both sides (as in the real projective plane).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .complexes import MAX_SWEEP_VERTICES, SimplicialComplex, _check_vertex_bound, _popcount
from .complexes import VertexLimitError  # noqa: F401  (re-exported for existing importers)
from .linalg import CoefficientField, gf2_rank, integer_rank, rank_mod_p
from .stanley_reisner import codim_affine


def _canon(face_masks) -> tuple:
    """Face masks sorted by (size, mask): a stable sort by size of the sorted masks."""
    return tuple(sorted(sorted(face_masks), key=int.bit_count))


def _layers(faces: tuple) -> list:
    """Faces grouped by cardinality: layers[s] lists the masks of size s."""
    top = max(_popcount(m) for m in faces)
    layers = [[] for _ in range(top + 1)]
    for m in faces:
        layers[_popcount(m)].append(m)
    return layers


def _packed_boundaries(layers: list) -> dict:
    """GF(2) boundary column of every nonempty face, as a bitmask over the
    positions of its facets in their layer.

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


def _boundary_rank(cols: list, rows: list, characteristic: int) -> int:
    """Rank over GF(p), or Q for 0, of the signed boundary map from the
    `cols` faces down to the `rows` faces."""
    matrix = _signed_boundary(cols, rows)
    if characteristic == 0:
        return integer_rank(matrix)
    return rank_mod_p(matrix, characteristic)


def _ranks_from_layers(layers: list, characteristic: int, packed: dict = None) -> tuple:
    """Reduced homology ranks of a face set split by size, as ((dim, rank), ...).

    layers[s] lists the masks of size s, from the empty face up to the top
    size, each layer nonempty.  `packed` holds GF(2) boundary columns valid
    for these layers (see `_packed_boundaries`); it is built when not given.
    Over the rationals only the boundaries with GF(2) homology on both sides
    go to Bareiss; every other rank equals its GF(2) rank (see the module
    docstring).
    """
    top = len(layers) - 1
    branks = [0] * (top + 2)
    if top:
        branks[1] = 1  # every vertex maps onto the empty face
    if characteristic in (0, 2):
        if packed is None:
            packed = _packed_boundaries(layers)
        for s in range(2, top + 1):
            branks[s] = gf2_rank([packed[f] for f in layers[s]])
    else:
        for s in range(2, top + 1):
            branks[s] = _boundary_rank(layers[s], layers[s - 1], characteristic)
    sizes = [len(layer) for layer in layers]
    if characteristic == 0:
        h2 = [sizes[s] - branks[s] - branks[s + 1] for s in range(top + 1)]
        for s in range(2, top + 1):
            if h2[s] and h2[s - 1]:
                branks[s] = _boundary_rank(layers[s], layers[s - 1], 0)
    return tuple([(s - 1, sizes[s] - branks[s] - branks[s + 1]) for s in range(top + 1)])


@lru_cache(maxsize=4096)
def _ranks_from_faces(faces: tuple, characteristic: int) -> tuple:
    """Reduced homology ranks of a full face set in the `_canon` order.

    The Reisner sweep's cached entry point: the key is shared by every link
    with the same face set, across complexes.  Repeats come close together
    (the links of one augmentation search's unions): on the benchmark's
    search workload 4096 entries keep every hit an unbounded cache gets and
    1024 keep 98%; on its check-cm workload 1024 already keep them all.
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


def reduced_homology_ranks(delta: SimplicialComplex, field: CoefficientField) -> dict:
    """Ranks of all reduced homology groups, as {dimension: rank}.

    The void complex has no homology at all and returns {}; the complex
    {emptyset} has a single rank in dimension -1.
    """
    if delta.is_void:
        return {}
    return dict(_ranks_from_layers(_layers(_canon(delta.face_masks())), field.characteristic))


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
    layers = _layers(_canon(delta.face_masks()))
    packed = _packed_boundaries(layers) if characteristic in (0, 2) else None
    used = 0
    for f in delta.facet_masks:
        used |= f
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
    _check_vertex_bound(delta.shape)
    if delta.is_void:
        return BettiTable({})
    shape = delta.shape
    return BettiTable({
        (i, shape.face_from_mask(sigma)): h
        for i, sigma, h in _hochster_sweep(delta, field.characteristic)
    })


def projective_dimension(delta: SimplicialComplex, field: CoefficientField) -> int:
    """Length of the minimal free resolution of the Stanley-Reisner quotient.

    The pruned Hochster sweep of the module docstring: it refuses a complex
    whose sweep could visit more than 2**MAX_SWEEP_VERTICES vertex subsets
    (VertexLimitError) before visiting any.
    """
    if delta.is_void:
        raise ValueError("the void complex presents the zero module; no projective dimension")
    used = 0
    for f in delta.facet_masks:
        used |= f
    bits = [1 << b for b in range(used.bit_length()) if used >> b & 1]
    count = sum(comb(len(bits), j) for j in range(delta.dim))
    if count > 1 << MAX_SWEEP_VERTICES:
        raise VertexLimitError(
            f"the projective dimension sweep would visit {count} vertex subsets, "
            f"more than the 2**{MAX_SWEEP_VERTICES} subset sweep bound")
    free = delta.shape.num_vertices - len(bits)  # vertices in no face
    best = codim_affine(delta)
    faces = delta.face_masks()
    is_face = set(faces)
    layers = _layers(_canon(faces))
    characteristic = field.characteristic
    packed = _packed_boundaries(layers) if characteristic in (0, 2) else None
    for size in range(len(bits), 0, -1):
        k = size + free
        if best >= k - 1:  # only d = -1 is left, and W has vertices of delta
            break
        for combo in itertools.combinations(bits, size):
            w = sum(combo)
            if w in is_face:
                continue
            top = k - best  # faces above this size cannot raise best
            sub = _restricted_layers(layers[:top + 1], used & ~w)
            # Layer `top` may be cut short; the ranks of the sizes below it
            # are exact (the layers kept form a complex, so the GF(2) bound
            # on rational ranks still holds).
            for d, h in _ranks_from_layers(sub, characteristic, packed)[:top]:
                if h:
                    best = k - 1 - d
                    break
    return best


# -- Cohen-Macaulay tests -------------------------------------------------


class ReisnerVerdict(NamedTuple):
    is_cm: bool
    witness: tuple  # (Face, homology index) for the first failure, else None


def is_cm_reisner(delta: SimplicialComplex, field: CoefficientField) -> ReisnerVerdict:
    """Reisner's criterion: every link is homology-free below its dimension.

    Faces are visited in canonical order (cardinality, then vertex order)
    and the witness reports the first face whose link has nonvanishing
    reduced homology strictly below its dimension.  Faces of size dim or more
    are not visited: their links, {emptyset} or points, cannot fail.
    """
    if delta.is_void:
        raise ValueError("Cohen-Macaulayness is undefined for the void complex")
    faces = delta.face_masks()
    characteristic = field.characteristic
    dim = delta.dim
    for sigma in faces:
        if sigma.bit_count() >= dim:
            break
        d = _link_defect([f ^ sigma for f in faces if f & sigma == sigma], characteristic)
        if d is not None:
            return ReisnerVerdict(False, (delta.shape.face_from_mask(sigma), d))
    return ReisnerVerdict(True, None)


def is_cm_pdim(delta: SimplicialComplex, field: CoefficientField) -> bool:
    """Cohen-Macaulay test via Auslander-Buchsbaum: pdim equals affine codim."""
    return projective_dimension(delta, field) == codim_affine(delta)
