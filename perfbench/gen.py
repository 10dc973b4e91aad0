"""Seeded input generators for the benchmark, written without vcmkit.

Faces are vertex bitmasks over the canonical order of a shape: component
major, index minor, so vertex x_{i,j} of shape (n_1, ..., n_r) sits at bit
offset(i) + j.  Documents use the program's JSON format, with vertices as
[component, index] pairs; nothing in a document names the workload that
made it.
"""

import itertools
import json


def offsets(entries):
    offs = [0]
    for n in entries:
        offs.append(offs[-1] + n + 1)
    return offs


def num_vertices(entries):
    return len(entries) + sum(entries)


def component_masks(entries):
    offs = offsets(entries)
    return [((1 << (n + 1)) - 1) << offs[i] for i, n in enumerate(entries)]


def bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def face_to_json(mask, entries):
    offs = offsets(entries)
    out = []
    for p in bits(mask):
        comp = max(i for i in range(len(entries)) if offs[i] <= p)
        out.append([comp + 1, p - offs[comp]])
    return out


def json_to_mask(face, entries):
    offs = offsets(entries)
    mask = 0
    for comp, idx in face:
        mask |= 1 << (offs[comp - 1] + idx)
    return mask


def complex_doc(entries, masks):
    return {"shape": list(entries),
            "facets": [face_to_json(m, entries) for m in sorted(set(masks))]}


def dump(doc):
    return json.dumps(doc, sort_keys=True)


def balanced_grid(entries):
    """Masks of all facets with exactly one vertex in every component."""
    offs = offsets(entries)
    grid = []
    for picks in itertools.product(*[range(n + 1) for n in entries]):
        grid.append(sum(1 << (offs[i] + j) for i, j in enumerate(picks)))
    return grid


def random_balanced(entries, k, rng):
    return sorted(rng.sample(balanced_grid(entries), k))


def irrelevant_facets(entries):
    """Size-r faces doubling one component, missing another, one vertex elsewhere."""
    offs = offsets(entries)
    r = len(entries)
    out = []
    for c in range(r):
        for a, b in itertools.combinations(range(entries[c] + 1), 2):
            pair = (1 << (offs[c] + a)) | (1 << (offs[c] + b))
            for z in range(r):
                if z == c:
                    continue
                others = [t for t in range(r) if t not in (c, z)]
                for picks in itertools.product(*[range(entries[t] + 1) for t in others]):
                    out.append(pair | sum(1 << (offs[t] + j) for t, j in zip(others, picks)))
    return out


def latin_balanced(entries):
    """Seed-free balanced complex on (n, n, n): facets x_{1,i} x_{2,j} x_{3,(i+j) mod (n+1)}."""
    n = entries[0]
    offs = offsets(entries)
    return [(1 << (offs[0] + i)) | (1 << (offs[1] + j)) | (1 << (offs[2] + (i + j) % (n + 1)))
            for i in range(n + 1) for j in range(n + 1)]


def random_pure(n, k, size, rng):
    masks = set()
    while len(masks) < k:
        masks.add(sum(1 << p for p in rng.sample(range(n), size)))
    return sorted(masks)


def covering(n, draw):
    """Call draw() until its facets use every one of the n vertices.

    An unused vertex would make half of the Hochster sweep's restrictions
    repeat, so a run's time and memory would follow how many vertices the
    seed happened to leave out.
    """
    while True:
        masks = draw()
        used = 0
        for m in masks:
            used |= m
        if used == (1 << n) - 1:
            return masks


def disconnected_pure(n, per_part, size, rng):
    """Pure complex whose facets live on two disjoint vertex sets."""
    vertices = list(range(n))
    rng.shuffle(vertices)
    half = n // 2
    parts = (vertices[:half], vertices[half:])
    masks = set()
    for part in parts:
        chosen = set()
        while len(chosen) < per_part:
            chosen.add(sum(1 << p for p in rng.sample(part, size)))
        masks |= chosen
    return sorted(masks)


RP2_TRIANGLES = ("125", "126", "134", "136", "145", "234", "235", "246", "356", "456")


def rp2_on(n, rng):
    """The six-vertex real projective plane, labelled onto six of n bits."""
    slots = rng.sample(range(n), 6)
    return sorted(sum(1 << slots[int(ch) - 1] for ch in tri) for tri in RP2_TRIANGLES)


def relabel(masks, perm):
    """Apply the bit permutation perm (old position -> new position)."""
    return sorted(sum(1 << perm[p] for p in bits(m)) for m in masks)


def shape_relabelling(entries, rng):
    """Random symmetry of the product: permute indices within each component
    and permute components of equal size."""
    offs = offsets(entries)
    r = len(entries)
    order = list(range(r))
    for size in sorted(set(entries)):
        same = [c for c in range(r) if entries[c] == size]
        moved = same[:]
        rng.shuffle(moved)
        for src, dst in zip(same, moved):
            order[src] = dst
    perm = {}
    for c in range(r):
        dst = order[c]
        idx = list(range(entries[c] + 1))
        rng.shuffle(idx)
        for j in range(entries[c] + 1):
            perm[offs[c] + j] = offs[dst] + idx[j]
    return perm


def koszul_chain(entries, variables):
    """Koszul complex on the given variable bit positions, as ranks and a
    sparse description of every differential.

    matrices[k] maps the (k+1)-subsets to the k-subsets of the variables;
    entry [T][S] is (-1)^pos * x_i when T is S without its pos-th element i.
    Returns (ranks, entries) with entries[k] = {(row, col): (sign, bit)}.
    """
    m = len(variables)
    basis = [list(itertools.combinations(range(m), k)) for k in range(m + 1)]
    index = [{s: i for i, s in enumerate(b)} for b in basis]
    mats = []
    for k in range(m):
        cells = {}
        for col, subset in enumerate(basis[k + 1]):
            for pos, i in enumerate(subset):
                row = index[k][subset[:pos] + subset[pos + 1:]]
                cells[(row, col)] = (-1 if pos % 2 else 1, variables[i])
        mats.append(cells)
    return [len(b) for b in basis], mats


def matrix_doc(entries, ranks, mats):
    offs = offsets(entries)

    def name(bit):
        comp = max(i for i in range(len(entries)) if offs[i] <= bit)
        return f"x_{comp + 1}_{bit - offs[comp]}"

    matrices = []
    for k, cells in enumerate(mats):
        rows = [["0"] * ranks[k + 1] for _ in range(ranks[k])]
        for (i, j), (sign, bit) in cells.items():
            rows[i][j] = ("-" if sign < 0 else "") + name(bit)
        matrices.append(rows)
    return {"shape": list(entries), "ranks": list(ranks), "matrices": matrices}
