"""Independent checkers for the benchmark's outputs, written without vcmkit.

Each takes faces as vertex bitmasks (see gen.py) and returns a list of
problems, empty when the output passes; the benchmark runs them after its
timed region.
"""

from math import comb

from gen import bits, component_masks


def popcount(mask):
    return bin(mask).count("1")


def is_face(mask, facets):
    return any(mask & ~f == 0 for f in facets)


def all_faces(facets):
    faces = set()
    for f in facets:
        sub = f
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    return faces


def restriction_sets(order):
    """Restriction-set shelling test.  R_i holds the vertices v of F_i whose
    ridge F_i - v lies in an earlier facet; the order is a shelling when no
    earlier facet contains R_i.  Returns (first failing 1-based step or None,
    [|R_i| for every i])."""
    earlier_ridges = set()
    holders = {}  # vertex -> bitset of the order positions containing it
    sizes = []
    failed = None
    for i, facet in enumerate(order):
        vertices = bits(facet)
        restriction = [v for v in vertices if facet & ~(1 << v) in earlier_ridges]
        sizes.append(len(restriction))
        if i and failed is None:
            common = (1 << i) - 1
            for v in restriction:
                common &= holders.get(v, 0)
            if common:
                failed = i + 1
        for v in vertices:
            holders[v] = holders.get(v, 0) | (1 << i)
            earlier_ridges.add(facet & ~(1 << v))
    return failed, sizes


def h_vector(facets):
    """h-vector of a pure complex from its f-vector."""
    d = popcount(facets[0])
    f = [0] * (d + 1)  # f[i] counts faces of size i, the empty face included
    for face in all_faces(facets):
        f[popcount(face)] += 1
    return [sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
            for k in range(d + 1)]


def shelling_problems(order, facets):
    """The order must list the facets of a pure complex once each and pass
    the restriction-set test; the h-vector counted from the restriction
    sizes must equal the one from the f-vector, and be >= 0."""
    if len(order) != len(set(order)) or set(order) != set(facets):
        return ["order does not list the facets of the union exactly once"]
    if len({popcount(f) for f in order}) != 1:
        return ["union is not pure"]
    failed, sizes = restriction_sets(order)
    if failed is not None:
        return [f"restriction set of step {failed} lies in an earlier facet"]
    from_order = [sizes.count(k) for k in range(popcount(order[0]) + 1)]
    from_faces = h_vector(list(facets))
    problems = []
    if from_order != from_faces:
        problems.append(f"h-vector {from_order} from the order != {from_faces} from faces")
    if min(from_faces) < 0:
        problems.append(f"negative h-vector {from_faces}")
    return problems


def irrelevance_problems(entries, delta, delta_prime):
    """Every facet of the augmentation misses a component, has the facet
    size of delta, and is not a face of delta."""
    cms = component_masks(entries)
    size = popcount(delta[0])
    problems = []
    for f in delta_prime:
        if all(f & cm for cm in cms):
            problems.append(f"augmentation facet {bits(f)} meets every component")
        if popcount(f) != size:
            problems.append(f"augmentation facet {bits(f)} has size {popcount(f)} != {size}")
        if is_face(f, delta):
            problems.append(f"augmentation facet {bits(f)} is a face of delta")
    return problems


def relevant(entries, facets):
    cms = component_masks(entries)
    return [f for f in facets if all(f & cm for cm in cms)]


def codim(entries, facets):
    """weight - (largest relevant facet size - r)."""
    return sum(entries) - (max(popcount(f) for f in relevant(entries, facets)) - len(entries))


def codim_affine(entries, facets):
    return len(entries) + sum(entries) - max(popcount(f) for f in facets)


def candidate_count(entries, facets):
    """Irrelevant non-faces of the saturation's facet size, by brute force."""
    sat = relevant(entries, facets)
    size = popcount(sat[0])
    cms = component_masks(entries)
    n = len(entries) + sum(entries)
    count = 0
    for mask in range(1 << n):
        if popcount(mask) == size and not all(mask & cm for cm in cms) and not is_face(mask, sat):
            count += 1
    return count


def certified_window(c, s):
    """A search certifying with s added facets tested more than every subset
    of fewer than s candidates, and at most every subset of up to s."""
    return sum(comb(c, k) for k in range(s)), sum(comb(c, k) for k in range(s + 1))


def minimal_nonfaces(entries, facets):
    """Every minimal non-face is a face plus one vertex whose other
    codimension-one subsets are all faces."""
    faces = all_faces(facets)
    n = len(entries) + sum(entries)
    out = set()
    for face in faces:
        for v in range(n):
            cand = face | (1 << v)
            if cand in faces or cand in out:
                continue
            if all(cand & ~(1 << u) in faces for u in bits(cand)):
                out.add(cand)
    return out


def exponent_vector(mask, n):
    return tuple(mask >> i & 1 for i in range(n))


def flip_failures(ranks, mats, k, cell):
    """Positions (pair, row, col) that flipping the sign of matrices[k][cell]
    makes nonzero in the products matrices[p] @ matrices[p + 1].

    Before the flip every product vanishes, so a product entry changes by
    -2 times the one term that used the flipped entry; with single-variable
    entries that term is nonzero exactly when its other factor is."""
    i, j = cell
    out = set()
    if k > 0:
        out |= {(k - 1, a, j) for (a, b) in mats[k - 1] if b == i}
    if k + 1 < len(mats):
        out |= {(k, i, b) for (a, b) in mats[k + 1] if a == j}
    return out
