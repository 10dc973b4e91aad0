"""Virtual-resolution certificates for complexes on products.

A complex is virtually Cohen-Macaulay when some free complex of length equal
to its codimension resolves it away from the irrelevant locus.  The workable
route here: augment the complex by irrelevant facets of top dimension until
the union becomes Cohen-Macaulay; the union's minimal resolution then has
the right length and restricts correctly.  This module carries the sparse
polynomial arithmetic for matrix presentations (`compose_failures` multiplies
only nonzero entries, with each monomial's exponents packed into one int by
the saturation oracle's `_Packing` so a product of monomials is one add,
accumulating coefficient dicts per product entry), the two worked 6-vertex
fixtures with their displayed matrix pairs, the exhaustive augmentation
search, and the certificate containers shared with the CLI.  A
certify-balanced certificate carries the `shelling.ShellingEvidence` that
`balanced_vcm_certificate` returns as its evidence.  The search tests each
union with `homology.UnionReisner`, which runs Reisner's criterion
incrementally on face masks.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .complexes import InvalidVertexError, Shape, SimplicialComplex, Vertex, format_face, union
from .homology import UnionReisner, projective_dimension
from .linalg import CoefficientField
from .shelling import balanced_vcm_certificate
from .stanley_reisner import EmptyVarietyError, _Packing, codim, codim_affine, saturate_by_B

DEFAULT_FIELD = CoefficientField(2)


class Polynomial:
    """Sparse multivariate polynomial with integer coefficients.

    Terms map exponent tuples to nonzero coefficients; construction merges
    duplicates and drops zeros, so equality is plain dict equality.  No
    operation changes a Polynomial in place, so one object can stand in
    several matrix cells.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        merged = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for expo, coeff in items:
                expo = tuple(int(e) for e in expo)
                if len(expo) != self.nvars:
                    raise ValueError(f"exponent vector {expo} is not of length {self.nvars}")
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                merged[expo] = merged.get(expo, 0) + int(coeff)
        self.terms = {e: c for e, c in merged.items() if c}

    @classmethod
    def zero(cls, nvars) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def variable(cls, nvars, position) -> "Polynomial":
        expo = [0] * nvars
        expo[position] = 1
        return cls(nvars, {tuple(expo): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("cannot add polynomials in different variable counts")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.nvars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.nvars, {e: c * other for e, c in self.terms.items()})
        if self.nvars != other.nvars:
            raise ValueError("cannot multiply polynomials in different variable counts")
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.terms!r})"


_VARIABLE = re.compile(r"^x_(\d+)_(\d+)$")
_INTEGER = re.compile(r"^[+-]?\d+$")


def parse_polynomial(text: str, shape: Shape) -> Polynomial:
    """Read a polynomial string: `*`-separated x_i_j factors and integers,
    terms joined by + and -."""
    nvars = shape.num_vertices
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValueError("empty polynomial string")
    chunks = re.findall(r"[+-]?[^+-]+", stripped)
    if "".join(chunks) != stripped:
        raise ValueError(f"cannot tokenise polynomial {text!r}")
    coeffs = {}
    for chunk in chunks:
        sign = 1
        body = chunk
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if not body:
            raise ValueError(f"dangling sign in polynomial {text!r}")
        coeff = sign
        expo = [0] * nvars
        for factor in body.split("*"):
            if _INTEGER.match(factor):
                coeff *= int(factor)
                continue
            m = _VARIABLE.match(factor)
            if not m:
                raise ValueError(f"cannot read factor {factor!r} in polynomial {text!r}")
            v = Vertex(int(m.group(1)), int(m.group(2)))
            try:
                expo[shape.bit(v)] += 1
            except InvalidVertexError:
                raise ValueError(f"variable {v} is outside shape {shape}") from None
        key = tuple(expo)
        coeffs[key] = coeffs.get(key, 0) + coeff
    return Polynomial(nvars, coeffs)


def render_polynomial(poly: Polynomial, shape: Shape) -> str:
    if poly.nvars != shape.num_vertices:
        raise ValueError("polynomial does not live on this shape")
    if poly.is_zero():
        return "0"
    pieces = []
    for expo in sorted(poly.terms, reverse=True):
        coeff = poly.terms[expo]
        factors = []
        if abs(coeff) != 1 or not any(expo):
            factors.append(str(abs(coeff)))
        for pos, e in enumerate(expo):
            factors.extend([str(shape.vertex_at(pos))] * e)
        term = "*".join(factors)
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + term)
        else:
            pieces.append(("-" if coeff < 0 else "+") + term)
    return "".join(pieces)


@dataclass(frozen=True)
class FreeComplexPresentation:
    """Ranks and differentials of a finite free complex, left to right.

    matrices[k] is the ranks[k] x ranks[k+1] matrix mapping summand k+1
    into summand k; entries are integer polynomials on the shape's
    variables.
    """

    shape: Shape
    ranks: tuple
    matrices: tuple

    def __post_init__(self):
        ranks = tuple(int(x) for x in self.ranks)
        if any(x < 0 for x in ranks):
            raise ValueError(f"negative rank in {ranks}")
        if len(self.matrices) != max(len(ranks) - 1, 0):
            raise ValueError(
                f"{len(ranks)} ranks need {len(ranks) - 1} matrices, got {len(self.matrices)}")
        nvars = self.shape.num_vertices
        matrices = []
        for k, mat in enumerate(self.matrices):
            rows = tuple(tuple(row) for row in mat)
            if len(rows) != ranks[k]:
                raise ValueError(f"matrices[{k}] has {len(rows)} rows, expected {ranks[k]}")
            for i, row in enumerate(rows):
                if len(row) != ranks[k + 1]:
                    raise ValueError(
                        f"matrices[{k}] row {i} has {len(row)} entries, expected {ranks[k + 1]}")
                for j, entry in enumerate(row):
                    if not isinstance(entry, Polynomial) or entry.nvars != nvars:
                        raise ValueError(f"matrices[{k}][{i}][{j}] is not a polynomial "
                                         f"in {nvars} variables")
            matrices.append(rows)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "matrices", tuple(matrices))


def compose_failures(pres: FreeComplexPresentation) -> tuple:
    """Positions (pair k, row, col) where matrices[k] @ matrices[k+1] is nonzero.

    Sparse: the nonzero entries of each row of the right-hand matrix are
    listed once, and row i of the product accumulates only the products of
    nonzero entries, one coefficient dict per column.  Each distinct
    Polynomial object is packed once into (exponents, coefficient) pairs,
    the exponents as one int by the saturation oracle's
    `_Packing.for_exponents(nvars, largest exponent)`.  Its fields are
    largest.bit_length() + 1 bits wide, which for largest >= 1 is
    (2 * largest).bit_length(): the guard bit on top of each field takes
    the carry of a sum of two exponents, and compose never subtracts, so
    the product of two monomials is one int add that carries between no
    fields.  The products are summed inline rather than with Polynomial
    `*` and `+`, which build and re-validate a Polynomial per product and
    made this about 5x slower.
    """
    entries = {id(p): p for mat in pres.matrices for row in mat for p in row if p.terms}
    expos = {e for p in entries.values() for e in p.terms}
    pack = _Packing.for_exponents(pres.shape.num_vertices, max(map(max, expos), default=0)).pack
    codes = {e: pack(e) for e in expos}
    packed = {key: [(codes[e], c) for e, c in p.terms.items()] for key, p in entries.items()}
    bad = []
    for k in range(len(pres.matrices) - 1):
        left, right = pres.matrices[k], pres.matrices[k + 1]
        right_rows = [[(j, packed[id(entry)]) for j, entry in enumerate(row) if entry.terms]
                      for row in right]
        for i, row in enumerate(left):
            sums = {}
            for t, entry in enumerate(row):
                if not entry.terms:
                    continue
                left_terms = packed[id(entry)]
                for j, right_terms in right_rows[t]:
                    acc = sums.setdefault(j, {})
                    for ea, ca in left_terms:
                        for eb, cb in right_terms:
                            key = ea + eb
                            acc[key] = acc.get(key, 0) + ca * cb
            bad.extend((k, i, j) for j in sorted(sums) if any(sums[j].values()))
    return tuple(bad)


# -- worked fixtures ------------------------------------------------------


class PaperFixture(NamedTuple):
    complex: SimplicialComplex
    presentation: FreeComplexPresentation
    labels: dict  # label -> Vertex


FIXTURE_NAMES = ("fig1", "counterexample34")

_LABELS = {
    "a": Vertex(1, 0), "b": Vertex(1, 1), "c": Vertex(1, 2),
    "d": Vertex(2, 0), "e": Vertex(2, 1), "f": Vertex(2, 2),
}


def _from_labels(shape, words):
    return SimplicialComplex.from_facets(
        shape, [[_LABELS[ch] for ch in word] for word in words])


def paper_fixture(name: str) -> PaperFixture:
    """Worked 6-vertex examples on two projective planes, with their
    displayed matrix pairs.

    `fig1` is the non-CM pair of tetrahedra glued along an edge; its matrix
    pair presents the ideal sheaf restricted to the product.
    `counterexample34` is virtually CM of codimension 2 with projective
    dimension 3; its matrix pair is the short virtual resolution.
    """
    shape = Shape((2, 2))
    z = Polynomial.zero(6)
    a, b, c, d, e, f = (Polynomial.variable(6, i) for i in range(6))
    if name == "fig1":
        delta = _from_labels(shape, ["adef", "bcde"])
        pres = FreeComplexPresentation(
            shape,
            (2, 4, 2),
            (
                ((z, f, z, a),
                 (-c, -f, b, -a)),
                ((z, -b),
                 (a, z),
                 (z, -c),
                 (-f, z)),
            ),
        )
        return PaperFixture(delta, pres, dict(_LABELS))
    if name == "counterexample34":
        delta = _from_labels(
            shape, ["bdef", "acef", "bcdf", "acdf", "abdf", "bcde", "acde", "abce"])
        pres = FreeComplexPresentation(
            shape,
            (3, 8, 5),
            (
                ((c * e * f, z, z, a * e * f, a * b * e, z, z, a * b * c),
                 (-c, -d, b, -a, z, z, z, z),
                 (z, z, z, z, -e, -f, d, -c)),
                ((z, z, z, a, z),
                 (z, -b, z, z, z),
                 (a, -d, z, z, z),
                 (b, z, z, -c, z),
                 (-f, z, c, z, z),
                 (e, z, z, z, -d),
                 (z, z, z, z, -f),
                 (z, z, -e, z, z)),
            ),
        )
        return PaperFixture(delta, pres, dict(_LABELS))
    raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")


# -- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class PdimEvidence:
    """Projective-dimension computation for the union over one field."""

    field: CoefficientField
    pdim: int
    codim_affine: int


@dataclass(frozen=True)
class VcmCertificate:
    """Witness that `delta` is virtually Cohen-Macaulay.

    `delta_prime` collects the added irrelevant facets (possibly none); the
    verdict asserts that the union's minimal resolution has length equal to
    the codimension of `delta`, which makes it a virtual resolution of the
    right length.
    """

    delta: SimplicialComplex
    delta_prime: SimplicialComplex
    verdict: bool
    codim: int
    evidence: object  # shelling.ShellingEvidence or PdimEvidence


class CandidateLimitError(ValueError):
    """Too many vertex subsets to walk for irrelevant candidate facets."""


# Largest number of vertex subsets the candidate walk may visit: about one
# second at the 1.8-2 us per subset measured on (14,14) and (9,9) (2 CPUs,
# Python 3.11); shapes whose subsets are mostly irrelevant non-faces cost up
# to 6x more per subset.
MAX_CANDIDATE_WALK = 500_000


def enumerate_irrelevant_candidate_facets(delta: SimplicialComplex) -> tuple:
    """Masks of the irrelevant non-faces of facet cardinality, in canonical
    face order.

    These are the only faces an augmentation may add: anything relevant
    would change the complex away from the irrelevant locus, and anything
    of other dimension would break purity.  The walk visits all C(n, dim+1)
    vertex subsets, so it refuses more than MAX_CANDIDATE_WALK of them
    before it starts.
    """
    if delta.is_void:
        raise ValueError("the void complex has no candidate facets")
    shape = delta.shape
    size = delta.dim + 1
    walk = math.comb(shape.num_vertices, size)
    if walk > MAX_CANDIDATE_WALK:
        raise CandidateLimitError(
            f"{walk} vertex subsets of size {size} exceed the candidate walk bound "
            f"{MAX_CANDIDATE_WALK}")
    out = []
    for combo in itertools.combinations(range(shape.num_vertices), size):
        mask = 0
        for p in combo:
            mask |= 1 << p
        if shape.is_relevant_mask(mask):
            continue
        if delta.has_face_mask(mask):
            continue
        out.append(mask)
    return tuple(out)


CERTIFIED = "certified"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # certified | exhausted | budget_exceeded
    certificate: VcmCertificate  # None unless certified
    reason: str  # None when certified
    subsets_tested: int


def certify_vcm_via_union(delta: SimplicialComplex, delta_prime: SimplicialComplex,
                          field: CoefficientField = DEFAULT_FIELD) -> VcmCertificate:
    """Judge a proposed irrelevant augmentation by resolution length.

    The union's minimal free resolution restricts to a virtual resolution
    of `delta`, so the verdict is exactly pdim(union) == codim(delta).
    """
    if delta.shape != delta_prime.shape:
        raise ValueError("augmentation lives on a different shape")
    for m in delta_prime.facet_masks:
        if delta.shape.is_relevant_mask(m):
            raise ValueError(
                f"facet {format_face(delta.shape.face_from_mask(m))} of the augmentation "
                "is relevant")
    cd = codim(delta)
    u = union(delta, delta_prime)
    pd = projective_dimension(u, field)
    return VcmCertificate(
        delta=delta,
        delta_prime=delta_prime,
        verdict=pd == cd,
        codim=cd,
        evidence=PdimEvidence(field=field, pdim=pd, codim_affine=codim_affine(u)),
    )


def augmentation_search(delta: SimplicialComplex, field: CoefficientField = DEFAULT_FIELD,
                        budget: int = 10 ** 6) -> SearchOutcome:
    """Search all irrelevant augmentations for a Cohen-Macaulay union.

    Works on the saturation, tries candidate subsets by size (small first,
    canonical order within a size) against Reisner's criterion, and counts
    every tested union toward the budget, which must be nonnegative.  The
    empty subset goes first, so an already-CM complex certifies immediately
    with an empty augmentation.  An exhausted pool proves nothing negative:
    it only closes this route.

    The unions are tested as face masks by `homology.UnionReisner`; only
    the certifying subset becomes a complex, for `certify_vcm_via_union`.
    """
    if budget < 0:
        raise ValueError(f"the budget must be nonnegative, got {budget}")
    ds = saturate_by_B(delta)
    if ds.is_void:
        raise EmptyVarietyError("every facet is irrelevant; nothing remains to certify")
    if not ds.is_pure():
        raise ValueError("the saturation is impure; no equidimensional augmentation exists")
    masks = enumerate_irrelevant_candidate_facets(ds)
    union_test = UnionReisner(ds, masks, field.characteristic)
    tested = 0
    for k in range(len(masks) + 1):
        for subset in itertools.combinations(range(len(masks)), k):
            if tested >= budget:
                return SearchOutcome(
                    BUDGET_EXCEEDED, None,
                    f"stopped after the budget of {budget} candidate subsets", tested)
            tested += 1
            if union_test.is_cm(subset):
                dp = SimplicialComplex(ds.shape, tuple(masks[i] for i in subset))
                cert = certify_vcm_via_union(ds, dp, field)
                if not cert.verdict:
                    raise AssertionError("Reisner-positive union with wrong resolution length")
                return SearchOutcome(CERTIFIED, cert, None, tested)
    if not masks:
        reason = "no irrelevant candidate facets of required dimension"
    else:
        reason = (f"all {tested} subsets of the {len(masks)} candidate facets "
                  "fail the Cohen-Macaulay test")
    return SearchOutcome(EXHAUSTED, None, reason, tested)


def certify_balanced(delta: SimplicialComplex,
                     field: CoefficientField = DEFAULT_FIELD) -> VcmCertificate:
    """Constructive certificate for a balanced complex.

    Runs the balanced shelling pipeline; the evidence is its
    `ShellingEvidence`, whose order balanced_vcm_certificate has verified
    on the union.  A shellable complex is Cohen-Macaulay over every field,
    so the union's projective dimension equals the codimension without
    recomputing it.  `field` only labels the report.
    """
    evidence = balanced_vcm_certificate(delta)
    return VcmCertificate(
        delta=delta,
        delta_prime=evidence.delta_prime,
        verdict=True,
        codim=codim(delta),
        evidence=evidence,
    )
