"""JSON document formats: complexes, matrix presentations, certificates.

Vertices serialise as two-element arrays [component, index].  Parsing is
total in the sense that any input byte stream produces either a valid
object or a DocumentError whose message carries the position (JSON line and
column for syntax, a key path for semantic problems).  Serialisation is
deterministic: canonical face order everywhere, keys sorted by the caller's
writer.

Faces go between documents and bitmasks through the shape's arithmetic:
a well-formed face is read by `Shape.mask_of_pairs`, and a face mask is
written by walking its bits through `Shape.vertex_at`.  A face that
`mask_of_pairs` refuses falls back to the per-vertex checks of `_read_face`,
so every malformed face still gets its located DocumentError.
"""

from __future__ import annotations

import json

from .complexes import Shape, SimplicialComplex, Vertex, _bits, union
from .homology import projective_dimension
from .linalg import field_label, parse_field
from .shelling import ShellingEvidence, verify_shelling_masks
from .stanley_reisner import codim, codim_affine
from .vres import (
    FreeComplexPresentation,
    PdimEvidence,
    VcmCertificate,
    parse_polynomial,
    render_polynomial,
)


class DocumentError(ValueError):
    """Malformed document; the message locates the problem."""


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise DocumentError("JSON nested too deeply to read") from None


def _read_shape(data, path="shape") -> Shape:
    if not isinstance(data, list) or not data:
        raise DocumentError(f"{path}: expected a non-empty list of integers")
    for i, n in enumerate(data):
        if not isinstance(n, int) or n < 0:
            raise DocumentError(f"{path}[{i}]: expected a non-negative integer, got {n!r}")
    try:
        return Shape(tuple(data))
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def _read_vertex(data, shape: Shape, path: str) -> Vertex:
    if (not isinstance(data, list) or len(data) != 2
            or not all(isinstance(x, int) for x in data)):
        raise DocumentError(f"{path}: expected a [component, index] integer pair, got {data!r}")
    v = Vertex(data[0], data[1])
    if not shape.is_valid_vertex(v):
        raise DocumentError(f"{path}: vertex {v} does not live on shape {shape}")
    return v


def _read_face(data, shape: Shape, path: str):
    if not isinstance(data, list):
        raise DocumentError(f"{path}: expected a list of vertices")
    vertices = [_read_vertex(item, shape, f"{path}[{i}]") for i, item in enumerate(data)]
    if len(set(vertices)) != len(vertices):
        raise DocumentError(f"{path}: repeated vertex")
    return vertices


def _read_masks(data: list, shape: Shape, path: str) -> tuple:
    """Masks of a list of faces: each face `Shape.mask_of_pairs` reads, and
    any other through `_read_face`, which raises the DocumentError that
    locates the problem, or reads what else it accepts, such as bool
    components."""
    masks = []
    for i, item in enumerate(data):
        mask = shape.mask_of_pairs(item)
        if mask is None:
            mask = shape.mask_of(_read_face(item, shape, f"{path}[{i}]"))
        masks.append(mask)
    return tuple(masks)


def _mask_to_json(mask: int, shape: Shape) -> list:
    """A face mask as sorted [component, index] pairs: the bits ascend in
    the canonical vertex order, which is the order of sorted Vertex tuples."""
    return [list(shape.vertex_at(p)) for p in _bits(mask)]


def face_to_json(face) -> list:
    return [[v.component, v.index] for v in sorted(face)]


def parse_complex_document(text: str):
    """Read a complex document; returns (complex, labels or None)."""
    data = _load_json(text)
    if not isinstance(data, dict):
        raise DocumentError("top level: expected an object")
    unknown = set(data) - {"shape", "facets", "labels"}
    if unknown:
        raise DocumentError(f"unknown keys: {', '.join(sorted(unknown))}")
    if "shape" not in data:
        raise DocumentError("missing key: shape")
    if "facets" not in data:
        raise DocumentError("missing key: facets")
    shape = _read_shape(data["shape"])
    raw_facets = data["facets"]
    if not isinstance(raw_facets, list) or not raw_facets:
        raise DocumentError("facets: expected a non-empty list of faces")
    delta = SimplicialComplex(shape, _read_masks(raw_facets, shape, "facets"))
    labels = None
    if "labels" in data:
        raw = data["labels"]
        if not isinstance(raw, dict):
            raise DocumentError("labels: expected an object")
        labels = {}
        for key, item in raw.items():
            labels[str(key)] = _read_vertex(item, shape, f"labels[{key!r}]")
        labelled = shape.mask_of(labels.values())
        if labelled.bit_count() != len(labels):
            raise DocumentError("labels: two labels name the same vertex")
        if labelled != sum(delta.vertex_holders):
            raise DocumentError("labels: labelled vertices differ from the vertices in use")
    return delta, labels


def complex_document(delta: SimplicialComplex, labels=None) -> dict:
    doc = {
        "shape": list(delta.shape.entries),
        "facets": [_mask_to_json(m, delta.shape) for m in delta.facet_masks],
    }
    if labels:
        doc["labels"] = {k: [v.component, v.index] for k, v in sorted(labels.items())}
    return doc


def parse_matrix_document(text: str) -> FreeComplexPresentation:
    """Read a matrix document into a presentation.

    Each distinct cell text is parsed once per document, and cells with
    equal text share one Polynomial (it has no in-place operation).  A
    text that fails to parse is never stored, so the DocumentError names
    the first cell that holds it.
    """
    data = _load_json(text)
    if not isinstance(data, dict):
        raise DocumentError("top level: expected an object")
    unknown = set(data) - {"shape", "ranks", "matrices"}
    if unknown:
        raise DocumentError(f"unknown keys: {', '.join(sorted(unknown))}")
    for key in ("shape", "ranks", "matrices"):
        if key not in data:
            raise DocumentError(f"missing key: {key}")
    shape = _read_shape(data["shape"])
    ranks = data["ranks"]
    if (not isinstance(ranks, list)
            or not all(isinstance(x, int) and x >= 0 for x in ranks)):
        raise DocumentError("ranks: expected a list of non-negative integers")
    raw_mats = data["matrices"]
    if not isinstance(raw_mats, list):
        raise DocumentError("matrices: expected a list")
    parsed = {}  # cell text -> its Polynomial, for this document only
    matrices = []
    for k, mat in enumerate(raw_mats):
        if not isinstance(mat, list):
            raise DocumentError(f"matrices[{k}]: expected a list of rows")
        rows = []
        for i, row in enumerate(mat):
            if not isinstance(row, list):
                raise DocumentError(f"matrices[{k}][{i}]: expected a list of entries")
            entries = []
            for j, cell in enumerate(row):
                if not isinstance(cell, str):
                    raise DocumentError(f"matrices[{k}][{i}][{j}]: expected a string")
                poly = parsed.get(cell)
                if poly is None:
                    try:
                        poly = parsed[cell] = parse_polynomial(cell, shape)
                    except ValueError as exc:
                        raise DocumentError(f"matrices[{k}][{i}][{j}]: {exc}") from None
                entries.append(poly)
            rows.append(tuple(entries))
        matrices.append(tuple(rows))
    try:
        return FreeComplexPresentation(shape, tuple(ranks), tuple(matrices))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def matrix_document(pres: FreeComplexPresentation) -> dict:
    return {
        "shape": list(pres.shape.entries),
        "ranks": list(pres.ranks),
        "matrices": [
            [[render_polynomial(cell, pres.shape) for cell in row] for row in mat]
            for mat in pres.matrices
        ],
    }


# -- certificates ---------------------------------------------------------


def _face_lists(shape: Shape, masks) -> list:
    return [_mask_to_json(m, shape) for m in masks]


def certificate_to_dict(cert: VcmCertificate, face_list=_face_lists) -> dict:
    """The certificate as a JSON-ready dict.

    Each of its three face lists (`delta_facets`, `delta_prime_facets` and a
    shelling's `order`) is `face_list(shape, masks)`: by default a list of
    faces as sorted [component, index] pairs.  A writer that renders masks
    itself passes its own, as `cli` does for certify-balanced reports.
    """
    shape = cert.delta.shape
    if isinstance(cert.evidence, ShellingEvidence):
        evidence = {
            "kind": "shelling",
            "order": face_list(shape, cert.evidence.order_masks),
        }
    elif isinstance(cert.evidence, PdimEvidence):
        evidence = {
            "kind": "pdim",
            "field": field_label(cert.evidence.field),
            "pdim": cert.evidence.pdim,
            "codim_affine": cert.evidence.codim_affine,
        }
    else:
        raise TypeError(f"unknown evidence {type(cert.evidence).__name__}")
    return {
        "shape": list(shape.entries),
        "delta_facets": face_list(shape, cert.delta.facet_masks),
        "delta_prime_facets": face_list(shape, cert.delta_prime.facet_masks),
        "verdict": cert.verdict,
        "codim": cert.codim,
        "evidence": evidence,
    }


def certificate_from_dict(data) -> VcmCertificate:
    if not isinstance(data, dict):
        raise DocumentError("certificate: expected an object")
    for key in ("shape", "delta_facets", "delta_prime_facets", "verdict", "codim", "evidence"):
        if key not in data:
            raise DocumentError(f"certificate: missing key {key}")
    shape = _read_shape(data["shape"])
    if not isinstance(data["delta_facets"], list) or not data["delta_facets"]:
        raise DocumentError("delta_facets: expected a non-empty list")
    delta = SimplicialComplex(shape, _read_masks(data["delta_facets"], shape, "delta_facets"))
    if not isinstance(data["delta_prime_facets"], list):
        raise DocumentError("delta_prime_facets: expected a list")
    delta_prime = SimplicialComplex(
        shape, _read_masks(data["delta_prime_facets"], shape, "delta_prime_facets"))
    if not isinstance(data["verdict"], bool):
        raise DocumentError("verdict: expected a boolean")
    if not isinstance(data["codim"], int):
        raise DocumentError("codim: expected an integer")
    ev = data["evidence"]
    if not isinstance(ev, dict) or "kind" not in ev:
        raise DocumentError("evidence: expected an object with a kind")
    if ev["kind"] == "shelling":
        if "order" not in ev or not isinstance(ev["order"], list):
            raise DocumentError("evidence.order: expected a list of faces")
        evidence = ShellingEvidence(delta_prime, _read_masks(ev["order"], shape, "evidence.order"))
    elif ev["kind"] == "pdim":
        for key in ("field", "pdim", "codim_affine"):
            if key not in ev:
                raise DocumentError(f"evidence: missing key {key}")
        try:
            field = parse_field(str(ev["field"]))
        except ValueError as exc:
            raise DocumentError(f"evidence.field: {exc}") from None
        if not isinstance(ev["pdim"], int) or not isinstance(ev["codim_affine"], int):
            raise DocumentError("evidence: pdim and codim_affine must be integers")
        evidence = PdimEvidence(field=field, pdim=ev["pdim"], codim_affine=ev["codim_affine"])
    else:
        raise DocumentError(f"evidence.kind: unknown kind {ev['kind']!r}")
    return VcmCertificate(
        delta=delta,
        delta_prime=delta_prime,
        verdict=data["verdict"],
        codim=data["codim"],
        evidence=evidence,
    )


def recheck_certificate(data) -> tuple:
    """Re-validate a certificate dict from scratch; returns (ok, detail).

    Shelling evidence is re-run through the order checker; pdim evidence is
    recomputed over its recorded field.  Either way the irrelevance of the
    augmentation and the recorded codimension are rechecked.
    """
    try:
        cert = certificate_from_dict(data)
    except DocumentError as exc:
        return False, str(exc)
    shape = cert.delta.shape
    for m in cert.delta_prime.facet_set:
        if shape.is_relevant_mask(m):
            return False, "augmentation contains a relevant facet"
    try:
        cd = codim(cert.delta)
    except ValueError as exc:
        return False, str(exc)
    if cd != cert.codim:
        return False, f"recorded codim {cert.codim} != recomputed {cd}"
    u = union(cert.delta, cert.delta_prime)
    if isinstance(cert.evidence, ShellingEvidence):
        try:
            check = verify_shelling_masks(u, cert.evidence.order_masks)
        except ValueError as exc:
            return False, str(exc)
        if not check.ok:
            return False, f"shelling check fails at step {check.witness}"
        if not cert.verdict:
            return False, "verified shelling with a false verdict"
        return True, None
    pd = projective_dimension(u, cert.evidence.field)
    if pd != cert.evidence.pdim:
        return False, f"recorded pdim {cert.evidence.pdim} != recomputed {pd}"
    if codim_affine(u) != cert.evidence.codim_affine:
        return False, (f"recorded codim_affine {cert.evidence.codim_affine} != "
                       f"recomputed {codim_affine(u)}")
    if cert.verdict != (pd == cd):
        return False, "verdict does not match pdim == codim"
    return True, None
