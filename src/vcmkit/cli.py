"""Command-line front end for the certification toolkit.

One command per process; reports go to stdout as deterministic JSON (keys
sorted, no timing inside — wall time is printed to stderr).  Exit codes are
scriptable: 0 verdict-true/success, 1 verdict-false, 2 search closed without
a certificate, 3 input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

from .complexes import Shape
from .documents import (
    DocumentError,
    _face_lists,
    certificate_to_dict,
    complex_document,
    face_to_json,
    matrix_document,
    parse_complex_document,
    parse_matrix_document,
    recheck_certificate,
)
from .homology import is_cm_reisner, projective_dimension
from .linalg import field_label, parse_field
from .stanley_reisner import codim, codim_affine, is_saturated
from .vres import (
    CERTIFIED,
    FIXTURE_NAMES,
    augmentation_search,
    certify_balanced,
    compose_failures,
    paper_fixture,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_NO_CERTIFICATE = 2
EXIT_INPUT = 3


def _read_input(path):
    with open(path, "rb") as handle:
        blob = handle.read()
    digest = hashlib.sha256(blob).hexdigest()
    return blob.decode("utf-8"), digest


def _load_complex(path):
    text, digest = _read_input(path)
    delta, labels = parse_complex_document(text)
    return delta, labels, digest


class _FaceMasks:
    """A report's list of faces, kept as masks on `shape` until it is written.

    `_dump` writes it from the masks; `_human_lines` prints it as the plain
    list of faces, each a sorted list of [component, index] pairs, that
    `documents.certificate_to_dict` builds by default.
    """

    __slots__ = ("shape", "masks")

    def __init__(self, shape: Shape, masks: tuple):
        self.shape, self.masks = shape, masks

    def as_json(self) -> list:
        return _face_lists(self.shape, self.masks)


def _vertex_fragments(shape: Shape, pad: str) -> tuple:
    """The text of each vertex of `shape` inside a face list written at `pad`.

    Two dicts keyed by the vertex's one-bit mask: the fragment of a face's
    first vertex, which follows the face's opening bracket, and that of any
    later vertex, which starts with the separating comma.
    """
    vertex_pad = pad + "    "
    int_pad = vertex_pad + "  "
    first, later = {}, {}
    for p, (c, j) in enumerate(shape._vertex_table):
        text = f"\n{vertex_pad}[\n{int_pad}{c},\n{int_pad}{j}\n{vertex_pad}]"
        first[1 << p] = text
        later[1 << p] = "," + text
    return first, later


def _dump(data) -> str:
    """The report as indent-2 JSON with sorted keys and a final newline.

    The bytes are those of ``json.dumps(data, indent=2, sort_keys=True)``
    plus the newline, whose indent makes json fall back to its pure-Python
    encoder, with every `_FaceMasks` written as the list its `as_json` gives.
    This writer lays out dicts and lists itself and leaves every scalar and
    key to the C encoder.  Lists of exact ints (the vertex pairs, mostly)
    are rendered once per (values, indent) and reused; bools are kept out of
    that memo, since (True, 0) == (1, 0).  A `_FaceMasks` of nonempty faces
    is written from its masks, one fragment per vertex from a table built
    once per (shape, indent) by `_vertex_fragments`, so no face becomes a
    list.  Data with a non-string key, or with a value no encoder can write,
    goes to json.dumps whole, which converts such keys or raises its own
    TypeError; reports holding a `_FaceMasks` have neither.
    """
    scalar = json.JSONEncoder().encode
    memo = {}
    fragments = {}
    out = []

    def write_faces(faces, pad):
        masks = faces.masks
        if not masks or 0 in masks:
            write(faces.as_json(), pad)
            return
        key = (faces.shape.entries, pad)
        if key not in fragments:
            fragments[key] = _vertex_fragments(faces.shape, pad)
        first, later = fragments[key]
        append = out.append
        face_pad = pad + "  "
        sep = "[\n" + face_pad + "["
        between = "\n" + face_pad + "],\n" + face_pad + "["
        for m in masks:
            low = m & -m
            append(sep)
            append(first[low])
            m ^= low
            while m:
                low = m & -m
                append(later[low])
                m ^= low
            sep = between
        append("\n" + face_pad + "]\n" + pad + "]")

    def write(obj, pad):
        if isinstance(obj, dict):
            if not obj:
                out.append("{}")
                return
            inner = pad + "  "
            sep = "{\n" + inner
            for key, value in sorted(obj.items()):
                if not isinstance(key, str):
                    raise TypeError("non-string key")
                out.append(sep + scalar(key) + ": ")
                write(value, inner)
                sep = ",\n" + inner
            out.append("\n" + pad + "}")
        elif isinstance(obj, (list, tuple)):
            if not obj:
                out.append("[]")
                return
            inner = pad + "  "
            if all(type(x) is int for x in obj):
                key = (tuple(obj), pad)
                text = memo.get(key)
                if text is None:
                    sep = ",\n" + inner
                    text = memo[key] = ("[\n" + inner + sep.join(map(int.__repr__, obj))
                                        + "\n" + pad + "]")
                out.append(text)
                return
            sep = "[\n" + inner
            for item in obj:
                out.append(sep)
                write(item, inner)
                sep = ",\n" + inner
            out.append("\n" + pad + "]")
        elif isinstance(obj, _FaceMasks):
            write_faces(obj, pad)
        else:
            out.append(scalar(obj))

    try:
        write(data, "")
    except TypeError:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)


def _human_lines(obj, prefix=""):
    if isinstance(obj, _FaceMasks):
        obj = obj.as_json()
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _human_lines(obj[key], f"{prefix}{key}.")
    else:
        rendered = json.dumps(obj) if isinstance(obj, list) else obj
        yield f"{prefix[:-1]}: {rendered}"


def _emit(report, args):
    """Write the report to stdout and, if asked, to --out, serialised once."""
    out = getattr(args, "out", None) if args.command != "fixtures" else None
    text = _dump(report) if args.json or out else None
    if args.json:
        sys.stdout.write(text)
    else:
        for line in _human_lines(report):
            print(line)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _witness_json(witness):
    if witness is None:
        return None
    face, index = witness
    return {"face": face_to_json(face), "index": index}


# -- commands -------------------------------------------------------------


def cmd_info(args):
    delta, _, digest = _load_complex(args.file)
    pure = delta.is_pure()
    relevant = len(delta.relevant_facet_masks())
    verdicts = {
        "dim": delta.dim,
        "num_facets": len(delta.facet_masks),
        "pure": pure,
        "balanced": delta.is_balanced(),
        "relevant_facets": relevant,
        "irrelevant_facets": len(delta.facet_masks) - relevant,
        "gallery_connected": delta.gallery_connected() if pure else None,
        "codim": codim(delta) if relevant else None,
        "codim_affine": codim_affine(delta),
        "b_saturated": is_saturated(delta),
    }
    report = {"command": "info", "digest": digest, "verdicts": verdicts}
    return report, EXIT_OK


def cmd_check_cm(args):
    delta, _, digest = _load_complex(args.file)
    field = parse_field(args.field)
    verdict = is_cm_reisner(delta, field)
    pd = projective_dimension(delta, field)
    ca = codim_affine(delta)
    verdicts = {
        "reisner_cm": verdict.is_cm,
        "witness": _witness_json(verdict.witness),
        "pdim": pd,
        "codim_affine": ca,
        "pdim_cm": pd == ca,
        "agreement": verdict.is_cm == (pd == ca),
    }
    report = {
        "command": "check-cm",
        "digest": digest,
        "field": field_label(field),
        "verdicts": verdicts,
    }
    return report, EXIT_OK if verdict.is_cm else EXIT_FALSE


def _run_recheck(args, command):
    text, digest = _read_input(args.recheck)
    data = json.loads(text)
    if isinstance(data, dict) and "certificate" in data:
        data = data["certificate"]
    ok, detail = recheck_certificate(data)
    report = {
        "command": command,
        "digest": digest,
        "recheck": {"ok": ok, "detail": detail},
    }
    return report, EXIT_OK if ok else EXIT_FALSE


def cmd_certify_balanced(args):
    if args.recheck:
        return _run_recheck(args, "certify-balanced")
    if not args.file:
        raise DocumentError("a complex document is required unless --recheck is given")
    delta, _, digest = _load_complex(args.file)
    field = parse_field(args.field)
    cert = certify_balanced(delta, field)
    report = {
        "command": "certify-balanced",
        "digest": digest,
        "field": field_label(field),
        "certificate": certificate_to_dict(cert, face_list=_FaceMasks),
        "verdicts": {
            "codim": cert.codim,
            "pdim": cert.codim,
            "pdim_equals_codim": True,
            "order_length": len(cert.evidence.order_masks),
        },
    }
    return report, EXIT_OK


def cmd_search(args):
    if args.recheck:
        return _run_recheck(args, "search")
    if not args.file:
        raise DocumentError("a complex document is required unless --recheck is given")
    delta, _, digest = _load_complex(args.file)
    field = parse_field(args.field)
    outcome = augmentation_search(delta, field, budget=args.budget)
    report = {
        "command": "search",
        "digest": digest,
        "field": field_label(field),
        "budget": args.budget,
        "status": outcome.status,
        "reason": outcome.reason,
        "subsets_tested": outcome.subsets_tested,
        "certificate": (certificate_to_dict(outcome.certificate)
                        if outcome.certificate else None),
    }
    code = EXIT_OK if outcome.status == CERTIFIED else EXIT_NO_CERTIFICATE
    return report, code


def cmd_fixtures(args):
    fixture = paper_fixture(args.name)
    os.makedirs(args.out, exist_ok=True)
    paths = []
    doc_path = os.path.join(args.out, f"{args.name}.json")
    with open(doc_path, "w", encoding="utf-8") as handle:
        handle.write(_dump(complex_document(fixture.complex, fixture.labels)))
    paths.append(doc_path)
    mat_path = os.path.join(args.out, f"{args.name}_matrices.json")
    with open(mat_path, "w", encoding="utf-8") as handle:
        handle.write(_dump(matrix_document(fixture.presentation)))
    paths.append(mat_path)
    report = {"command": "fixtures", "name": args.name, "files": paths}
    return report, EXIT_OK


def cmd_verify_complex(args):
    text, digest = _read_input(args.file)
    pres = parse_matrix_document(text)
    failures = compose_failures(pres)
    pairs = []
    for k in range(len(pres.matrices) - 1):
        bad = [[i, j] for (kk, i, j) in failures if kk == k]
        pairs.append({"pair": k, "ok": not bad, "failures": bad})
    report = {
        "command": "verify-complex",
        "digest": digest,
        "pairs": pairs,
        "all_zero": not failures,
    }
    return report, EXIT_OK if not failures else EXIT_FALSE


# -- wiring ---------------------------------------------------------------


def _add_json_flag(parser):
    parser.add_argument("--json", action=argparse.BooleanOptionalAction, default=True,
                        help="emit the report as JSON (default) or plain lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcmkit",
        description="Decide and certify (virtual) Cohen-Macaulayness of simplicial "
                    "complexes on products of projective spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="structural census of a complex document")
    p.add_argument("file")
    _add_json_flag(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("check-cm", help="Reisner and resolution-length CM tests")
    p.add_argument("file")
    p.add_argument("--field", default="2", help="p for GF(p), or Q (default 2)")
    _add_json_flag(p)
    p.set_defaults(func=cmd_check_cm)

    p = sub.add_parser("certify-balanced",
                       help="shelling certificate for a balanced complex")
    p.add_argument("file", nargs="?")
    p.add_argument("--field", default="2", help="p for GF(p), or Q (default 2)")
    p.add_argument("--out", help="also write the report to this path")
    p.add_argument("--recheck", metavar="REPORT",
                   help="re-validate a previously emitted certificate instead")
    _add_json_flag(p)
    p.set_defaults(func=cmd_certify_balanced)

    p = sub.add_parser("search", help="exhaustive irrelevant-augmentation search")
    p.add_argument("file", nargs="?")
    p.add_argument("--field", default="2", help="p for GF(p), or Q (default 2)")
    p.add_argument("--budget", type=int, default=10 ** 6,
                   help="candidate subsets to try before giving up")
    p.add_argument("--out", help="also write the report to this path")
    p.add_argument("--recheck", metavar="REPORT",
                   help="re-validate a previously emitted certificate instead")
    _add_json_flag(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fixtures", help="write the worked example documents")
    p.add_argument("name", help=f"one of: {', '.join(FIXTURE_NAMES)}")
    p.add_argument("--out", required=True, help="output directory")
    _add_json_flag(p)
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("verify-complex", help="check d^2 = 0 for a matrix file")
    p.add_argument("file")
    _add_json_flag(p)
    p.set_defaults(func=cmd_verify_complex)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.  parse_args leaves it
    as it was, so every main() call shares it.  Each subcommand's func is
    bound when it is built, so a cmd_* function patched after the first
    main() call is not the one that runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = args.func(args)
    # DocumentError, EmptyVarietyError, VertexLimitError, CandidateLimitError
    # and the UTF-8 and JSON decode errors are all ValueErrors.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, args)
    elapsed = time.perf_counter() - started
    print(f"[vcmkit] {args.command} finished in {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
