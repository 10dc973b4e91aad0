"""Command-line front end for the certification toolkit.

One command per process; reports go to stdout as deterministic JSON (keys
sorted, no timing inside — wall time is printed to stderr).  Exit codes are
scriptable: 0 verdict-true/success, 1 verdict-false, 2 search closed without
a certificate, 3 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from .complexes import format_face
from .documents import (
    DocumentError,
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


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _human_lines(obj, prefix=""):
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
        "certificate": certificate_to_dict(cert),
        "verdicts": {
            "codim": cert.codim,
            "pdim": cert.codim,
            "pdim_equals_codim": True,
            "order_length": len(cert.evidence.order),
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
