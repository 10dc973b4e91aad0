import hashlib
import json
import random
import time

import pytest

from vcmkit import Shape, SimplicialComplex, irrelevant_complex, union
from vcmkit.cli import _dump, _FaceMasks, _human_lines, _parser, main
from vcmkit.documents import (
    certificate_to_dict,
    complex_document,
    matrix_document,
    parse_complex_document,
    parse_matrix_document,
)
from vcmkit import certify_balanced
from vcmkit.vres import FIXTURE_NAMES, paper_fixture
from helpers import (
    compose_failures_dense,
    cx,
    dump_oracle,
    flip_one_entry,
    koszul_presentation,
    random_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


@pytest.fixture()
def fixture_dir(tmp_path, capsys):
    for name in ("fig1", "counterexample34"):
        assert main(["fixtures", name, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    return tmp_path


class TestFixturesCommand:
    def test_writes_parseable_documents(self, tmp_path, capsys):
        code, report, err = run_json(capsys, "fixtures", "fig1", "--out", str(tmp_path))
        assert code == 0
        assert report["name"] == "fig1"
        assert sorted(report["files"]) == sorted(
            [str(tmp_path / "fig1.json"), str(tmp_path / "fig1_matrices.json")])
        fixture = paper_fixture("fig1")
        delta, labels = parse_complex_document((tmp_path / "fig1.json").read_text())
        assert delta == fixture.complex and labels == fixture.labels
        pres = parse_matrix_document((tmp_path / "fig1_matrices.json").read_text())
        assert pres == fixture.presentation

    def test_counterexample_round_trip(self, tmp_path, capsys):
        code, _, _ = run(capsys, "fixtures", "counterexample34", "--out", str(tmp_path))
        assert code == 0
        fixture = paper_fixture("counterexample34")
        delta, _ = parse_complex_document((tmp_path / "counterexample34.json").read_text())
        assert delta == fixture.complex

    def test_unknown_name(self, tmp_path, capsys):
        code, out, err = run(capsys, "fixtures", "fig9", "--out", str(tmp_path))
        assert code == 3
        assert out == "" and "error:" in err


class TestInfoCommand:
    def test_fig1_census(self, fixture_dir, capsys):
        path = fixture_dir / "fig1.json"
        code, report, err = run_json(capsys, "info", str(path))
        assert code == 0
        assert report["command"] == "info"
        assert report["digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert report["verdicts"] == {
            "dim": 3,
            "num_facets": 2,
            "pure": True,
            "balanced": False,
            "relevant_facets": 2,
            "irrelevant_facets": 0,
            "gallery_connected": False,
            "codim": 2,
            "codim_affine": 2,
            "b_saturated": True,
        }
        assert "[vcmkit] info finished in" in err

    def test_impure_complex_raises_no_gallery(self, tmp_path, capsys):
        doc = complex_document(cx((2,), [(1, 0), (1, 1)], [(1, 2)]))
        path = write_doc(tmp_path, "impure.json", doc)
        code, report, _ = run_json(capsys, "info", path)
        assert code == 0
        assert report["verdicts"]["pure"] is False
        assert report["verdicts"]["gallery_connected"] is None

    def test_missing_file(self, tmp_path, capsys):
        code, out, err = run(capsys, "info", str(tmp_path / "nope.json"))
        assert code == 3 and "error:" in err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"shape": [1,')
        code, out, err = run(capsys, "info", str(path))
        assert code == 3 and "line 1 column" in err

    def test_deterministic_output(self, fixture_dir, capsys):
        path = str(fixture_dir / "fig1.json")
        _, out1, _ = run(capsys, "info", path)
        _, out2, _ = run(capsys, "info", path)
        assert out1 == out2
        assert out1.endswith("\n")

    def test_plain_output(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "info", str(fixture_dir / "fig1.json"), "--no-json")
        assert code == 0
        lines = out.splitlines()
        assert "command: info" in lines
        assert "verdicts.pure: True" in lines
        assert not out.startswith("{")


class TestCheckCmCommand:
    def test_fig1_is_not_cm(self, fixture_dir, capsys):
        code, report, _ = run_json(capsys, "check-cm", str(fixture_dir / "fig1.json"))
        assert code == 1
        assert report["field"] == "2"
        assert report["verdicts"] == {
            "reisner_cm": False,
            "witness": {"face": [[2, 0], [2, 1]], "index": 0},
            "pdim": 3,
            "codim_affine": 2,
            "pdim_cm": False,
            "agreement": True,
        }

    def test_cm_complex(self, tmp_path, capsys):
        path = write_doc(tmp_path, "edge.json",
                         complex_document(cx((1, 1), [(1, 0), (2, 0)])))
        code, report, _ = run_json(capsys, "check-cm", path, "--field", "Q")
        assert code == 0
        assert report["field"] == "Q"
        assert report["verdicts"]["reisner_cm"] is True
        assert report["verdicts"]["witness"] is None
        assert report["verdicts"]["agreement"] is True

    def test_bad_field(self, fixture_dir, capsys):
        code, _, err = run(capsys, "check-cm", str(fixture_dir / "fig1.json"),
                           "--field", "6")
        assert code == 3 and "not prime" in err

    @pytest.mark.parametrize("field", ["2", "Q"])
    def test_past_twenty_vertices(self, tmp_path, capsys, field):
        # The seeded (5,5,5,5) complex of the certify test plus the irrelevant
        # complex: 24 vertices and dimension 3, so the pdim sweep visits at
        # most sum_{j < 3} C(24, j) = 301 of the 2^24 vertex subsets.
        balanced = TestCertifyBalancedCommand.large_balanced("random (5,5,5,5)")
        u = union(balanced, irrelevant_complex(balanced.shape))
        path = write_doc(tmp_path, "union.json", complex_document(u))
        code, report, err = run_json(capsys, "check-cm", path, "--field", field)
        assert code == 0, err
        verdicts = report["verdicts"]
        assert verdicts["pdim"] == verdicts["codim_affine"] == 20
        assert verdicts["reisner_cm"] is True and verdicts["agreement"] is True

    def test_sweep_bound_exit(self, tmp_path, capsys):
        # One 7-vertex facet and 43 isolated points: more than 2^20 subsets.
        d = SimplicialComplex(Shape((49,)), (0b1111111,) + tuple(1 << b for b in range(7, 50)))
        path = write_doc(tmp_path, "wide.json", complex_document(d))
        code, out, err = run(capsys, "check-cm", path)
        assert code == 3 and out == ""
        assert "would visit 2369936 vertex subsets" in err


class TestCertifyBalancedCommand:
    def balanced_path(self, tmp_path):
        return write_doc(tmp_path, "balanced.json",
                         complex_document(cx((1, 1), [(1, 0), (2, 0)])))

    def test_certificate_and_recheck_loop(self, tmp_path, capsys):
        src = self.balanced_path(tmp_path)
        out_path = str(tmp_path / "report.json")
        code, report, _ = run_json(capsys, "certify-balanced", src, "--out", out_path)
        assert code == 0
        assert report["verdicts"] == {
            "codim": 2, "pdim": 2, "pdim_equals_codim": True, "order_length": 3}
        assert report["certificate"]["verdict"] is True
        assert report["certificate"]["evidence"]["kind"] == "shelling"

        code, recheck, _ = run_json(capsys, "certify-balanced", "--recheck", out_path)
        assert code == 0
        assert recheck["recheck"] == {"ok": True, "detail": None}

    def test_recheck_rejects_tampering(self, tmp_path, capsys):
        src = self.balanced_path(tmp_path)
        out_path = tmp_path / "report.json"
        run(capsys, "certify-balanced", src, "--out", str(out_path))
        data = json.loads(out_path.read_text())
        data["certificate"]["codim"] = 5
        out_path.write_text(json.dumps(data))
        code, recheck, _ = run_json(capsys, "certify-balanced", "--recheck", str(out_path))
        assert code == 1
        assert recheck["recheck"]["ok"] is False
        assert "recorded codim 5" in recheck["recheck"]["detail"]

    # SHA-256 of `certify-balanced --no-json` stdout, recorded before face
    # lists were written from masks: the plain lines must not change.
    PLAIN_DIGESTS = {
        (2, 2, 1, 0): ("8c7cb2a334463496c6299059667718b6803da843a5f0bd78b79dc7b578049862", 6),
        (1, 1): ("f8e68572044f77c27f519fe1272a02da9f1d2f96aa37d0226db49f394a97b9f9", 1),
    }

    @pytest.mark.parametrize("entries", sorted(PLAIN_DIGESTS))
    def test_plain_output(self, tmp_path, capsys, entries):
        digest, count = self.PLAIN_DIGESTS[entries]
        shape = Shape(entries)
        delta = SimplicialComplex(shape, tuple(
            random.Random(20261019).sample(shape.balanced_masks(), count)))
        src = write_doc(tmp_path, "balanced.json", complex_document(delta))
        out_path = tmp_path / "report.json"
        code, plain, _ = run(capsys, "certify-balanced", src, "--no-json", "--out", str(out_path))
        assert code == 0
        assert hashlib.sha256(plain.encode()).hexdigest() == digest
        code, text, _ = run(capsys, "certify-balanced", src)
        assert out_path.read_text() == text == dump_oracle(json.loads(text))
        lines = "".join(line + "\n" for line in _human_lines(json.loads(text)))
        assert plain == lines
        assert "certificate.evidence.order: [[[" in plain

    def test_unbalanced_input(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bad.json",
                         complex_document(cx((1, 1), [(1, 0), (1, 1)])))
        code, _, err = run(capsys, "certify-balanced", path)
        assert code == 3 and "not balanced" in err

    def test_file_required_without_recheck(self, capsys):
        code, _, err = run(capsys, "certify-balanced")
        assert code == 3 and "required unless --recheck" in err


    @staticmethod
    def large_balanced(name):
        if name == "random (5,5,5,5)":
            shape = Shape((5, 5, 5, 5))
            rng = random.Random(20261020)
            return SimplicialComplex(shape, tuple(rng.sample(shape.balanced_masks(), 40)))
        return cx((6, 6, 6), *[[(1, i), (2, j), (3, (i + j) % 7)]
                               for i in range(7) for j in range(7)])

    @pytest.mark.parametrize("name", ["random (5,5,5,5)", "Latin square on (6,6,6)"])
    def test_past_twenty_vertices(self, tmp_path, capsys, name):
        # 24 and 21 vertices: no subset sweep may run, and the shelling
        # check must stay near-linear in the 6.5k facets of the (5,5,5,5) union.
        src = write_doc(tmp_path, "large.json", complex_document(self.large_balanced(name)))
        out_path = str(tmp_path / "report.json")
        started = time.perf_counter()
        code, report, err = run_json(capsys, "certify-balanced", src, "--out", out_path)
        assert code == 0, err
        assert report["verdicts"]["pdim_equals_codim"] is True
        code, recheck, _ = run_json(capsys, "certify-balanced", "--recheck", out_path)
        assert code == 0
        assert recheck["recheck"] == {"ok": True, "detail": None}
        assert time.perf_counter() - started < 30.0


class TestSearchCommand:
    def test_counterexample_exhausts(self, fixture_dir, capsys):
        code, report, _ = run_json(
            capsys, "search", str(fixture_dir / "counterexample34.json"))
        assert code == 2
        assert report["status"] == "exhausted"
        assert report["reason"] == "no irrelevant candidate facets of required dimension"
        assert report["subsets_tested"] == 1
        assert report["certificate"] is None

    def test_certified_run_with_recheck_loop(self, tmp_path, capsys):
        src = write_doc(tmp_path, "pair.json", complex_document(
            cx((1, 1), [(1, 0), (2, 0)], [(1, 1), (2, 1)])))
        out_path = str(tmp_path / "search.json")
        code, report, _ = run_json(capsys, "search", src, "--out", out_path)
        assert code == 0
        assert report["status"] == "certified"
        assert report["subsets_tested"] == 2
        assert report["certificate"]["verdict"] is True
        assert report["certificate"]["evidence"]["kind"] == "pdim"

        code, recheck, _ = run_json(capsys, "search", "--recheck", out_path)
        assert code == 0
        assert recheck["recheck"]["ok"] is True

    def test_budget_exit(self, tmp_path, capsys):
        src = write_doc(tmp_path, "pair.json", complex_document(
            cx((1, 1), [(1, 0), (2, 0)], [(1, 1), (2, 1)])))
        code, report, _ = run_json(capsys, "search", src, "--budget", "1")
        assert code == 2
        assert report["status"] == "budget_exceeded"
        assert report["budget"] == 1

    def test_negative_budget_exit(self, tmp_path, capsys):
        src = write_doc(tmp_path, "pair.json", complex_document(
            cx((1, 1), [(1, 0), (2, 0)], [(1, 1), (2, 1)])))
        code, out, err = run(capsys, "search", src, "--budget", "-5")
        assert code == 3 and out == ""
        assert "budget must be nonnegative" in err

    def test_candidate_walk_bound_exit(self, tmp_path, capsys):
        facet = [(1, j) for j in range(8)] + [(2, j) for j in range(8)]
        src = write_doc(tmp_path, "wide.json", complex_document(cx((30, 30), facet)))
        code, out, err = run(capsys, "search", src)
        assert code == 3 and out == ""
        assert "candidate walk bound" in err

    def test_all_irrelevant_input(self, tmp_path, capsys):
        src = write_doc(tmp_path, "irr.json", complex_document(cx((1, 1), [(1, 0)])))
        code, _, err = run(capsys, "search", src)
        assert code == 3 and "nothing remains" in err


class TestVerifyComplexCommand:
    def test_fixture_matrices_pass(self, fixture_dir, capsys):
        for name in ("fig1", "counterexample34"):
            code, report, _ = run_json(
                capsys, "verify-complex", str(fixture_dir / f"{name}_matrices.json"))
            assert code == 0
            assert report["all_zero"] is True
            assert report["pairs"] == [{"pair": 0, "ok": True, "failures": []}]

    def test_corrupted_entry_is_located(self, tmp_path, capsys):
        doc = matrix_document(paper_fixture("counterexample34").presentation)
        assert doc["matrices"][1][6][4] == "-x_2_2"
        doc["matrices"][1][6][4] = "x_2_2"
        path = write_doc(tmp_path, "bad_matrices.json", doc)
        code, report, _ = run_json(capsys, "verify-complex", path)
        assert code == 1
        assert report["all_zero"] is False
        assert report["pairs"] == [{"pair": 0, "ok": False, "failures": [[2, 4]]}]

    def test_koszul_chains_report_the_dense_failures(self, tmp_path, capsys):
        rng = random.Random(20261021)
        shape = Shape((3, 3, 3))
        for m in (4, 6, 7):
            pres = koszul_presentation(shape, rng.sample(range(shape.num_vertices), m))
            for chain in (pres, flip_one_entry(pres, rng)):
                path = write_doc(tmp_path, f"koszul{m}.json", matrix_document(chain))
                code, report, _ = run_json(capsys, "verify-complex", path)
                want = compose_failures_dense(chain)
                assert code == (1 if want else 0)
                assert report["all_zero"] is not want
                assert report["pairs"] == [
                    {"pair": p, "ok": not bad, "failures": bad}
                    for p in range(len(chain.matrices) - 1)
                    for bad in [[[i, j] for kk, i, j in want if kk == p]]]

    def test_unparseable_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "nonsense.json"
        path.write_text('{"shape": [1], "ranks": [1, 1], "matrices": [[["y"]]]}')
        code, _, err = run(capsys, "verify-complex", str(path))
        assert code == 3 and "matrices[0][0][0]" in err


# -- report writer and parser ---------------------------------------------


class TestDumpAgainstJson:
    """_dump writes the bytes of json.dumps(indent=2, sort_keys=True)."""

    def test_seeded_nested_data(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            data = random_json(rng)
            assert _dump(data) == dump_oracle(data), data

    @pytest.mark.parametrize("data", [
        {}, [], "", 0, None, True, 2 ** 200, -(2 ** 64), 0.1, float("nan"), -float("inf"),
        {"a": {}, "b": [], "c": [[]], "d": [{}]},
        {"esc": "\"\\\n\r\t\b\f\x00\x7f", "text": "Schläfli € \U0001f600 \u2028"},
        {"\u00e9": 1, "e": 2, "E": 3, "": 4, "é\n": [1, 0]},
        [[1, 0], [True, 0], [1, False], [1, 0], (1, 0)],
        {"x": [[1, 0]], "y": [[[1, 0]]], "z": [1, 0]},
        [[[1, 0], [2, 3]], [[1, 0], [2, 3]]],
    ])
    def test_edge_cases(self, data):
        assert _dump(data) == dump_oracle(data)

    def test_non_string_keys_and_bad_values_go_to_json(self):
        data = {"a": [{2: "b", 1: [1, 0]}], "b": {False: 1, True: [2], 1.5: {}}}
        assert _dump({"a": data["a"]}) == dump_oracle({"a": data["a"]})
        assert _dump({"b": data["b"]}) == dump_oracle({"b": data["b"]})
        with pytest.raises(TypeError):
            dump_oracle({1: 0, "a": 0})
        with pytest.raises(TypeError):
            _dump({1: 0, "a": 0})
        with pytest.raises(TypeError, match="not JSON serializable"):
            _dump({"a": [1, {"b": object()}]})

    def test_fixture_documents(self):
        for name in FIXTURE_NAMES:
            fixture = paper_fixture(name)
            for doc in (complex_document(fixture.complex, fixture.labels),
                        matrix_document(fixture.presentation)):
                assert _dump(doc) == dump_oracle(doc)

    def test_certificate_report(self):
        shape = Shape((2, 2, 1))
        delta = SimplicialComplex(shape, tuple(
            random.Random(20261018).sample(shape.balanced_masks(), 7)))
        report = {"certificate": certificate_to_dict(certify_balanced(delta)), "digest": "0"}
        assert _dump(report) == dump_oracle(report)

    def test_fixtures_command_writes_the_oracle_bytes(self, tmp_path, capsys):
        for name in FIXTURE_NAMES:
            assert main(["fixtures", name, "--out", str(tmp_path)]) == 0
            for path in (tmp_path / f"{name}.json", tmp_path / f"{name}_matrices.json"):
                text = path.read_text()
                assert text == dump_oracle(json.loads(text))
        capsys.readouterr()


class TestFaceMasksAgainstJson:
    """Face lists written from masks carry json.dumps' bytes for the plain
    lists certificate_to_dict builds by default."""

    @staticmethod
    def certificates():
        rng = random.Random(20261019)
        for entries, count in [((2, 2, 1), 7), ((2, 2, 2), 12), ((3, 2, 1, 1), 20),
                               ((2, 2, 1, 0), 6), ((3, 3, 2, 0), 20), ((0, 2, 0, 1), 4),
                               ((0, 0), 1), ((0, 0, 0), 1), ((1,), 2), ((3, 0), 3),
                               ((4, 4, 4), 40)]:
            shape = Shape(entries)
            masks = shape.balanced_masks()
            yield certify_balanced(SimplicialComplex(shape, tuple(rng.sample(masks, count))))

    def test_certificate_reports(self):
        kinds = set()
        for cert in self.certificates():
            fast = {"certificate": certificate_to_dict(cert, face_list=_FaceMasks), "n": 1}
            plain = {"certificate": certificate_to_dict(cert), "n": 1}
            assert _dump(fast) == dump_oracle(plain), cert.delta.shape
            kinds.add((len(cert.evidence.order_masks) == 1,
                       not cert.delta_prime.facet_masks,
                       0 in cert.delta.shape.entries))
        # one-facet orders, empty delta_prime_facets, and cone shapes all occur
        assert {(True, True, True), (False, True, False), (False, False, True),
                (False, False, False)} <= kinds

    def test_any_indent_and_position(self):
        shape = Shape((2, 1, 0))
        masks = tuple(m for m in shape.balanced_masks())
        faces = _FaceMasks(shape, masks)
        plain = faces.as_json()
        assert plain == [[[v.component, v.index] for v in sorted(shape.face_from_mask(m))]
                         for m in masks]
        for wrap in (lambda x: x, lambda x: [x], lambda x: {"a": {"b": [1, x]}, "c": x},
                     lambda x: [[{"z": x}]]):
            assert _dump(wrap(faces)) == dump_oracle(wrap(plain))

    def test_empty_lists_and_the_empty_face(self):
        shape = Shape((1, 1))
        for masks in [(), (0,), (0b0101,), (0b0101, 0, 0b1010), (0b1111,)]:
            faces = _FaceMasks(shape, masks)
            assert _dump({"f": faces}) == dump_oracle({"f": faces.as_json()})

    def test_human_lines_see_plain_lists(self):
        cert = certify_balanced(SimplicialComplex(Shape((1, 1)), (0b0101,)))
        fast = {"certificate": certificate_to_dict(cert, face_list=_FaceMasks)}
        plain = {"certificate": certificate_to_dict(cert)}
        assert list(_human_lines(fast)) == list(_human_lines(plain))


class TestParser:
    def test_one_parser_per_process(self, fixture_dir, capsys):
        parser = _parser()
        assert run(capsys, "info", str(fixture_dir / "fig1.json"))[0] == 0
        assert _parser() is parser

    def test_parse_args_leaves_no_state(self):
        help_text = _parser().format_help()
        first = _parser().parse_args(["search", "a.json", "--budget", "5", "--field", "Q",
                                      "--no-json", "--out", "o.json"])
        again = _parser().parse_args(["search", "a.json"])
        assert (first.budget, first.field, first.json, first.out) == (5, "Q", False, "o.json")
        assert (again.budget, again.field, again.json, again.out) == (10 ** 6, "2", True, None)
        assert _parser().format_help() == help_text


# -- golden output --------------------------------------------------------
#
# SHA-256 of each run's exit code, stdout bytes and --out bytes (stderr
# carries only the timing line and is left out), so a change that alters
# any report byte or exit code on these runs fails here.

def _seeded_balanced(entries, count, seed):
    shape = Shape(entries)
    rng = random.Random(seed)
    return SimplicialComplex(shape, tuple(rng.sample(shape.balanced_masks(), count)))


GOLDEN_DOCUMENTS = {
    "balanced_221": lambda: complex_document(_seeded_balanced((2, 2, 1), 7, 20261018)),
    "balanced_202": lambda: complex_document(_seeded_balanced((2, 0, 2), 5, 20261019)),
    "pair": lambda: complex_document(cx((1, 1), [(1, 0), (2, 0)], [(1, 1), (2, 1)])),
}

GOLDEN_RUNS = {
    "info fig1": (["info", "{fig1}"], None),
    "info fig1 plain": (["info", "{fig1}", "--no-json"], None),
    "info c34": (["info", "{counterexample34}"], None),
    "info c34 plain": (["info", "{counterexample34}", "--no-json"], None),
    "check-cm fig1 GF(2)": (["check-cm", "{fig1}", "--field", "2"], None),
    "check-cm fig1 GF(3)": (["check-cm", "{fig1}", "--field", "3"], None),
    "check-cm fig1 Q": (["check-cm", "{fig1}", "--field", "Q"], None),
    "check-cm c34 GF(2)": (["check-cm", "{counterexample34}", "--field", "2"], None),
    "check-cm c34 GF(3)": (["check-cm", "{counterexample34}", "--field", "3"], None),
    "check-cm c34 Q": (["check-cm", "{counterexample34}", "--field", "Q"], None),
    "search fig1": (["search", "{fig1}"], None),
    "search c34": (["search", "{counterexample34}"], None),
    "search pair": (["search", "{pair}", "--out", "{out}"], "search_pair"),
    "search pair recheck": (["search", "--recheck", "{search_pair}"], None),
    "verify-complex fig1": (["verify-complex", "{fig1_matrices}"], None),
    "verify-complex c34": (["verify-complex", "{counterexample34_matrices}"], None),
    "certify (2,2,1)": (["certify-balanced", "{balanced_221}", "--out", "{out}"],
                        "cert_221"),
    "certify (2,2,1) recheck": (["certify-balanced", "--recheck", "{cert_221}"], None),
    "certify (2,0,2)": (["certify-balanced", "{balanced_202}", "--field", "3",
                         "--out", "{out}"], "cert_202"),
    "certify (2,0,2) recheck": (["certify-balanced", "--recheck", "{cert_202}"], None),
}

GOLDEN_DIGESTS = {
    'info fig1': '24a724a7d2383ad1390c8dee6c49bbf152a63c3f8cf5fdf0d707f6008b1d22ae',
    'info fig1 plain': 'bc38eaff05a1104024744cfaf95c60a41638a256e664ac8c89a92a93333efbab',
    'info c34': '3271e7a25af29a92eef2e0dccc5ba9d328b5787530c2462bb4a9863f8f4bcdd4',
    'info c34 plain': 'b61c09f42a78e4e8f8cea27d79592390cb4eae2b528caa7eb681913273ac493c',
    'check-cm fig1 GF(2)': '94794d9605a14c61fe7ed97c900cd2547acce58b6803c8f4e5d6393c32366a7c',
    'check-cm fig1 GF(3)': '33e2a103c6758c65e4d6c0a1c0e9a0418f5f8866a0246f5a57a2b185f6090408',
    'check-cm fig1 Q': '3de50e85ab424186b76aa0ee79441774a6bcabe9560241aa27b5b1131605f5f6',
    'check-cm c34 GF(2)': 'a88c6e607d2d04f2d0a233c6f1964d3fae098550611d07d6678bc9df7646239e',
    'check-cm c34 GF(3)': '7eefd129a95d3b6b8b218fe4cd67b65d32a53c9abbf3d9f6653bd435ac435dab',
    'check-cm c34 Q': '09a7e18075fe84dc47f5a72f878d33418ee81e62728b5179d55297cd170db824',
    'search fig1': '836b87801dbe682a91cbd7412cb0ae1eb1e0f8444416aeabbb6a8e12cde92ef9',
    'search c34': '14dd9586ea3549dcd19497ffd62d4db0a490c7185dce1781f3e49a1c5cfbff50',
    'search pair': 'c2af73d0dec564f278d03e0ddea72e6012693bf43191218434dab1158449e772',
    'search pair recheck': 'c72e3e892bd5baabe88ba0d7d7c5656e2e1fb2662e2e159b93fb3ed645cad61f',
    'verify-complex fig1': '1a3db41a700b2a25d72817cff0ce2f715af97770b1223515e88c9050a8a87d5b',
    'verify-complex c34': 'bdb5535775c71e60eb0f8deb5d448de4c1787fd012a4a99ef56c6c4c52d99f8e',
    'certify (2,2,1)': '28926becd4c20eab858222ca7cdf4595a434cfd0c4161ae152343021c0045977',
    'certify (2,2,1) recheck': '0e606d96763253aceffd2763c3a923cf8babdf89c53beff61f46408698e2058a',
    'certify (2,0,2)': 'e7d9252647c458061830bae566fd9f48ba40dfd9ae4d19d8bcff2cd3caf9bddf',
    'certify (2,0,2) recheck': '4242bd6f105cb25f1283b91da65386eba8a322e8d1de9174aaca581c47eb8a07',
}


def test_golden_output(tmp_path, capsys):
    paths = {}
    for name in ("fig1", "counterexample34"):
        assert main(["fixtures", name, "--out", str(tmp_path)]) == 0
        paths[name] = str(tmp_path / f"{name}.json")
        paths[f"{name}_matrices"] = str(tmp_path / f"{name}_matrices.json")
    capsys.readouterr()
    for name, build in GOLDEN_DOCUMENTS.items():
        paths[name] = write_doc(tmp_path, f"{name}.json", build())
    digests = {}
    for label, (argv, keep) in GOLDEN_RUNS.items():
        out_path = tmp_path / f"out_{len(digests)}.json"
        code = main([arg.format(out=out_path, **paths) for arg in argv])
        stdout = capsys.readouterr().out.encode("utf-8")
        blob = f"{code}\n".encode() + stdout
        if keep:
            written = out_path.read_bytes()
            assert written == stdout, label
            blob += b"--out\n" + written
            paths[keep] = str(out_path)
        digests[label] = hashlib.sha256(blob).hexdigest()
    assert digests == GOLDEN_DIGESTS
