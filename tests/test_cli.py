import hashlib
import json
import random
import time

import pytest

from vcmkit import Shape, SimplicialComplex
from vcmkit.cli import main
from vcmkit.documents import (
    complex_document,
    matrix_document,
    parse_complex_document,
    parse_matrix_document,
)
from vcmkit.vres import paper_fixture
from helpers import compose_failures_dense, cx, flip_one_entry, koszul_presentation


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
