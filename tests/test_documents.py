import json
import random
import re
import tracemalloc

import pytest

from vcmkit import (
    GF,
    Shape,
    SimplicialComplex,
    Vertex,
    certify_balanced,
    certify_vcm_via_union,
    union,
)
from vcmkit.documents import (
    DocumentError,
    _read_masks,
    certificate_from_dict,
    certificate_to_dict,
    complex_document,
    face_to_json,
    matrix_document,
    parse_complex_document,
    parse_matrix_document,
    recheck_certificate,
)
from helpers import (
    cx,
    flip_one_entry,
    koszul_presentation,
    outcome,
    parse_matrix_document_per_cell,
    random_odd_faces,
    random_presentation,
    read_masks_oracle,
)

V = Vertex


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


class TestComplexDocuments:
    def test_face_serialisation_is_sorted(self):
        face = frozenset({V(2, 1), V(1, 0), V(2, 0)})
        assert face_to_json(face) == [[1, 0], [2, 0], [2, 1]]

    def test_minimal_document(self):
        delta, labels = parse_complex_document(
            '{"shape": [1, 1], "facets": [[[1, 0], [2, 0]]]}')
        assert delta == cx((1, 1), [(1, 0), (2, 0)])
        assert labels is None

    def test_empty_face(self):
        delta, _ = parse_complex_document('{"shape": [1], "facets": [[]]}')
        assert delta.facet_masks == (0,)

    def test_round_trip_with_labels(self, fig1):
        doc = complex_document(fig1.complex, fig1.labels)
        delta, labels = parse_complex_document(dumps(doc))
        assert delta == fig1.complex
        assert labels == fig1.labels

    def test_serialisation_is_invariant_under_input_order(self, c34):
        shuffled = SimplicialComplex.from_facets(
            c34.complex.shape, list(reversed(c34.complex.facets)))
        assert dumps(complex_document(shuffled)) == dumps(complex_document(c34.complex))

    @pytest.mark.parametrize("text,fragment", [
        ('{"shape": [1, 1]', "line 1 column"),
        ('[1, 2]', "top level: expected an object"),
        ('{"shape": [1], "facets": [[]], "extra": 0}', "unknown keys: extra"),
        ('{"facets": [[]]}', "missing key: shape"),
        ('{"shape": [1]}', "missing key: facets"),
        ('{"shape": [], "facets": [[]]}', "shape: expected a non-empty list"),
        ('{"shape": [1, -1], "facets": [[]]}', "shape[1]: expected a non-negative"),
        ('{"shape": [1, "x"], "facets": [[]]}', "shape[1]: expected a non-negative"),
        ('{"shape": [1], "facets": []}', "facets: expected a non-empty list"),
        ('{"shape": [1], "facets": [0]}', "facets[0]: expected a list"),
        ('{"shape": [1], "facets": [[[1]]]}', "facets[0][0]: expected a [component, index]"),
        ('{"shape": [1], "facets": [[[2, 0]]]}', "facets[0][0]: vertex x_2_0"),
        ('{"shape": [1], "facets": [[[1, 0], [1, 0]]]}', "facets[0]: repeated vertex"),
        ('{"shape": [1], "facets": [[]], "labels": 3}', "labels: expected an object"),
        ('{"shape": [1], "facets": [[[1, 0]]], "labels": {"a": [1, 9]}}',
         "labels['a']: vertex x_1_9"),
    ])
    def test_positioned_errors(self, text, fragment):
        with pytest.raises(DocumentError) as err:
            parse_complex_document(text)
        assert fragment in str(err.value)

    def test_label_coverage(self):
        base = '{"shape": [1], "facets": [[[1, 0]]], "labels": %s}'
        with pytest.raises(DocumentError, match="differ from the vertices in use"):
            parse_complex_document(base % '{"a": [1, 1]}')
        with pytest.raises(DocumentError, match="differ from the vertices in use"):
            parse_complex_document(base % '{"a": [1, 0], "b": [1, 1]}')
        with pytest.raises(DocumentError, match="same vertex"):
            parse_complex_document(
                '{"shape": [1], "facets": [[[1, 0], [1, 1]]], '
                '"labels": {"a": [1, 0], "b": [1, 0]}}')

    def test_labels_for_unused_shape_vertices_are_rejected(self):
        # Only vertices appearing in facets may carry labels.
        delta, labels = parse_complex_document(
            '{"shape": [2], "facets": [[[1, 0], [1, 1]]], '
            '"labels": {"p": [1, 0], "q": [1, 1]}}')
        assert labels == {"p": V(1, 0), "q": V(1, 1)}


class TestReadMasksAgainstOracle:
    """_read_masks reads faces through Shape.mask_of_pairs; the oracle
    reads every vertex through _read_face.  Both must give equal masks or
    the same DocumentError text."""

    SHAPES = [(1,), (1, 1), (2, 0, 1), (0, 0), (3, 2)]

    def test_seeded_malformed_faces(self):
        rng = random.Random(20261018)
        errors = 0
        for entries in self.SHAPES:
            shape = Shape(entries)
            for _ in range(300):
                faces = random_odd_faces(shape, rng, rng.randint(1, 4))
                want = outcome(read_masks_oracle, faces, shape, "facets")
                assert outcome(_read_masks, faces, shape, "facets") == want, (entries, faces)
                errors += want[0] == "raise"
        assert 300 < errors < 1200  # both outcomes are exercised

    @pytest.mark.parametrize("face,message", [
        ([[True, 0], [2, 0]], None),
        ([[1, 0.0]], "facets[0][0]: expected a [component, index] integer pair, got [1, 0.0]"),
        ([["1", 0]], "facets[0][0]: expected a [component, index] integer pair, got ['1', 0]"),
        ([[1, 0, 0]], "facets[0][0]: expected a [component, index] integer pair, got [1, 0, 0]"),
        ([[1, 0], [1, 0]], "facets[0]: repeated vertex"),
        ([[True, 0], [1, 0]], "facets[0]: repeated vertex"),
        ([[3, 0]], "facets[0][0]: vertex x_3_0 does not live on shape (1,1)"),
        ([[1, 2]], "facets[0][0]: vertex x_1_2 does not live on shape (1,1)"),
        ([[1, -1]], "facets[0][0]: vertex x_1_-1 does not live on shape (1,1)"),
        ({"a": 1}, "facets[0]: expected a list of vertices"),
        (3, "facets[0]: expected a list of vertices"),
    ])
    def test_named_cases(self, face, message):
        shape = Shape((1, 1))
        got = outcome(_read_masks, [face], shape, "facets")
        assert got == outcome(read_masks_oracle, [face], shape, "facets")
        if message is None:
            assert got == ("ok", (0b101,))
        else:
            assert got == ("raise", DocumentError, message)

    @pytest.mark.parametrize("entries", [(1,), (1, 1), (2, 0, 1), (0, 0), (3, 2), (0, 3, 0)])
    def test_mask_of_pairs_reads_exactly_the_plain_faces(self, entries):
        # Shape.mask_of_pairs reads a face iff it is a list of exact-int
        # [component, index] lists on the shape with no vertex repeated, and
        # then gives the oracle's mask; it refuses everything else.
        shape = Shape(entries)
        rng = random.Random(20261021)
        odd = [[True, 0], [1, False], [1.0, 0], [1, 0.0], [0, 0], [1, -1],
               [shape.r + 1, 0], [1, shape.entries[0] + 1]]
        faces = random_odd_faces(shape, rng, 300)
        for _ in range(200):
            size = rng.randint(1, shape.num_vertices)
            face = [list(v) for v in rng.sample(shape.vertices(), size)]
            kind = rng.randrange(3)
            if kind == 1:
                face[rng.randrange(len(face))] = list(rng.choice(odd))
            elif kind == 2:
                face.append(list(rng.choice(face)))
            faces.append(face)
        read = 0
        for face in faces:
            want = outcome(read_masks_oracle, [face], shape, "facets")
            plain = (type(face) is list
                     and all(type(v) is list and len(v) == 2 and type(v[0]) is int
                             and type(v[1]) is int for v in face)
                     and want[0] == "ok" and want[1][0].bit_count() == len(face))
            got = shape.mask_of_pairs(face)
            assert got == (want[1][0] if plain else None), (entries, face)
            read += got is not None
        assert 100 < read < len(faces) - 100  # both outcomes are exercised

    def test_wide_shape_parses_in_constant_memory(self):
        # One facet on (20000, 0): reading it builds nothing per vertex of
        # the shape.
        text = json.dumps({"shape": [20000, 0], "facets": [[[1, 0], [1, 20000], [2, 0]]]})
        tracemalloc.start()
        try:
            delta, _ = parse_complex_document(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert delta.facet_masks == (1 | 1 << 20000 | 1 << 20001,)
        assert peak < 1 << 20, peak

    def test_shape_past_the_bound_is_a_located_error(self):
        # 2**20 + 1 vertices: refused before any vertex is read.
        text = json.dumps({"shape": [1 << 20, 0], "facets": [[[1, 0], [2, 0]]]})
        message = "^shape: 1048578 vertices exceed the max_shape_vertices=1048576 shape bound$"
        with pytest.raises(DocumentError, match=message):
            parse_complex_document(text)
        data = certificate_to_dict(shelling_certificate())
        data["shape"] = [1 << 20, 0]
        ok, detail = recheck_certificate(data)
        assert not ok and re.match(message, detail)

    def test_order_read_from_masks(self):
        data = certificate_to_dict(shelling_certificate())
        data["evidence"]["order"][1] = [[1, 0], [1, 0]]
        with pytest.raises(DocumentError, match=r"^evidence.order\[1\]: repeated vertex$"):
            certificate_from_dict(data)
        data["evidence"]["order"][1] = [[1, 0], [2, 9]]
        with pytest.raises(DocumentError, match=r"^evidence.order\[1\]\[1\]: vertex x_2_9"):
            certificate_from_dict(data)


class TestMatrixDocuments:
    def test_round_trip(self, fig1, c34):
        for pres in (fig1.presentation, c34.presentation):
            again = parse_matrix_document(dumps(matrix_document(pres)))
            assert again == pres

    def test_rendered_entries_are_strings(self, fig1):
        doc = matrix_document(fig1.presentation)
        assert doc["ranks"] == [2, 4, 2]
        assert doc["matrices"][0][0][0] == "0"
        assert all(isinstance(cell, str)
                   for mat in doc["matrices"] for row in mat for cell in row)

    @pytest.mark.parametrize("text,fragment", [
        ('{"shape": [1], "ranks": [1]}', "missing key: matrices"),
        ('{"shape": [1], "ranks": "x", "matrices": []}', "ranks: expected a list"),
        ('{"shape": [1], "ranks": [1, 1], "matrices": [0]}',
         "matrices[0]: expected a list of rows"),
        ('{"shape": [1], "ranks": [1, 1], "matrices": [[0]]}',
         "matrices[0][0]: expected a list of entries"),
        ('{"shape": [1], "ranks": [1, 1], "matrices": [[[0]]]}',
         "matrices[0][0][0]: expected a string"),
        ('{"shape": [1], "ranks": [1, 1], "matrices": [[["y"]]]}',
         "matrices[0][0][0]: cannot read factor 'y'"),
        ('{"shape": [1], "ranks": [1, 1], "matrices": []}', "2 ranks need 1 matrices"),
        ('{"shape": [1], "ranks": [1, 2], "matrices": [[["x_1_0"]]]}',
         "row 0 has 1 entries, expected 2"),
    ])
    def test_positioned_errors(self, text, fragment):
        with pytest.raises(DocumentError) as err:
            parse_matrix_document(text)
        assert fragment in str(err.value)

    def test_serialisation_is_deterministic(self, c34):
        assert dumps(matrix_document(c34.presentation)) == dumps(
            matrix_document(c34.presentation))


class TestMatrixParseAgainstPerCell:
    """parse_matrix_document, which parses each distinct cell text once,
    against parsing every cell on its own."""

    @staticmethod
    def presentations():
        rng = random.Random(20261018)
        for entries in [(1, 1), (2, 1), (2, 2, 1)]:
            shape = Shape(entries)
            for _ in range(4):
                n = shape.num_vertices
                pres = koszul_presentation(shape, rng.sample(range(n), rng.randint(1, min(n, 5))))
                yield pres
                yield flip_one_entry(pres, rng)
            for _ in range(8):
                yield random_presentation(shape, rng)

    def test_seeded_documents(self):
        count = 0
        for pres in self.presentations():
            text = dumps(matrix_document(pres))
            parsed = parse_matrix_document(text)
            assert parsed == parse_matrix_document_per_cell(text) == pres
            count += 1
        assert count == 48

    def test_equal_texts_share_one_polynomial(self):
        pres = koszul_presentation(Shape((2, 1)), [0, 1, 3])
        cells = [cell for mat in parse_matrix_document(dumps(matrix_document(pres)))
                 .matrices for row in mat for cell in row]
        assert len({id(c) for c in cells}) == len({repr(c) for c in cells}) < len(cells)

    def test_repeated_bad_cell_names_its_first_position(self):
        rng = random.Random(89)
        bad_texts = ["y", "x_9_0", "x_1_0+", "--1", "x_1_0**2", " ", "", 7, None, ["0"]]
        for _ in range(300):
            pres = koszul_presentation(Shape((2, 1)), rng.sample(range(5), rng.randint(2, 4)))
            doc = matrix_document(pres)
            cells = [(k, i, j) for k, mat in enumerate(doc["matrices"])
                     for i, row in enumerate(mat) for j, _ in enumerate(row)]
            bad = rng.choice(bad_texts)
            for k, i, j in rng.sample(cells, min(len(cells), rng.randint(1, 4))):
                doc["matrices"][k][i][j] = bad
            if rng.random() < 0.3:
                k, i, j = rng.choice(cells)
                doc["matrices"][k][i][j] = rng.choice(bad_texts)
            text = json.dumps(doc)
            got = outcome(parse_matrix_document, text)
            assert got[0] == "raise" and got[1] is DocumentError
            assert got == outcome(parse_matrix_document_per_cell, text)


def shelling_certificate():
    return certify_balanced(cx((1, 1), [(1, 0), (2, 0)]))


def pdim_certificate():
    delta = cx((1, 1), [(1, 0), (2, 0)], [(1, 1), (2, 1)])
    prime = cx((1, 1), [(1, 0), (1, 1)])
    return certify_vcm_via_union(delta, prime, GF(2))


class TestCertificateDocuments:
    def test_shelling_round_trip(self):
        cert = shelling_certificate()
        data = json.loads(dumps(certificate_to_dict(cert)))
        assert certificate_from_dict(data) == cert

    def test_pdim_round_trip(self):
        cert = pdim_certificate()
        data = json.loads(dumps(certificate_to_dict(cert)))
        assert certificate_from_dict(data) == cert

    def test_recheck_accepts_both_kinds(self):
        for cert in (shelling_certificate(), pdim_certificate()):
            ok, detail = recheck_certificate(certificate_to_dict(cert))
            assert ok and detail is None

    def test_recheck_rejects_wrong_codim(self):
        data = certificate_to_dict(shelling_certificate())
        data["codim"] = 3
        ok, detail = recheck_certificate(data)
        assert not ok and detail == "recorded codim 3 != recomputed 2"

    def test_recheck_rejects_scrambled_order(self):
        data = certificate_to_dict(shelling_certificate())
        data["evidence"]["order"] = data["evidence"]["order"][::-1]
        ok, detail = recheck_certificate(data)
        assert not ok and "shelling check fails at step" in detail

    def test_recheck_rejects_truncated_order(self):
        data = certificate_to_dict(shelling_certificate())
        data["evidence"]["order"] = data["evidence"]["order"][:-1]
        ok, detail = recheck_certificate(data)
        assert not ok and "exactly once" in detail

    def test_recheck_rejects_relevant_augmentation(self):
        data = certificate_to_dict(shelling_certificate())
        data["delta_prime_facets"].append([[1, 1], [2, 1]])
        ok, detail = recheck_certificate(data)
        assert not ok and detail == "augmentation contains a relevant facet"

    def test_recheck_rejects_flipped_shelling_verdict(self):
        data = certificate_to_dict(shelling_certificate())
        data["verdict"] = False
        ok, detail = recheck_certificate(data)
        assert not ok and detail == "verified shelling with a false verdict"

    def test_recheck_rejects_tampered_pdim(self):
        data = certificate_to_dict(pdim_certificate())
        data["evidence"]["pdim"] = 5
        ok, detail = recheck_certificate(data)
        assert not ok and detail == "recorded pdim 5 != recomputed 2"

    def test_recheck_rejects_tampered_codim_affine(self):
        data = certificate_to_dict(pdim_certificate())
        data["evidence"]["codim_affine"] = 9
        ok, detail = recheck_certificate(data)
        assert not ok and "codim_affine 9" in detail

    def test_recheck_rejects_inconsistent_pdim_verdict(self):
        data = certificate_to_dict(pdim_certificate())
        data["verdict"] = False
        ok, detail = recheck_certificate(data)
        assert not ok and detail == "verdict does not match pdim == codim"

    def test_recheck_reports_parse_problems(self):
        ok, detail = recheck_certificate({"shape": [1, 1]})
        assert not ok and "missing key" in detail

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.pop("verdict"), "missing key verdict"),
        (lambda d: d.update(verdict="yes"), "verdict: expected a boolean"),
        (lambda d: d.update(codim="two"), "codim: expected an integer"),
        (lambda d: d.update(delta_facets=[]), "delta_facets: expected a non-empty list"),
        (lambda d: d["evidence"].update(kind="magic"), "unknown kind 'magic'"),
    ])
    def test_from_dict_validation(self, mutate, fragment):
        data = certificate_to_dict(shelling_certificate())
        mutate(data)
        with pytest.raises(DocumentError) as err:
            certificate_from_dict(data)
        assert fragment in str(err.value)

    def test_from_dict_field_validation(self):
        data = certificate_to_dict(pdim_certificate())
        data["evidence"]["field"] = "six"
        with pytest.raises(DocumentError, match="evidence.field"):
            certificate_from_dict(data)

    def test_dict_shape_is_stable(self):
        data = certificate_to_dict(shelling_certificate())
        assert set(data) == {"shape", "delta_facets", "delta_prime_facets",
                             "verdict", "codim", "evidence"}
        assert data["evidence"]["kind"] == "shelling"
        assert dumps(data) == dumps(certificate_to_dict(shelling_certificate()))


class TestRecheckIgnoresListOrder:
    """A certificate's two facet lists are sets: their order and repeats do
    not change a recheck, and a recheck never sorts a complex."""

    @staticmethod
    def shuffled_certificate(seed):
        rng = random.Random(seed)
        shape = Shape((2, 2, 1))
        delta = SimplicialComplex(shape, tuple(rng.sample(shape.balanced_masks(), 7)))
        data = json.loads(dumps(certificate_to_dict(certify_balanced(delta))))
        for key in ("delta_facets", "delta_prime_facets"):
            faces = data[key]
            faces.append(rng.choice(faces))
            rng.shuffle(faces)
        return data

    def test_shuffled_lists_with_a_repeat_recheck(self):
        for seed in range(5):
            assert recheck_certificate(self.shuffled_certificate(seed)) == (True, None)

    def test_relevant_augmentation_still_fails(self):
        data = self.shuffled_certificate(0)
        data["delta_prime_facets"].insert(3, data["delta_facets"][0])
        assert recheck_certificate(data) == (False, "augmentation contains a relevant facet")

    def test_recheck_and_union_sort_nothing(self, monkeypatch):
        data = self.shuffled_certificate(1)
        a = cx((2, 1), [(1, 0), (2, 0)], [(1, 1), (2, 1)])
        b = cx((2, 1), [(1, 2), (2, 0)], [(1, 0), (1, 1)])
        calls = []
        bits_key = Shape.bits_key

        def counted(self, mask):
            calls.append(mask)
            return bits_key(self, mask)

        monkeypatch.setattr(Shape, "bits_key", counted)
        assert recheck_certificate(data) == (True, None)
        joined = union(a, b)
        assert calls == []
        assert len(joined.facet_masks) == 4 and calls  # the counter does count
