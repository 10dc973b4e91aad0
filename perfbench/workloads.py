"""The four workloads: seeded rounds of operations, and their checks.

Every round of a workload runs the same list of operation slots on fresh
seeded inputs, so a run's failed share is the same whatever its length.
CLI operations go through vcmkit.cli.main in this process with their
stdout captured; library operations call the public functions, looked up
on the package at call time so a traced run can wrap them.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import traceback

import checks
import gen
import vcmkit
import vcmkit.cli

HERE = os.path.dirname(os.path.abspath(__file__))


class Op:
    """One timed operation.  run() returns its raw result; check(result)
    returns (failed, problems) after the timed region; after(result), if
    set, runs untimed straight after the operation."""

    def __init__(self, kind, run, check, after=None):
        self.kind, self.run, self.check, self.after = kind, run, check, after


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = vcmkit.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # reported by the op's check as an unexpected failure
        code, err = None, io.StringIO(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def call_library(fn):
    try:
        return fn(), None
    except Exception:  # reported by the op's check as an unexpected failure
        return None, traceback.format_exc()


def digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def masks_of(faces, entries):
    return [gen.json_to_mask(f, entries) for f in faces]


def cli_report(result, codes):
    """Parse a CLI result; (failed, problems, report)."""
    code, out, err = result
    if code not in codes:
        return True, [f"exit code {code}: {err.strip()[-300:]}"], None
    try:
        return False, [], json.loads(out)
    except ValueError:
        return False, ["stdout is not one JSON report"], None


class Workload:
    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.seen = set()
        self.count = 0

    def rng(self, rnd):
        return random.Random(self.seed * 1_000_003 + rnd)

    def write(self, doc):
        """Write a document under a neutral name; return its path."""
        self.count += 1
        path = os.path.join(self.workdir, f"d{self.count:05d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(gen.dump(doc))
        return path

    def fresh(self, entries, draw):
        """Call draw() until it gives facet masks not used before in this run."""
        while True:
            masks = draw()
            key = (tuple(entries), tuple(sorted(masks)))
            if key not in self.seen:
                self.seen.add(key)
                return masks

    def out_path(self):
        self.count += 1
        return os.path.join(self.workdir, f"r{self.count:05d}.json")


# -- certify ---------------------------------------------------------------


class Certify(Workload):
    # (shape, balanced facets); two shapes carry a zero entry (the cone path).
    SMALL = (((2, 2, 2), 8), ((2, 2, 1, 0), 6), ((1, 1, 1, 1, 1), 10), ((3, 2, 2), 11),
             ((3, 3, 2), 14), ((3, 3, 3), 19), ((3, 3, 2, 0), 14))
    LARGE = (((4, 4, 4), 38), ((3, 3, 3, 3), 77), ((5, 5, 5), 65))  # 15, 16, 18 vertices
    FAULT = (6, 6, 6)  # 21 vertices: fails on the 20-vertex Hochster guard

    def round_ops(self, rnd):
        rng = self.rng(rnd)
        ops = []
        for entries, k in self.SMALL:
            masks = self.fresh(entries, lambda: gen.random_balanced(entries, k, rng))
            ops += self.certify_ops(entries, masks, recheck=True)
        ops.append(self.reversed_recheck_op(ops[-2]))
        for entries, k in self.LARGE:
            masks = self.fresh(entries, lambda: gen.random_balanced(entries, k, rng))
            ops += self.shelling_ops(entries, masks)
        ops += self.certify_ops(self.FAULT, gen.latin_balanced(self.FAULT), recheck=False)
        return ops

    def certify_ops(self, entries, masks, recheck):
        doc = self.write(gen.complex_doc(entries, masks))
        report = self.out_path()

        def check(result):
            code, _, err = result
            if (code == 3 and gen.num_vertices(entries) > 20
                    and "exceed the max_vertices" in err):
                return True, []  # the known fault: pdim recomputed past its guard
            failed, problems, rep = cli_report(result, {0})
            if rep is None:
                return failed, problems
            with open(report, encoding="utf-8") as handle:
                if json.load(handle) != rep:
                    problems.append("--out file differs from stdout")
            if rep.get("digest") != digest(doc):
                problems.append("digest mismatch")
            cert = rep["certificate"]
            problems += certificate_problems(entries, masks, cert["delta_prime_facets"],
                                             cert["evidence"].get("order"), cert["codim"])
            if rep["verdicts"]["codim"] != cert["codim"] or cert["verdict"] is not True:
                problems.append("report verdicts disagree with the certificate")
            if sorted(masks_of(cert["delta_facets"], entries)) != sorted(masks):
                problems.append("certificate delta differs from the input")
            return False, problems

        ops = [Op("certify", lambda: call_cli(["certify-balanced", doc, "--out", report]), check)]
        if recheck:
            ops.append(recheck_op(report))
        return ops

    def reversed_recheck_op(self, certify_op):
        """--recheck of certify_op's certificate with its order reversed; the
        verdict must match the independent shelling check."""
        target = self.out_path()
        expect = {}

        def tamper(result):  # runs untimed, straight after certify_op
            if result[0] != 0:
                return
            report = json.loads(result[1])
            order = report["certificate"]["evidence"]["order"]
            order.reverse()
            expect["ok"] = checks.restriction_sets(
                masks_of(order, report["certificate"]["shape"]))[0] is None
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(report, handle)

        def check(result):
            failed, problems, rep = cli_report(result, {0, 1})
            if rep is not None and rep["recheck"]["ok"] != expect.get("ok"):
                problems.append(f"reversed order: recheck says {rep['recheck']}, "
                                f"the shelling check says ok={expect.get('ok')}")
            return failed, problems

        certify_op.after = tamper
        return Op("recheck", lambda: call_cli(["certify-balanced", "--recheck", target]), check)

    def shelling_ops(self, entries, masks):
        facets = [gen.face_to_json(m, entries) for m in masks]
        cert_doc = self.out_path()
        held = {}

        def run():
            return call_library(lambda: vcmkit.balanced_vcm_certificate(
                vcmkit.SimplicialComplex.from_facets(vcmkit.Shape(entries), facets)))

        def after(result):
            cert, _ = result
            if cert is None:
                return
            held["prime"] = [sorted(list(v) for v in f) for f in cert.delta_prime.facets]
            held["order"] = [sorted(list(v) for v in f) for f in cert.order]
            with open(cert_doc, "w", encoding="utf-8") as handle:
                json.dump({"shape": list(entries), "delta_facets": facets,
                           "delta_prime_facets": held["prime"], "verdict": True,
                           "codim": checks.codim(entries, masks),
                           "evidence": {"kind": "shelling", "order": held["order"]}}, handle)

        def check(result):
            if result[0] is None:
                return True, ["balanced_vcm_certificate raised: " + result[1][-300:]]
            return False, certificate_problems(entries, masks, held["prime"], held["order"],
                                               checks.codim(entries, masks))

        return [Op("shelling", run, check, after), recheck_op(cert_doc)]


def recheck_op(path):
    def check(result):
        failed, problems, rep = cli_report(result, {0})
        if rep is not None and rep["recheck"] != {"ok": True, "detail": None}:
            problems.append(f"recheck reports {rep['recheck']}")
        return failed, problems
    return Op("recheck", lambda: call_cli(["certify-balanced", "--recheck", path]), check)


def certificate_problems(entries, delta, prime_faces, order_faces, cert_codim):
    prime = masks_of(prime_faces, entries)
    if order_faces is None:
        return ["certificate has no shelling order"]
    order = masks_of(order_faces, entries)
    problems = checks.irrelevance_problems(entries, delta, prime)
    problems += checks.shelling_problems(order, set(delta) | set(prime))
    if cert_codim != checks.codim(entries, delta):
        problems.append(f"codim {cert_codim} != {checks.codim(entries, delta)}")
    return problems


# -- check_cm --------------------------------------------------------------


class CheckCm(Workload):
    FIELDS = (("2", "check_cm_gf2"), ("3", "check_cm_gf3"), ("Q", "check_cm_q"))
    UNIONS = (((2, 2, 2), 8), ((3, 2, 2), 11), ((3, 3, 2), 14))  # 9, 10, 11 vertices
    DISCONNECTED = ((4, 4), (3, 3, 3))  # 10 and 12 vertices, triangles
    RANDOM = (((4, 4), 10, 4), ((4, 5), 12, 3))
    RP2_SHAPE = (2, 2, 2)

    def round_ops(self, rnd):
        rng = self.rng(rnd)
        inputs = []
        for entries, k in self.UNIONS:
            irr = gen.irrelevant_facets(entries)
            masks = self.fresh(entries, lambda: gen.random_balanced(entries, k, rng) + irr)
            inputs.append(("shellable", entries, masks))
        for entries in self.DISCONNECTED:
            n = gen.num_vertices(entries)
            inputs.append(("disconnected", entries, self.fresh(entries, lambda: gen.covering(
                n, lambda: gen.disconnected_pure(n, 5, 3, rng)))))
        for entries, k, size in self.RANDOM:
            n = gen.num_vertices(entries)
            inputs.append(("random", entries, self.fresh(entries, lambda: gen.covering(
                n, lambda: gen.random_pure(n, k, size, rng)))))
        n = gen.num_vertices(self.RP2_SHAPE)
        inputs.append(("rp2", self.RP2_SHAPE,
                       self.fresh(self.RP2_SHAPE, lambda: gen.rp2_on(n, rng))))
        ops = []
        for kind, entries, masks in inputs:
            doc = self.write(gen.complex_doc(entries, masks))
            for field, op_kind in self.FIELDS:
                ops.append(Op(op_kind,
                              lambda doc=doc, field=field:
                              call_cli(["check-cm", doc, "--field", field]),
                              self.checker(kind, entries, masks, doc, field)))
        return ops

    @staticmethod
    def checker(kind, entries, masks, doc, field):
        def check(result):
            failed, problems, rep = cli_report(result, {0, 1})
            if rep is None:
                return failed, problems
            v = rep["verdicts"]
            cm = v["reisner_cm"]
            if result[0] != (0 if cm else 1):
                problems.append("exit code disagrees with the verdict")
            if rep["digest"] != digest(doc) or rep["field"] != field:
                problems.append("digest or field label mismatch")
            ca = checks.codim_affine(entries, masks)
            if v["codim_affine"] != ca:
                problems.append(f"codim_affine {v['codim_affine']} != {ca}")
            if v["pdim"] < ca:
                problems.append(f"pdim {v['pdim']} < codim_affine {ca}")
            if cm != (v["pdim"] == ca) or v["agreement"] is not True \
                    or v["pdim_cm"] != (v["pdim"] == ca):
                problems.append(f"Reisner and pdim verdicts disagree: {v}")
            expect = {"shellable": (True, None),
                      "disconnected": (False, {"face": [], "index": 0}),
                      "rp2": ((True, None) if field != "2"
                              else (False, {"face": [], "index": 1}))}.get(kind)
            if expect and (cm, v["witness"]) != expect:
                problems.append(f"{kind} input over {field}: got {(cm, v['witness'])}, "
                                f"expected {expect}")
            return False, problems
        return check


# -- search ----------------------------------------------------------------


class Search(Workload):
    BUDGET = 1000
    # Per round: 4 complexes certified by three added facets, 2 exhausted
    # searches, and 1 exhausted-class complex stopped by the budget.
    SLOTS = (("certified_3", None),) * 4 + (("exhausted", None),) * 2 + (("exhausted", BUDGET),)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        with open(os.path.join(HERE, "search_pool.json"), encoding="utf-8") as handle:
            pool = json.load(handle)
        self.entries = tuple(pool["shape"])
        order = random.Random(seed)
        self.queues = {}
        for cls in ("certified_3", "exhausted"):
            items = list(pool[cls])
            order.shuffle(items)
            self.queues[cls] = items
        self.drawn = {cls: 0 for cls in self.queues}

    def round_ops(self, rnd):
        rng = self.rng(rnd)
        ops = []
        for cls, budget in self.SLOTS:
            queue = self.queues[cls]
            base = queue[self.drawn[cls] % len(queue)]
            self.drawn[cls] += 1
            masks = self.fresh(self.entries, lambda: gen.relabel(
                base, gen.shape_relabelling(self.entries, rng)))
            doc = self.write(gen.complex_doc(self.entries, masks))
            argv = ["search", doc, "--field", "2"]
            if budget:
                argv += ["--budget", str(budget)]
            ops.append(Op("search", lambda argv=argv: call_cli(argv),
                          self.checker(cls, budget, masks, doc)))
        return ops

    def checker(self, cls, budget, masks, doc):
        entries = self.entries

        def check(result):
            failed, problems, rep = cli_report(result, {0, 2})
            if rep is None:
                return failed, problems
            if rep["digest"] != digest(doc):
                problems.append("digest mismatch")
            c = checks.candidate_count(entries, masks)
            status, tested = rep["status"], rep["subsets_tested"]
            if budget:
                if (status, tested) != ("budget_exceeded", budget):
                    problems.append(f"budget {budget}: got {status} after {tested}")
            elif cls == "exhausted":
                if (status, tested) != ("exhausted", 2 ** c):
                    problems.append(f"expected exhausted after {2 ** c}, got {status} "
                                    f"after {tested}")
            else:
                problems += self.certified_problems(rep, c, masks)
            if result[0] != (0 if status == "certified" else 2):
                problems.append("exit code disagrees with the status")
            return False, problems
        return check

    def certified_problems(self, rep, c, masks):
        entries = self.entries
        if rep["status"] != "certified":
            return [f"expected a certificate, got {rep['status']}"]
        cert = rep["certificate"]
        prime = masks_of(cert["delta_prime_facets"], entries)
        s = len(prime)
        low, high = checks.certified_window(c, s)
        problems = []
        if s != 3:
            problems.append(f"certified with {s} added facets, expected 3")
        if not low < rep["subsets_tested"] <= high:
            problems.append(f"{rep['subsets_tested']} subsets tested outside ({low}, {high}]")
        problems += checks.irrelevance_problems(entries, masks, prime)
        union = sorted(set(masks) | set(prime))
        if min(checks.h_vector(union)) < 0:
            problems.append("certified union has a negative h-vector")
        cd = checks.codim(entries, masks)
        ev = cert["evidence"]
        if (cert["codim"], ev["pdim"], ev["codim_affine"], cert["verdict"]) != (cd, cd, cd, True):
            problems.append(f"certificate codim/pdim {cert['codim']}/{ev['pdim']} != {cd}")
        return problems


# -- algebra ---------------------------------------------------------------


class Algebra(Workload):
    SR = (((3, 3, 3), 19), ((4, 3, 3), 24), ((4, 4, 3), 30))  # 12, 13, 14 vertices
    KOSZUL_SHAPE = (3, 3, 3)
    KOSZUL_VARIABLES = (6, 7, 7)

    def round_ops(self, rnd):
        rng = self.rng(rnd)
        ops = []
        for entries, k in self.SR:
            irr = gen.irrelevant_facets(entries)
            masks = self.fresh(entries, lambda: gen.random_balanced(entries, k, rng) + irr)
            ops.append(self.sr_op(entries, masks))
        entries = self.KOSZUL_SHAPE
        for m in self.KOSZUL_VARIABLES:
            variables = rng.sample(range(gen.num_vertices(entries)), m)
            ranks, mats = gen.koszul_chain(entries, variables)
            ops.append(self.koszul_op(entries, ranks, mats, None))
            k = rng.randrange(len(mats))
            cell = rng.choice(sorted(mats[k]))
            flipped = [dict(cells) for cells in mats]
            sign, bit = flipped[k][cell]
            flipped[k][cell] = (-sign, bit)
            ops.append(self.koszul_op(entries, ranks, flipped,
                                      checks.flip_failures(ranks, mats, k, cell)))
        return ops

    def sr_op(self, entries, masks):
        n = gen.num_vertices(entries)
        facets = [gen.face_to_json(m, entries) for m in masks]
        b_gens = [checks.exponent_vector(m, n) for m in gen.balanced_grid(entries)]

        def run():
            def body():
                u = vcmkit.SimplicialComplex.from_facets(vcmkit.Shape(entries), facets)
                ideal = vcmkit.ideal_of(u)
                back = vcmkit.complex_of(ideal)
                sat = vcmkit.saturate_by_B(u)
                gens = [checks.exponent_vector(g, n) for g in ideal.generator_masks]
                return (ideal.generator_masks, back.facet_masks, sat.facet_masks,
                        vcmkit.saturation_oracle(gens, b_gens))
            return call_library(body)

        def check(result):
            if result[0] is None:
                return True, ["Stanley-Reisner round trip raised: " + result[1][-300:]]
            gens, back, sat, oracle = result[0]
            problems = []
            if set(gens) != checks.minimal_nonfaces(entries, masks):
                problems.append("ideal generators are not the minimal non-faces")
            if set(back) != set(masks):
                problems.append("complex_of(ideal_of(delta)) != delta")
            rel = checks.relevant(entries, masks)
            if set(sat) != set(rel):
                problems.append("saturate_by_B kept something other than the relevant facets")
            want = {checks.exponent_vector(g, n) for g in checks.minimal_nonfaces(entries, rel)}
            if {tuple(g) for g in oracle} != want:
                problems.append("saturation_oracle disagrees with the saturated complex")
            return False, problems

        return Op("sr", run, check)

    def koszul_op(self, entries, ranks, mats, predicted):
        doc = self.write(gen.matrix_doc(entries, ranks, mats))

        def check(result):
            failed, problems, rep = cli_report(result, {0, 1})
            if rep is None:
                return failed, problems
            if rep["digest"] != digest(doc):
                problems.append("digest mismatch")
            found = {(p["pair"], i, j) for p in rep["pairs"] for i, j in p["failures"]}
            want = predicted or set()
            if found != want or rep["all_zero"] != (not want) or result[0] != (1 if want else 0):
                problems.append(f"verify-complex failures {sorted(found)[:6]} != "
                                f"predicted {sorted(want)[:6]}")
            return False, problems

        return Op("verify_complex", lambda: call_cli(["verify-complex", doc]), check)


WORKLOADS = {"certify": Certify, "check_cm": CheckCm, "search": Search, "algebra": Algebra}

# Operation kinds of each workload, in report order.
KINDS = {
    "certify": ("certify", "recheck", "shelling"),
    "check_cm": ("check_cm_gf2", "check_cm_gf3", "check_cm_q"),
    "search": ("search",),
    "algebra": ("sr", "verify_complex"),
}
