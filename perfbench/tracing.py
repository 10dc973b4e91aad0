"""Per-layer tracing for the traced run, from the benchmark's side only.

The layers are vcmkit's modules.  Where one module calls a public function
of another, the name bound in the importing module is replaced by a wrapper
(each importing module gets its own), so no file of the program changes.
Each wrapper records a span (id, name, start, end, parent) and counts.
Spans of high-frequency leaf calls (rank kernels, complex construction,
face enumeration, unions, Reisner tests) are aggregated per (name, parent)
instead of kept one by one, which keeps a traced run's memory small.
Self time is a span's duration minus the time of its child spans.
"""

import functools
import json
import time
from collections import Counter, defaultdict

import vcmkit
from vcmkit import cli, complexes, documents, homology, shelling, vres

FINE = {"linalg.rank.gf2", "linalg.rank.gfp", "linalg.rank.q", "complexes.normalise",
        "complexes.face_enum", "complexes.union", "homology.reisner"}


def _gf2_entries(args):
    rows = args[0]
    return len(rows) * max((r.bit_length() for r in rows), default=0)


def _dense_entries(args):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


def _products(args):
    ranks = args[0].ranks
    return sum(ranks[k] * ranks[k + 1] * ranks[k + 2] for k in range(len(ranks) - 2))


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [id, name, start, child time]
        self.spans = []
        self.aggregated = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.next_id = 0
        self.undo = []
        self.cache = getattr(homology, "_ranks_from_faces", None)
        self.cache_start = (0, 0)

    def wrap(self, name, fn, count=None):
        """count(counts, args, result) adds to the named counters on success."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.next_id += 1
            parent = stack[-1] if stack else None
            frame = [self.next_id, name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                own = duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += own
                if name in FINE:
                    agg = self.aggregated[(name, parent[1] if parent else None)]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += own
                else:
                    self.spans.append((frame[0], name, frame[2], end,
                                       parent[0] if parent else None))
            if count is not None:
                count(self.counts, args, result)
            return result
        return wrapper

    def patch(self, owner, attr, name, count=None):
        """Replace owner.attr by a wrapper; a name the program no longer has
        is skipped, and its metrics read 0."""
        if isinstance(owner, type):  # the class's own attribute, not a descriptor's value
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            return
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(self.wrap(name, original.func, count))
            wrapped.__set_name__(owner, attr)
        else:
            wrapped = self.wrap(name, original, count)
        setattr(owner, attr, wrapped)
        self.undo.append((owner, attr, original))

    def install(self):
        p = self.patch
        p(homology, "gf2_rank", "linalg.rank.gf2",
          lambda c, a, r: c.update({"rank_entries.gf2": _gf2_entries(a)}))
        p(homology, "rank_mod_p", "linalg.rank.gfp",
          lambda c, a, r: c.update({"rank_entries.gfp": _dense_entries(a)}))
        p(homology, "integer_rank", "linalg.rank.q",
          lambda c, a, r: c.update({"rank_entries.q": _dense_entries(a)}))
        for module in (cli, vres, documents):
            p(module, "projective_dimension", "homology.hochster",
              lambda c, a, r: c.update({"restrictions": 1 << a[0].shape.num_vertices}))
        for module in (cli, vres):
            p(module, "is_cm_reisner", "homology.reisner")
        for module in (documents, shelling):
            p(module, "verify_shelling", "shelling.verify",
              lambda c, a, r: c.update({"facets_verified": len(a[1])}))
        for module in (vres, vcmkit):
            p(module, "balanced_vcm_certificate", "shelling.construct")
        p(complexes.SimplicialComplex, "__post_init__", "complexes.normalise")
        p(complexes.SimplicialComplex, "_face_masks", "complexes.face_enum",
          lambda c, a, r: c.update({"faces": len(r)}))
        for module in (vres, shelling, documents):
            p(module, "union", "complexes.union")
        p(cli, "certify_balanced", "vres.certify_balanced")
        p(cli, "augmentation_search", "vres.search",
          lambda c, a, r: c.update({"subsets_tested": r.subsets_tested}))
        p(vres, "enumerate_irrelevant_candidate_facets", "vres.candidate_enum",
          lambda c, a, r: c.update({"candidates": len(r)}))
        p(vres, "certify_vcm_via_union", "vres.certify_union")
        p(cli, "compose_failures", "vres.compose",
          lambda c, a, r: c.update({"products": _products(a)}))
        p(vcmkit, "ideal_of", "stanley_reisner.ideal_of")
        p(vcmkit, "complex_of", "stanley_reisner.complex_of")
        p(vcmkit, "saturation_oracle", "stanley_reisner.oracle")
        for attr in ("parse_complex_document", "parse_matrix_document"):
            p(cli, attr, "documents.parse")
        p(documents, "certificate_from_dict", "documents.parse")
        p(cli, "certificate_to_dict", "documents.serialise")
        p(cli, "recheck_certificate", "documents.recheck")
        p(cli, "main", "cli.main")
        self.cache_start = self.cache_info()

    def uninstall(self):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()

    def cache_info(self):
        info = self.cache.cache_info() if hasattr(self.cache, "cache_info") else None
        return (info.hits, info.misses) if info else (0, 0)

    def metrics(self):
        """Per-layer totals for the whole traced run (not yet per round)."""
        n, s, t, k = self.calls, self.self_time, self.total, self.counts
        hits, misses = (a - b for a, b in zip(self.cache_info(), self.cache_start))
        out = {}
        for tag in ("gf2", "gfp", "q"):
            out[f"linalg.rank_calls.{tag}"] = (n[f"linalg.rank.{tag}"], "count")
            out[f"linalg.rank_s.{tag}"] = (t[f"linalg.rank.{tag}"], "s")
            out[f"linalg.rank_entries.{tag}"] = (k[f"rank_entries.{tag}"], "count")
        out.update({
            "homology.hochster_calls": (n["homology.hochster"], "count"),
            "homology.hochster_s": (s["homology.hochster"], "s"),
            "homology.restrictions_swept": (k["restrictions"], "count"),
            "homology.reisner_calls": (n["homology.reisner"], "count"),
            "homology.reisner_s": (s["homology.reisner"], "s"),
            "homology.rank_cache_hits": (hits, "count"),
            "homology.rank_cache_misses": (misses, "count"),
            "shelling.verify_calls": (n["shelling.verify"], "count"),
            "shelling.verify_s": (t["shelling.verify"], "s"),
            "shelling.facets_verified": (k["facets_verified"], "count"),
            "shelling.construct_s": (s["shelling.construct"], "s"),
            "complexes.built": (n["complexes.normalise"], "count"),
            "complexes.normalise_s": (t["complexes.normalise"], "s"),
            "complexes.union_s": (t["complexes.union"], "s"),
            "complexes.faces_enumerated": (k["faces"], "count"),
            "complexes.face_enum_s": (t["complexes.face_enum"], "s"),
            "vres.certify_balanced_s": (t["vres.certify_balanced"], "s"),
            "vres.search_s": (t["vres.search"], "s"),
            "vres.subsets_tested": (k["subsets_tested"], "count"),
            "vres.candidates": (k["candidates"], "count"),
            "vres.candidate_enum_s": (t["vres.candidate_enum"], "s"),
            "vres.certify_union_s": (t["vres.certify_union"], "s"),
            "vres.compose_s": (t["vres.compose"], "s"),
            "vres.products": (k["products"], "count"),
            "stanley_reisner.ideal_of_s": (t["stanley_reisner.ideal_of"], "s"),
            "stanley_reisner.complex_of_s": (t["stanley_reisner.complex_of"], "s"),
            "stanley_reisner.oracle_s": (t["stanley_reisner.oracle"], "s"),
            "documents.parse_s": (t["documents.parse"], "s"),
            "documents.serialise_s": (t["documents.serialise"], "s"),
            "documents.recheck_s": (t["documents.recheck"], "s"),
            "cli.ops": (n["cli.main"], "count"),
            "cli.self_s": (s["cli.main"], "s"),
        })
        return out

    def write(self, path, header):
        doc = dict(header)
        doc["spans"] = self.spans
        doc["aggregated"] = [{"name": name, "parent": parent, "calls": c, "total_s": tot,
                              "self_s": own}
                             for (name, parent), (c, tot, own) in sorted(
                                 self.aggregated.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
