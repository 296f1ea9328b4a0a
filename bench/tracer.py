"""Spans and counts around the calls into each layer of fanocheck.

Each layer is one module of the package.  `install` rebinds the names the
calling modules look up to wrappers that record a span, so the program's
own code is unchanged.  Spans stay in memory until `metrics` sums them.
"""

import functools
import itertools
import threading
import time
from collections import Counter
from math import comb

# Span layer -> per-layer metric holding the layer's self time.
LAYER_METRICS = {
    "files": "files.parse_s",
    "lattice.hull": "lattice.hull_s",
    "lattice.dual": "lattice.dual_s",
    "lattice.face_lattice": "lattice.face_lattice_s",
    "lattice.face_lattice_p": "lattice.face_lattice_p_s",
    "invariants": "invariants.s",
    "identity": "identity.s",
    "diamond": "diamond.s",
    "pipeline": "pipeline.self_s",
    "report": "pipeline.report_s",
}

COUNTS = (
    "files.inputs",
    "lattice.hull_subsets",
    "lattice.dual_hull_subsets",
    "lattice.faces",
    "invariants.edges",
)


class Tracer:
    """In-memory spans: (id, parent id, layer, thread id, start ns, end ns)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current_layer(self):
        stack = self.stack()
        return stack[-1][1] if stack else None

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def span(self, layer, fn, *args, **kwargs):
        stack = self.stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((sid, layer))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, layer, threading.get_ident(), start, end))

    def wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)

        return traced

    def self_times(self) -> dict:
        """Seconds per layer of span time not covered by child spans."""
        child_ns = Counter()
        for _, parent, _, _, start, end in self.spans:
            child_ns[parent] += end - start
        out = Counter()
        for sid, _, layer, _, start, end in self.spans:
            out[layer] += end - start - child_ns[sid]
        return {layer: ns / 1e9 for layer, ns in out.items()}


def install(tr: Tracer, cli, diamond, identity, lattice, pipeline):
    """Rebind the calls into each layer; returns a function giving the metrics."""
    real_analyze = pipeline.analyze
    analyzing = threading.local()
    distinct = set()

    def parse(fn):
        def traced(text):
            tr.count("files.inputs")
            return tr.span("files", fn, text)

        return traced

    pipeline.loads_polytope = parse(pipeline.loads_polytope)
    pipeline.loads_diamond = parse(pipeline.loads_diamond)

    pipeline.facet_enumeration = tr.wrap("lattice.hull", pipeline.facet_enumeration)
    pipeline.polar_dual = tr.wrap("lattice.dual", pipeline.polar_dual)
    real_face_lattice = pipeline.face_lattice

    def face_lattice(P):
        if P is getattr(analyzing, "P", None):
            return tr.span("lattice.face_lattice_p", real_face_lattice, P)
        faces = tr.span("lattice.face_lattice", real_face_lattice, P)
        tr.count("lattice.faces", sum(faces.f_vector()))
        return faces

    pipeline.face_lattice = face_lattice

    real_combinations = lattice.combinations

    def combinations(pool, r):
        # Upper bound of the hull scan: it skips subsets of facets already found.
        key = (
            "lattice.dual_hull_subsets"
            if tr.current_layer() == "lattice.face_lattice"
            else "lattice.hull_subsets"
        )
        tr.count(key, comb(len(pool), r))
        return real_combinations(pool, r)

    lattice.combinations = combinations

    real_invariants = pipeline.compute_invariants

    def compute_invariants(delta, faces):
        tr.count("invariants.edges", len(faces.faces(1)))
        return tr.span("invariants", real_invariants, delta, faces)

    pipeline.compute_invariants = compute_invariants
    pipeline.second_derivative_at_one = tr.wrap(
        "invariants", pipeline.second_derivative_at_one
    )

    for name in ("toric_identity_report", "check_betti_chern", "weighted_betti_sum"):
        setattr(identity, name, tr.wrap("identity", getattr(identity, name)))

    for module in (pipeline, identity):
        module.chi_p = tr.wrap("diamond", diamond.chi_p)
        module.defect = tr.wrap("diamond", diamond.defect)
    HD = diamond.HodgeDiamond
    HD.__post_init__ = tr.wrap("diamond", HD.__post_init__)
    HD.even_betti = tr.wrap("diamond", HD.even_betti)
    HD.is_odd_vanishing = property(tr.wrap("diamond", HD.is_odd_vanishing.fget))

    def analyze(P):
        distinct.add(P)
        analyzing.P = P
        try:
            return tr.span("pipeline", real_analyze, P)
        finally:
            analyzing.P = None

    pipeline.analyze = analyze
    pipeline.run_check = tr.wrap("pipeline", pipeline.run_check)
    cli._emit = tr.wrap("report", cli._emit)

    def metrics() -> dict:
        out = {m: 0.0 for m in LAYER_METRICS.values()}
        for layer, seconds in tr.self_times().items():
            out[LAYER_METRICS[layer]] = seconds
        for key in COUNTS:
            out[key] = tr.counts[key]
        info = real_analyze.cache_info()
        calls = info.hits + info.misses
        out["pipeline.analyze_hit_ratio"] = info.hits / calls if calls else 0.0
        out["pipeline.wasted_misses"] = info.misses - len(distinct)
        return out

    return metrics
