"""Spans around the public calls into each heisgeo module, and the per-layer
metrics computed from them.

A wrapper is installed on the name through which the caller looks a function
up (``heisgeo.geodesics.distance`` for the calls quotient_distance makes,
``scipy.optimize.root`` for the shooting solves), so calls made inside the
program are seen without changing it.  Spans are kept in memory as
[name, start, end, parent, error, value] and written out at the end of a run.
A canonicalize call on an already canonical metric returns its argument and
is not recorded.
"""

import time

# (module path, attribute, span name); a missing attribute is skipped
TARGETS = [
    ("heisgeo.metric:MetricMatrix", "from_matrix", "metric.from_matrix"),
    *[(m, "canonicalize", "metric.canonicalize") for m in (
        "heisgeo.metric", "heisgeo.geodesics", "heisgeo.moduli", "heisgeo.sequence", "heisgeo.cli")],
    ("heisgeo.metric", "skew_normal_form", "linalg.skew_normal_form"),
    *[(m, "invariants", "metric.invariants") for m in ("heisgeo.metric", "heisgeo.moduli", "heisgeo.cli")],
    *[
        (m, f, "metric.volume")
        for m in ("heisgeo.metric", "heisgeo.sequence", "heisgeo.cli")
        for f in ("riemannian_volume_coeff", "popp_coeff_v0", "tilted_popp_coeff", "minimal_popp_coeff")
    ],
    *[(m, "ricci_matrix", "metric.ricci") for m in ("heisgeo.metric", "heisgeo.sequence", "heisgeo.cli")],
    *[(m, "geodesic_point", "geodesics.geodesic_point") for m in ("heisgeo.geodesics", "heisgeo.cli")],
    *[(m, "check_precompactness", "moduli.check_precompactness") for m in ("heisgeo.moduli", "heisgeo.cli")],
    ("heisgeo.moduli", "shortest_lattice_vector", "linalg.shortest_lattice_vector"),
    ("heisgeo._kernels", "svp_enumerate", "kernels.svp_enumerate"),
    *[(m, "enumerate_lattices", "moduli.enumerate_lattices") for m in ("heisgeo.moduli", "heisgeo.cli")],
    *[(m, "analyze_sequence", "sequence.analyze_sequence") for m in ("heisgeo.sequence", "heisgeo.cli")],
    ("heisgeo.cli", "parse_sequence_file", "cli.parse_sequence"),
    *[(m, "distance", "geodesics.distance") for m in ("heisgeo.geodesics", "heisgeo.cli")],
    ("scipy.optimize", "root", "scipy.optimize.root"),
    *[(m, "quotient_distance", "geodesics.quotient_distance") for m in ("heisgeo.geodesics", "heisgeo.cli")],
    ("heisgeo.geodesics", "flow_numeric", "geodesics.flow_numeric"),
    ("heisgeo.geodesics", "hamiltonian_along_flow", "geodesics.hamiltonian_along_flow"),
    ("heisgeo._kernels", "rk4_flow", "kernels.rk4_flow"),
    ("heisgeo.cli", "main", "cli.main"),
]

NAME, START, END, PARENT, ERROR, VALUE = range(6)


def _resolve(path):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans while installed; ``remove()`` puts the originals back."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._plain_s = 0.0
        self._traced_s = 0.0

    def account(self, plain_s, traced_s):
        """Add the op time of an untraced pass and of the traced pass run
        next to it."""
        self._plain_s += plain_s
        self._traced_s += traced_s

    def overhead_pct(self):
        return 100.0 * (self._traced_s / self._plain_s - 1.0)

    def install(self):
        from heisgeo.metric import CanonicalMetric

        for path, attr, name in TARGETS:
            owner = _resolve(path)
            if not hasattr(owner, attr):
                continue
            saved = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(getattr(owner, attr), name, CanonicalMetric)
            setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
            self._saved.append((owner, attr, saved))

    def remove(self):
        for owner, attr, saved in reversed(self._saved):
            setattr(owner, attr, saved)
        self._saved.clear()

    def _wrap(self, fn, name, canonical_type):
        spans, stack = self.spans, self._stack
        passthrough = name == "metric.canonicalize"
        steps = name == "kernels.rk4_flow"
        listed = name == "moduli.enumerate_lattices"

        def wrapper(*args, **kwargs):
            if passthrough and isinstance(args[0], canonical_type):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            if steps:
                rec[VALUE] = int(args[5])
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if listed:
                rec[VALUE] = len(out)
            return out

        return wrapper


def layer_metrics(spans, passes):
    """{name: (value, unit)} from the spans of `passes` traced passes.  Times
    are means per call (self time where the name says so); counts are per pass
    unless the unit is count/call.  A layer the workload never calls reads 0."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def mean(name, scale, self_time=False):
        ids = idx(name)
        if not ids:
            return 0.0
        return scale * sum(dur[i] - (child[i] if self_time else 0.0) for i in ids) / len(ids)

    def per_call(parent, name, weight=lambda i: 1):
        """Sum of `weight` over the `name` spans directly under a `parent`
        span, per `parent` call."""
        ids = idx(parent)
        if not ids:
            return 0.0
        parents = set(ids)
        return sum(weight(i) for i in idx(name) if spans[i][PARENT] in parents) / len(ids)

    rk4 = idx("kernels.rk4_flow")
    rk4_steps = sum(spans[i][VALUE] for i in rk4)
    per_pass = 1.0 / passes
    return {
        "cli.parse_sequence_ms": (mean("cli.parse_sequence", 1e3), "ms"),
        "metric.from_matrix_us": (mean("metric.from_matrix", 1e6), "us"),
        "metric.canonicalize_us": (mean("metric.canonicalize", 1e6, self_time=True), "us"),
        "linalg.skew_normal_form_us": (mean("linalg.skew_normal_form", 1e6), "us"),
        "metric.invariants_us": (mean("metric.invariants", 1e6), "us"),
        "metric.volume_us": (mean("metric.volume", 1e6), "us"),
        "metric.ricci_us": (mean("metric.ricci", 1e6), "us"),
        "geodesics.geodesic_point_us": (mean("geodesics.geodesic_point", 1e6), "us"),
        "moduli.check_precompactness_us": (mean("moduli.check_precompactness", 1e6), "us"),
        "linalg.shortest_lattice_vector_us": (
            mean("linalg.shortest_lattice_vector", 1e6, self_time=True), "us"),
        "kernels.svp_enumerate_us": (mean("kernels.svp_enumerate", 1e6), "us"),
        "moduli.enumerate_lattices_ms": (mean("moduli.enumerate_lattices", 1e3), "ms"),
        "moduli.lattices_listed": (
            per_pass * sum(spans[i][VALUE] for i in idx("moduli.enumerate_lattices")), "count"),
        "sequence.analyze_sequence_ms": (mean("sequence.analyze_sequence", 1e3), "ms"),
        "geodesics.distance_ms": (mean("geodesics.distance", 1e3), "ms"),
        "geodesics.distance.root_solves": (
            per_call("geodesics.distance", "scipy.optimize.root"), "count/call"),
        "geodesics.distance.failed": (
            per_pass * sum(1 for i in idx("geodesics.distance") if spans[i][ERROR] == "SolverFailure"),
            "count"),
        "geodesics.quotient_distance_ms": (mean("geodesics.quotient_distance", 1e3), "ms"),
        "geodesics.quotient_distance.self_ms": (
            mean("geodesics.quotient_distance", 1e3, self_time=True), "ms"),
        "geodesics.quotient_distance.distance_calls": (
            per_call("geodesics.quotient_distance", "geodesics.distance"), "count/call"),
        "geodesics.flow_numeric_ms": (mean("geodesics.flow_numeric", 1e3), "ms"),
        "kernels.rk4_flow_calls": (per_pass * len(rk4), "count"),
        "kernels.rk4_steps": (per_pass * rk4_steps, "count"),
        "kernels.rk4_ns_per_step": (1e9 * sum(dur[i] for i in rk4) / rk4_steps if rk4_steps else 0.0, "ns"),
        "geodesics.hamiltonian_along_flow_ms": (mean("geodesics.hamiltonian_along_flow", 1e3), "ms"),
        "geodesics.hamiltonian_along_flow.rk4_steps": (
            per_call("geodesics.hamiltonian_along_flow", "kernels.rk4_flow", lambda i: spans[i][VALUE]),
            "count/call",
        ),
        "cli.main_ms": (mean("cli.main", 1e3), "ms"),
    }
