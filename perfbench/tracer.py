"""Per-layer tracing of the verifier, measured from outside the package.

`Tracer.install` replaces the layer entry points listed in LAYERS with
wrappers that record a span per call: (name, start, end, parent, root check
id).  A function is replaced in every loaded stablelab namespace that binds
it, so `cmlab.newton_polygon` is traced as well as
`exactmath.polygon.newton_polygon`.  Spans stay in memory until `dump`.
`layer_metrics` turns one dump into the `<module>.<function>.<stat>`
metrics, where `.s` is self time (span minus the time its child spans
cover) and `.calls` a count.  The verifier runs on one thread, so a span
never waits on another layer and no wait time is recorded.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

#: module -> public functions wrapped; span name is "<layer>.<function>",
#: where the layer is the module's name below `stablelab` (first part only).
LAYERS = {
    "stablelab.cmlab": (
        "j_tau",
        "polynomial_from_taus",
        "class_polynomial",
        "characteristic_polynomial",
        "congruence_check",
    ),
    "stablelab.exactmath.resultant": (
        "bareiss_determinant",
        "difference_root_resultant",
        "interpolate_integer_polynomial",
    ),
    "stablelab.exactmath.polygon": ("newton_polygon", "parametric_polygon"),
    "stablelab.exactmath.poly": ("normal_form",),
    "stablelab.exactmath.valuation": ("field_valuation",),
    "stablelab.curve125": (
        "build_shifted_model",
        "ramification_polynomials",
        "hensel_certificate",
        "verify_reduction",
    ),
    "stablelab.modmaps": ("ramification_image_polynomial", "cm_disk_identities"),
    "stablelab.sslab": ("division_polynomial_5", "torsion_polygon"),
    "stablelab.quatlab": ("orbit_analysis", "uniformizer_image_search"),
    "stablelab.ledger": ("ss_survey", "supersingular_j_invariants"),
}
#: (module, class, method) -> span name.
METHODS = {
    ("stablelab.cmlab", "ClassPolyCache", "load"): "cmlab.cache.load",
    ("stablelab.cmlab", "ClassPolyCache", "store"): "cmlab.cache.store",
    ("stablelab.report", "SuiteReport", "render"): "report.render",
}


def tau_discriminant(tau) -> int:
    """Discriminant of the primitive form whose root is the Tau
    (re_num + im_num * sqrt(-n)) / den."""
    a = tau.den * tau.den
    b = -2 * tau.re_num * tau.den
    c = tau.re_num * tau.re_num + tau.im_num * tau.im_num * tau.n
    g = math.gcd(math.gcd(a, b), c)
    return (b * b - 4 * a * c) // (g * g)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._root = None
        self._restore: list = []
        self.builds = 0
        self.escalations = 0.0
        self.max_bits = 0
        self.discriminants: set[int] = set()
        self.cache_lookups = 0
        self.cache_hits = 0
        self.cache_paths: set[str] = set()
        self.orbit_elements = 0
        self.curve125_lru: list = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, root=None, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_root = tracer._root
            if root is not None:
                tracer._root = root
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, perf_counter(), 0.0, parent, tracer._root]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            builds_before = tracer.builds
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
                tracer._root = outer_root
            if observe is not None:
                observe(args, kwargs, result, tracer.builds - builds_before)
            return result

        return traced

    # -- observers: counts taken at the layer boundary ---------------------------

    def _on_build(self, args, kwargs, result, _):
        taus, requested = args[0], args[1] if len(args) > 1 else kwargs["precision"]
        _, used, _ = result
        self.builds += 1
        self.escalations += math.log2(used / requested)
        self.max_bits = max(self.max_bits, used)
        self.discriminants.add(tau_discriminant(taus[0]))

    def _on_class_polynomial(self, args, kwargs, result, builds):
        self.discriminants.add(args[0])
        cache = args[2] if len(args) > 2 else kwargs.get("cache")
        if cache is not None:
            self.cache_lookups += 1
            self.cache_hits += builds == 0

    def _on_cache(self, args, kwargs, result, _):
        self.cache_paths.add(os.path.abspath(args[0].path))

    def _on_orbits(self, args, kwargs, result, _):
        self.orbit_elements += args[0].p ** 4

    # -- patching ----------------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("stablelab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self):
        """Wrap every layer entry point of the stablelab package on sys.path."""
        importlib.import_module("stablelab.cli")  # load every module that binds a layer
        observers = {
            "cmlab.polynomial_from_taus": self._on_build,
            "cmlab.class_polynomial": self._on_class_polynomial,
            "cmlab.cache.load": self._on_cache,
            "cmlab.cache.store": self._on_cache,
            "quatlab.orbit_analysis": self._on_orbits,
        }
        curve125 = importlib.import_module("stablelab.curve125")
        self.curve125_lru = [f for f in vars(curve125).values() if hasattr(f, "cache_info")]
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(module_name)
            layer = module_name.split(".")[1]
            for fn_name in functions:
                original = getattr(module, fn_name)
                name = f"{layer}.{fn_name}"
                self._replace_everywhere(
                    original, self.wrap(name, original, observe=observers.get(name))
                )
        for (module_name, cls_name, method), name in METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = vars(cls)[method]
            setattr(cls, method, self.wrap(name, original, observe=observers.get(name)))
            self._restore.append((cls, method, original))
        checks = importlib.import_module("stablelab.checks")
        for suite, build in list(checks.SUITES.items()):
            checks.SUITES[suite] = self._traced_suite(suite, build)
            self._restore.append((checks.SUITES, suite, build))

    def _traced_suite(self, suite, build):
        def traced_build(config):
            return [
                dataclasses.replace(
                    check, run=self.wrap(f"checks.{suite}", check.run, root=check.id)
                )
                for check in build(config)
            ]

        return traced_build

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._restore.clear()

    def dump(self, path, import_s):
        """Write the spans and counters of this process to ``path`` as JSON."""
        infos = [f.cache_info() for f in self.curve125_lru]
        document = {
            "import_s": import_s,
            "spans": self.spans,
            "builds": self.builds,
            "escalations": self.escalations,
            "max_bits": self.max_bits,
            "discriminants": sorted(self.discriminants),
            "cache_lookups": self.cache_lookups,
            "cache_hits": self.cache_hits,
            "cache_file_bytes": sum(
                os.path.getsize(p) for p in self.cache_paths if os.path.exists(p)
            ),
            "orbit_elements": self.orbit_elements,
            "curve125_lru": [sum(i.hits for i in infos), sum(i.misses for i in infos)],
        }
        with open(path, "w", encoding="ascii") as handle:
            json.dump(document, handle)


# -- deriving the per-layer metrics (parent side) --------------------------------


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """(self seconds, calls) per span name.

    Self time is a span's duration minus the part of it that its child spans
    cover (the union of the child intervals, clipped to the parent).
    """
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        seconds[name] += (end - start) - covered
        calls[name] += 1
    return seconds, calls


SUITES = ("stable-model", "maps", "ss", "cm", "quat", "ledger")

#: (metric, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = (
    [("cli.import_s", "s", "lower"), ("report.render_s", "s", "lower")]
    + [(f"checks.{suite}.s", "s", "lower") for suite in SUITES]
    + [
        ("checks.count", "count", "higher"),
        ("cmlab.j_tau.calls", "count", "lower"),
        ("cmlab.j_tau.s", "s", "lower"),
        ("cmlab.polynomial_from_taus.calls", "count", "lower"),
        ("cmlab.polynomial_from_taus.s", "s", "lower"),
        ("cmlab.polynomial_from_taus.escalations", "doublings", "lower"),
        ("cmlab.polynomial_from_taus.max_bits", "bits", "lower"),
        ("cmlab.builds_per_disc", "ratio", "lower"),
        ("cmlab.cache.loads", "count", "lower"),
        ("cmlab.cache.hit_ratio", "ratio", "higher"),
        ("cmlab.cache.load_s", "s", "lower"),
        ("cmlab.cache.stores", "count", "lower"),
        ("cmlab.cache.store_s", "s", "lower"),
        ("cmlab.cache.file_bytes", "bytes", "lower"),
        ("cmlab.characteristic_polynomial.s", "s", "lower"),
        ("cmlab.congruence_check.s", "s", "lower"),
        ("exactmath.bareiss_determinant.calls", "count", "lower"),
        ("exactmath.bareiss_determinant.s", "s", "lower"),
        ("exactmath.difference_root_resultant.s", "s", "lower"),
        ("exactmath.interpolate_integer_polynomial.s", "s", "lower"),
        ("exactmath.newton_polygon.calls", "count", "lower"),
        ("exactmath.newton_polygon.s", "s", "lower"),
        ("exactmath.parametric_polygon.s", "s", "lower"),
        ("exactmath.normal_form.calls", "count", "lower"),
        ("exactmath.normal_form.s", "s", "lower"),
        ("exactmath.field_valuation.s", "s", "lower"),
        ("curve125.build_shifted_model.s", "s", "lower"),
        ("curve125.ramification_polynomials.s", "s", "lower"),
        ("curve125.hensel_certificate.s", "s", "lower"),
        ("curve125.verify_reduction.s", "s", "lower"),
        ("curve125.lru.hits", "count", "higher"),
        ("curve125.lru.misses", "count", "lower"),
        ("modmaps.ramification_image_polynomial.s", "s", "lower"),
        ("modmaps.cm_disk_identities.s", "s", "lower"),
        ("sslab.division_polynomial_5.s", "s", "lower"),
        ("sslab.torsion_polygon.s", "s", "lower"),
        ("quatlab.orbit_analysis.s", "s", "lower"),
        ("quatlab.orbit_analysis.elements", "count", "lower"),
        ("quatlab.uniformizer_image_search.s", "s", "lower"),
        ("ledger.ss_survey.s", "s", "lower"),
        ("ledger.supersingular_j_invariants.s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

#: Metrics whose span name differs from the metric's stem.
_RENAMED = {
    "report.render_s": ("report.render", "s"),
    "cmlab.cache.load_s": ("cmlab.cache.load", "s"),
    "cmlab.cache.store_s": ("cmlab.cache.store", "s"),
    "cmlab.cache.loads": ("cmlab.cache.load", "calls"),
    "cmlab.cache.stores": ("cmlab.cache.store", "calls"),
}


def layer_metrics(document) -> dict[str, float]:
    """Per-layer metrics of one traced process (all but trace.overhead_s)."""
    seconds, calls = self_times(document["spans"])
    discs = len(document["discriminants"])
    lookups = document["cache_hits"], document["cache_lookups"]
    derived = {
        "cli.import_s": document["import_s"],
        "checks.count": sum(calls[f"checks.{suite}"] for suite in SUITES),
        "cmlab.polynomial_from_taus.escalations": document["escalations"],
        "cmlab.polynomial_from_taus.max_bits": document["max_bits"],
        "cmlab.builds_per_disc": document["builds"] / discs if discs else 0.0,
        "cmlab.cache.hit_ratio": lookups[0] / lookups[1] if lookups[1] else 0.0,
        "cmlab.cache.file_bytes": document["cache_file_bytes"],
        "curve125.lru.hits": document["curve125_lru"][0],
        "curve125.lru.misses": document["curve125_lru"][1],
        "quatlab.orbit_analysis.elements": document["orbit_elements"],
    }
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
        elif name != "trace.overhead_s":
            span, stat = _RENAMED.get(name) or tuple(name.rsplit(".", 1))
            metrics[name] = seconds.get(span, 0.0) if stat == "s" else calls.get(span, 0)
    return metrics

