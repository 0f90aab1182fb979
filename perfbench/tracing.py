"""Span tracing of qwp's public functions, installed from outside the program.

``instrument`` replaces each traced function at every import site: qwp.cli
imports ``lens_k_groups`` and ``normalize`` by name, and grading and
representations import ``normalize``, so patching only the defining module
would miss those calls.  Spans (name, start, end, parent span, job) are kept
in memory and written out when the run ends.

QScalar arithmetic runs millions of times per pass, so it is not a span:
each outermost add/sub/mul/div is counted and timed, and its time is
charged to the innermost open span, which keeps self times exact.
"""

import collections
import functools
import json
from time import perf_counter

# module -> {function: span name}; the span name's prefix is the layer
SPANS = {
    "qwp.star_algebra": {
        "normalize": "star_algebra.normalize",
        "adjoint": "star_algebra.adjoint",
        "defining_relations": "star_algebra.defining_relations",
        "make_named_element": "star_algebra.make_named_element",
    },
    "qwp.grading": {
        "bezout_lens_resolution": "grading.bezout_lens_resolution",
        "weighted_resolution": "grading.weighted_resolution",
        "compose_tower_resolutions": "grading.compose_tower_resolutions",
        "compose_resolutions": "grading.compose_resolutions",
        "check_strong_grading": "grading.check_strong_grading",
        "verify_resolution": "grading.verify_resolution",
        "degree": "grading.degree",
        "homogeneous_components": "grading.homogeneous_components",
    },
    "qwp.ktheory": {
        "smith_normal_form": "ktheory.smith_normal_form",
        "lens_k_groups": "ktheory.lens_k_groups",
        "phi_matrix": "ktheory.phi_matrix",
        "teardrop_k_groups": "ktheory.teardrop_k_groups",
        "real_teardrop_k": "ktheory.real_teardrop_k",
        "six_term_k_groups": "ktheory.six_term_k_groups",
        "determinantal_invariants": "ktheory.determinantal_invariants",
        "gysin_matrix": "ktheory.gysin_matrix",
    },
    "qwp.representations": {
        "apply_element": "representations.apply_element",
        "rep_generator": "representations.rep_generator",
        "relation_residual": "representations.relation_residual",
        "sector_split_check": "representations.sector_split_check",
        "fredholm_trace": "representations.fredholm_trace",
        "eigenvalue_distinctness": "representations.eigenvalue_distinctness",
    },
    "qwp.parsing": {
        "parse_expression": "parsing.parse_expression",
        "parse_scalar": "parsing.parse_scalar",
    },
    "qwp.cli": {
        "run_command": "cli.run_command",
        "build_parser": "cli.build_parser",
        "render_report": "cli.render_report",
    },
}
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__")
CONSTRUCTORS = frozenset({
    "grading.bezout_lens_resolution", "grading.weighted_resolution",
    "grading.compose_tower_resolutions", "grading.compose_resolutions",
    "grading.check_strong_grading",
})

# per-layer metric -> unit, in the order they are reported
LAYER_METRICS = {
    "scalar.ops": "count",
    "scalar.s": "s",
    "scalar.evaluate_calls": "count",
    "star_algebra.normalize_calls": "count",
    "star_algebra.normalize_s": "s",
    "star_algebra.mul_calls": "count",
    "star_algebra.mul_s": "s",
    "star_algebra.self_s": "s",
    "star_algebra.nf_terms": "count",
    "grading.construct_s": "s",
    "grading.verify_s": "s",
    "grading.self_s": "s",
    "grading.pairs": "count",
    "ktheory.snf_calls": "count",
    "ktheory.snf_s": "s",
    "ktheory.snf_max_bits": "bits",
    "ktheory.lens_s": "s",
    "representations.assemble_s": "s",
    "representations.residual_s": "s",
    "representations.sectors_s": "s",
    "representations.trace_s": "s",
    "representations.nonzeros": "count",
    "parsing.parse_calls": "count",
    "parsing.parse_s": "s",
    "cli.run_command_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# span groups whose outermost spans are summed into a *_s metric
DURATIONS = {
    "star_algebra.normalize_s": {"star_algebra.normalize"},
    "star_algebra.mul_s": {"star_algebra.mul"},
    "grading.construct_s": CONSTRUCTORS,
    "grading.verify_s": {"grading.verify_resolution"},
    "ktheory.snf_s": {"ktheory.smith_normal_form"},
    "ktheory.lens_s": {"ktheory.lens_k_groups"},
    "representations.assemble_s": {"representations.apply_element", "representations.rep_generator"},
    "representations.residual_s": {"representations.relation_residual"},
    "representations.sectors_s": {"representations.sector_split_check"},
    "representations.trace_s": {"representations.fredholm_trace"},
    "parsing.parse_s": {"parsing.parse_expression"},
    "cli.run_command_s": {"cli.run_command"},
}
CALLS = {
    "star_algebra.normalize_calls": "star_algebra.normalize",
    "star_algebra.mul_calls": "star_algebra.mul",
    "ktheory.snf_calls": "ktheory.smith_normal_form",
    "parsing.parse_calls": "parsing.parse_expression",
}
SELF = {"star_algebra.self_s": "star_algebra", "grading.self_s": "grading", "cli.self_s": "cli"}
COUNTERS = ("scalar.ops", "scalar.evaluate_calls", "star_algebra.nf_terms", "grading.pairs",
            "representations.nonzeros", "cli.report_bytes")


class Tracer:
    """Open spans, finished spans and counters of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job, scalar seconds inside]
        self.stack = []
        self.job = None
        self.counts = collections.Counter()
        self.scalar_s = 0.0
        self.in_scalar = False

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, out, args, kwargs)
            return out

        return traced

    def scalar_op(self, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def op(a, b):
            if self.in_scalar:
                return fn(a, b)
            self.in_scalar = True
            start = perf_counter()
            try:
                return fn(a, b)
            finally:
                spent = perf_counter() - start
                self.in_scalar = False
                counts["scalar.ops"] += 1
                self.scalar_s += spent
                if stack:
                    spans[stack[-1]][5] += spent

        return op

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_metrics(self, passes, overhead_ratio):
        """Layer metrics per pass, from the spans and counters of ``passes`` passes.

        ``ktheory.snf_max_bits`` is a maximum and ``trace.overhead_ratio`` a
        ratio, so neither is divided by the pass count.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = collections.Counter(s[0] for s in spans)
        self_s = collections.Counter()
        for i, (name, start, end, _, _, scalar) in enumerate(spans):
            self_s[name.split(".", 1)[0]] += end - start - covered[i] - scalar
        values = {key: self.counts[key] for key in COUNTERS}
        values["scalar.s"] = self.scalar_s
        for metric, group in DURATIONS.items():
            values[metric] = sum(
                s[2] - s[1] for s in spans if s[0] in group and not self._inside(s, group)
            )
        for metric, name in CALLS.items():
            values[metric] = calls[name]
        for metric, layer in SELF.items():
            values[metric] = self_s[layer]
        per_pass = {name: value / passes for name, value in values.items()}
        per_pass["ktheory.snf_max_bits"] = self.counts["ktheory.snf_max_bits"]
        per_pass["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": per_pass[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def _inside(self, span, group):
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] in group:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "job", "scalar_s"],
                       "spans": self.spans}, handle, separators=(",", ":"))


# -- counters read from outputs, run after the span closes ---------------------


def _nf_terms(tracer, out, args, kwargs):
    tracer.counts["star_algebra.nf_terms"] += len(out.terms)


def _pairs(tracer, out, args, kwargs):
    if any(tracer.spans[i][0] in CONSTRUCTORS for i in tracer.stack):
        return  # only the outermost constructor's certificate counts
    if hasattr(out, "pairs"):
        tracer.counts["grading.pairs"] += len(out.pairs)
    elif "degrees" in out:
        tracer.counts["grading.pairs"] += sum(
            len(e["resolution"].pairs) for e in out["degrees"].values() if e["resolution"]
        )
    else:
        tracer.counts["grading.pairs"] += len(out["res_plus"].pairs) + len(out["res_minus"].pairs)


def _snf_bits(tracer, out, args, kwargs):
    bits = max(
        (abs(x).bit_length() for key in ("U", "S", "V") for row in out[key].entries for x in row),
        default=0,
    )
    counts = tracer.counts
    counts["ktheory.snf_max_bits"] = max(counts["ktheory.snf_max_bits"], bits)


def _nonzeros(tracer, out, args, kwargs):
    tracer.counts["representations.nonzeros"] += len(out.entries)


def _report_bytes(tracer, out, args, kwargs):
    stream = kwargs.get("stdout", args[1] if len(args) > 1 else None)
    if stream is not None and hasattr(stream, "getvalue"):
        tracer.counts["cli.report_bytes"] += len(stream.getvalue().encode("utf-8"))


AFTER = {
    "star_algebra.normalize": _nf_terms,
    "ktheory.smith_normal_form": _snf_bits,
    "representations.apply_element": _nonzeros,
    "representations.rep_generator": _nonzeros,
    "cli.run_command": _report_bytes,
}
AFTER.update({name: _pairs for name in CONSTRUCTORS})


def instrument(tracer, modules):
    """Wrap every traced function of ``modules`` (name -> qwp module) in place."""
    for module_name, table in SPANS.items():
        home = modules[module_name]
        for attr, span_name in table.items():
            original = getattr(home, attr)
            wrapped = tracer.span(span_name, original, AFTER.get(span_name))
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    QScalar = modules["qwp.scalar"].QScalar
    for attr in SCALAR_OPS:
        setattr(QScalar, attr, tracer.scalar_op(getattr(QScalar, attr)))
    QScalar.evaluate = tracer.counted("scalar.evaluate_calls", QScalar.evaluate)
    element = modules["qwp.star_algebra"].AlgebraElement
    element.__mul__ = tracer.span("star_algebra.mul", element.__mul__)
