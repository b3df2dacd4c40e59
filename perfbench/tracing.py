"""Spans and counters recorded around the package's functions from outside.

`Tracer.install` wraps each instrumented function at every place it is
looked up: module attributes in every blockingsets module that holds the
same object (harness and blocking import `traces_of` and
`subspace_traces` by name), class attributes for methods, and the
harness's check table.  A span records id, parent, thread, name, start
and end; a span's self time is its duration minus that of its children.
`uninstall` restores every original, so checks made after the timed part
are neither traced nor counted.
"""

import collections
import itertools
import sys
import threading
import time

from checks import CHECK_IDS

# self-time metrics, each the name of the span that feeds it
SELF_TIMES = (
    "harness.load_catalogue_s", "formats.read_pointset_s",
    "formats.witness_from_dict_s", "formats.write_pointset_s",
    "catalogue.build_witness_s", "fields.tables_s", "linalg.rref_s",
    "projspace.line_scan_s", "projspace.hyperplane_scan_s",
    "projspace.table_scan_s", "projspace.incidence_table_s",
    "projspace.coords_array_s", "projspace.point_ranks_s",
    "projspace.trace_lookup_s", "spreads.context_build_s",
    "spreads.transversal_line_s", "spreads.linear_set_s",
    "blocking.nonsecant_mask_s", "blocking.secant_analysis_s",
    "linearsets.subline_patterns_s", "linearsets.subline_meet_check_s",
    "linearsets.is_linear_s", "reconstruct.reconstruct_s",
    "reconstruct.secant_count_bounds_s",
)

# count metrics read off the number of spans of one name
SPAN_COUNTS = {
    "linalg.rref_calls": "linalg.rref_s",
    "projspace.trace_lookups": "projspace.trace_lookup_s",
    "spreads.contexts_built": "spreads.context_build_s",
    "spreads.transversal_lines": "spreads.transversal_line_s",
    "blocking.traces_of_calls": "blocking.traces_of",
}

# count metrics kept by counters
COUNTERS = (
    "fields.scalar_ops", "projspace.subspaces_reduced",
    "projspace.point_ranks_calls", "projspace.line_incidences",
    "projspace.hyperplane_incidences", "blocking.trace_scans",
    "linearsets.subline_pattern_builds", "linearsets.sublines_checked",
    "linearsets.subspaces_tested", "reconstruct.secants_used",
)

PER_LAYER = tuple(f"harness.{c}_s" for c in CHECK_IDS) + SELF_TIMES \
    + tuple(SPAN_COUNTS) + COUNTERS


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent, thread, name, start, end)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._hits = {}            # counter name -> itertools.count
        self._sums = collections.Counter()
        self._undo = []
        self._pattern_misses = None

    # -- wrappers -------------------------------------------------------------

    def span(self, fn, name, after=None, cached=None):
        """fn inside a span; after(result) runs on the result, and
        cached(self) true skips the span for a lookup that does no work."""
        spans, ids, local = self.spans, self._ids, self._local
        clock, ident = time.perf_counter_ns, threading.get_ident

        def wrapper(*args, **kwargs):
            if cached is not None and cached(args[0]):
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, ident(), name, start, end))
            if after is not None:
                after(result)
            return result
        return wrapper

    def counted(self, fn, name, when=None):
        """fn with a call counter; when(args, kwargs) false skips counting."""
        hit = self._hits.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            if when is None or when(args, kwargs):
                next(hit)
            return fn(*args, **kwargs)
        return wrapper

    def add(self, name, value):
        with self._lock:
            self._sums[name] += int(value)

    # -- installation ---------------------------------------------------------

    def _everywhere(self, orig, new):
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("blockingsets"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append((setattr, mod, attr, orig))

    def _method(self, cls, attr, new_fn):
        orig = cls.__dict__[attr]
        setattr(cls, attr, new_fn(orig))
        self._undo.append((setattr, cls, attr, orig))

    def install(self):
        """Wrap the package's layer boundaries."""
        import importlib
        (blocking, catalogue, fields, formats, harness, linalg, linearsets,
         projspace, reconstruct, spreads) = (
            importlib.import_module("blockingsets." + name) for name in (
                "blocking", "catalogue", "fields", "formats", "harness",
                "linalg", "linearsets", "projspace", "reconstruct",
                "spreads"))
        span, counted = self.span, self.counted
        for cid, fn in list(harness._CHECKS.items()):
            harness._CHECKS[cid] = span(fn, f"harness.{cid}_s")
            self._undo.append((dict.__setitem__, harness._CHECKS, cid, fn))

        def module_span(mod, attr, name, after=None):
            orig = getattr(mod, attr)
            self._everywhere(orig, span(orig, name, after))

        def incidences(metric):
            return lambda summary: self.add(metric, summary.sizes.sum())

        module_span(harness, "load_catalogue", "harness.load_catalogue_s")
        module_span(formats, "read_pointset", "formats.read_pointset_s")
        module_span(formats, "witness_from_dict",
                    "formats.witness_from_dict_s")
        module_span(formats, "write_pointset", "formats.write_pointset_s")
        module_span(catalogue, "build_witness", "catalogue.build_witness_s")
        module_span(linalg, "rref", "linalg.rref_s")
        module_span(projspace, "_scan_lines", "projspace.line_scan_s",
                    incidences("projspace.line_incidences"))
        module_span(projspace, "_scan_hyperplanes",
                    "projspace.hyperplane_scan_s",
                    incidences("projspace.hyperplane_incidences"))
        module_span(projspace, "_scan_full", "projspace.table_scan_s")
        module_span(projspace, "subspace_traces", "projspace.subspace_traces")
        module_span(blocking, "traces_of", "blocking.traces_of")
        module_span(blocking, "nonsecant_mask", "blocking.nonsecant_mask_s")
        module_span(blocking, "secant_analysis",
                    "blocking.secant_analysis_s")
        module_span(linearsets, "subline_meet_check",
                    "linearsets.subline_meet_check_s",
                    lambda r: self.add("linearsets.sublines_checked",
                                       r.sublines_checked))
        module_span(linearsets, "is_linear", "linearsets.is_linear_s",
                    lambda r: self.add("linearsets.subspaces_tested",
                                       r[1].get("subspaces_tested", 0)))
        module_span(reconstruct, "reconstruct", "reconstruct.reconstruct_s",
                    lambda r: self.add("reconstruct.secants_used", sum(
                        len(x.secants_used)
                        for x in (r if isinstance(r, list) else [r]))))
        module_span(reconstruct, "secant_count_bounds",
                    "reconstruct.secant_count_bounds_s")
        patterns = linearsets.subline_patterns
        if hasattr(patterns, "cache_info"):
            self._pattern_misses = (patterns, patterns.cache_info().misses)
        module_span(linearsets, "subline_patterns",
                    "linearsets.subline_patterns_s")

        for op in ("add", "sub", "neg", "mul", "inv", "pow"):
            self._method(fields.FieldSpec, op,
                         lambda f: counted(f, "fields.scalar_ops"))
        self._method(fields.FieldSpec, "tables", lambda f: span(
            f, "fields.tables_s",
            cached=lambda s: getattr(s, "_tables", None) is not None))
        PS = projspace.ProjectiveSpace
        self._method(PS, "coords_array", lambda f: span(
            f, "projspace.coords_array_s",
            cached=lambda s: getattr(s, "_coords", None) is not None))
        self._method(PS, "incidence",
                     lambda f: span(f, "projspace.incidence_table_s"))
        Sub = projspace.Subspace
        self._method(Sub, "__init__", lambda f: counted(
            f, "projspace.subspaces_reduced",
            when=lambda a, kw: not kw.get("canonical", False)))
        self._method(Sub, "point_ranks", lambda f: counted(span(
            f, "projspace.point_ranks_s",
            cached=lambda s: getattr(s, "_ranks", None) is not None),
            "projspace.point_ranks_calls"))
        for attr in ("indices_through_point", "per_point_counts"):
            self._method(projspace.TraceSummary, attr,
                         lambda f: span(f, "projspace.trace_lookup_s"))
        SC = spreads.SpreadContext
        self._method(SC, "__init__",
                     lambda f: span(f, "spreads.context_build_s"))
        self._method(SC, "transversal_line",
                     lambda f: span(f, "spreads.transversal_line_s"))
        for attr in ("linear_set_of", "linear_set_of_ranks"):
            self._method(SC, attr, lambda f: span(f, "spreads.linear_set_s"))

    def uninstall(self):
        for setter, target, key, orig in reversed(self._undo):
            setter(target, key, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric: seconds of self time (inclusive for the
        harness checks) and counts."""
        by_id = {s[0]: s for s in self.spans}
        child = collections.Counter()
        for sid, parent, _, _, start, end in self.spans:
            if parent:
                child[parent] += end - start
        total = collections.Counter()
        self_ns = collections.Counter()
        calls = collections.Counter()
        scans = 0
        for sid, parent, _, name, start, end in self.spans:
            total[name] += end - start
            self_ns[name] += end - start - child[sid]
            calls[name] += 1
            if name == "projspace.subspace_traces" and parent \
                    and by_id[parent][3] == "blocking.traces_of":
                scans += 1
        out = {}
        for cid in CHECK_IDS:
            out[f"harness.{cid}_s"] = total[f"harness.{cid}_s"] / 1e9
        for name in SELF_TIMES:
            out[name] = self_ns[name] / 1e9
        for metric, name in SPAN_COUNTS.items():
            out[metric] = calls[name]
        for name, hit in self._hits.items():
            out[name] = next(hit)
        out.update(self._sums)
        out["blocking.trace_scans"] = scans
        if self._pattern_misses is not None:
            fn, before = self._pattern_misses
            out["linearsets.subline_pattern_builds"] = \
                fn.cache_info().misses - before
        else:
            out["linearsets.subline_pattern_builds"] = \
                calls["linearsets.subline_patterns_s"]
        return {name: out.get(name, 0) for name in PER_LAYER}

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,thread,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%d,%d\n" % span)
