"""Batch verification of counting bounds over a catalogue of instances.

Every check pairs one counting statement with one instance: it lists the
statement's hypotheses explicitly, evaluates bound and observed value with
exact integer or rational arithmetic, and reports a verdict.  A check whose
hypotheses fail on the instance answers not_applicable rather than being
skipped silently, and a violated verdict always carries enough detail in
its notes to reproduce the offending configuration.

Two of the large-space counting checks carry a second, stricter bound in
their notes (``bound_printed``): the commonly quoted closed form of the
constant.  The verdict is bound to the value that the underlying counting
inequality actually yields, which is the weaker of the two; the quoted
closed form does not follow from that inequality and real configurations
exceed it, so it is reported as data, not used for pass/fail.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import formats
from .blocking import (_log_base, classify_trace, exponent, gap_thresholds,
                       is_k_blocking, is_minimal, is_redei, is_small,
                       is_trivial, nonsecant_point_count,
                       one_mod_p0_applicable, secant_analysis, spectrum,
                       traces_of)
from .errors import (GapViolationError, IoError, NotBlockingError,
                     NotFoundError, ParseError, RangeError, TooLargeError)
from .fields import conway_table_version
from .linearsets import is_linear, subline_meet_check
from .projspace import (PointSet, ProjectiveSpace, Subspace, span,
                        subspace_traces)
from .reconstruct import secant_count_bounds
from .spreads import spread_context

SCORECARD_SCHEMA = "blockingsets-scorecard/1"

CHECK_IDS = (
    "declared_claims",
    "large_through_codim2",
    "large_through_secant",
    "large_through_tangent",
    "nonsecant_points",
    "planar_secant_floor",
    "rich_tangent_config",
    "secant_floor",
    "size_bound_strong",
    "size_bound_weak",
    "small_trace_cap",
    "span_image_subset",
    "subline_meet_sizes",
    "trace_gap",
)

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"


class Instance(NamedTuple):
    name: str
    points: PointSet
    k: int
    p0: int
    claims: dict
    witness: Optional[object]     # LinearSetWitness or None
    slow: bool
    meta: dict


class LemmaCheck(NamedTuple):
    instance: str
    check: str
    hypotheses_met: bool
    hypotheses: dict              # {hypothesis name: bool}
    bound: Optional[object]       # int or Fraction
    observed: Optional[object]
    verdict: str
    notes: dict

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "check": self.check,
            "hypotheses_met": self.hypotheses_met,
            "hypotheses": {k: bool(v) for k, v in
                           sorted(self.hypotheses.items())},
            "bound": _jnum(self.bound),
            "observed": _jnum(self.observed),
            "verdict": self.verdict,
            "notes": _jsonable(self.notes),
        }


def _jnum(x):
    if x is None or isinstance(x, bool):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return _jnum(obj)


def load_instance(path: str) -> Instance:
    """Point set plus sidecar; every fault in the sidecar (a missing key, a
    wrong type, a bad or foreign witness) is a ParseError."""
    pts, meta = formats.read_pointset(path, with_meta=True)
    if meta is None:
        raise ParseError(f"{path}: no metadata sidecar")
    side = formats.meta_path(path)
    k = formats.required(meta, "k", int, side)
    p0 = formats.required(meta, "p0", int, side)

    def optional(key, kind, default):
        return formats.required(meta, key, kind, side) if key in meta \
            else default
    name = optional("name", str, os.path.splitext(os.path.basename(path))[0])
    claims = optional("claims", dict, {})
    slow = optional("slow", bool, False)
    witness = None
    if meta.get("witness") is not None:
        try:
            witness = formats.witness_from_dict(meta["witness"])
        except ParseError as exc:
            raise ParseError(f"{side}: {exc}") from exc
        if witness.points.space is not pts.space:
            raise ParseError(f"{side}: witness lies in "
                             f"{witness.points.space!r}, the points in "
                             f"{pts.space!r}")
    return Instance(name=name, points=pts, k=k, p0=p0, claims=dict(claims),
                    witness=witness, slow=slow, meta=meta)


def load_catalogue(directory: str, names=None) -> list:
    """The instances of every .pts file under directory, in file order; with
    names, only the instances so named (NotFoundError for an unknown one).
    A sidecar may name its instance apart from its file, so the filter
    runs on the loaded names."""
    try:
        files = os.listdir(directory)
    except OSError as exc:
        raise IoError(f"cannot list {directory}: {exc}") from exc
    paths = sorted(
        os.path.join(directory, f) for f in files if f.endswith(".pts"))
    if not paths:
        raise ParseError(f"{directory}: no .pts files")
    instances = [load_instance(p) for p in paths]
    if names is not None:
        wanted = set(names)
        unknown = wanted - {i.name for i in instances}
        if unknown:
            raise NotFoundError(f"unknown instances {sorted(unknown)}")
        instances = [i for i in instances if i.name in wanted]
    return instances


class InstanceAnalysis:
    """Shared lazy computations for all checks on one instance."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.pts = inst.points
        self.space = inst.points.space
        self.k = inst.k
        self.p0 = inst.p0
        self.n = self.space.n
        self.q = self.space.q
        self.p = self.space.field.p
        self.t = self.space.field.t
        self._cache = {}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def blocking(self):
        return self._get("blocking", lambda: is_k_blocking(self.pts, self.k))

    @property
    def small(self):
        return self._get("small", lambda: is_small(self.pts, self.k))

    @property
    def trivial(self):
        return self._get("trivial", lambda: is_trivial(self.pts, self.k))

    @property
    def exponent(self):
        def run():
            try:
                return exponent(self.pts, self.k)
            except NotBlockingError:
                return None
        return self._get("exponent", run)

    @property
    def minimal(self):
        return self._get("minimal",
                         lambda: is_minimal(self.pts, self.k, "direct"))

    @property
    def p0_is_exponent(self) -> bool:
        e = self.exponent
        return e is not None and e > 0 and self.p0 == self.p ** e

    @property
    def h(self):
        """q as a power of p0, or None when p0 is not a proper base."""
        def run():
            try:
                return _log_base(self.q, self.p0)
            except RangeError:
                return None
        return self._get("h", run)

    @property
    def one_mod(self) -> bool:
        return self._get(
            "one_mod",
            lambda: one_mod_p0_applicable(self.pts, self.k, self.p0))

    @property
    def secant_report(self):
        return self._get(
            "secants", lambda: secant_analysis(self.pts, self.k, self.p0))

    def lines(self):
        return traces_of(self.pts, 1)

    def hyperplanes(self):
        return traces_of(self.pts, self.n - 1)

    @property
    def dual_space(self):
        return ProjectiveSpace(self.n, self.space.field)

    @property
    def dual_sizes(self) -> np.ndarray:
        """Hyperplane trace sizes indexed by dual point rank; refused for
        n < 3, where the hyperplanes are lines, keyed by line rank."""
        def run():
            if self.n < 3:
                raise TooLargeError(
                    f"the hyperplanes of {self.space!r} have no dual ranks")
            summary = self.hyperplanes()
            out = np.zeros(self.dual_space.num_points, dtype=np.int64)
            out[summary.keys] = summary.sizes
            return out
        return self._get("dual_sizes", run)

    def dual_rank_of(self, sub: Subspace) -> int:
        return self.dual_space.rank_of(self.space.covector_of(sub))

    # -- scan shared by the two large-space multiplicity checks ----------

    @property
    def large_space_profile(self) -> dict:
        """How many large (n-k+1)-spaces contain each tangent and each
        (p0+1)-secant line, summarized as the number of such lines inside
        some large space and the largest count; computed by scanning the
        large spaces themselves and keying their internal tangent and
        (p0+1)-secant lines (n = 3, k = 2 shape only: the lines are the
        (n-k)-spaces and the hyperplanes are the (n-k+1)-spaces)."""
        return self._get("large_profile", self._scan_large_spaces)

    def _scan_large_spaces(self) -> dict:
        pts, space, p0 = self.pts, self.space, self.p0
        _, upper = gap_thresholds(p0, self.h, 1)
        planes = self.hyperplanes()
        for size in planes.size_counts()[0]:
            classify_trace(int(size), p0, self.h, 1)   # loud on gap traces
        large_idx = np.nonzero(
            planes.sizes * upper.denominator > upper.numerator)[0]
        # ambient line ranks of the internal tangents and (p0+1)-secants,
        # one chunk per large space; a line lies in as many large spaces
        # as its rank occurs
        tangent_keys, secant_keys = [], []
        compositions = []
        for idx in large_idx:
            plane = planes.subspace_at(int(idx))
            inner = pts.intersection(PointSet(space, plane.point_ranks()))
            small_pts, chart = inner.restrict_to(plane)
            inside = subspace_traces(small_pts, 1)
            tan = inside.sizes == 1
            sec = (inside.sizes == p0 + 1) & ~tan
            full = (inside.sizes == chart.small.q + 1) & ~tan & ~sec
            compositions.append(
                (int(tan.sum()), int(sec.sum()), int(full.sum())))
            for sel, out in ((tan, tangent_keys), (sec, secant_keys)):
                rows = inside.bases(np.flatnonzero(sel))
                out.append(space.line_keys(chart.lift_rows(rows)))
        secant_lines, max_secant = _key_multiplicities(secant_keys)
        tangent_lines, max_tangent = _key_multiplicities(tangent_keys)
        lines = self.lines()
        return {
            "large_spaces": int(large_idx.size),
            "secants_inside_large": secant_lines,
            "tangents_inside_large": tangent_lines,
            "max_through_secant": max_secant,
            "max_through_tangent": max_tangent,
            "total_secants": int(np.count_nonzero(lines.sizes == p0 + 1)),
            "total_tangents": int(np.count_nonzero(lines.sizes == 1)),
            "compositions": sorted(set(compositions)),
        }

    # -- witness search shared by the tangent-configuration checks -------

    @property
    def tangent_config(self) -> Optional[dict]:
        """First point on a (p0+1)-secant together with the first tangent
        line through it whose pencil reaches the required count of small
        (n-k+1)-spaces carrying a (p0+1)-secant through the point."""
        return self._get("tangent_config", self._find_tangent_config)

    def _find_tangent_config(self):
        pts, space, p0 = self.pts, self.space, self.p0
        bound = (Fraction(p0) ** (self.h * self.k - self.h)
                 - 5 * Fraction(p0) ** (self.h * self.k - self.h - 1))
        lines = self.lines()
        lower, _ = gap_thresholds(p0, self.h, 1)
        dual_sizes = self.dual_sizes
        best = None
        per_point = lines.per_point_counts(exact=p0 + 1)
        for pos in np.nonzero(per_point > 0)[0]:
            pos = int(pos)
            through = lines.witness_order(lines.indices_through_point(pos))
            sizes = lines.sizes[through]
            secants = [lines.subspace_at(int(i))
                       for i in through[sizes == p0 + 1]]
            for tangent_idx in through[sizes == 1].tolist():
                tangent = lines.subspace_at(tangent_idx)
                found = set()
                for sec in secants:
                    plane = span(space, tangent, sec)
                    d = self.dual_rank_of(plane)
                    if dual_sizes[d] * lower.denominator < lower.numerator:
                        found.add(d)
                entry = {
                    "point": int(pts.ranks[pos]),
                    "tangent_rows": tangent.rows,
                    "small_spaces": len(found),
                    "small_space_duals": sorted(found),
                    "bound": bound,
                    "secants_through_point": len(secants),
                }
                if best is None or entry["small_spaces"] > \
                        best["small_spaces"]:
                    best = entry
                if len(found) * bound.denominator >= bound.numerator:
                    return entry
        return best


def _key_multiplicities(chunks) -> tuple:
    """(distinct keys, largest multiplicity) over chunks of line ranks."""
    keys = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
    if not keys.size:
        return 0, 0
    _, counts = np.unique(keys, return_counts=True)
    return int(counts.size), int(counts.max())


def _hyp(pairs) -> tuple:
    hyp = dict(pairs)
    return all(hyp.values()), hyp


def _na(inst, check, hyp, notes=None) -> LemmaCheck:
    return LemmaCheck(inst, check, False, hyp, None, None,
                      NOT_APPLICABLE, notes or {})


# -- individual checks -----------------------------------------------------


def _check_size_bound_weak(a: InstanceAnalysis) -> LemmaCheck:
    e = a.exponent
    met, hyp = _hyp([
        ("k_blocking", a.blocking[0]),
        ("non_trivial", not a.trivial),
        ("exponent_positive", bool(e)),
    ])
    if not met:
        return _na(a.inst.name, "size_bound_weak", hyp)
    f = Fraction(a.p)
    bound = f ** (a.t * a.k) + f ** (a.t * a.k - e) - f ** (a.t * a.k - 2 * e)
    observed = len(a.pts)
    verdict = HOLDS if observed >= bound else VIOLATED
    return LemmaCheck(a.inst.name, "size_bound_weak", True, hyp,
                      bound, observed, verdict, {"exponent": e})


def _check_size_bound_strong(a: InstanceAnalysis) -> LemmaCheck:
    e = a.exponent
    met, hyp = _hyp([
        ("k_blocking", a.blocking[0]),
        ("non_trivial", not a.trivial),
        ("exponent_positive", bool(e)),
    ])
    if not met:
        return _na(a.inst.name, "size_bound_strong", hyp)
    pe = a.p ** e
    num = a.p ** (a.t * a.k - e) + 1
    bound = a.p ** (a.t * a.k) + 1 + pe * (-(-num // (pe + 1)))
    observed = len(a.pts)
    verdict = HOLDS if observed >= bound else VIOLATED
    return LemmaCheck(a.inst.name, "size_bound_strong", True, hyp,
                      bound, observed, verdict, {"exponent": e})


def _check_trace_gap(a: InstanceAnalysis) -> LemmaCheck:
    met, hyp = _hyp([
        ("p0_at_least_7", a.p0 >= 7),
        ("q_power_of_p0", a.h is not None),
        ("traces_1_mod_p0", a.one_mod),
    ])
    if not met:
        return _na(a.inst.name, "trace_gap", hyp)
    offenders = []
    per_level = {}
    for s in range(a.k):
        dim = a.n - a.k + s
        summary = traces_of(a.pts, dim)
        lower, upper = gap_thresholds(a.p0, a.h, s)
        sizes = [0] if summary.x0 else []
        sizes += [int(v) for v in summary.size_counts()[0]]
        for v in sizes:
            try:
                classify_trace(v, a.p0, a.h, s)
            except GapViolationError:
                offenders.append({"dim": dim, "trace": v})
        per_level[str(s)] = {
            "dim": dim, "traces": sizes,
            "gap_lower": lower, "gap_upper": upper,
        }
    cap = gap_thresholds(a.p0, a.h, a.k)[0]
    size_ok = len(a.pts) < cap
    if not size_ok:
        offenders.append({"dim": a.n, "trace": len(a.pts)})
    verdict = HOLDS if not offenders else VIOLATED
    return LemmaCheck(a.inst.name, "trace_gap", True, hyp, 0,
                      len(offenders), verdict,
                      {"levels": per_level, "offenders": offenders,
                       "size_cap": cap, "size_below_cap": size_ok})


def _check_small_trace_cap(a: InstanceAnalysis) -> LemmaCheck:
    met, hyp = _hyp([
        ("k_at_least_2", a.k >= 2),
        ("non_trivial", not a.trivial),
        ("small", a.small),
        ("minimal", a.minimal[0]),
        ("p0_at_least_7", a.p0 >= 7),
        ("p0_is_exponent", a.p0_is_exponent),
        ("traces_1_mod_p0", a.one_mod),
    ])
    notes = {"assumed_lower_blocking_linearity": True}
    if not met:
        return _na(a.inst.name, "small_trace_cap", hyp, notes)
    offenders = []
    per_level = {}
    for s in range(a.k):
        dim = a.n - a.k + s
        summary = traces_of(a.pts, dim)
        lower, _ = gap_thresholds(a.p0, a.h, s)
        cap = Fraction(a.p0 ** (a.h * s + 1) - 1, a.p0 - 1)
        small_traces = [int(v) for v in summary.size_counts()[0]
                        if int(v) * lower.denominator < lower.numerator]
        over = [v for v in small_traces if v > cap]
        if over:
            offenders.append({"dim": dim, "cap": cap, "traces": over})
        per_level[str(s)] = {
            "dim": dim, "cap": cap,
            "max_small_trace": max(small_traces, default=0),
            "tight": bool(small_traces) and max(small_traces) == cap,
        }
    notes["levels"] = per_level
    notes["offenders"] = offenders
    verdict = HOLDS if not offenders else VIOLATED
    return LemmaCheck(a.inst.name, "small_trace_cap", True, hyp, 0,
                      len(offenders), verdict, notes)


def _check_secant_floor(a: InstanceAnalysis) -> LemmaCheck:
    report = secant_count_bounds(a.pts, a.k, a.p0)
    met, hyp = _hyp([
        ("small", a.small),
        ("minimal", a.minimal[0]),
        ("p0_at_least_7", a.p0 >= 7),
        ("p0_is_exponent", a.p0_is_exponent),
    ])
    notes = {
        "points_on_secants": report.points_checked,
        "violating_points": report.violations[:10],
    }
    if not met:
        # outside the hypotheses the counts are still reported as data
        notes["exploratory_bound"] = report.bound
        notes["exploratory_min"] = report.min_observed
        return _na(a.inst.name, "secant_floor", hyp, notes)
    verdict = HOLDS if report.ok else VIOLATED
    return LemmaCheck(a.inst.name, "secant_floor", True, hyp,
                      report.bound, report.min_observed, verdict, notes)


def _check_planar_secant_floor(a: InstanceAnalysis) -> LemmaCheck:
    met, hyp = _hyp([
        ("planar", a.n == 2),
        ("one_blocking", a.k == 1 and a.blocking[0]),
        ("small", a.small),
        ("minimal", a.minimal[0]),
        ("p0_is_exponent", a.p0_is_exponent),
    ])
    if not met:
        return _na(a.inst.name, "planar_secant_floor", hyp)
    kappa = len(a.pts) - a.q
    bound = Fraction(a.q, a.p0) - Fraction(3 * (kappa - 1), a.p0) + 2
    observed = a.secant_report.min_subline_secants()
    notes = {"kappa": kappa}
    if observed is None:
        notes["no_point_on_a_secant"] = True
        return LemmaCheck(a.inst.name, "planar_secant_floor", True, hyp,
                          bound, None, HOLDS, notes)
    verdict = HOLDS if observed >= bound else VIOLATED
    return LemmaCheck(a.inst.name, "planar_secant_floor", True, hyp,
                      bound, int(observed), verdict, notes)


def _check_nonsecant_points(a: InstanceAnalysis) -> LemmaCheck:
    met, hyp = _hyp([
        ("small", a.small),
        ("minimal", a.minimal[0]),
        ("p0_at_least_7", a.p0 >= 7),
        ("p0_is_exponent", a.p0_is_exponent),
        ("dimension_at_least_2k_plus_1", a.n >= 2 * a.k + 1),
    ])
    if not met:
        return _na(a.inst.name, "nonsecant_points", hyp)
    f = Fraction(a.p0)
    hk = a.h * a.k
    m_cap = gap_thresholds(a.p0, a.h, a.k)[0]
    secant_cap = f ** (2 * hk - 2) + 2 * f ** (2 * hk - 3)
    total = Fraction(a.p0 ** (a.h * (a.n + 1)) - 1)
    bound = total / (f ** a.h + 1) - secant_cap * (f ** a.h + 1) - m_cap
    # same count with the exact line size q+1 in both steps of the proof
    sharp = total / (f ** a.h - 1) - secant_cap * (f ** a.h + 1) - m_cap
    observed = nonsecant_point_count(a.pts)
    hyperplane_points = (a.q ** a.n - 1) // (a.q - 1)
    verdict = HOLDS if observed >= bound else VIOLATED
    return LemmaCheck(
        a.inst.name, "nonsecant_points", True, hyp, bound, observed,
        verdict,
        {"sharp_bound": sharp,
         "sharp_satisfied": observed >= sharp,
         "pg_n_minus_1_points": hyperplane_points,
         "exceeds_pg_n_minus_1": observed > hyperplane_points})


def _shape_hyp(a: InstanceAnalysis) -> tuple:
    # the multiplicity scans enumerate lines inside hyperplanes, which
    # covers exactly the shape where (n-k)-spaces are lines and
    # (n-k+1)-spaces are hyperplanes
    return ("scan_shape_lines_to_hyperplanes",
            a.n - a.k == 1 and a.n - a.k + 1 == a.n - 1)


def _check_large_through_secant(a: InstanceAnalysis) -> LemmaCheck:
    met, hyp = _hyp([
        ("k_at_least_2", a.k >= 2),
        ("small", a.small),
        ("minimal", a.minimal[0]),
        ("p0_at_least_7", a.p0 >= 7),
        ("p0_is_exponent", a.p0_is_exponent),
        ("traces_1_mod_p0", a.one_mod),
        _shape_hyp(a),
    ])
    if not met:
        return _na(a.inst.name, "large_through_secant", hyp)
    f = Fraction(a.p0)
    hk = a.h * a.k
    m_cap = gap_thresholds(a.p0, a.h, a.k)[0]
    count = Fraction(a.p0 ** hk - 1, a.p0 ** a.h - 1)
    # excess of a large space over the p0+1 shared points, and the floor
    # for a small space through the secant (non-trivial planar bound)
    excess_large = gap_thresholds(a.p0, a.h, 1)[1] - a.p0 - 1
    excess_small = (f ** a.h + f ** (a.h - 1) - f ** (a.h - 2) - a.p0 - 1)
    bound = (m_cap - (a.p0 + 1) - count * excess_small) \
        / (excess_large - excess_small)
    printed = 3 * f ** (hk - a.h - 3)
    profile = a.large_space_profile
    observed = profile["max_through_secant"]
    verdict = HOLDS if observed <= bound else VIOLATED
    return LemmaCheck(
        a.inst.name, "large_through_secant", True, hyp, bound, observed,
        verdict,
        {"bound_printed": printed,
         "printed_satisfied": observed <= printed,
         "large_spaces": profile["large_spaces"],
         "secant_spaces": profile["total_secants"],
         "secants_inside_large": profile["secants_inside_large"],
         "per_large_compositions_tan_sec_full": profile["compositions"]})


def _check_large_through_tangent(a: InstanceAnalysis) -> LemmaCheck:
    met, hyp = _hyp([
        ("k_at_least_2", a.k >= 2),
        ("small", a.small),
        ("minimal", a.minimal[0]),
        ("p0_at_least_7", a.p0 >= 7),
        ("p0_is_exponent", a.p0_is_exponent),
        ("traces_1_mod_p0", a.one_mod),
        _shape_hyp(a),
    ])
    if not met:
        return _na(a.inst.name, "large_through_tangent", hyp)
    f = Fraction(a.p0)
    hk = a.h * a.k
    m_cap = gap_thresholds(a.p0, a.h, a.k)[0]
    count = Fraction(a.p0 ** hk - 1, a.p0 ** a.h - 1)
    excess_large = gap_thresholds(a.p0, a.h, 1)[1] - 1
    floor_small = f ** a.h       # q+1 points, one of them on the tangent
    bound = (m_cap - 1 - count * floor_small) / (excess_large - floor_small)
    printed = f ** (hk - a.h - 2) + 4 * f ** (hk - a.h - 3) - 1
    profile = a.large_space_profile
    observed = profile["max_through_tangent"]
    verdict = HOLDS if observed <= bound else VIOLATED
    return LemmaCheck(
        a.inst.name, "large_through_tangent", True, hyp, bound, observed,
        verdict,
        {"bound_printed": printed,
         "printed_satisfied": observed <= printed,
         "large_spaces": profile["large_spaces"],
         "tangent_spaces": profile["total_tangents"],
         "tangents_inside_large": profile["tangents_inside_large"]})


def _check_large_through_codim2(a: InstanceAnalysis) -> LemmaCheck:
    met, hyp = _hyp([
        ("k_at_least_2", a.k >= 2),
        ("non_trivial", not a.trivial),
        ("small", a.small),
        ("minimal", a.minimal[0]),
        ("p0_at_least_7", a.p0 >= 7),
        ("p0_is_exponent", a.p0_is_exponent),
        ("traces_1_mod_p0", a.one_mod),
        ("codim2_spaces_are_lines", a.n == 3),
    ])
    notes = {"assumed_lower_blocking_linearity": True}
    if not met:
        return _na(a.inst.name, "large_through_codim2", hyp, notes)
    bound = 4 * Fraction(a.p0) ** (a.h - 3)
    # The candidates are the small (n-2)-spaces through a (p0+1)-secant.
    # The hypotheses force n = 3 and k = 2 (a minimal 3-blocking set of
    # PG(3, q) is the whole space, which is trivial), so n-2 = n-k and a
    # candidate is a secant line itself, classified at level 0.  Small
    # there means trace < gap_thresholds(p0, h, 0)[0]
    # = 1 + 1/p0 + 1/p0^2 + 3/p0^3 < 2, while a secant has p0 + 1 >= 8
    # points: the check is vacuous by construction.
    notes["candidates"] = 0
    notes["vacuous"] = True
    return LemmaCheck(a.inst.name, "large_through_codim2", True, hyp,
                      bound, 0, HOLDS, notes)


def _check_rich_tangent_config(a: InstanceAnalysis) -> LemmaCheck:
    met, hyp = _hyp([
        ("k_at_least_2", a.k >= 2),
        ("non_trivial", not a.trivial),
        ("small", a.small),
        ("minimal", a.minimal[0]),
        ("p0_at_least_7", a.p0 >= 7),
        ("p0_is_exponent", a.p0_is_exponent),
        ("traces_1_mod_p0", a.one_mod),
        _shape_hyp(a),
    ])
    if not met:
        return _na(a.inst.name, "rich_tangent_config", hyp)
    config = a.tangent_config
    f = Fraction(a.p0)
    bound = f ** (a.h * a.k - a.h) - 5 * f ** (a.h * a.k - a.h - 1)
    if config is None:
        return LemmaCheck(
            a.inst.name, "rich_tangent_config", True, hyp, bound, 0,
            VIOLATED if bound > 0 else HOLDS,
            {"no_point_on_a_secant": True})
    observed = config["small_spaces"]
    verdict = HOLDS if observed >= bound else VIOLATED
    return LemmaCheck(
        a.inst.name, "rich_tangent_config", True, hyp, bound, observed,
        verdict,
        {"witness_point": config["point"],
         "witness_tangent_rows": config["tangent_rows"],
         "secants_through_point": config["secants_through_point"]})


def _check_span_image_subset(a: InstanceAnalysis) -> LemmaCheck:
    met, hyp = _hyp([
        ("k_at_least_2", a.k >= 2),
        ("non_trivial", not a.trivial),
        ("small", a.small),
        ("minimal", a.minimal[0]),
        ("p0_at_least_7", a.p0 >= 7),
        ("p0_is_exponent", a.p0_is_exponent),
        ("traces_1_mod_p0", a.one_mod),
        _shape_hyp(a),
        ("prime_subfield_model", a.p0 == a.p),
    ])
    notes = {"assumed_lower_blocking_linearity": True}
    if not met:
        return _na(a.inst.name, "span_image_subset", hyp, notes)
    config = a.tangent_config
    if config is None or config["small_spaces"] < 2:
        notes["no_two_qualifying_spaces"] = True
        return _na(a.inst.name, "span_image_subset", hyp, notes)
    ctx = spread_context(a.space)
    p_rank = config["point"]
    x = int(min(ctx.element_ranks(p_rank)))
    lines = a.lines()
    pos = int(np.searchsorted(a.pts.ranks, p_rank))
    through = np.sort(lines.indices_through_point(pos))
    secant_idx = through[lines.sizes[through] == a.p0 + 1].tolist()
    secants = [lines.subspace_at(i) for i in secant_idx]
    planes_used = []
    subspaces = []
    for d in config["small_space_duals"]:
        if len(subspaces) == 2:
            break
        cov = a.dual_space.coords_of(int(d))
        plane = a.space.hyperplane(cov)
        inner = a.pts.intersection(PointSet(a.space, plane.point_ranks()))
        # canonical basis rows are normalized points, so a line lies in
        # the plane exactly when both its basis ranks do
        plane_set = set(int(r) for r in plane.point_ranks())
        inside = [i for i, sec in zip(secant_idx, secants)
                  if all(a.space.rank_of(r) in plane_set
                         for r in sec.rows)]
        flat, _ = lines.grouped_points(inside)
        ys = ctx.transversal_line(
            a.pts.ranks[flat].reshape(-1, a.p0 + 1), x)
        ys = ys[ys >= 0].tolist()
        if not ys:
            continue
        # the span of the transversal lines x y
        pi = span(ctx.small, x, *ys)
        image = ctx.linear_set_of_ranks(pi.point_ranks())
        if np.array_equal(np.sort(image), inner.ranks):
            subspaces.append(pi)
            planes_used.append({"dual": int(d), "trace": len(inner),
                                "secants_inside": len(inside),
                                "witness_dim": pi.dim})
    if len(subspaces) < 2:
        notes["reconstructed_spaces"] = len(subspaces)
        return _na(a.inst.name, "span_image_subset", hyp, notes)
    union = span(ctx.small, subspaces[0], subspaces[1])
    image = ctx.linear_set_of_ranks(union.point_ranks())
    extra = np.setdiff1d(image, a.pts.ranks)
    observed = int(extra.size)
    notes.update({
        "planes": planes_used,
        "span_dim": union.dim,
        "image_size": int(np.unique(image).size),
        "set_size": len(a.pts),
        "proper_subset": int(np.unique(image).size) < len(a.pts),
        "extra_points": [int(v) for v in extra[:10]],
    })
    verdict = HOLDS if observed == 0 else VIOLATED
    return LemmaCheck(a.inst.name, "span_image_subset", True, hyp, 0,
                      observed, verdict, notes)


def _check_subline_meet_sizes(a: InstanceAnalysis) -> LemmaCheck:
    met, hyp = _hyp([
        ("witness_available", a.inst.witness is not None),
    ])
    if not met:
        return _na(a.inst.name, "subline_meet_sizes", hyp)
    report = subline_meet_check(a.inst.witness)
    notes = {
        "rank": a.inst.witness.rank,
        "allowed_sizes": list(report.allowed_sizes),
        "secant_lines": report.secant_lines,
        "sublines_checked": report.sublines_checked,
        "violations": [
            {"line_rows": line.rows, "subline": [int(r) for r in sub.ranks],
             "size": size} for line, sub, size in report.violations],
    }
    verdict = HOLDS if report.ok else VIOLATED
    return LemmaCheck(a.inst.name, "subline_meet_sizes", True, hyp, 0,
                      len(report.violations), verdict, notes)


def _check_declared_claims(a: InstanceAnalysis) -> LemmaCheck:
    claims = a.inst.claims
    results = {}
    mismatches = 0
    witness_notes = {}

    def record(name, declared, computed, extra=None):
        nonlocal mismatches
        entry = {"declared": declared, "computed": computed,
                 "match": declared == computed}
        if extra:
            entry.update(extra)
        if not entry["match"]:
            mismatches += 1
        results[name] = entry

    if "blocking" in claims:
        ok, witness = a.blocking
        extra = None
        if not ok and witness is not None:
            extra = {"uncovered_rows": witness.rows}
        record("blocking", bool(claims["blocking"]), ok, extra)
    if "small" in claims:
        record("small", bool(claims["small"]), a.small)
    if "minimal" in claims:
        try:
            ok, witness = a.minimal
        except NotBlockingError:
            ok, witness = False, None
        extra = None
        if not ok and witness is not None:
            extra = {"removable_point": int(witness)}
        record("minimal", bool(claims["minimal"]), ok, extra)
    if "exponent" in claims:
        record("exponent", int(claims["exponent"]), a.exponent)
    if "redei" in claims:
        try:
            ok, hyperplane = is_redei(a.pts, a.k)
        except NotBlockingError:
            ok, hyperplane = False, None
        extra = {"hyperplane_rows": hyperplane.rows} if hyperplane else None
        record("redei", bool(claims["redei"]), ok, extra)
    if "linear" in claims:
        if a.inst.witness is not None:
            w = a.inst.witness
            computed = bool(w.verify()) and w.points == a.pts
            record("linear", bool(claims["linear"]), computed,
                   {"via": "shipped witness", "rank": w.rank})
        else:
            try:
                witness, cert = is_linear(a.pts, a.p0, k=a.k)
                record("linear", bool(claims["linear"]), witness is not None,
                       {"via": cert.get("strategy"),
                        "subspaces_tested": cert.get("subspaces_tested")})
            except TooLargeError:
                results["linear"] = {"declared": bool(claims["linear"]),
                                     "computed": None, "match": True,
                                     "skipped": "search space too large"}
    verdict = HOLDS if mismatches == 0 else VIOLATED
    return LemmaCheck(a.inst.name, "declared_claims", True, {},
                      0, mismatches, verdict, {"claims": results})


_CHECKS = {
    "declared_claims": _check_declared_claims,
    "large_through_codim2": _check_large_through_codim2,
    "large_through_secant": _check_large_through_secant,
    "large_through_tangent": _check_large_through_tangent,
    "nonsecant_points": _check_nonsecant_points,
    "planar_secant_floor": _check_planar_secant_floor,
    "rich_tangent_config": _check_rich_tangent_config,
    "secant_floor": _check_secant_floor,
    "size_bound_strong": _check_size_bound_strong,
    "size_bound_weak": _check_size_bound_weak,
    "small_trace_cap": _check_small_trace_cap,
    "span_image_subset": _check_span_image_subset,
    "subline_meet_sizes": _check_subline_meet_sizes,
    "trace_gap": _check_trace_gap,
}


def run_instance(inst: Instance, checks=None) -> list:
    analysis = InstanceAnalysis(inst)
    out = []
    for check_id in (checks or CHECK_IDS):
        try:
            out.append(_CHECKS[check_id](analysis))
        except NotBlockingError as exc:
            # every bound presumes a blocking set; a non-blocking instance
            # leaves the check inapplicable (declared_claims still flags it)
            out.append(LemmaCheck(inst.name, check_id, False,
                                  {"blocking": False}, None, None,
                                  NOT_APPLICABLE, {"error": str(exc)}))
    return out


def run_suite(instances, include_slow=False, checks=None, threads=None):
    """All checks on all instances, one instance after another; returns
    (results, skipped names).

    Results are ordered by (instance name, check id), so scorecards are
    reproducible byte for byte.
    """
    # threads is ignored, kept only because perfbench/worker.py passes it
    selected = [i for i in instances if include_slow or not i.slow]
    skipped = sorted(i.name for i in instances if i not in selected)
    results = [check for inst in selected
               for check in run_instance(inst, checks)]
    results.sort(key=lambda c: (c.instance, c.check))
    return results, skipped


def scorecard(results, skipped=()) -> dict:
    counts = {HOLDS: 0, VIOLATED: 0, NOT_APPLICABLE: 0}
    for check in results:
        counts[check.verdict] += 1
    return {
        "schema": SCORECARD_SCHEMA,
        "conway_table": conway_table_version(),
        "checks": [c.to_json() for c in results],
        "summary": dict(sorted(counts.items())),
        "skipped_instances": sorted(skipped),
    }


def counting_identities(p: int, t: int, n: int, dims, trials: int,
                        seed: int) -> dict:
    """Power-sum identities of intersection spectra on random subsets.

    For each trial a uniformly random subset (of uniformly random size,
    including the empty and full sets) is drawn and the zeroth, first and
    second factorial moments of its spectrum at every requested dimension
    are compared against their closed forms.  Exact integers throughout.
    """
    space = formats.space_for(p, t, n)
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
        if trial == 0:
            size = 0
        elif trial == 1:
            size = space.num_points
        else:
            size = int(rng.integers(0, space.num_points + 1))
        ranks = rng.choice(space.num_points, size=size, replace=False)
        pts = PointSet(space, ranks)
        for dim in dims:
            spec = spectrum(pts, dim)
            if not spec.identities_hold():
                failures.append({"trial": trial, "dim": int(dim),
                                 "size": size})
    return {
        "space": {"p": p, "t": t, "n": n},
        "dims": [int(d) for d in dims],
        "trials": trials,
        "seed": seed,
        "all_hold": not failures,
        "failures": failures,
    }
