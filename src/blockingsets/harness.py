"""Batch verification of counting bounds over a catalogue of instances.

Every check pairs one counting statement with one instance: it names the
statement's hypotheses from one shared table, evaluates bound and observed
value with exact integer or rational arithmetic, and reports a verdict.  A
check whose hypotheses fail on the instance answers not_applicable rather
than being skipped silently, and a violated verdict always carries enough
detail in its notes to reproduce the offending configuration.

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
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import formats
from .blocking import (_above, _below, classify_trace, exponent,
                       gap_thresholds, is_k_blocking, is_minimal, is_redei,
                       is_small, is_trivial, nonsecant_point_count,
                       one_mod_p0_applicable, secant_analysis, spectrum,
                       traces_of)
from .errors import (BadParamsError, IoError, NotBlockingError,
                     NotFoundError, ParseError, SpecMismatchError,
                     TooLargeError)
from .fields import conway_table_version, exact_log
from .linearsets import is_linear, subline_meet_check
from .projspace import PointSet, span
from .reconstruct import secant_count_bounds
from .spreads import spread_context

SCORECARD_SCHEMA = "blockingsets-scorecard/1"

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


# the JSON kind of each claim a sidecar may declare
_CLAIM_KINDS = {"blocking": bool, "small": bool, "minimal": bool,
                "exponent": int, "redei": bool, "linear": bool}


def load_instance(path: str) -> Instance:
    """Point set plus sidecar; every fault in the sidecar (a missing key, a
    wrong type, an unknown claim, a k outside 1..n-1, a p0 that is no
    subfield order, a bad or foreign witness) is a ParseError."""
    pts, meta = formats.read_pointset(path, with_meta=True)
    if meta is None:
        raise ParseError(f"{path}: no metadata sidecar")
    side = formats.meta_path(path)
    k = formats.required(meta, "k", int, side)
    p0 = formats.required(meta, "p0", int, side)
    space = pts.space
    if not 1 <= k <= space.n - 1:
        raise ParseError(f"{side}: k={k} out of range 1..{space.n - 1} "
                         f"for {space!r}")
    try:
        space.field.subfield_degree(p0)
    except BadParamsError as exc:
        raise ParseError(f"{side}: p0={p0}: {exc}") from exc

    def optional(key, kind, default):
        return formats.required(meta, key, kind, side) if key in meta \
            else default
    name = optional("name", str, os.path.splitext(os.path.basename(path))[0])
    claims = optional("claims", dict, {})
    unknown = sorted(set(claims) - set(_CLAIM_KINDS))
    if unknown:
        raise ParseError(f"{side}: unknown claim {unknown[0]!r}")
    for key, kind in _CLAIM_KINDS.items():
        if key in claims:
            formats.required(claims, key, kind, f"{side} claims")
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

    @cached_property
    def blocking(self):
        return is_k_blocking(self.pts, self.k)

    @cached_property
    def small(self):
        return is_small(self.pts, self.k)

    @cached_property
    def trivial(self):
        return is_trivial(self.pts, self.k)

    @cached_property
    def exponent(self):
        try:
            return exponent(self.pts, self.k)
        except NotBlockingError:
            return None

    @cached_property
    def minimal(self):
        return is_minimal(self.pts, self.k, "direct")

    @property
    def p0_is_exponent(self) -> bool:
        e = self.exponent
        return e is not None and e > 0 and self.p0 == self.p ** e

    @cached_property
    def h(self):
        """q as a power of p0, or None when p0 is not a proper base."""
        return exact_log(self.q, self.p0)

    @cached_property
    def one_mod(self) -> bool:
        return one_mod_p0_applicable(self.pts, self.k, self.p0)

    @cached_property
    def secant_report(self):
        return secant_analysis(self.pts, self.k, self.p0)

    @cached_property
    def secant_bounds(self):
        return secant_count_bounds(self.pts, self.k, self.p0)

    def lines(self):
        return traces_of(self.pts, 1)

    def hyperplanes(self):
        return traces_of(self.pts, self.n - 1)

    # -- scan shared by the two large-space multiplicity checks ----------

    @cached_property
    def large_space_profile(self) -> dict:
        """How many large (n-k+1)-spaces contain each tangent and each
        (p0+1)-secant line, summarized as the number of such lines inside
        some large space and the largest count (n = 3, k = 2 shape only:
        the lines are the (n-k)-spaces and the hyperplanes are the
        (n-k+1)-spaces).  A line L inside a large space P meets B inside P
        in the points it shares with B, |L cap (B cap P)| = |L cap B|, so
        the ambient line summary holds the trace of every line of every
        large space: the lines of each large space are ranked in the
        ambient space and their sizes read from that summary, with no scan
        of the large spaces."""
        space, p0 = self.space, self.p0
        _, upper = gap_thresholds(p0, self.h, 1)
        planes = self.hyperplanes()
        for size in planes.size_counts()[0]:
            classify_trace(int(size), p0, self.h, 1)   # loud on gap traces
        large_idx = np.flatnonzero(_above(planes.sizes, upper))
        lines = self.lines()
        # row i: the ambient line ranks of the lines of large space i; a
        # line lies in as many large spaces as its rank occurs
        keys = space.lines_inside(planes.bases(large_idx))
        sizes = lines.sizes_of(keys)
        tan = sizes == 1
        sec = (sizes == p0 + 1) & ~tan
        full = (sizes == space.q + 1) & ~tan & ~sec
        compositions = zip(*(m.sum(axis=1).tolist() for m in (tan, sec,
                                                               full)))
        secant_lines, max_secant = _key_multiplicities(keys[sec])
        tangent_lines, max_tangent = _key_multiplicities(keys[tan])
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
    def tangent_bound(self) -> Fraction:
        """The number of small (n-k+1)-spaces that the pencil of a rich
        tangent reaches."""
        f = Fraction(self.p0)
        return f ** (self.h * self.k - self.h) \
            - 5 * f ** (self.h * self.k - self.h - 1)

    @cached_property
    def tangent_config(self) -> Optional[dict]:
        """First point on a (p0+1)-secant together with the first tangent
        line through it whose pencil reaches the required count of small
        (n-k+1)-spaces carrying a (p0+1)-secant through the point.  The
        planes are read by their dual ranks, the hyperplane keys only for
        n >= 3: for n < 3 the hyperplanes are lines, keyed by line rank."""
        if self.n < 3:
            raise TooLargeError(
                f"the hyperplanes of {self.space!r} have no dual ranks")
        pts, p0 = self.pts, self.p0
        bound = self.tangent_bound
        lines = self.lines()
        planes = self.hyperplanes()
        lower, _ = gap_thresholds(p0, self.h, 1)
        best = None
        per_point = lines.per_point_counts(exact=p0 + 1)
        for pos in np.nonzero(per_point > 0)[0]:
            pos = int(pos)
            through = lines.witness_order(lines.indices_through_point(pos))
            sizes = lines.sizes[through]
            secants = lines.bases(through[sizes == p0 + 1])
            for tangent_idx in through[sizes == 1].tolist():
                tangent = lines.subspace_at(tangent_idx)
                duals = self._plane_duals(tangent.rows, secants)
                found = sorted(set(
                    duals[_below(planes.sizes_of(duals), lower)].tolist()))
                entry = {
                    "point": int(pts.ranks[pos]),
                    "tangent_rows": tangent.rows,
                    "small_spaces": len(found),
                    "small_space_duals": found,
                    "secants_through_point": len(secants),
                }
                if best is None or entry["small_spaces"] > \
                        best["small_spaces"]:
                    best = entry
                if not _below(len(found), bound):
                    return entry
        return best

    def _plane_duals(self, tangent, secants) -> np.ndarray:
        """Dual ranks of the hyperplanes spanned by one line (its 2 basis
        rows) and each of a stack of lines, (S, 2, n+1): the stacked rows
        reduced in one `rref_rows` call, their covectors read off in one
        `_covector_rows` call and ranked in one.  A pair that does not
        span a hyperplane is a SpecMismatchError."""
        space = self.space
        n = space.n
        stack = np.concatenate([np.broadcast_to(
            np.asarray(tangent, dtype=np.int64), secants.shape), secants],
            axis=1)
        rows, ranks = space.rref_rows(stack)
        if (ranks != n).any():
            raise SpecMismatchError(
                "a tangent and a secant through one point do not span a "
                "hyperplane")
        return space.ranks_from_rows(space._covector_rows(rows[:, :n]),
                                     normalized=True)


def _key_multiplicities(keys) -> tuple:
    """(distinct keys, largest multiplicity) of an array of line ranks."""
    if not keys.size:
        return 0, 0
    _, counts = np.unique(keys, return_counts=True)
    return int(counts.size), int(counts.max())


# -- hypotheses ------------------------------------------------------------

# Every hypothesis a check may list, by name.  A check lists names; its
# record carries the value of each, and it applies when all of them hold.
_HYPOTHESES = {
    "k_blocking": lambda a: a.blocking[0],
    "non_trivial": lambda a: not a.trivial,
    "exponent_positive": lambda a: bool(a.exponent),
    "k_at_least_2": lambda a: a.k >= 2,
    "small": lambda a: a.small,
    "minimal": lambda a: a.minimal[0],
    "p0_at_least_7": lambda a: a.p0 >= 7,
    "p0_is_exponent": lambda a: a.p0_is_exponent,
    "q_power_of_p0": lambda a: a.h is not None,
    "traces_1_mod_p0": lambda a: a.one_mod,
    "planar": lambda a: a.n == 2,
    "one_blocking": lambda a: a.k == 1 and a.blocking[0],
    "dimension_at_least_2k_plus_1": lambda a: a.n >= 2 * a.k + 1,
    # the multiplicity scans enumerate lines inside hyperplanes, which
    # covers exactly the shape where (n-k)-spaces are lines and
    # (n-k+1)-spaces are hyperplanes
    "scan_shape_lines_to_hyperplanes":
        lambda a: a.n - a.k == 1 and a.n - a.k + 1 == a.n - 1,
    "codim2_spaces_are_lines": lambda a: a.n == 3,
    "prime_subfield_model": lambda a: a.p0 == a.p,
    "witness_available": lambda a: a.inst.witness is not None,
}

# blocks shared by several checks, in the order the checks list them: the
# size bounds, the small minimal sets with p0 = p^e >= 7, the k >= 2
# lemmas built on the small/large trace dichotomy, and the two
# large-space multiplicity bounds
_SIZE = ("k_blocking", "non_trivial", "exponent_positive")
_SMALL_MINIMAL = ("small", "minimal", "p0_at_least_7", "p0_is_exponent")
_DICHOTOMY = ("k_at_least_2", "non_trivial") + _SMALL_MINIMAL \
    + ("traces_1_mod_p0",)
_SHAPE = "scan_shape_lines_to_hyperplanes"
_LARGE_SPACES = ("k_at_least_2",) + _SMALL_MINIMAL \
    + ("traces_1_mod_p0", _SHAPE)


# -- the check skeleton ----------------------------------------------------

_CHECKS = {}


class _Inapplicable(Exception):
    """Raised by a check body whose hypotheses hold but whose instance
    offers nothing to measure; its notes join the check's notes."""

    def __init__(self, **notes):
        super().__init__()
        self.notes = notes


def _check(cid: str, hypotheses=(), notes=None):
    """Register the decorated body as check cid.

    The registered callable runs `notes` (not-applicable notes, computed
    before anything else), then every listed hypothesis in order.  When
    one fails it answers not_applicable with those notes; otherwise the
    body returns (bound, observed, ok, notes) and the verdict is holds
    exactly when ok.
    """
    def register(body):
        def run(a: InstanceAnalysis) -> LemmaCheck:
            na_notes = notes(a) if notes else {}
            hyp = {name: _HYPOTHESES[name](a) for name in hypotheses}
            try:
                if all(hyp.values()):
                    bound, observed, ok, body_notes = body(a)
                    return LemmaCheck(a.inst.name, cid, True, hyp, bound,
                                      observed, HOLDS if ok else VIOLATED,
                                      body_notes)
            except _Inapplicable as exc:
                na_notes.update(exc.notes)
            return LemmaCheck(a.inst.name, cid, False, hyp, None, None,
                              NOT_APPLICABLE, na_notes)
        _CHECKS[cid] = run
        return body
    return register


def _assumed(a) -> dict:
    # the bound rests on the linearity of small minimal blocking sets of
    # lower index, which the harness takes as given
    return {"assumed_lower_blocking_linearity": True}


def _levels(a):
    """(s, dim, trace summary, gap thresholds) for each level s < k."""
    for s in range(a.k):
        dim = a.n - a.k + s
        yield s, dim, traces_of(a.pts, dim), gap_thresholds(a.p0, a.h, s)


# -- individual checks -----------------------------------------------------


@_check("size_bound_weak", _SIZE)
def _size_bound_weak(a):
    e, f = a.exponent, Fraction(a.p)
    bound = f ** (a.t * a.k) + f ** (a.t * a.k - e) - f ** (a.t * a.k - 2 * e)
    return bound, len(a.pts), len(a.pts) >= bound, {"exponent": e}


@_check("size_bound_strong", _SIZE)
def _size_bound_strong(a):
    e = a.exponent
    pe = a.p ** e
    num = a.p ** (a.t * a.k - e) + 1
    bound = a.p ** (a.t * a.k) + 1 + pe * (-(-num // (pe + 1)))
    return bound, len(a.pts), len(a.pts) >= bound, {"exponent": e}


@_check("trace_gap",
        ("small", "p0_at_least_7", "q_power_of_p0", "traces_1_mod_p0"))
def _trace_gap(a):
    offenders, per_level = [], {}
    for s, dim, summary, (lower, upper) in _levels(a):
        sizes = [0] if summary.x0 else []
        sizes += [int(v) for v in summary.size_counts()[0]]
        offenders += [{"dim": dim, "trace": v} for v in sizes
                      if lower <= v <= upper]
        per_level[str(s)] = {"dim": dim, "traces": sizes,
                             "gap_lower": lower, "gap_upper": upper}
    cap = gap_thresholds(a.p0, a.h, a.k)[0]
    size_ok = len(a.pts) < cap
    if not size_ok:
        offenders.append({"dim": a.n, "trace": len(a.pts)})
    return 0, len(offenders), not offenders, {
        "levels": per_level, "offenders": offenders,
        "size_cap": cap, "size_below_cap": size_ok}


@_check("small_trace_cap", _DICHOTOMY, notes=_assumed)
def _small_trace_cap(a):
    offenders, per_level = [], {}
    for s, dim, summary, (lower, _) in _levels(a):
        cap = Fraction(a.p0 ** (a.h * s + 1) - 1, a.p0 - 1)
        small_traces = [int(v) for v in summary.size_counts()[0]
                        if _below(int(v), lower)]
        over = [v for v in small_traces if v > cap]
        if over:
            offenders.append({"dim": dim, "cap": cap, "traces": over})
        per_level[str(s)] = {
            "dim": dim, "cap": cap,
            "max_small_trace": max(small_traces, default=0),
            "tight": bool(small_traces) and max(small_traces) == cap,
        }
    return 0, len(offenders), not offenders, {
        **_assumed(a), "levels": per_level, "offenders": offenders}


def _secant_notes(a) -> dict:
    report = a.secant_bounds
    return {"points_on_secants": report.points_checked,
            "violating_points": report.violations[:10]}


def _secant_exploratory(a) -> dict:
    # outside the hypotheses the counts are still reported as data
    report = a.secant_bounds
    return {**_secant_notes(a), "exploratory_bound": report.bound,
            "exploratory_min": report.min_observed}


@_check("secant_floor", _SMALL_MINIMAL, notes=_secant_exploratory)
def _secant_floor(a):
    report = a.secant_bounds
    return report.bound, report.min_observed, report.ok, _secant_notes(a)


@_check("planar_secant_floor",
        ("planar", "one_blocking", "small", "minimal", "p0_is_exponent"))
def _planar_secant_floor(a):
    kappa = len(a.pts) - a.q
    bound = Fraction(a.q, a.p0) - Fraction(3 * (kappa - 1), a.p0) + 2
    observed = a.secant_report.min_subline_secants()
    if observed is None:
        return bound, None, True, {"kappa": kappa,
                                   "no_point_on_a_secant": True}
    return bound, int(observed), observed >= bound, {"kappa": kappa}


@_check("nonsecant_points",
        _SMALL_MINIMAL + ("dimension_at_least_2k_plus_1",))
def _nonsecant_points(a):
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
    return bound, observed, observed >= bound, {
        "sharp_bound": sharp,
        "sharp_satisfied": observed >= sharp,
        "pg_n_minus_1_points": hyperplane_points,
        "exceeds_pg_n_minus_1": observed > hyperplane_points}


def _large_through(a, line: str, shared: int, floor, printed):
    """Bound and profile for the large (n-k+1)-spaces through one line of
    a kind ("secant" or "tangent").  The line holds `shared` points of B
    and each (n-k+1)-space through it at least `floor` more; B has fewer
    points than its size cap, so the number of large spaces through the
    line is at most what is left of the cap once the line and every floor
    are paid, divided by how much more than the floor a large space
    holds."""
    m_cap = gap_thresholds(a.p0, a.h, a.k)[0]
    count = Fraction(a.p0 ** (a.h * a.k) - 1, a.p0 ** a.h - 1)
    excess_large = gap_thresholds(a.p0, a.h, 1)[1] - shared
    bound = (m_cap - shared - count * floor) / (excess_large - floor)
    profile = a.large_space_profile
    observed = profile[f"max_through_{line}"]
    return bound, observed, observed <= bound, {
        "bound_printed": printed,
        "printed_satisfied": observed <= printed,
        "large_spaces": profile["large_spaces"],
        f"{line}_spaces": profile[f"total_{line}s"],
        f"{line}s_inside_large": profile[f"{line}s_inside_large"]}


@_check("large_through_secant", _LARGE_SPACES)
def _large_through_secant(a):
    f = Fraction(a.p0)
    # the floor for a small space through the secant (non-trivial planar
    # bound), less the p0+1 points it shares with the secant
    floor = f ** a.h + f ** (a.h - 1) - f ** (a.h - 2) - a.p0 - 1
    printed = 3 * f ** (a.h * a.k - a.h - 3)
    bound, observed, ok, notes = _large_through(a, "secant", a.p0 + 1,
                                                floor, printed)
    notes["per_large_compositions_tan_sec_full"] = \
        a.large_space_profile["compositions"]
    return bound, observed, ok, notes


@_check("large_through_tangent", _LARGE_SPACES)
def _large_through_tangent(a):
    f = Fraction(a.p0)
    hk = a.h * a.k
    printed = f ** (hk - a.h - 2) + 4 * f ** (hk - a.h - 3) - 1
    # a small space through the tangent has q+1 points, one on the tangent
    return _large_through(a, "tangent", 1, f ** a.h, printed)


@_check("large_through_codim2", _DICHOTOMY + ("codim2_spaces_are_lines",),
        notes=_assumed)
def _large_through_codim2(a):
    # The candidates are the small (n-2)-spaces through a (p0+1)-secant.
    # The hypotheses force n = 3 and k = 2 (a minimal 3-blocking set of
    # PG(3, q) is the whole space, which is trivial), so n-2 = n-k and a
    # candidate is a secant line itself, classified at level 0.  Small
    # there means trace < gap_thresholds(p0, h, 0)[0]
    # = 1 + 1/p0 + 1/p0^2 + 3/p0^3 < 2, while a secant has p0 + 1 >= 8
    # points: the check is vacuous by construction.
    return 4 * Fraction(a.p0) ** (a.h - 3), 0, True, {
        **_assumed(a), "candidates": 0, "vacuous": True}


@_check("rich_tangent_config", _DICHOTOMY + (_SHAPE,))
def _rich_tangent_config(a):
    config, bound = a.tangent_config, a.tangent_bound
    if config is None:
        return bound, 0, bound <= 0, {"no_point_on_a_secant": True}
    observed = config["small_spaces"]
    return bound, observed, observed >= bound, {
        "witness_point": config["point"],
        "witness_tangent_rows": config["tangent_rows"],
        "secants_through_point": config["secants_through_point"]}


@_check("span_image_subset",
        _DICHOTOMY + (_SHAPE, "prime_subfield_model"), notes=_assumed)
def _span_image_subset(a):
    config = a.tangent_config
    if config is None or config["small_spaces"] < 2:
        raise _Inapplicable(no_two_qualifying_spaces=True)
    ctx = spread_context(a.space)
    p_rank = config["point"]
    x = int(min(ctx.element_ranks(p_rank)))
    pos = int(np.searchsorted(a.pts.ranks, p_rank))
    _, positions = a.lines().secants_through(pos, a.p0 + 1)
    traces = a.pts.ranks[positions]
    planes_used, subspaces = [], []
    for d in config["small_space_duals"]:
        if len(subspaces) == 2:
            break
        cov = a.space.coords_of(int(d))
        plane = PointSet(a.space, a.space.hyperplane(cov).point_ranks())
        inner = a.pts.intersection(plane)
        # a line meets a plane it does not lie in once, so a secant with
        # its p0+1 >= 2 trace points in the plane lies in it
        inside = plane.mask()[traces].all(axis=1)
        ys = ctx.transversal_line(traces[inside], x)
        ys = ys[ys >= 0].tolist()
        if not ys:
            continue
        # the span of the transversal lines x y
        pi = span(ctx.small, x, *ys)
        image = ctx.linear_set_of_ranks(pi.point_ranks())
        if np.array_equal(np.sort(image), inner.ranks):
            subspaces.append(pi)
            planes_used.append({"dual": int(d), "trace": len(inner),
                                "secants_inside": int(inside.sum()),
                                "witness_dim": pi.dim})
    if len(subspaces) < 2:
        raise _Inapplicable(reconstructed_spaces=len(subspaces))
    union = span(ctx.small, subspaces[0], subspaces[1])
    image = ctx.linear_set_of_ranks(union.point_ranks())
    # the image is sorted and unique (linear_set_of_ranks)
    extra = image[~np.isin(image, a.pts.ranks, assume_unique=True)]
    image_size = int(image.size)
    return 0, int(extra.size), extra.size == 0, {
        **_assumed(a),
        "planes": planes_used,
        "span_dim": union.dim,
        "image_size": image_size,
        "set_size": len(a.pts),
        "proper_subset": image_size < len(a.pts),
        "extra_points": [int(v) for v in extra[:10]],
    }


@_check("subline_meet_sizes", ("witness_available",))
def _subline_meet_sizes(a):
    report = subline_meet_check(a.inst.witness)
    return 0, len(report.violations), report.ok, {
        "rank": a.inst.witness.rank,
        "allowed_sizes": list(report.allowed_sizes),
        "secant_lines": report.secant_lines,
        "sublines_checked": report.sublines_checked,
        "violations": [
            {"line_rows": line.rows, "subline": [int(r) for r in sub.ranks],
             "size": size} for line, sub, size in report.violations],
    }


@_check("declared_claims")
def _declared_claims(a):
    claims = a.inst.claims
    results = {}

    def record(name, declared, computed, extra=None):
        results[name] = {"declared": declared, "computed": computed,
                         "match": declared == computed, **(extra or {})}

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
        ok, hyperplane = is_redei(a.pts, a.k)
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
    mismatches = sum(not r["match"] for r in results.values())
    return 0, mismatches, mismatches == 0, {"claims": results}


CHECK_IDS = tuple(sorted(_CHECKS))


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
