"""Output checks for every workload.

Each check takes plain data (scorecard dicts, rank lists, spectrum
counts) and returns a list of failure messages; an empty list means the
output is right.  The expected values come from gf.py or from properties
the mathematics guarantees for these instances, never from a stored copy
of an earlier output.
"""

from fractions import Fraction

import numpy as np

import gf

CHECK_IDS = (
    "declared_claims", "large_through_codim2", "large_through_secant",
    "large_through_tangent", "nonsecant_points", "planar_secant_floor",
    "rich_tangent_config", "secant_floor", "size_bound_strong",
    "size_bound_weak", "small_trace_cap", "span_image_subset",
    "subline_meet_sizes", "trace_gap",
)


class Instance:
    """Closed-form facts of one catalogue instance.

    All six are small minimal GF(p0)-linear k-blocking sets with p0 = p,
    so every (n-k)-trace is 1, p0+1 or q+1 and the exponent is 1.
    """

    def __init__(self, name, p, t, n, k, p0, size, rank):
        self.name, self.p, self.t, self.n, self.k = name, p, t, n, k
        self.p0, self.size, self.rank = p0, size, rank
        self.q = p ** t
        self.h = t              # q = p0^h since p0 = p

    def hypotheses(self):
        n, k, p0, q = self.n, self.k, self.p0, self.q
        return {
            "k_blocking": True, "non_trivial": True, "minimal": True,
            "exponent_positive": True, "p0_is_exponent": True,
            "q_power_of_p0": True, "witness_available": True,
            "p0_at_least_7": p0 >= 7, "traces_1_mod_p0": p0 >= 7,
            "k_at_least_2": k >= 2, "planar": n == 2, "one_blocking": k == 1,
            "small": 2 * self.size < 3 * (q ** k + 1),
            "dimension_at_least_2k_plus_1": n >= 2 * k + 1,
            "scan_shape_lines_to_hyperplanes": n - k == 1 and n == 3,
            "codim2_spaces_are_lines": n == 3,
            "prime_subfield_model": p0 == self.p,
        }


INSTANCES = {i.name: i for i in (
    # Baer subplane PG(2,3) in PG(2,9): q + sqrt(q) + 1
    Instance("baer_pg2_9", 3, 2, 2, 1, 3, 9 + 3 + 1, 3),
    # cone: vertex plus q points on each of the 13 Baer-subplane lines
    Instance("cone_pg3_9", 3, 2, 3, 2, 3, 1 + 13 * 9, 5),
    # scattered rank-4 GF(3)-linear set: (3^4 - 1) / (3 - 1)
    Instance("rank4_pg2_27", 3, 3, 2, 1, 3, (3 ** 4 - 1) // 2, 4),
    Instance("subgeom_pg2_49", 7, 2, 2, 1, 7, 49 + 7 + 1, 3),
    Instance("subplane_pg3_49", 7, 2, 3, 1, 7, 49 + 7 + 1, 3),
    Instance("cone_pg3_49", 7, 2, 3, 2, 7, 1 + 57 * 49, 5),
)}

FAST = tuple(sorted(n for n in INSTANCES if n != "cone_pg3_49"))


# -- bounds recomputed from their formulas ---------------------------------


def expected_bounds(inst):
    """{check id: bound} for the checks whose bound is a closed form."""
    p, t, k, e = inst.p, inst.t, inst.k, 1
    f, h, n, q = Fraction(inst.p0), inst.h, inst.n, inst.q
    pe = p ** e
    out = {
        "size_bound_weak": Fraction(p) ** (t * k) + Fraction(p) ** (t * k - e)
        - Fraction(p) ** (t * k - 2 * e),
        "size_bound_strong": Fraction(p ** (t * k) + 1 + pe * (
            -(-(p ** (t * k - e) + 1) // (pe + 1)))),
    }
    if k == 1:
        out["secant_floor"] = f ** (h - 1) - 4 * f ** (h - 2) + 1
    else:
        out["secant_floor"] = ((f ** (h * k) - 1) / (f ** h - 1)
                               - 3 * f ** (h * k - h - 3)) \
            * (f ** (h - 1) - 4 * f ** (h - 2)) + 1
    kappa = inst.size - q
    out["planar_secant_floor"] = Fraction(q) / f - 3 * Fraction(kappa - 1) / f + 2
    hk = h * k
    total = Fraction(inst.p0 ** (h * (n + 1)) - 1)
    out["nonsecant_points"] = total / (f ** h + 1) \
        - (f ** (2 * hk - 2) + 2 * f ** (2 * hk - 3)) * (f ** h + 1) \
        - (f ** hk + f ** (hk - 1) + f ** (hk - 2) + 3 * f ** (hk - 3))
    return out


# which way each check's observed value must sit against its bound
_FLOOR = {"size_bound_weak", "size_bound_strong", "secant_floor",
          "planar_secant_floor", "nonsecant_points", "rich_tangent_config"}


def _holds_relation(check, bound, observed):
    if check in _FLOOR:
        return observed >= bound
    return observed <= bound


# -- the two harness workloads ---------------------------------------------


def check_scorecard(card, names, skipped, spectra, brute):
    """Failures per (instance, check) of a scorecard over `names`.

    spectra: {instance: {dim: {trace size: count}}} read from the package
    after the timed run; brute: {instance: gf.BruteTraces} for the GF(9)
    instances.  Instance-wide findings are charged to declared_claims.
    """
    fails = {(name, cid): [] for name in names for cid in CHECK_IDS}
    seen = set()
    tally = {"holds": 0, "not_applicable": 0, "violated": 0}
    for rec in card.get("checks", []):
        key = (rec.get("instance"), rec.get("check"))
        if key not in fails:
            fails[key] = ["unexpected check result"]
            continue
        if key in seen:
            fails[key].append("duplicate check result")
        seen.add(key)
        tally[rec.get("verdict")] = tally.get(rec.get("verdict"), 0) + 1
        fails[key].extend(_check_record(INSTANCES[key[0]], rec))
    for key in fails:
        if key not in seen and key[0] in names:
            fails[key].append("missing from the scorecard")
    if card.get("summary") != tally:
        for key in fails:
            fails[key].append(f"summary {card.get('summary')} != {tally}")
    if list(card.get("skipped_instances", [])) != sorted(skipped):
        for key in fails:
            fails[key].append("wrong skipped instances")
    for name in names:
        fails[(name, "declared_claims")].extend(
            check_instance_traces(INSTANCES[name], spectra.get(name, {}),
                                  brute.get(name), card))
    return fails


def _check_record(inst, rec):
    out = []
    check, verdict = rec["check"], rec["verdict"]
    if verdict not in ("holds", "not_applicable"):
        out.append(f"verdict {verdict}")
    hyp = rec.get("hypotheses", {})
    expected_hyp = inst.hypotheses()
    for name, value in hyp.items():
        if name not in expected_hyp:
            out.append(f"unknown hypothesis {name}")
        elif value != expected_hyp[name]:
            out.append(f"hypothesis {name}={value}, expected "
                       f"{expected_hyp[name]}")
    met = all(expected_hyp.get(name, False) for name in hyp)
    notes = rec.get("notes", {})
    if rec["hypotheses_met"] != met and not _documented_na(rec):
        out.append(f"hypotheses_met={rec['hypotheses_met']}, expected {met}")
    if verdict == "not_applicable" and met and not _documented_na(rec):
        out.append("not_applicable although every hypothesis holds")
    if verdict == "holds" and not met:
        out.append("holds although a hypothesis fails")
    bounds = expected_bounds(inst)
    if check in bounds:
        bound = rec["bound"] if rec["hypotheses_met"] else \
            notes.get("exploratory_bound")
        if bound is not None and gf.frac(bound) != bounds[check]:
            out.append(f"bound {bound} != {bounds[check]}")
    if check in ("size_bound_weak", "size_bound_strong") \
            and rec["observed"] is not None and rec["observed"] != inst.size:
        out.append(f"observed size {rec['observed']} != {inst.size}")
    if verdict == "holds" and rec["bound"] is not None \
            and rec["observed"] is not None \
            and not _holds_relation(check, gf.frac(rec["bound"]),
                                    gf.frac(rec["observed"])):
        out.append(f"holds with observed {rec['observed']} against bound "
                   f"{rec['bound']}")
    if check == "declared_claims":
        out.extend(_check_claims(inst, notes.get("claims", {})))
    if check == "trace_gap" and rec["hypotheses_met"] and inst.h == 2 \
            and inst.n - inst.k == 1:
        traces = set(notes["levels"]["0"]["traces"])
        allowed = {1, inst.p0 + 1, inst.q + 1}
        if not traces <= allowed:
            out.append(f"line traces {sorted(traces)} outside "
                       f"{sorted(allowed)}")
    return out


def _documented_na(rec):
    notes = rec.get("notes", {})
    return rec["verdict"] == "not_applicable" and (
        "no_two_qualifying_spaces" in notes or "reconstructed_spaces" in notes)


def _check_claims(inst, claims):
    q, k = inst.q, inst.k
    want = {"blocking": True, "minimal": True, "exponent": 1, "linear": True,
            "small": 2 * inst.size < 3 * (q ** k + 1)}
    out = []
    for name, value in want.items():
        got = claims.get(name, {}).get("computed")
        if got != value:
            out.append(f"claim {name} computed {got}, expected {value}")
    return out


def check_instance_traces(inst, spectra, brute, card):
    """Counting identities on every scanned dimension, line traces of the
    h = 2 instances inside {1, p0+1, q+1}, and for the GF(9) instances
    the brute-force trace profile against the scorecard."""
    out = []
    dims = (1,) if inst.n == 2 else (1, inst.n - 1)
    for dim in dims:
        x = spectra.get(dim)
        if x is None:
            out.append(f"no spectrum for dimension {dim}")
            continue
        out.extend(check_identities(inst.n, inst.q, dim, inst.size, x))
        if dim == inst.n - inst.k and 0 in x:
            out.append(f"{x[0]} (n-k)-spaces miss a blocking set")
    if inst.h == 2 and 1 in spectra:
        lines = set(spectra[1]) - {0}
        if not lines <= {1, inst.p0 + 1, inst.q + 1}:
            out.append(f"line traces {sorted(lines)} of a linear set with "
                       "h = 2 must lie in {1, p0+1, q+1}")
    if brute is not None:
        out.extend(_check_brute(inst, spectra, brute, card))
    return out


def _spectrum_of(sizes):
    vals, cnts = np.unique(sizes, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, cnts)}


def _check_brute(inst, spectra, brute, card):
    out = []
    if spectra.get(1) != _spectrum_of(brute.line_sizes):
        out.append("line spectrum differs from the brute-force traces")
    if spectra.get(inst.n - 1) != _spectrum_of(brute.hyperplane_sizes):
        out.append("hyperplane spectrum differs from the brute-force traces")
    by = {r["check"]: r for r in card.get("checks", [])
          if r.get("instance") == inst.name}
    # (n-k)-spaces are lines for both GF(9) instances
    sizes = brute.line_sizes
    e = min(v for v in (gf.valuation(int(s) - 1, inst.p)
                        for s in np.unique(sizes)) if v is not None)
    tangent = brute.line_counts_through(1)[brute.mask]
    target = inst.size - inst.q ** inst.k
    want = {"blocking": bool(sizes.min() >= 1),
            "minimal": bool((tangent > 0).all()),
            "exponent": min(e, inst.t * inst.k),
            "redei": bool((brute.hyperplane_sizes == target).any())}
    claims = by.get("declared_claims", {}).get("notes", {}).get("claims", {})
    for name, value in want.items():
        got = claims.get(name, {}).get("computed")
        if got != value:
            out.append(f"brute force gives {name}={value}, package {got}")
    per_point = brute.line_counts_through(inst.p0 + 1)[brute.mask]
    on = per_point[per_point > 0]
    notes = by.get("secant_floor", {}).get("notes", {})
    if notes.get("points_on_secants") != int(on.size):
        out.append(f"points on ({inst.p0}+1)-secants: brute force "
                   f"{on.size}, package {notes.get('points_on_secants')}")
    got_min = notes.get("exploratory_min", by.get("secant_floor", {})
                        .get("observed"))
    if got_min != (int(on.min()) if on.size else None):
        out.append(f"fewest ({inst.p0}+1)-secants per point: brute force "
                   f"{on.min()}, package {got_min}")
    secants = int((sizes >= 2).sum())
    got = by.get("subline_meet_sizes", {}).get("notes", {}).get(
        "secant_lines")
    if got != secants:
        out.append(f"secant lines: brute force {secants}, package {got}")
    return out


# -- random spectra --------------------------------------------------------


def check_identities(n, q, dim, size, x):
    """The three counting identities of a dim-spectrum {trace: count}."""
    out = []
    per = gf.theta(dim, q)
    for i, c in x.items():
        if not 0 <= i <= min(size, per) or c <= 0:
            out.append(f"impossible spectrum entry {i}: {c}")
    lhs = (sum(x.values()), sum(i * c for i, c in x.items()),
           sum(i * (i - 1) * c for i, c in x.items()))
    rhs = (gf.gaussian_binomial(n + 1, dim + 1, q),
           size * gf.gaussian_binomial(n, dim, q),
           size * (size - 1) * gf.gaussian_binomial(n - 1, dim - 1, q))
    for label, a, b in zip(("subspaces", "incidences", "pairs"), lhs, rhs):
        if a != b:
            out.append(f"{label} identity: {a} != {b}")
    return out


# -- witness round trip ------------------------------------------------------


def check_witness(inst, rank, point_ranks, pi_rows, big, expected=None):
    """A built or re-read witness: its rank, its size, its small-side
    subspace blown down by gf.py, and (GF(9)) the set built directly."""
    out = []
    if rank != inst.rank:
        out.append(f"witness rank {rank} != {inst.rank}")
    pts = np.asarray(point_ranks, dtype=np.int64)
    if pts.size != inst.size:
        out.append(f"{pts.size} points, expected {inst.size}")
    down = gf.blow_down_ranks(big, inst.p, inst.h, inst.n, pi_rows)
    if not np.array_equal(down, np.unique(pts)):
        out.append("blown-down witness subspace differs from its point set")
    if expected is not None and not np.array_equal(np.unique(pts), expected):
        out.append("point set differs from the directly built set")
    return out


def check_reread(inst, written_ranks, reread_ranks, lines):
    out = []
    if lines != 1 + inst.size:
        out.append(f".pts file has {lines} lines, expected {1 + inst.size}")
    if len(reread_ranks) != inst.size:
        out.append(f"re-read {len(reread_ranks)} points, expected {inst.size}")
    if not np.array_equal(np.asarray(written_ranks),
                          np.asarray(reread_ranks)):
        out.append("re-read point set differs from the written one")
    return out


def check_reconstructions(inst, results, point_ranks, big, expected_count):
    """results: list of (status, dim_W, W rows) from reconstruct."""
    out = []
    if expected_count is not None and len(results) != expected_count:
        out.append(f"{len(results)} reconstructions, expected "
                   f"{expected_count}")
    want = np.unique(np.asarray(point_ranks, dtype=np.int64))
    for status, dim_w, rows in results:
        if status != "ok":
            out.append(f"status {status!r}")
        if dim_w != inst.h * inst.k or rows is None \
                or len(rows) != inst.h * inst.k + 1:
            out.append(f"dim W = {dim_w}, expected {inst.h * inst.k}")
            continue
        down = gf.blow_down_ranks(big, inst.p, inst.h, inst.n, rows)
        if not np.array_equal(down, want):
            out.append("W blows down to another point set")
    return out


def admissible_points(brute, p0):
    """Points of the set on at least one (p0+1)-secant line."""
    per = brute.line_counts_through(p0 + 1)
    return int(((per > 0) & brute.mask).sum())


def check_nonlinear(found_witness, brute):
    """is_linear must find nothing; a line meeting the set in 2 or 3
    points proves that no GF(3)-linear set of PG(2, 9) equals it, since
    such a set meets every line in 0, 1, 4 or 10 points."""
    out = []
    if found_witness:
        out.append("is_linear returned a witness for a non-linear set")
    if not np.isin(brute.line_sizes, (2, 3)).any():
        out.append("no line meets the swapped set in 2 or 3 points")
    return out


# -- traced runs ---------------------------------------------------------------


def check_fired(metrics, expected):
    """Each named per-layer metric that the workload exercises must be
    positive in a traced run."""
    return [f"per-layer metric {name} never fired" for name in expected
            if not metrics.get(name, 0) > 0]
