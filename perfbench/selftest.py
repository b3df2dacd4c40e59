"""Checks the benchmark's checkers: each must pass the package's real
output and reject a deliberately wrong one.

    python3 perfbench/selftest.py
"""

import copy
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gf  # noqa: E402
import worker  # noqa: E402
from blockingsets import (PointSet, catalogue, formats, harness,  # noqa: E402
                          reconstruct, spectrum)

GF9 = gf.Field(3, 2)


class HarnessCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.names = ["baer_pg2_9", "cone_pg3_9"]
        insts = catalogue.load_shipped(cls.names)
        results, _ = harness.run_suite(insts)
        cls.card = harness.scorecard(results)
        cls.spectra, cls.brute = {}, {}
        for inst in insts:
            n = inst.points.space.n
            cls.spectra[inst.name] = {
                d: dict(spectrum(inst.points, d).x) for d in sorted({1, n - 1})}
            cls.brute[inst.name] = gf.BruteTraces(GF9, n, inst.points.ranks)

    def failures(self, card, spectra=None):
        fails = checks.check_scorecard(card, self.names, [],
                                       spectra or self.spectra, self.brute)
        return {k: v for k, v in fails.items() if v}

    def test_real_scorecard_passes(self):
        self.assertEqual(self.failures(self.card), {})

    def flipped(self, verdict, to):
        card = copy.deepcopy(self.card)
        rec = next(r for r in card["checks"] if r["verdict"] == verdict)
        rec["verdict"] = to
        card["summary"][verdict] -= 1
        card["summary"][to] += 1
        return card, (rec["instance"], rec["check"])

    def test_flipped_verdicts_rejected(self):
        for verdict, to in (("holds", "violated"),
                            ("holds", "not_applicable"),
                            ("not_applicable", "holds")):
            card, key = self.flipped(verdict, to)
            self.assertIn(key, self.failures(card), (verdict, to))

    def test_wrong_claim_rejected(self):
        card = copy.deepcopy(self.card)
        rec = next(r for r in card["checks"]
                   if r["check"] == "declared_claims")
        rec["notes"]["claims"]["exponent"]["computed"] = 2
        self.assertIn((rec["instance"], "declared_claims"),
                      self.failures(card))

    def test_wrong_secant_count_rejected(self):
        card = copy.deepcopy(self.card)
        rec = next(r for r in card["checks"] if r["check"] == "secant_floor")
        rec["notes"]["points_on_secants"] += 1
        self.assertIn((rec["instance"], "declared_claims"),
                      self.failures(card))

    def test_spectrum_off_by_one_rejected(self):
        spectra = copy.deepcopy(self.spectra)
        x = spectra["cone_pg3_9"][1]
        x[max(x)] += 1
        self.assertIn(("cone_pg3_9", "declared_claims"),
                      self.failures(self.card, spectra))


class SpectrumCheckTest(unittest.TestCase):
    def test_off_by_one_rejected(self):
        space = formats.space_for(3, 2, 3)
        rng = np.random.default_rng(0)
        pts = PointSet(space, rng.choice(space.num_points, 300,
                                         replace=False))
        for dim in (1, 2):
            x = dict(spectrum(pts, dim).x)
            self.assertEqual(checks.check_identities(3, 9, dim, 300, x), [])
            for size in list(x):
                bad = dict(x)
                bad[size] += 1
                self.assertTrue(checks.check_identities(3, 9, dim, 300, bad))


class RoundTripCheckTest(unittest.TestCase):
    inst = checks.INSTANCES["baer_pg2_9"]

    def test_wrong_w_dimension_rejected(self):
        w = catalogue.build_witness("baer_pg2_9")
        res = reconstruct(w.points, 1, 3, point_policy="all")
        good = [(r.status, r.dim_W, r.W.rows) for r in res]
        self.assertEqual(checks.check_reconstructions(
            self.inst, good, w.points.ranks, GF9, 13), [])
        status, dim_w, rows = good[0]
        for bad in ((status, dim_w + 1, rows + rows[:1]),
                    (status, dim_w - 1, rows[:-1])):
            self.assertTrue(checks.check_reconstructions(
                self.inst, [bad] + good[1:], w.points.ranks, GF9, 13))

    def test_dropped_point_rejected(self):
        w = catalogue.build_witness("baer_pg2_9")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as d:
            path = os.path.join(d, "baer.pts")
            formats.write_pointset(path, w.points)
            with open(path, encoding="ascii") as fh:
                lines = fh.read().splitlines()
            reread = formats.read_pointset(path)
            self.assertEqual(checks.check_reread(
                self.inst, w.points.ranks, reread.ranks, len(lines)), [])
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines[:-1]) + "\n")
            reread = formats.read_pointset(path)
            self.assertTrue(checks.check_reread(
                self.inst, w.points.ranks, reread.ranks, len(lines) - 1))

    def test_wrong_witness_rejected(self):
        w = catalogue.build_witness("baer_pg2_9")
        baer = worker.swapped_baer()[1]
        self.assertEqual(checks.check_witness(
            self.inst, w.rank, w.points.ranks, w.pi.rows, GF9, baer), [])
        self.assertTrue(checks.check_witness(
            self.inst, w.rank, w.points.ranks[1:], w.pi.rows, GF9, baer))

    def test_linear_verdict_flip_rejected(self):
        _, _, swapped = worker.swapped_baer()
        brute = gf.BruteTraces(GF9, 2, swapped)
        self.assertEqual(checks.check_nonlinear(False, brute), [])
        self.assertTrue(checks.check_nonlinear(True, brute))
        baer = gf.BruteTraces(GF9, 2, worker.swapped_baer()[1])
        self.assertTrue(checks.check_nonlinear(False, baer))


class FiredCheckTest(unittest.TestCase):
    def test_silent_metric_rejected(self):
        self.assertEqual(checks.check_fired({"a": 2, "b": 0.1}, ["a", "b"]),
                         [])
        self.assertTrue(checks.check_fired({"a": 2, "b": 0}, ["a", "b"]))


if __name__ == "__main__":
    unittest.main()
