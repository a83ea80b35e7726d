#!/usr/bin/env python3
"""Tests of the benchmark driver's own code.

    python3 benchmark/test_run.py

The fake probes are small Python scripts written under .bench_out; the
one test that uses the real probe is skipped until run.py has built it.
"""

import json
import os
import statistics
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def fake_probe(name, body):
    """A probe command whose behaviour is the Python [body]."""
    os.makedirs(run.OUT_DIR, exist_ok=True)
    path = os.path.join(run.OUT_DIR, "fake_%s.py" % name)
    with open(path, "w") as f:
        f.write(body)
    return (sys.executable, path)


def regen_result(pins, text_md5, item_md5):
    return {"ready_at": 0.0, "wall_s": 1.0, "cpu_s": 1.0, "minor_words": 1.0,
            "events": pins["regen"]["events"], "text_md5": text_md5, "item_md5": item_md5,
            "top_heap_words": 1, "major_collections": 1}


class Arithmetic(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics(self):
        values = [float(x) for x in (7, 1, 9, 4, 4, 12, 3, 8, 5, 10)]
        q1, q2, q3 = run.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        # Exclusive method on 1..10 sorted: positions 2.75, 5.5, 8.25.
        self.assertAlmostEqual(q1, 3.75)
        self.assertAlmostEqual(q2, 6.0)
        self.assertAlmostEqual(q3, 9.25)
        self.assertEqual(run.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_spread(self):
        values = [float(x) for x in range(1, 11)]
        self.assertAlmostEqual(run.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(run.spread([2.0, 2.0, 2.0, 2.0]), 0.0)

    def test_worse_by(self):
        self.assertAlmostEqual(run.worse_by(2.0, 2.2, "lower"), 0.1)
        self.assertAlmostEqual(run.worse_by(2.0, 1.8, "higher"), 0.1)
        self.assertLess(run.worse_by(2.0, 1.8, "lower"), 0.0)


class Failures(unittest.TestCase):
    def setUp(self):
        self.pins = run.load_pins()

    def test_tampered_digest_fails_and_names_item(self):
        items = dict(self.pins["regen"]["item_md5"])
        items["figure07"] = "0" * 32
        result = regen_result(self.pins, "f" * 32, items)
        probe = fake_probe("tampered", "import json\nprint(json.dumps(%r))\n" % (result,))
        r = run.Run("regen_cold", probe=probe)
        out = r.op("measured", [], 10.0, run.check_regen(self.pins))
        self.assertIsNotNone(out)
        self.assertEqual((r.attempted, r.failed), (1, 1))
        phase, what, _ = r.failures[0]
        self.assertEqual(phase, "measured")
        self.assertIn("figure07", what)
        self.assertNotIn("figure08", what)

    def test_pinned_digest_passes(self):
        result = regen_result(self.pins, self.pins["regen"]["text_md5"],
                              self.pins["regen"]["item_md5"])
        probe = fake_probe("good", "import json\nprint(json.dumps(%r))\n" % (result,))
        r = run.Run("regen_cold", probe=probe)
        r.op("measured", [], 10.0, run.check_regen(self.pins))
        self.assertEqual((r.attempted, r.failed), (1, 0))

    def test_overrun_deadline_fails_and_stops_the_process(self):
        probe = fake_probe("hang", "import time\ntime.sleep(60)\n")
        r = run.Run("large_p", probe=probe)
        t0 = time.monotonic()
        out = r.op("measured", [], 0.5)
        self.assertLess(time.monotonic() - t0, 10.0)
        self.assertIsNone(out)
        self.assertEqual((r.attempted, r.failed), (1, 1))
        phase, what, _ = r.failures[0]
        self.assertEqual(phase, "measured")
        self.assertIn("deadline", what)

    def test_exception_fails(self):
        probe = fake_probe("raise", "raise SystemExit('probe: boom')\n")
        r = run.Run("large_p", probe=probe)
        self.assertIsNone(r.op("traced", [], 10.0))
        self.assertEqual((r.attempted, r.failed), (1, 1))
        self.assertIn("boom", r.failures[0][1])

    @unittest.skipUnless(os.path.exists(run.PROBE), "probe not built: run run.py once")
    def test_real_probe_against_tampered_pin(self):
        pins = json.loads(json.dumps(self.pins))
        pins["large_p"]["counts"]["msgs"] += 1
        r = run.Run("large_p")
        out = r.op("measured", ["sim"], 60.0, run.check_sim(pins))
        self.assertIsNotNone(out)
        self.assertEqual((r.attempted, r.failed), (1, 1))
        self.assertIn("msgs", r.failures[0][1])
        r2 = run.Run("large_p")
        r2.op("measured", ["sim"], 60.0, run.check_sim(self.pins))
        self.assertEqual((r2.attempted, r2.failed), (1, 0))


if __name__ == "__main__":
    unittest.main()
