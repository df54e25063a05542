"""Tests of the benchmark's arithmetic: python3 perfbench/test_analysis.py"""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # keep perfbench/ free of build output
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402


def span(name, t0, t1, xid=0, cpu=0):
    return {"name": name, "xid": xid, "t0": t0, "t1": t1, "cpu": cpu}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(analysis.percentile(values, 0), 1.0)
        self.assertEqual(analysis.percentile(values, 100), 4.0)
        self.assertAlmostEqual(analysis.median(values), 2.5)
        self.assertAlmostEqual(analysis.percentile(values, 25), 1.75)

    def test_p99_of_101_samples_is_the_100th(self):
        values = list(range(101))
        self.assertEqual(analysis.percentile(values, 99), 99.0)

    def test_single_and_empty(self):
        self.assertEqual(analysis.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            analysis.percentile([], 50)


class MedianOfPercentilesTest(unittest.TestCase):
    def test_one_slow_group_does_not_move_it(self):
        groups = [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [30.0, 40.0, 50.0]]
        self.assertEqual(analysis.median_of_percentiles(groups, 50), 3.0)
        self.assertEqual(analysis.median_of_percentiles(groups, 100), 4.0)

    def test_empty_group_is_an_error(self):
        with self.assertRaises(ValueError):
            analysis.median_of_percentiles([[1.0], []], 50)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_from_parent(self):
        parent = span("chain.handle_tx", 0, 100)
        a = span("bcwan.try_redeem", 10, 30)
        b = span("chain.submit_tx", 40, 90)
        grandchild = span("bcwan.try_redeem", 50, 60)
        analysis.nest([b, parent, grandchild, a])
        self.assertEqual(parent["self"], 100 - 20 - 50)
        self.assertEqual(b["self"], 50 - 10)
        self.assertEqual(grandchild["self"], 10)
        self.assertTrue(parent["top"])
        self.assertFalse(a["top"] or b["top"] or grandchild["top"])

    def test_siblings_after_a_parent_are_top_level(self):
        first = span("app.lora", 0, 10)
        second = span("app.lora", 10, 20)  # starts as the first ends
        analysis.nest([first, second])
        self.assertTrue(first["top"] and second["top"])
        self.assertEqual(first["self"] + second["self"], 20)

    def test_marks_are_ignored(self):
        parent = span("app.deliver", 0, 10)
        mark = span("x.deliver", 5, 5, xid=3)
        timed = analysis.nest([parent, mark])
        self.assertEqual(timed, [parent])
        self.assertEqual(parent["self"], 10)

    def test_unattributed_cpu_counts_only_top_level_spans(self):
        spans = [span("chain.handle_tx", 0, 100, cpu=2_000_000),
                 span("bcwan.try_redeem", 10, 20, cpu=1_000_000),
                 span("miner.tick", 200, 300, cpu=3_000_000)]
        self.assertAlmostEqual(analysis.unattributed_cpu_ms(9.0, spans), 4.0)


class PhaseTest(unittest.TestCase):
    def test_phase_durations_and_waits_stitch_across_processes(self):
        ms = 1_000_000
        driver = [span("x.req", 0, 0, 1), span("x.epk", 10 * ms, 10 * ms, 1),
                  span("x.done", 30 * ms, 30 * ms, 1),
                  span("bcwan.seal", 10 * ms, 11 * ms, 1)]
        gateway = [span("crypto.keygen", 1 * ms, 8 * ms, 1),
                   span("x.redeem", 20 * ms, 20 * ms, 1),
                   # another exchange's work inside ours is not our work
                   span("crypto.keygen", 12 * ms, 14 * ms, 2)]
        recipient = [span("x.deliver", 12 * ms, 12 * ms, 1),
                     span("app.deliver", 12 * ms, 16 * ms, 1),
                     span("bcwan.make_offer", 13 * ms, 14 * ms, 1),
                     span("x.esk", 25 * ms, 25 * ms, 1)]
        out = analysis.phase_breakdown(
            {"driver": driver, "gateway": gateway, "recipient": recipient})
        self.assertEqual(out["epk"]["ms"], [10.0])
        self.assertEqual(out["epk"]["wait_ms"], [3.0])
        self.assertEqual(out["data"]["ms"], [2.0])
        self.assertEqual(out["data"]["wait_ms"], [1.0])
        # app.deliver self 3 ms + make_offer 1 ms start inside "offer"
        self.assertEqual(out["offer"]["ms"], [8.0])
        self.assertEqual(out["offer"]["wait_ms"], [4.0])
        self.assertEqual(out["reveal"]["ms"], [5.0])
        self.assertEqual(out["decrypt"]["ms"], [5.0])

    def test_span_past_the_phase_end_counts_only_inside(self):
        ms = 1_000_000
        out = analysis.phase_breakdown({"p": [
            span("x.req", 0, 0, 4), span("x.epk", 2 * ms, 2 * ms, 4),
            span("x.deliver", 3 * ms, 3 * ms, 4),
            span("x.redeem", 4 * ms, 4 * ms, 4),
            span("x.esk", 5 * ms, 5 * ms, 4), span("x.done", 9 * ms, 9 * ms, 4),
            span("chain.handle_tx", 4 * ms, 8 * ms, 4)]})
        self.assertEqual(out["reveal"]["wait_ms"], [0.0])

    def test_incomplete_exchanges_are_skipped(self):
        out = analysis.phase_breakdown(
            {"driver": [span("x.req", 0, 0, 9), span("x.epk", 5, 5, 9)]})
        self.assertEqual(out["epk"]["ms"], [])


class ReportTest(unittest.TestCase):
    def test_parse_report(self):
        text = ("c\tchain.blocks\t4.000000\nv\tlatency_ms\t1.5\n"
                "v\tlatency_ms\t2.5\ns\tcrypto.keygen\t7\t100\t200\t90\n"
                "f\tnproc\t4\ng\tsettlement\t0\tredeemed 1 decrypted 2\n")
        rep = analysis.parse_report(text)
        self.assertEqual(rep["counters"]["chain.blocks"], 4.0)
        self.assertEqual(rep["samples"]["latency_ms"], [1.5, 2.5])
        self.assertEqual(rep["spans"][0]["xid"], 7)
        self.assertEqual(rep["facts"]["nproc"], "4")
        self.assertFalse(rep["gates"][0]["ok"])


if __name__ == "__main__":
    unittest.main()
