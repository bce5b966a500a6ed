"""Tests for the benchmark's metric arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import glob
import json
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_RECORDS = glob.glob(os.path.join(
    os.path.dirname(HERE), ".bench_build", "perfbench-out", "*-t1.json"))

S = 1_000_000_000  # nanoseconds per second


def share_sum(m):
    """Sum of the soe / workload / mem shares of system.step_s."""
    return m["soe.share"] + m["workload.share_est"] + m["mem.share_est"]


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "cell": "c"}


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span("cell", 0, 10 * S),
                 span("step", 1 * S, 4 * S, 0),
                 span("warm", 5 * S, 6 * S, 0)]
        st = metrics.self_times(spans)
        self.assertAlmostEqual(st["cell"], 6.0)
        self.assertAlmostEqual(st["step"], 3.0)
        self.assertAlmostEqual(st["warm"], 1.0)

    def test_overlapping_children_count_once(self):
        spans = [span("p", 0, 10 * S),
                 span("a", 2 * S, 6 * S, 0),
                 span("b", 4 * S, 8 * S, 0)]
        self.assertAlmostEqual(metrics.self_times(spans)["p"], 4.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("p", 0, 5 * S), span("a", 3 * S, 9 * S, 0)]
        self.assertAlmostEqual(metrics.self_times(spans)["p"], 3.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("cell", 0, 10 * S),
                 span("step", 0, 8 * S, 0),
                 span("soe.window", 1 * S, 2 * S, 1),
                 span("soe.window", 3 * S, 5 * S, 1)]
        st = metrics.self_times(spans)
        self.assertAlmostEqual(st["cell"], 2.0)
        self.assertAlmostEqual(st["step"], 5.0)
        self.assertAlmostEqual(st["soe.window"], 3.0)

    def test_self_times_sum_to_root_duration(self):
        spans = [span("cell", 0, 10 * S),
                 span("step", 1 * S, 7 * S, 0),
                 span("soe.window", 2 * S, 3 * S, 1),
                 span("replay", 7 * S, 9 * S, 0)]
        self.assertAlmostEqual(sum(metrics.self_times(spans).values()), 10.0)


def synthetic_layers(step_s=1.0, soe_s=0.2, gen_s=0.1, mem_s=0.3):
    """Traced-run totals with known layer times: 1e6 cycles, 1e5
    controller calls, 1e6 generated instructions, 1e6 data and 1e6
    fetch calls in both the run and the replay."""
    calls, ops = 100_000, 1_000_000
    return {
        "cycles": 1_000_000, "ff_cycles": 250_000,
        "soe_calls": calls, "soe_ns": int(soe_s * S), "clock_ns": 0,
        "soe_p50_ns": 12.0, "soe_p99_ns": 80.0,
        "step_generated": ops, "replay_ops": ops,
        "replay_gen_ns": int(gen_s * S),
        "replay_accesses": ops, "replay_access_ns": int(mem_s / 2 * S),
        "replay_fetches": ops, "replay_fetch_ns": int(mem_s / 2 * S),
        "stats": {"system.core.retiredOps": 2e6,
                  "system.mem.l1d.accesses": ops,
                  "system.mem.l1i.accesses": ops},
        "service": {},
        "spans": [span("cell", 0, 3 * S),
                  span("system.construct", 0, S // 100, 0),
                  span("system.warm", S // 100, S // 2, 0),
                  span("system.step", S, S + int(step_s * S), 0)],
    }


class LayerShareTest(unittest.TestCase):
    def test_shares_recover_layer_times(self):
        m = metrics.layer_metrics(synthetic_layers(), {"payloads": {}})
        self.assertAlmostEqual(m["soe.share"], 0.2)
        self.assertAlmostEqual(m["workload.share_est"], 0.1)
        self.assertAlmostEqual(m["mem.share_est"], 0.3)
        self.assertAlmostEqual(m["cpu.share_est"], 0.4)
        self.assertAlmostEqual(m["system.ff_frac"], 0.25)
        self.assertAlmostEqual(m["cpu.ipc"], 2.0)

    def test_shares_sum_to_at_most_one(self):
        m = metrics.layer_metrics(synthetic_layers(), {"payloads": {}})
        total = share_sum(m) + m["cpu.share_est"]
        self.assertLessEqual(total, 1.0 + 1e-9)
        self.assertGreaterEqual(m["cpu.share_est"], 0.0)

    def test_clock_overhead_is_taken_out(self):
        layers = synthetic_layers(step_s=1.0 + 2e-3, soe_s=0.2 + 1e-3)
        layers["clock_ns"] = 10  # 1e5 calls x 10 ns = 1 ms per read
        m = metrics.layer_metrics(layers, {"payloads": {}})
        self.assertAlmostEqual(m["system.step_s"], 1.0)
        self.assertAlmostEqual(m["soe.share"], 0.2)

    def test_without_step_spans_only_service_metrics(self):
        layers = synthetic_layers()
        layers["spans"] = []
        layers["service"] = {"executor.util": 0.9}
        m = metrics.layer_metrics(layers, {"payloads": {}})
        self.assertEqual(m, {"executor.util": 0.9})

    @unittest.skipUnless(TRACED_RECORDS, "no traced run recorded yet")
    def test_recorded_traced_runs_have_shares_within_one(self):
        for path in TRACED_RECORDS:
            with open(path) as f:
                values = {k: v["value"]
                          for k, v in json.load(f)["metrics"].items()}
            if values["system.step_s"] > 0:
                self.assertLessEqual(share_sum(values), 1.05, path)


def row(pair, f, speedup, fairness, ipc):
    return {"pair": pair, "F": f, "speedup_over_st": speedup,
            "fairness": fairness, "ipc_total": ipc}


class PaperAccuracyTest(unittest.TestCase):
    def test_matching_the_paper_gives_zero_error(self):
        rows = []
        for f, pct in metrics.PAPER_FIG6.items():
            degr = metrics.PAPER_FIG7.get(f, 0.0)
            rows.append(row("a:b", f, 1 + pct / 100, 0.5,
                            2.0 * (1 - degr / 100)))
        self.assertAlmostEqual(metrics.paper_error_pp(rows), 0.0)

    def test_single_level_uses_figure6_only(self):
        rows = [row("a:b", 1.0, 1.25, 0.9, 2.0),
                row("c:d", 1.0, 1.15, 0.7, 2.0)]
        self.assertAlmostEqual(metrics.paper_error_pp(rows), 5.0)

    def test_attainment_truncates_at_target(self):
        rows = [row("a:b", 0.5, 1.2, 0.9, 2.0),
                row("c:d", 0.5, 1.2, 0.25, 2.0)]
        self.assertAlmostEqual(metrics.fairness_attainment_pct(rows), 75.0)

    def test_unenforced_runs_score_against_full_fairness(self):
        rows = [row("a:b", 0.0, 2.0, 0.02, 3.0),
                row("c:d", 0.0, 2.0, 0.04, 3.0)]
        self.assertAlmostEqual(metrics.fairness_attainment_pct(rows), 3.0)


class CorrectnessTest(unittest.TestCase):
    def test_csv_digest_ignores_row_order(self):
        a = "h\nx,1\ny,2\n"
        b = "h\ny,2\nx,1\n"
        self.assertEqual(metrics.csv_digest(a), metrics.csv_digest(b))
        self.assertNotEqual(metrics.csv_digest(a),
                            metrics.csv_digest("h\nx,1\ny,3\n"))

    def test_mismatches_and_errors_count_as_failures(self):
        digests = {"cells": {"st:a:1": metrics.sha256("p1"),
                             "st:b:1": metrics.sha256("p2")},
                   "campaign_csv": ""}
        rep = {"payloads": {"st:a:1": "p1", "st:b:1": "changed"},
               "errors": ["soe:a:b:F=0: timed out"], "attempted": 3,
               "csv": ""}
        failed, msgs = metrics.check_rep(rep, digests)
        self.assertEqual(failed, 2)
        self.assertEqual(len(msgs), 2)
        rep["payloads"]["st:b:1"] = "p2"
        rep["errors"] = []
        self.assertEqual(metrics.check_rep(rep, digests), (0, []))


if __name__ == "__main__":
    unittest.main()
