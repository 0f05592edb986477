"""Tests for the benchmark's metric arithmetic.

    python3 perfbench/test_metrics.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
import run  # noqa: E402


def phase(name, wall_ns, cpu_ns, blocks=(), refs=None):
    gc = {"minor_words": 100.0, "promoted_words": 1.0, "minor_collections": 2, "major_collections": 0}
    refs = [REF] * (max(1, len(blocks)) + 1) if refs is None else refs
    return {"name": name, "wall_ns": wall_ns, "cpu_ns": cpu_ns, "block_cpu_ns": list(blocks),
            "ref_cpu_ns": refs, "gc": gc}


# a reference timing at the nominal one: nothing gets scaled
REF = M.REFERENCE_NS


def storm_pass(failed=(), crit=None, cpu_scale=1):
    crit = list(range(1, 101)) if crit is None else crit
    return {
        "traced": False,
        "phases": [
            phase("serve", 2_000_000_000, 1_000_000_000 * cpu_scale),
            phase("import", 4_000_000_000, 2_000_000_000 * cpu_scale),
            phase("par_import", 2_000_000_000, 4_000_000_000 * cpu_scale),
        ],
        "crit_ns": crit,
        "crit_gas": 5_000_000,
        "failed": list(failed),
        "node_txs": 100,
        "satisfied_pct": 25.0,
        "import_gas": 8_000_000,
        "par_gas": 8_000_000,
        "par_txs": 100,
        "par_aborted": 0,
        "par_forced": 0,
        "par_static_serial": 0,
    }


def storm_doc(passes, run_failed=False, ops=100):
    return {
        "workload": "airdrop-storm",
        "seed": 1,
        "trace": False,
        "ops": ops,
        "blocks": 1,
        "setup_cpu_ns": [300_000_000, 100_000_000, 200_000_000],
        "setup_wall_ns": [300_000_000, 100_000_000, 200_000_000],
        "setup_ref_cpu_ns": [REF] * 4,
        "genesis_ns": 50_000_000,
        "run_failed": run_failed,
        "heap_top_bytes": 3 << 20,
        "info": {},
        "iterations": passes,
    }


class Percentile(unittest.TestCase):
    def test_p99_with_enough_samples(self):
        value, used, n = M.tail_percentile(list(range(1, 1001)), 99)
        self.assertEqual((value, used, n), (990.0, 99, 1000))

    def test_p99_is_lowered_until_ten_samples_lie_beyond(self):
        value, used, n = M.tail_percentile(list(range(1, 501)), 99)
        self.assertEqual(n, 500)
        self.assertEqual(value, 490.0)
        self.assertAlmostEqual(used, 98.0)
        self.assertEqual(sum(1 for x in range(1, 501) if x > value), M.TAIL_SAMPLES)

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(M.tail_percentile([5, 1, 4, 2, 3] * 10, 50)[0], 3.0)

    def test_median_needs_ten_samples_beyond(self):
        self.assertEqual(M.tail_percentile(list(range(20)), 50)[0], 9.0)
        with self.assertRaises(ValueError):
            M.tail_percentile(list(range(19)), 50)
        with self.assertRaises(ValueError):
            M.tail_percentile([], 50)


class Throughput(unittest.TestCase):
    def test_rates(self):
        self.assertEqual(M.per_second(1000, 2_000_000_000), 500.0)
        self.assertEqual(M.mgas_per_s(21_000_000, 500_000_000), 42.0)

    def test_ratio_without_a_whole_is_zero(self):
        self.assertEqual(M.ratio(3, 0), 0.0)
        self.assertEqual(M.ratio(1, 4, 100.0), 25.0)

    def test_medians_over_passes(self):
        slow = [3 * x for x in range(1, 101)]
        doc = storm_doc(
            [storm_pass(cpu_scale=2, crit=slow), storm_pass(cpu_scale=1), storm_pass(cpu_scale=4, crit=slow)]
        )
        e = M.end_to_end(doc)
        # the middle pass: 100 txs in 2 CPU-s, 8 Mgas in 4 and 8 CPU-s
        self.assertEqual(e["node_tx_per_cpu_s"], 50.0)
        self.assertEqual(e["import_mgas_per_cpu_s"], 2.0)
        self.assertEqual(e["par_import_mgas_per_cpu_s"], 1.0)
        self.assertEqual(e["setup_s"], 0.2)
        self.assertEqual(e["heap_peak_mb"], 3.0)
        # the passes' medians: 50, 150 and 150 ns
        self.assertEqual(e["crit_tx_us_p50"], 0.15)


class Scaling(unittest.TestCase):
    def test_a_time_is_divided_by_the_mean_reference_around_it(self):
        # 10 ns ran at a mean reference of twice the nominal: 5 ns
        self.assertEqual(M.scaled([10, 20], [REF, 3 * REF, 5 * REF]), [5.0, 5.0])

    def test_every_time_needs_a_reference_on_each_side(self):
        with self.assertRaises(ValueError):
            M.scaled([10, 20], [REF, REF])

    def test_blocks_take_their_median_pass_then_sum(self):
        its = [
            {"phases": [phase("import", 0, 10, [3, 7])]},
            {"phases": [phase("import", 0, 10, [5, 5])]},
            {"phases": [phase("import", 0, 12, [4, 8], refs=[2 * REF] * 3)]},
        ]
        # scaled, the third pass ran at half speed: its blocks count as 2 and 4
        self.assertEqual(M.phase_cpu_ns(its, "import", True), 3 + 5)
        self.assertEqual(M.phase_cpu_ns(its, "import", False), 4 + 7)

    def test_a_phase_without_blocks_is_one_block(self):
        its = [{"phases": [phase("serve", 0, c)]} for c in (9, 4, 6)]
        self.assertEqual(M.phase_cpu_ns(its, "serve", True), 6)

    def test_passes_must_time_the_same_blocks(self):
        its = [{"phases": [phase("import", 0, 10, [5, 5])]}, {"phases": [phase("import", 0, 10, [9])]}]
        with self.assertRaises(ValueError):
            M.phase_cpu_ns(its, "import", False)

    def test_crit_is_scaled_only_where_the_node_phase_runs_block_by_block(self):
        blocks = storm_pass()
        blocks["phases"][0] = phase("serve", 0, 1_000_000_000, [1_000_000_000], refs=[2 * REF] * 2)
        self.assertEqual(M.crit_p50_ns(storm_doc([blocks])), 25.0)
        replay = storm_pass()
        replay["phases"][0] = phase("serve", 0, 1_000_000_000, refs=[2 * REF] * 2)
        self.assertEqual(M.crit_p50_ns(storm_doc([replay])), 50.0)

    def test_the_parallel_import_is_not_scaled(self):
        slow = storm_pass()
        for p in slow["phases"]:
            p["ref_cpu_ns"] = [2 * REF, 2 * REF]
        e = M.end_to_end(storm_doc([slow]))
        self.assertEqual(e["node_tx_per_cpu_s"], 200.0)
        self.assertEqual(e["import_mgas_per_cpu_s"], 8.0)
        self.assertEqual(e["par_import_mgas_per_cpu_s"], 2.0)


class Failures(unittest.TestCase):
    def test_union_over_passes(self):
        self.assertEqual(M.count_failures(10, [[1, 2], [2, 3], []], False), (10, 3))

    def test_a_raising_run_fails_every_operation(self):
        self.assertEqual(M.count_failures(10, [], True), (10, 10))

    def test_no_operations_is_a_failure(self):
        self.assertEqual(M.count_failures(0, [], False), (1, 1))

    def test_result_reports_failures_as_incorrect(self):
        ok = M.result(storm_doc([storm_pass()]))
        self.assertEqual((ok["correct"], ok["attempted"], ok["failed"]), (True, 100, 0))
        bad = M.result(storm_doc([storm_pass(failed=[4, 5]), storm_pass(failed=[5])]))
        self.assertEqual((bad["correct"], bad["failed"]), (False, 2))
        raised = M.result(storm_doc([storm_pass()], run_failed=True))
        self.assertEqual((raised["correct"], raised["failed"]), (False, 100))

    def test_result_lists_every_end_to_end_metric(self):
        r = M.result(storm_doc([storm_pass()]))
        self.assertEqual(list(r["metrics"]), [name for name, _, _ in M.END_TO_END])
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        for key, table in (("end_to_end", M.END_TO_END), ("per_layer", M.PER_LAYER)):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in bench[key]], table, key
            )
        for name in (w["name"] for w in bench["workloads"]):
            self.assertIn(name, run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
