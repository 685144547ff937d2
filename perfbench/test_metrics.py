"""Tests of the benchmark's own arithmetic and checks.

    python3 -m unittest discover -s perfbench
"""

import json
import unittest
from pathlib import Path

import metrics


def fact(**kw):
    f = {"seed": 7, "attacker_convicted": True, "others_convicted": 0,
         "false_convictions": 0, "error": ""}
    f.update(kw)
    return f


LIVE_VERDICTS = ("time_us,suspect,subject,claimed_up,verdict\n"
                 "20000000,1,99,1,intruder\n")
LIVE_TRUST = "subject,trust,interactions_positive,interactions_total\n1,0.02,0,3\n"


def log(verdicts=LIVE_VERDICTS, trust=LIVE_TRUST, count=5):
    return {"seed": 7, "bytes": 100, "live_verdicts": LIVE_VERDICTS,
            "live_trust": LIVE_TRUST, "rerecords": 2,
            "rerecord_mismatches": 0,
            "replays": [{"verdicts": verdicts, "trust": trust,
                         "count": count}]}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 90), (90, 10))
        self.assertEqual(metrics.percentile(values, 50), (50, 50))
        self.assertEqual(metrics.percentile([5.0], 90), (5.0, 0))
        self.assertEqual(metrics.percentile([3, 1, 2], 100), (3, 0))

    def test_unsorted_input(self):
        values = list(range(100, 0, -1))
        self.assertEqual(metrics.percentile(values, 90), (90, 10))

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.tail(list(range(1, 101))), 90)
        # 99 samples: rank 90, only 9 beyond it.
        self.assertIsNone(metrics.tail(list(range(1, 100))))
        self.assertIsNone(metrics.tail([1.0, 2.0, 3.0]))
        self.assertIsNone(metrics.tail([]))
        self.assertEqual(metrics.tail(list(range(1, 201))), 180)

    def test_empty_percentile_raises(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)


class FastestTest(unittest.TestCase):
    def test_each_item_at_its_fastest(self):
        # Fastest times: a 1.0, b 3.0, c 2.0.
        items = [("a", 1.5), ("b", 3.0), ("a", 1.0), ("c", 2.0), ("c", 2.9)]
        self.assertEqual(metrics.fastest_median(items), 2.0)

    def test_slow_repeats_do_not_move_it(self):
        quiet = [(seed, 1.0 + seed / 10) for seed in range(8)]
        busy = quiet + [(seed, 1.45 * t) for seed, t in quiet] * 3
        self.assertEqual(metrics.fastest_median(quiet),
                         metrics.fastest_median(busy))

    def test_rounds_are_keyed_by_seed_and_index(self):
        samples = {"seed": [7, 8, 7],
                   "round_ms": [[1.0, 5.0], [2.0, 6.0], [3.0, 4.0]]}
        self.assertEqual(sorted(metrics.round_items(samples)),
                         [((7, 0), 1.0), ((7, 0), 3.0), ((7, 1), 4.0),
                          ((7, 1), 5.0), ((8, 0), 2.0), ((8, 1), 6.0)])

    def test_batch_rate(self):
        # Rates 10, 20, 30, 40; a batch of no time is skipped.
        self.assertEqual(metrics.batch_rate([10, 40, 30, 80, 5],
                                            [1, 2, 1, 2, 0]), 30)


def samples(seeds, setup, repl, rounds):
    return {"seed": seeds, "setup_s": setup, "repl_s": repl,
            "round_ms": rounds}


def traced_raw():
    counters = {name: 10 for name in metrics.COUNTERS}
    counters.update({"net.frames_sent": 200, "net.batched_broadcasts": 50,
                     "net.snapshot_hits": 30, "net.snapshot_builds": 10})
    traced = samples([7], [1.0], [5.0], [[1.0]])
    return {"run": {
        "counters": counters, "counters_again": counters,
        "probes": {"olsr.graph_build_us": 1.0,
                   "logging.event_query_us": 1.0,
                   "logging.text_roundtrip_us": 1.0,
                   "core.honest_observation_us": 1.0},
        "codec": {"decode_bytes": 3e6, "decode_s": 2.0,
                  "consume_events": 1000, "consume_s": 0.5},
        "parallel": {"single_s": 8.0, "workers": 4, "wall_s": 4.0},
        "untraced": samples([7, 8], [1.0, 3.0], [4.0, 4.0], [[1.0], [1.0]]),
        "traced": traced, "traced_again": traced,
        "facts": [fact()], "logs": [log()]}}


def timed_raw(workload):
    run = {"replay": {"min_s": [0.001], "records": [3000], "passes": 9},
           "facts": [fact()], "logs": [log()]}
    if workload == "replay":
        run["recording"] = samples([7, 8, 7], [0.01, 0.02, 0.01],
                                   [0.1, 0.3, 0.2], [[2.0], [4.0], [5.0]])
        run["replay"] = {"min_s": [0.001, 0.003, 0.002],
                         "records": [1000, 3000, 2000], "passes": 9}
        run["rounds_per_log"] = 4
    else:
        run["samples"] = samples([7, 8, 9, 7], [0.02, 0.04, 0.03, 0.06],
                                 [0.05, 0.08, 0.07, 0.09],
                                 [[2.0, 3.0], [3.5, 4.5], [4.0, 5.0],
                                  [1.0, 6.0]])
        run["runner"] = {"workers": 4, "tasks": [80, 40],
                         "wall_s": [1.0, 1.0]}
    return {"peak_rss_kb": 2048, "run": run}


class BenchmarkJsonTest(unittest.TestCase):
    """Every run prints exactly the metrics BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        cls.spec = json.loads(path.read_text())

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         metrics.WORKLOADS)

    def test_end_to_end_metrics_match(self):
        for workload in metrics.WORKLOADS:
            named, _ = metrics.timed_metrics(workload, timed_raw(workload))
            self.assertEqual({k: u for k, (_, u) in named.items()},
                             self.declared("end_to_end"), workload)
            self.assertTrue(all(v > 0 for v, _ in named.values()), workload)

    def test_per_layer_metrics_match(self):
        raw = traced_raw()
        named = metrics.traced_metrics(raw, metrics.check_run(raw["run"]))
        self.assertEqual({k: u for k, (_, u) in named.items()},
                         self.declared("per_layer"))


class RatioTest(unittest.TestCase):
    def test_parallel_eff(self):
        # 8 s of single-worker work in 2.5 s on 4 workers: 80% efficient.
        self.assertAlmostEqual(metrics.parallel_eff(8.0, 4, 2.5), 0.8)
        self.assertAlmostEqual(metrics.parallel_eff(4.0, 4, 1.0), 1.0)
        self.assertEqual(metrics.parallel_eff(1.0, 4, 0.0), 0.0)

    def test_ratio(self):
        self.assertAlmostEqual(metrics.ratio(3, 4), 0.75)
        self.assertEqual(metrics.ratio(3, 0), 0.0)

    def test_traced_ratios(self):
        raw = traced_raw()
        verdict = metrics.check_run(raw["run"])
        m = metrics.traced_metrics(raw, verdict)
        self.assertAlmostEqual(m["net.batched_frac"][0], 0.25)
        self.assertAlmostEqual(m["net.snapshot_hit_frac"][0], 0.75)
        self.assertAlmostEqual(m["scenario.setup_share"][0], 0.5)
        self.assertAlmostEqual(m["obs.trace_overhead"][0], 1.25)
        self.assertAlmostEqual(m["runtime.parallel_eff"][0], 0.5)
        self.assertAlmostEqual(m["logging.audit_decode_mb_per_s"][0], 1.5)
        self.assertAlmostEqual(m["core.consume_records_per_s"][0], 2000.0)
        self.assertEqual(m["failed_frac"][0], 0.0)

    def test_timed_metrics(self):
        m, tails = metrics.timed_metrics("spoof16", timed_raw("spoof16"))
        self.assertAlmostEqual(m["setup_s"][0], 0.03)
        self.assertAlmostEqual(m["repl_s"][0], 0.07)
        # Fastest rounds: 1.0, 3.0 (seed 7), 3.5, 4.5, 4.0, 5.0.
        self.assertAlmostEqual(m["round_ms"][0], 3.75)
        self.assertAlmostEqual(m["repl_per_s"][0], 80.0)
        self.assertAlmostEqual(m["replay_records_per_s"][0], 3e6)
        self.assertAlmostEqual(m["peak_rss_mb"][0], 2.0)
        self.assertIsNone(tails["repl_s_p90"][0])
        self.assertEqual(tails["round_ms_p90"][2], 8)
        m, _ = metrics.timed_metrics("replay", timed_raw("replay"))
        self.assertAlmostEqual(m["setup_s"][0], 0.2)
        self.assertAlmostEqual(m["repl_s"][0], 0.002)
        self.assertAlmostEqual(m["round_ms"][0], 0.5)
        self.assertAlmostEqual(m["repl_per_s"][0], 500.0)
        self.assertAlmostEqual(m["replay_records_per_s"][0], 1e6)


class CheckTest(unittest.TestCase):
    def test_clean_replication_passes(self):
        self.assertEqual(metrics.check_replication(fact()), [])
        self.assertEqual(
            metrics.check_replication(fact(others_convicted=-1)), [])

    def test_missed_conviction_fails_without_wrong_output(self):
        failures = metrics.check_replication(fact(attacker_convicted=False))
        self.assertEqual([hard for hard, _ in failures], [False])

    def test_wrong_convictions_and_exceptions_are_hard(self):
        for bad in (fact(others_convicted=1), fact(false_convictions=2),
                    fact(error="investigation round never completed")):
            failures = metrics.check_replication(bad)
            self.assertTrue(failures and all(h for h, _ in failures), bad)

    def test_identical_replay_passes(self):
        self.assertEqual(metrics.check_replay(log()), [])

    def test_doctored_replay_verdict_is_flagged(self):
        doctored = LIVE_VERDICTS.replace("intruder", "trustworthy")
        failures = metrics.check_replay(log(verdicts=doctored))
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0][0])
        self.assertIn("verdict_csv", failures[0][1])
        # One flipped bit of a double is enough.
        nudged = LIVE_TRUST.replace("0.02", "0.020000000000000004")
        self.assertTrue(metrics.check_replay(log(trust=nudged)))

    def test_differing_rerecording_is_flagged(self):
        changed = log()
        changed["rerecord_mismatches"] = 1
        failures = metrics.check_replay(changed)
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0][0])

    def test_seed_is_one_operation(self):
        facts = [fact(), fact(others_convicted=-1), fact()]
        self.assertEqual(metrics.check_seed(facts), [])
        missed = [fact(attacker_convicted=False)] * 3
        self.assertEqual([h for h, _ in metrics.check_seed(missed)], [False])

    def test_disagreeing_replications_of_a_seed_are_hard(self):
        failures = metrics.check_seed([fact(),
                                       fact(attacker_convicted=False)])
        self.assertTrue(any(h and "disagree" in r for h, r in failures))

    def test_unreplayed_log_is_flagged(self):
        bare = log()
        bare["replays"] = []
        self.assertTrue(metrics.check_replay(bare))

    def test_run_verdict(self):
        run = {"facts": [fact(), fact(seed=8, attacker_convicted=False)],
               "logs": [log(verdicts="x")],
               "counters": {"a": 1}, "counters_again": {"a": 2}}
        v = metrics.check_run(run)
        self.assertEqual(v.attempted, 4)
        self.assertEqual(v.failed, 3)
        self.assertFalse(v.correct)
        run = {"facts": [fact(), fact(seed=8, attacker_convicted=False)],
               "logs": []}
        v = metrics.check_run(run)
        self.assertEqual((v.attempted, v.failed), (2, 1))
        self.assertTrue(v.correct)

    def test_repeats_of_a_seed_count_once(self):
        run = {"facts": [fact(seed=8, attacker_convicted=False)] * 5
               + [fact()] * 7, "logs": []}
        v = metrics.check_run(run)
        self.assertEqual((v.attempted, v.failed), (2, 1))

    def test_counter_mismatch_names_the_counter(self):
        self.assertEqual(metrics.check_counters({"a": 1}, {"a": 1}), [])
        failures = metrics.check_counters({"a": 1, "b": 2}, {"a": 1, "b": 3})
        self.assertIn("b", failures[0][1])


if __name__ == "__main__":
    unittest.main()
