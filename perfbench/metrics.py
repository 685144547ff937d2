"""Metric arithmetic and correctness checks of the end-to-end benchmark.

Pure functions over the JSON object e2e_bench prints, so they can be
tested without building anything (see test_metrics.py).
"""

import math
import statistics

# The workloads, as e2e_bench names them.
WORKLOADS = ("spoof16", "grayhole16", "replay")

# Count-type per-layer metrics: exact work counters of the traced run.
COUNTERS = (
    "net.frames_sent",
    "net.deliveries",
    "olsr.hello_recv",
    "olsr.tc_recv",
    "olsr.msgs_forwarded",
    "olsr.route_recomputes",
    "olsr.mpr_recomputes",
    "logging.records_appended",
    "core.investigations",
    "core.reports",
    "core.convictions",
    "core.pipeline_lines",
)


def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank p-th percentile and how many samples lie beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values, p=90, min_beyond=10):
    """The p-th percentile, or None unless at least `min_beyond` samples
    lie beyond it (a p90 needs 100 samples)."""
    if not values:
        return None
    value, beyond = percentile(values, p)
    return value if beyond >= min_beyond else None


def fastest_median(items):
    """Median over work items of each item's fastest time.

    `items` are (key, time) pairs; a key names one piece of work the run
    repeated (a seed, or one round of a seed). The host switches between a
    fast and a slow state (about 1.45x apart) in stretches of seconds to
    minutes, and the seeds differ in cost; a median over every sample
    follows the share of slow stretches and which seeds ran in them.
    Taking each item at its fastest and the median over items follows the
    program."""
    best = {}
    for key, t in items:
        best[key] = min(t, best.get(key, t))
    return median(best.values())


def round_items(samples):
    """(seed, round index) keys with the round's ms, for fastest_median."""
    return (((seed, i), ms)
            for seed, rounds in zip(samples["seed"], samples["round_ms"])
            for i, ms in enumerate(rounds))


def batch_rate(counts, seconds):
    """The upper quartile of per-batch rates count / seconds."""
    return percentile([c / s for c, s in zip(counts, seconds) if s > 0],
                      75)[0]


def ratio(num, den):
    """num / den, 0.0 for an empty denominator."""
    return num / den if den else 0.0


def parallel_eff(single_s, workers, wall_s):
    """Single-worker seconds of some work over workers x parallel wall
    seconds of the same work: 1.0 is linear scaling."""
    return ratio(single_s, workers * wall_s)


# ------------------------------------------------------------------ checks

def check_replication(fact):
    """Failures of one replication as (hard, reason) pairs.

    Hard failures are wrong output: an exception, a conviction of anyone
    but the attacker. A replication whose attacker is never convicted is a
    failed operation too, but the detector's output is not wrong: that is
    the detector's measured recall (see README.md).
    """
    failures = []
    if fact["error"]:
        failures.append((True, "exception: " + fact["error"]))
        return failures
    if fact["others_convicted"] > 0:
        failures.append((True, "%d conviction(s) of non-attackers"
                         % fact["others_convicted"]))
    if fact["false_convictions"] > 0:
        failures.append((True, "false_convictions = %d"
                         % fact["false_convictions"]))
    if not fact["attacker_convicted"]:
        failures.append((False, "attacker not convicted by the last round"))
    return failures


def check_seed(facts):
    """Failures of one seed over all of its replications in a run: those of
    each replication, and a hard failure when they disagree (the library
    is deterministic: every replication of a seed ends the same way)."""
    failures = []
    for fact in facts:
        for failure in check_replication(fact):
            if failure not in failures:
                failures.append(failure)
    outcomes = sorted({(f["attacker_convicted"], f["false_convictions"])
                       for f in facts if not f["error"]})
    if len(outcomes) > 1:
        failures.append((True, "replications of the same seed disagree "
                         "(attacker convicted, false convictions): %s"
                         % outcomes))
    return failures


def check_replay(log):
    """Failures of one recorded log: every replay must reproduce the live
    run's verdict and trust CSVs byte for byte, and every later recording
    of its seed must match the first."""
    failures = []
    if log["rerecord_mismatches"]:
        failures.append((True, "%d of %d later recording(s) differ from the "
                         "first" % (log["rerecord_mismatches"],
                                    log["rerecords"])))
    if not log["replays"]:
        failures.append((True, "log was never replayed"))
    for out in log["replays"]:
        if out["verdicts"] != log["live_verdicts"]:
            failures.append((True, "replayed verdict_csv differs from live "
                             "(%d pass(es))" % out["count"]))
        if out["trust"] != log["live_trust"]:
            failures.append((True, "replayed trust_csv differs from live "
                             "(%d pass(es))" % out["count"]))
    return failures


def check_counters(first, again):
    """Failures when the two traced passes counted different work."""
    if first == again:
        return []
    diff = sorted(k for k in set(first) | set(again)
                  if first.get(k) != again.get(k))
    return [(True, "work counters differ between traced passes: "
             + ", ".join(diff))]


class Verdict:
    """Tally of checked operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.hard = 0
        self.reasons = []

    def add(self, what, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.hard += any(h for h, _ in failures)
            self.reasons.extend("%s: %s" % (what, r) for _, r in failures)

    @property
    def correct(self):
        return self.attempted > 0 and self.hard == 0


def check_run(run):
    """Checks a run. Each seed is one operation, however often it ran, and
    so is each recorded log: a timed run covers a fixed list of seeds, so
    `attempted` and `failed` depend on the seed base, not on the host."""
    verdict = Verdict()
    by_seed = {}
    for fact in run["facts"]:
        by_seed.setdefault(fact["seed"], []).append(fact)
    for seed, facts in by_seed.items():
        verdict.add("seed %d" % seed, check_seed(facts))
    for log in run["logs"]:
        verdict.add("log of seed %d" % log["seed"], check_replay(log))
    if "counters" in run:
        verdict.add("traced passes",
                    check_counters(run["counters"], run["counters_again"]))
    return verdict


# ----------------------------------------------------------------- metrics

def timed_metrics(workload, raw):
    """End-to-end metrics of a --trace 0 run, plus p90s over every
    replication (None where fewer than ten samples lie beyond them) for the
    human summary."""
    run = raw["run"]
    replay = run["replay"]
    if workload == "replay":
        samples = run["recording"]
        setup_s = fastest_median(zip(samples["seed"], samples["repl_s"]))
        repl_s = median(replay["min_s"])
        # Offline detection time per recorded round. The recordings' own
        # rounds are live simulation, which setup_s covers, and with eight
        # seeds recorded a few times each they follow the host's slow
        # stretches.
        round_ms = repl_s * 1e3 / run["rounds_per_log"]
        repl_per_s = 1.0 / repl_s  # logs replayed per second, one thread
    else:
        samples = run["samples"]
        setup_s = fastest_median(zip(samples["seed"], samples["setup_s"]))
        repl_s = fastest_median(zip(samples["seed"], samples["repl_s"]))
        round_ms = fastest_median(round_items(samples))
        runner = run["runner"]
        repl_per_s = batch_rate(runner["tasks"], runner["wall_s"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "repl_s": (repl_s, "s"),
        "round_ms": (round_ms, "ms"),
        "repl_per_s": (repl_per_s, "1/s"),
        "replay_records_per_s": (ratio(sum(replay["records"]),
                                       sum(replay["min_s"])), "1/s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }
    repl = samples["repl_s"]
    rounds = [ms for r in samples["round_ms"] for ms in r]
    tails = {
        "repl_s_p90": (tail(repl), "s", len(repl)),
        "round_ms_p90": (tail(rounds), "ms", len(rounds)),
    }
    return metrics, tails


def traced_metrics(raw, verdict):
    """Per-layer metrics of a --trace 1 run."""
    run = raw["run"]
    c = run["counters"]
    probes = run["probes"]
    codec = run["codec"]
    par = run["parallel"]
    untraced = run["untraced"]
    traced = run["traced"]["repl_s"] + run["traced_again"]["repl_s"]
    metrics = {name: (float(c[name]), "count") for name in COUNTERS}
    metrics.update({
        "net.batched_frac": (ratio(c["net.batched_broadcasts"],
                                   c["net.frames_sent"]), "frac"),
        "net.snapshot_hit_frac": (ratio(c["net.snapshot_hits"],
                                        c["net.snapshot_hits"]
                                        + c["net.snapshot_builds"]), "frac"),
        "olsr.graph_build_us": (probes["olsr.graph_build_us"], "us"),
        "logging.event_query_us": (probes["logging.event_query_us"], "us"),
        "logging.text_roundtrip_us": (probes["logging.text_roundtrip_us"],
                                      "us"),
        "logging.audit_decode_mb_per_s": (ratio(codec["decode_bytes"] / 1e6,
                                                codec["decode_s"]), "MB/s"),
        "core.honest_observation_us": (probes["core.honest_observation_us"],
                                       "us"),
        "core.consume_records_per_s": (ratio(codec["consume_events"],
                                             codec["consume_s"]), "1/s"),
        "runtime.parallel_eff": (parallel_eff(par["single_s"], par["workers"],
                                              par["wall_s"]), "ratio"),
        "scenario.setup_share": (ratio(sum(untraced["setup_s"]),
                                       sum(untraced["repl_s"])), "frac"),
        "obs.trace_overhead": (ratio(median(traced),
                                     median(untraced["repl_s"])), "ratio"),
        "failed_frac": (ratio(verdict.failed, verdict.attempted), "frac"),
    })
    return metrics
