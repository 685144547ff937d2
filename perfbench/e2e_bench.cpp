// e2e_bench — measurement half of the end-to-end replication benchmark.
//
// Times calls into the manet library's public surface from outside the
// program (TrustExperiment::setup/run_round, runtime::Runner::run,
// core::AuditStreamReader::next, DetectionPipeline::consume) and prints one
// JSON object of raw samples, work counters and correctness facts on
// stdout. run.py turns that object into the benchmark's metrics and runs
// the correctness checks; this file takes no decisions about them.
//
//   e2e_bench --workload spoof16 --seed 1 --seconds 35 --trace 0
//
// --trace 0 is the timed run: it measures for about --seconds seconds with
// nothing bound to the obs layer. --trace 1 is the fixed-work traced run:
// the same seeds every time, so its counters are exact and repeatable.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "logging/format.hpp"
#include "obs/obs.hpp"
#include "olsr/routing_table.hpp"
#include "runtime/experiment_spec.hpp"
#include "runtime/runner.hpp"
#include "scenario/trust_experiment.hpp"

using namespace manet;
using Attack = scenario::TrustExperiment::AttackKind;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps probe results observable so the optimizer cannot drop the calls.
volatile std::size_t g_sink = 0;

/// One benchmark workload: the replication shape it drives.
struct Shape {
  const char* name;
  Attack attack;
  std::size_t nodes;
  int rounds;
  int idle;  ///< idle decay rounds after the attack (replay recordings)
  bool replay;
  std::size_t traced_reps;  ///< replications per traced pass (fixed work)
  /// Times the traced run's parallel pass repeats those replications: a
  /// short pass mostly measures fresh worker threads faulting in their heaps.
  std::size_t parallel_repeats;
  /// Seeds a timed run cycles through (logs it records, on replay). Every
  /// run covers all of them, so which operations are checked, and so
  /// `attempted` and `failed`, depend on the seed base alone.
  std::size_t timed_seeds;
};

// Liars are a quarter of the bystanders: 4 of 14 (GridPoint::num_liars
// rounds to nearest).
constexpr Shape kShapes[] = {
    {"spoof16", Attack::kSpoof, 16, 12, 0, false, 16, 4, 32},
    {"grayhole16", Attack::kGrayhole, 16, 12, 0, false, 16, 4, 32},
    {"replay", Attack::kSpoof, 16, 25, 8, true, 8, 64, 8},
};

runtime::ReplicationTask task_for(const Shape& s, std::uint64_t seed,
                                  std::size_t index) {
  runtime::ReplicationTask t;
  t.index = index;
  t.point.num_nodes = s.nodes;
  t.point.attacker_fraction = 0.25;
  t.seed = seed;
  t.rounds = s.rounds;
  t.attack = s.attack;
  return t;
}

// ---------------------------------------------------------------- JSON out

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_nums(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += json_num(v[i]);
  }
  return out + "]";
}

/// Comma-separated `"key": value` members, built in insertion order.
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += json_str(key) + ":" + json;
    return *this;
  }
  Obj& num(const std::string& key, double v) { return raw(key, json_num(v)); }
  Obj& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Obj& str(const std::string& key, const std::string& v) {
    return raw(key, json_str(v));
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------ replications

/// What the correctness checks need to know about one replication.
struct Facts {
  std::uint64_t seed = 0;
  bool attacker_convicted = false;
  /// kIntruder verdicts against nodes other than the attacker; -1 when the
  /// path that ran exposes no report list (Runner results).
  std::int64_t others_convicted = 0;
  std::uint64_t false_convictions = 0;
  std::string error;  ///< exception text; empty when the run completed

  std::string json() const {
    return Obj{}
        .count("seed", seed)
        .raw("attacker_convicted", attacker_convicted ? "true" : "false")
        .num("others_convicted", static_cast<double>(others_convicted))
        .count("false_convictions", false_convictions)
        .str("error", error)
        .done();
  }
};

/// One replication driven through the public TrustExperiment surface.
struct Replication {
  double setup_s = 0.0;  ///< TrustExperiment::setup()
  double total_s = 0.0;  ///< setup plus every round (and idle round)
  std::vector<double> round_ms;  ///< one run_round() call each
  Facts facts;
  std::unique_ptr<scenario::TrustExperiment> exp;
};

Replication run_replication(const Shape& s, std::uint64_t seed, bool record) {
  Replication r;
  r.facts.seed = seed;
  auto cfg = task_for(s, seed, 0).to_config();
  cfg.record_audit = record;
  try {
    r.exp = std::make_unique<scenario::TrustExperiment>(cfg);
    const auto t0 = Clock::now();
    r.exp->setup();
    r.setup_s = seconds_since(t0);
    for (int i = 0; i < s.rounds; ++i) {
      const auto tr = Clock::now();
      const auto snap = r.exp->run_round();
      r.round_ms.push_back(seconds_since(tr) * 1e3);
      if (snap.verdict == trust::Verdict::kIntruder)
        r.facts.attacker_convicted = true;
      r.facts.false_convictions = snap.false_convictions;
    }
    if (s.idle > 0) {
      r.exp->cease_attack();
      for (int i = 0; i < s.idle; ++i) r.exp->run_idle_round();
    }
    // Same tail flush as `manet_detect record`: the live pipeline then
    // covers every line the recorded log holds.
    if (record) r.exp->detector().feed_log_growth();
    r.total_s = seconds_since(t0);
    for (const auto& rep : r.exp->detector().reports())
      if (rep.verdict == trust::Verdict::kIntruder &&
          rep.suspect != r.exp->attacker())
        ++r.facts.others_convicted;
  } catch (const std::exception& e) {
    r.facts.error = e.what();
  }
  return r;
}

Facts facts_of(const runtime::ReplicationResult& res) {
  Facts f;
  f.seed = res.seed;
  f.attacker_convicted = res.conviction_round >= 0;
  f.others_convicted = -1;
  f.false_convictions = res.false_convictions;
  return f;
}

/// Runs `tasks` through the Runner; returns wall seconds and appends facts.
/// A thrown replication fails the whole batch, so it is charged to every
/// task of the batch.
double runner_batch(unsigned workers,
                    const std::vector<runtime::ReplicationTask>& tasks,
                    std::vector<Facts>& facts) {
  runtime::Runner runner{runtime::Runner::Config{workers}};
  const auto t0 = Clock::now();
  try {
    const auto results = runner.run(tasks);
    const double wall = seconds_since(t0);
    for (const auto& res : results) facts.push_back(facts_of(res));
    return wall;
  } catch (const std::exception& e) {
    const double wall = seconds_since(t0);
    for (const auto& t : tasks) {
      Facts f;
      f.seed = t.seed;
      f.error = e.what();
      facts.push_back(f);
    }
    return wall;
  }
}

// ------------------------------------------------------------------ replay

/// A recorded audit log with the live run's canonical CSVs.
struct Log {
  std::uint64_t seed = 0;
  std::vector<std::uint8_t> bytes;
  std::string live_verdicts;
  std::string live_trust;
  std::uint64_t rerecords = 0;   ///< later recordings of the same seed
  std::uint64_t mismatches = 0;  ///< of those, how many differ in any byte
};

Log record_log(const Replication& r) {
  Log log;
  log.seed = r.facts.seed;
  log.bytes = r.exp->audit_log();
  log.live_verdicts = core::verdict_csv(r.exp->detector().reports());
  log.live_trust = core::trust_csv(r.exp->detector().trust_store());
  return log;
}

/// Distinct replay outputs of one log with how often each appeared
/// (normally exactly one: the pipeline is deterministic).
using Outputs = std::map<std::pair<std::string, std::string>, std::uint64_t>;

struct ReplayPass {
  double seconds = 0.0;  ///< decode + consume only
  std::uint64_t records = 0;
};

/// The `manet_detect replay` path: decode every frame and consume it.
ReplayPass replay_once(const Log& log, Outputs* outputs) {
  ReplayPass p;
  const auto t0 = Clock::now();
  core::AuditStreamReader stream{log.bytes};
  auto pipeline = core::pipeline_from_header(stream.header());
  core::AuditEvent event;
  while (stream.next(event)) {
    pipeline.consume(event);
    ++p.records;
  }
  p.seconds = seconds_since(t0);
  if (outputs != nullptr)
    ++(*outputs)[{core::verdict_csv(pipeline.reports()),
                  core::trust_csv(pipeline.trust_store())}];
  return p;
}

struct ParallelReplay {
  double wall_s = 0.0;
  std::vector<Outputs> outputs;  ///< per log
};

/// Replays logs on parallel workers, each pulling the next pass index, until
/// `passes` passes were claimed.
ParallelReplay replay_parallel(const std::vector<Log>& logs, unsigned workers,
                               std::uint64_t passes) {
  ParallelReplay out;
  out.outputs.resize(logs.size());
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<Outputs>> per_worker(
      workers, std::vector<Outputs>(logs.size()));
  std::vector<std::string> errors(workers);
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          for (;;) {
            const auto i = next.fetch_add(1);
            if (i >= passes) break;
            replay_once(logs[i % logs.size()],
                        &per_worker[w][i % logs.size()]);
          }
        } catch (const std::exception& e) {
          errors[w] = e.what();
        }
      });
    }
  }
  out.wall_s = seconds_since(t0);
  for (unsigned w = 0; w < workers; ++w)
    for (std::size_t l = 0; l < logs.size(); ++l)
      for (const auto& [k, n] : per_worker[w][l]) out.outputs[l][k] += n;
  for (const auto& e : errors)
    if (!e.empty()) throw std::runtime_error{"parallel replay: " + e};
  return out;
}

std::string logs_json(const std::vector<Log>& logs,
                      const std::vector<Outputs>& outputs) {
  std::string out = "[";
  for (std::size_t l = 0; l < logs.size(); ++l) {
    if (l) out += ",";
    std::string replays = "[";
    bool first = true;
    for (const auto& [k, n] : outputs[l]) {
      if (!first) replays += ",";
      first = false;
      replays += Obj{}
                     .str("verdicts", k.first)
                     .str("trust", k.second)
                     .count("count", n)
                     .done();
    }
    replays += "]";
    out += Obj{}
               .count("seed", logs[l].seed)
               .count("bytes", logs[l].bytes.size())
               .str("live_verdicts", logs[l].live_verdicts)
               .str("live_trust", logs[l].live_trust)
               .count("rerecords", logs[l].rerecords)
               .count("rerecord_mismatches", logs[l].mismatches)
               .raw("replays", replays)
               .done();
  }
  return out + "]";
}

void merge_outputs(std::vector<Outputs>& into,
                   const std::vector<Outputs>& from) {
  for (std::size_t l = 0; l < from.size(); ++l)
    for (const auto& [k, n] : from[l]) into[l][k] += n;
}

// ------------------------------------------------------------ traced probes

/// Median microseconds of `fn` over at least 5 calls and about 0.2 s.
template <class Fn>
double probe_us(Fn&& fn) {
  std::vector<double> us;
  const auto t0 = Clock::now();
  while (us.size() < 5 || (seconds_since(t0) < 0.2 && us.size() < 2000)) {
    const auto t = Clock::now();
    fn();
    us.push_back(seconds_since(t) * 1e6);
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

using Counters = std::map<std::string, std::uint64_t>;

/// Adds one replication's work counters: the network's own stats structs
/// plus the hot counters of the obs::Context bound while it ran.
void add_counters(Counters& c, scenario::TrustExperiment& exp,
                  const obs::MetricsSnapshot& snap) {
  auto& net = exp.network();
  const auto& ms = net.medium().stats();
  const auto& bs = net.medium().batch_stats();
  c["net.frames_sent"] += ms.frames_sent;
  c["net.deliveries"] += ms.deliveries;
  c["net.batched_broadcasts"] += bs.batched_broadcasts;
  c["net.snapshot_hits"] += bs.snapshot_hits;
  c["net.snapshot_builds"] += bs.snapshot_builds;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& st = net.agent(i).stats();
    c["olsr.hello_recv"] += st.hello_recv;
    c["olsr.tc_recv"] += st.tc_recv;
    c["olsr.msgs_forwarded"] += st.msgs_forwarded;
    c["logging.records_appended"] += net.agent(i).log().total_appended();
  }
  const auto hot = [&](obs::Hot h) {
    return snap.counter_value(obs::hot_name(h));
  };
  c["olsr.route_recomputes"] += hot(obs::Hot::kRouteRecomputes);
  c["olsr.mpr_recomputes"] += hot(obs::Hot::kMprRecomputes);
  c["core.investigations"] += hot(obs::Hot::kInvestigationsOpened);
  c["core.reports"] += hot(obs::Hot::kPipelineReports);
  c["core.convictions"] += hot(obs::Hot::kPipelineConvictions);
  c["core.pipeline_lines"] += hot(obs::Hot::kPipelineLines);
}

std::string counters_json(const Counters& c) {
  Obj o;
  for (const auto& [k, v] : c) o.count(k, v);
  return o.done();
}

/// Probes on the final state of a finished replication.
std::string probes_json(scenario::TrustExperiment& exp) {
  auto& net = exp.network();
  auto& investigator = net.agent(0);
  const double graph_build_us = probe_us([&] {
    for (std::size_t i = 0; i < net.size(); ++i) {
      auto& agent = net.agent(i);
      const auto graph = agent.knowledge_graph();
      olsr::RoutingTable table;
      table.recompute(agent.id(), graph);
      g_sink = g_sink + table.size();
    }
  });
  const double event_query_us = probe_us([&] {
    const auto& log = investigator.log();
    g_sink = g_sink + log.records_with_event("hello_recv").size();
  });
  const double text_roundtrip_us = probe_us([&] {
    const auto& log = investigator.log();
    g_sink = g_sink + logging::parse_log(log.text_since(sim::Time{})).size();
  });
  // A bystander judging the attacker's phantom claim (the first honest
  // node: node ids equal network indices).
  core::LinkQuery query;
  query.suspect = exp.attacker();
  query.subject = exp.phantom();
  query.claimed_up = true;
  auto& bystander = net.investigations(exp.honest().front().value());
  const double honest_observation_us = probe_us([&] {
    g_sink = g_sink + static_cast<std::size_t>(
                          bystander.honest_observation(query) + 2.0);
  });
  return Obj{}
      .num("olsr.graph_build_us", graph_build_us)
      .num("logging.event_query_us", event_query_us)
      .num("logging.text_roundtrip_us", text_roundtrip_us)
      .num("core.honest_observation_us", honest_observation_us)
      .done();
}

/// Decode-only and consume-only rates over one recorded log.
std::string codec_json(const Log& log) {
  std::uint64_t bytes = 0, events = 0;
  const auto t0 = Clock::now();
  double decode_s = 0.0;
  while (decode_s < 0.3) {
    core::AuditStreamReader stream{log.bytes};
    core::AuditEvent event;
    while (stream.next(event)) g_sink = g_sink + 1;
    bytes += log.bytes.size();
    decode_s = seconds_since(t0);
  }
  std::vector<core::AuditEvent> decoded;
  core::AuditStreamReader stream{log.bytes};
  for (core::AuditEvent event; stream.next(event);) decoded.push_back(event);
  double consume_s = 0.0;
  while (consume_s < 0.3) {
    auto pipeline = core::pipeline_from_header(stream.header());
    const auto t = Clock::now();
    for (const auto& event : decoded) pipeline.consume(event);
    consume_s += seconds_since(t);
    events += decoded.size();
  }
  return Obj{}
      .count("decode_bytes", bytes)
      .num("decode_s", decode_s)
      .count("consume_events", events)
      .num("consume_s", consume_s)
      .done();
}

// ---------------------------------------------------------------- the runs

struct Args {
  const Shape* shape = nullptr;
  std::uint64_t seed = 1;
  double seconds = 35.0;
  bool trace = false;
};

unsigned runner_workers() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

std::string facts_json(const std::vector<Facts>& facts) {
  std::string out = "[";
  for (std::size_t i = 0; i < facts.size(); ++i) {
    if (i) out += ",";
    out += facts[i].json();
  }
  return out + "]";
}

/// Replication timings, one entry per replication that completed. Each
/// keeps its seed: run.py times each seed (and each round of it) by its
/// fastest run, so a busy stretch of the host and the mix of seeds that
/// happened to run in it do not move the figures (see README.md).
struct Samples {
  std::vector<std::uint64_t> seed;
  std::vector<double> setup_s, repl_s;
  std::vector<std::vector<double>> round_ms;
  void add(const Replication& r) {
    if (!r.facts.error.empty()) return;
    seed.push_back(r.facts.seed);
    setup_s.push_back(r.setup_s);
    repl_s.push_back(r.total_s);
    round_ms.push_back(r.round_ms);
  }
  double typical_repl_s() const {
    double sum = 0.0;
    for (const double v : repl_s) sum += v;
    return repl_s.empty() ? 1.0 : sum / static_cast<double>(repl_s.size());
  }
  std::string json() const {
    std::string seeds = "[", rounds = "[";
    for (std::size_t i = 0; i < seed.size(); ++i) {
      if (i) {
        seeds += ",";
        rounds += ",";
      }
      seeds += std::to_string(seed[i]);
      rounds += json_nums(round_ms[i]);
    }
    return Obj{}
        .raw("seed", seeds + "]")
        .raw("setup_s", json_nums(setup_s))
        .raw("repl_s", json_nums(repl_s))
        .raw("round_ms", rounds + "]")
        .done();
  }
};

/// Runs `cycle` repeatedly until about `seconds` after `t0`, and on until
/// `covered()` holds. A cycle starts only while more than half of the
/// previous cycle's time is left, so a run overruns by at most half a cycle.
template <class Covered, class Fn>
void for_cycles(Clock::time_point t0, double seconds, Covered&& covered,
                Fn&& cycle) {
  double last = 0.0;
  do {
    const auto c = Clock::now();
    cycle();
    last = seconds_since(c);
  } while (seconds_since(t0) + 0.5 * last < seconds || !covered());
}

/// Seconds of one interleaving cycle of a timed run. Every cycle runs each
/// part of the run once, so each metric samples the whole run rather than
/// one stretch of it, and each seed runs in several stretches of it.
double cycle_seconds(double seconds) { return std::min(1.0, seconds / 8.0); }

/// The fastest single-thread pass over each log of a run.
struct FastestPasses {
  std::vector<double> seconds;  ///< per log
  std::vector<double> records;  ///< per log: records in one pass
  std::uint64_t passes = 0;
  void add(std::size_t log, const ReplayPass& p) {
    if (seconds.size() <= log) {
      seconds.resize(log + 1, 0.0);
      records.resize(log + 1, 0);
    }
    if (seconds[log] == 0.0 || p.seconds < seconds[log])
      seconds[log] = p.seconds;
    records[log] = static_cast<double>(p.records);
    ++passes;
  }
  std::string json() const {
    return Obj{}
        .raw("min_s", json_nums(seconds))
        .raw("records", json_nums(records))
        .count("passes", passes)
        .done();
  }
};

/// Records one replay log: a whole live replication with the audit writer
/// on, timed like any other replication. A seed recorded before is checked
/// against its first recording instead of being kept twice.
void record_log_into(const Shape& s, std::uint64_t seed, Samples& samples,
                     std::vector<Facts>& facts, std::vector<Log>& logs) {
  auto r = run_replication(s, seed, true);
  samples.add(r);
  facts.push_back(r.facts);
  if (!r.facts.error.empty()) return;
  auto log = record_log(r);
  for (auto& known : logs) {
    if (known.seed != seed) continue;
    ++known.rerecords;
    if (known.bytes != log.bytes || known.live_verdicts != log.live_verdicts ||
        known.live_trust != log.live_trust)
      ++known.mismatches;
    return;
  }
  logs.push_back(std::move(log));
}

/// A log of the workload for the codec and replay measurements: the first
/// of the leading seeds that records without an exception.
std::vector<Log> first_log(const Shape& s,
                           const std::vector<std::uint64_t>& seeds,
                           std::vector<Facts>& facts) {
  Samples unused;
  std::vector<Log> logs;
  for (std::size_t i = 0; logs.empty() && i < 8; ++i)
    record_log_into(s, seeds[i], unused, facts, logs);
  if (logs.empty()) throw std::runtime_error{"no log could be recorded"};
  return logs;
}

/// Timed run of a live workload. It records one log of the workload, then
/// each cycle spends about 45% on single-worker replications, 35% on one
/// Runner batch over the same seeds and 20% on replays of that log.
/// Replications cycle through the shape's `timed_seeds` first seeds, and
/// the run goes on until each has run.
std::string timed_live(const Args& a,
                       const std::vector<std::uint64_t>& seeds) {
  const Shape& s = *a.shape;
  const auto t0 = Clock::now();
  const auto seed = [&](std::size_t i) { return seeds[i % s.timed_seeds]; };
  std::vector<Facts> facts;
  const auto logs = first_log(s, seeds, facts);
  std::vector<Outputs> outputs(1);

  const unsigned workers = runner_workers();
  const double slice = cycle_seconds(a.seconds);
  Samples samples;
  FastestPasses replay;
  std::size_t n = 0, runner_tasks = 0;
  std::vector<double> batch_tasks, batch_wall_s;  // one entry per cycle
  const auto covered = [&] { return n >= s.timed_seeds; };
  for_cycles(t0, a.seconds, covered, [&] {
    auto c = Clock::now();
    do {
      auto r = run_replication(s, seed(n++), false);
      samples.add(r);
      facts.push_back(r.facts);
    } while (seconds_since(c) < 0.45 * slice);

    const auto per_worker = std::clamp<std::size_t>(
        static_cast<std::size_t>(0.35 * slice / samples.typical_repl_s()), 1,
        64);
    std::vector<runtime::ReplicationTask> batch;
    for (std::size_t i = 0; i < per_worker * workers; ++i)
      batch.push_back(task_for(s, seed(runner_tasks + i), i));
    batch_wall_s.push_back(runner_batch(workers, batch, facts));
    batch_tasks.push_back(static_cast<double>(batch.size()));
    runner_tasks += batch.size();

    c = Clock::now();
    do {
      replay.add(0, replay_once(logs[0], &outputs[0]));
    } while (seconds_since(c) < 0.2 * slice);
  });
  return Obj{}
      .raw("samples", samples.json())
      .raw("runner", Obj{}
                         .num("workers", workers)
                         .raw("tasks", json_nums(batch_tasks))
                         .raw("wall_s", json_nums(batch_wall_s))
                         .done())
      .raw("replay", replay.json())
      .raw("facts", facts_json(facts))
      .raw("logs", logs_json(logs, outputs))
      .done();
}

/// Timed run of the replay workload. Its set-up records one log of each of
/// the shape's `timed_seeds` first seeds; every cycle records one of them
/// again (so the recording times sample the whole run, and each recording
/// must match the first byte for byte), then replays the logs in turn on
/// one thread for the rest of the cycle.
std::string timed_replay(const Args& a,
                         const std::vector<std::uint64_t>& seeds) {
  const Shape& s = *a.shape;
  const auto t0 = Clock::now();
  std::vector<Facts> facts;
  Samples recording;
  std::vector<Log> logs;
  std::size_t recorded = 0;
  while (recorded < s.timed_seeds)
    record_log_into(s, seeds[recorded++], recording, facts, logs);
  if (logs.empty()) throw std::runtime_error{"no log could be recorded"};

  const double slice = cycle_seconds(a.seconds);
  std::vector<Outputs> outputs;
  FastestPasses replay;
  std::size_t i = 0;
  for_cycles(t0, a.seconds, [] { return true; }, [&] {
    const auto c = Clock::now();
    record_log_into(s, seeds[recorded++ % s.timed_seeds], recording, facts,
                    logs);
    outputs.resize(logs.size());
    do {
      const auto l = i++ % logs.size();
      replay.add(l, replay_once(logs[l], &outputs[l]));
    } while (seconds_since(c) < slice);
  });
  return Obj{}
      .raw("recording", recording.json())
      .raw("replay", replay.json())
      .num("rounds_per_log", s.rounds + s.idle)
      .raw("facts", facts_json(facts))
      .raw("logs", logs_json(logs, outputs))
      .done();
}

/// Fixed-work traced run: an untraced pass and two traced passes over the
/// same seeds (their counters must match exactly), a parallel pass for the
/// runtime layer, then probes on the final state and codec rates over a
/// recorded log. Probe time is outside every pass timer.
std::string traced(const Args& a, const std::vector<std::uint64_t>& seeds) {
  const Shape& s = *a.shape;
  const std::size_t reps = s.traced_reps;
  std::vector<Facts> facts;
  Samples untraced;
  std::vector<Samples> traced_samples(2);
  std::vector<Counters> counters(2);
  std::vector<Log> logs;
  std::unique_ptr<scenario::TrustExperiment> last;

  // Warm-up recording outside every timer. On live workloads its log is
  // the one the codec rates are measured on; replay records its own below.
  if (s.replay) first_log(s, seeds, facts);
  else logs = first_log(s, seeds, facts);

  const auto traced_run = [&](std::size_t i, int pass) {
    obs::Context::Config oc;
    oc.tracing = true;
    obs::Context ctx{oc};
    Replication r;
    {
      obs::Scope scope{&ctx};
      r = run_replication(s, seeds[i], s.replay);
    }
    traced_samples[pass].add(r);
    facts.push_back(r.facts);
    if (r.facts.error.empty()) {
      add_counters(counters[pass], *r.exp, ctx.snapshot());
      last = std::move(r.exp);
    }
  };
  // Untraced and first traced runs alternate seed by seed, so host drift
  // hits both alike; the second traced pass must count the same work.
  for (std::size_t i = 0; i < reps; ++i) {
    auto r = run_replication(s, seeds[i], s.replay);
    untraced.add(r);
    facts.push_back(r.facts);
    if (s.replay && r.facts.error.empty()) logs.push_back(record_log(r));
    traced_run(i, 0);
  }
  for (std::size_t i = 0; i < reps; ++i) traced_run(i, 1);

  // Parallel efficiency: single-worker seconds of some work against the
  // same work spread over the workers.
  const unsigned workers = runner_workers();
  std::vector<Outputs> outputs(logs.size());
  Obj parallel;
  if (s.replay) {
    double single_s = 0.0;
    const std::uint64_t passes = s.parallel_repeats * logs.size();
    for (std::uint64_t i = 0; i < passes; ++i)
      single_s += replay_once(logs[i % logs.size()], &outputs[i % logs.size()])
                      .seconds;
    const auto par = replay_parallel(logs, workers, passes);
    merge_outputs(outputs, par.outputs);
    parallel.num("single_s", single_s)
        .num("workers", workers)
        .num("wall_s", par.wall_s);
  } else {
    std::vector<runtime::ReplicationTask> tasks;
    for (std::size_t i = 0; i < reps * s.parallel_repeats; ++i)
      tasks.push_back(task_for(s, seeds[i % reps], i));
    const double wall = runner_batch(workers, tasks, facts);
    double single_s = 0.0;
    for (const double v : untraced.repl_s) single_s += v;
    single_s *= static_cast<double>(s.parallel_repeats);
    parallel.num("single_s", single_s)
        .num("workers", runtime::Runner{runtime::Runner::Config{workers}}
                            .effective_threads(tasks.size()))
        .num("wall_s", wall);
    if (!logs.empty()) replay_once(logs[0], &outputs[0]);
  }

  const std::string probes = last ? probes_json(*last) : "{}";
  const std::string codec = logs.empty() ? "{}" : codec_json(logs.front());
  return Obj{}
      .raw("untraced", untraced.json())
      .raw("traced", traced_samples[0].json())
      .raw("traced_again", traced_samples[1].json())
      .raw("counters", counters_json(counters[0]))
      .raw("counters_again", counters_json(counters[1]))
      .raw("parallel", parallel.done())
      .raw("probes", probes)
      .raw("codec", codec)
      .raw("facts", facts_json(facts))
      .raw("logs", logs_json(logs, outputs))
      .done();
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      for (const auto& s : kShapes)
        if (std::strcmp(s.name, v) == 0) a.shape = &s;
      if (a.shape == nullptr) return false;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return a.shape != nullptr && a.seconds > 0.0 && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload spoof16|grayhole16|replay"
                 " --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    // Enough for the longest list a run reads (timed_seeds, at most 32).
    const auto seeds = runtime::ExperimentSpec::seed_range(a.seed, 32);
    const std::string body = a.trace         ? traced(a, seeds)
                             : a.shape->replay ? timed_replay(a, seeds)
                                               : timed_live(a, seeds);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto peak_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
    const auto out = Obj{}
                         .str("workload", a.shape->name)
                         .count("seed", a.seed)
                         .num("trace", a.trace ? 1 : 0)
                         .count("peak_rss_kb", peak_rss_kb)
                         .raw("run", body)
                         .done();
    std::printf("%s\n", out.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
