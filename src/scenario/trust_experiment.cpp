#include "scenario/trust_experiment.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/pipeline.hpp"
#include "faults/checkpoint.hpp"
#include "logging/audit_log.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "olsr/wire.hpp"

namespace manet::scenario {

TrustExperiment::TrustExperiment(Config config) : config_{std::move(config)} {
  if (config_.num_nodes < 4)
    throw std::invalid_argument{"need at least 4 nodes"};
  if (config_.num_liars + 2 > config_.num_nodes)
    throw std::invalid_argument{"too many liars"};
  config_.fault_plan.sort();
  phantom_ = NodeId{static_cast<std::uint32_t>(config_.num_nodes + 83)};
}

TrustExperiment::~TrustExperiment() = default;

bool TrustExperiment::is_liar(NodeId id) const {
  return std::find(liars_.begin(), liars_.end(), id) != liars_.end();
}

faults::FaultInjector::NodeOps TrustExperiment::node_ops() {
  // Each op runs in the node's engine context: a plain call sequentially
  // (already inside the injector's event), a lane binding under psim (the
  // step-mode injector executes at a quiescent barrier, and start() draws
  // timer jitter from the node's own stream).
  faults::FaultInjector::NodeOps ops;
  ops.crash = [this](NodeId id) {
    const std::size_t i = id.value();
    network_->run_as(i, [&] { network_->agent(i).stop(); });
  };
  ops.restart = [this](NodeId id) {
    const std::size_t i = id.value();
    network_->run_as(i, [&] { network_->agent(i).start(); });
  };
  ops.restart_amnesia = [this](NodeId id) {
    const std::size_t i = id.value();
    network_->run_as(i, [&] {
      auto& agent = network_->agent(i);
      agent.reset_tables();
      agent.start();
    });
  };
  return ops;
}

void TrustExperiment::build_network() {
  if (config_.checkpointable && config_.engine != sim::EngineKind::kSequential)
    throw std::invalid_argument{
        "checkpointable runs require the sequential engine"};

  const bool grayhole = config_.attack == AttackKind::kGrayhole;

  Network::Config nc;
  nc.seed = config_.seed;
  nc.radio.range_m = 250.0;
  nc.radio.loss_probability = config_.radio_loss;
  if (grayhole) {
    // Multi-hop grid (spacing 150 m, range 250 m: 8-adjacency): drops must
    // matter, and in a full mesh nobody selects MPRs — §9.3 then emits no
    // TCs at all and a grayhole is invisible. The attacker's WILL_ALWAYS
    // makes it an MPR of every neighbor (§8.3.1 step 1), obliging it to
    // re-forward every fresh flood — exactly what the audit checks.
    nc.positions = net::grid_layout(config_.num_nodes, 150.0);
    auto attacker_config = nc.agent;
    attacker_config.willingness = olsr::Willingness::kAlways;
    nc.agent_overrides[1] = attacker_config;
    auto investigator_config = nc.agent;
    investigator_config.log_fwd_echo = true;
    nc.agent_overrides[0] = investigator_config;
  } else {
    // A compact cluster: every node within radio range of every other, so
    // all n-2 bystanders are 1-hop neighbors of the attacker (the S1..Sm of
    // the paper) and answer its investigations first-hand.
    nc.positions = net::grid_layout(config_.num_nodes, 50.0);
  }
  nc.investigation = config_.investigation;
  nc.engine = config_.engine;
  nc.engine_threads = config_.engine_threads;
  nc.shards = config_.shards;
  network_ = std::make_unique<Network>(nc);

  if (grayhole) {
    // Attacker (node 1) drops the floods its WILL_ALWAYS advertisement
    // attracted. Its RNG stream is derived from the seed, independent of
    // the network's.
    auto drop = std::make_unique<attacks::DropAttack>(
        sim::Rng{config_.seed ^ 0x6D40BEEFULL}, config_.drop_fraction);
    drop_ = drop.get();
    network_->set_hooks(1, std::move(drop));
  } else {
    // Attacker (node 1) advertises the phantom / forged link.
    std::set<NodeId> targets{phantom_};
    auto spoof = std::make_unique<attacks::LinkSpoofingAttack>(config_.mode,
                                                               targets);
    spoof_ = spoof.get();
    network_->set_hooks(1, std::move(spoof));
  }

  // Choose the liars among the bystanders (nodes 2..n-1), deterministically
  // from the seed.
  sim::Rng picker{config_.seed ^ 0xC01DBEEFULL};
  std::vector<std::size_t> bystanders;
  for (std::size_t i = 2; i < config_.num_nodes; ++i) bystanders.push_back(i);
  picker.shuffle(bystanders);
  for (std::size_t k = 0; k < bystanders.size(); ++k) {
    const auto id = Network::id_of(bystanders[k]);
    if (k < config_.num_liars) {
      liars_.push_back(id);
      network_->set_answer_policy(bystanders[k], core::AnswerPolicy::kLiar);
    } else {
      honest_.push_back(id);
    }
  }

  // The investigator (node 0) runs the detector. Faulted runs get the
  // liveness gate and unresponsive decay; pristine runs keep the exact
  // golden-trace behavior.
  core::DetectorConfig dc;
  dc.trust_params = config_.trust_params;
  dc.decision = config_.decision;
  dc.investigation = config_.investigation;
  if (faulted()) {
    dc.liveness_window = config_.liveness_window;
    dc.decay_unresponsive = true;
  }
  if (grayhole) dc.forwarding_audit = true;
  detector_ = &network_->add_detector(0, dc);

  // Random initial trust (the paper: "Initially, we randomly set the trust
  // that is assigned to each node").
  for (std::size_t i = 1; i < config_.num_nodes; ++i) {
    detector_->trust_store().set_trust(
        Network::id_of(i),
        picker.uniform_real(config_.initial_trust_min,
                            config_.initial_trust_max));
  }

  if (config_.record_audit) {
    // Header first (pipeline config + the just-assigned initial trust),
    // then the LogStore writer mode and the pipeline recorder emit frames
    // for the rest of the run. Attached before start_all, so the stream
    // holds every line the detector will ever see.
    audit_writer_ = std::make_unique<logging::AuditWriter>();
    core::AuditHeader header;
    header.config = core::pipeline_config(investigator(), dc);
    header.trust_rows = detector_->trust_store().trust_rows();
    header.interaction_rows = detector_->trust_store().interaction_rows();
    core::write_audit_header(*audit_writer_, header);
    network_->agent(0).log().set_audit_writer(audit_writer_.get());
    detector_->pipeline().set_recorder(audit_writer_.get());
  }

  if (config_.checkpointable) {
    network_->medium().set_track_in_flight(true);
    for (std::size_t i = 0; i < config_.num_nodes; ++i)
      network_->agent(i).set_track_pending_forwards(true);
  }

  if (faulted()) {
    injector_ = std::make_unique<faults::FaultInjector>(
        network_->sim(), network_->medium(), config_.fault_plan, node_ops());
    invariants_ = std::make_unique<faults::InvariantChecker>(
        network_->medium(), *injector_);
  }
}

void TrustExperiment::drive(sim::Duration d) {
  if (injector_ && network_->sharded() != nullptr) {
    // Step mode: fault events apply at the 250 ms window barriers, where
    // every worker lane is quiescent — thread-count independent.
    const auto slice = sim::Duration::from_ms(250);
    auto remaining = d;
    while (remaining > sim::Duration{}) {
      const auto step = remaining < slice ? remaining : slice;
      network_->run_for(step);
      injector_->run_until(network_->now());
      remaining = remaining - step;
    }
  } else {
    network_->run_for(d);
  }
}

void TrustExperiment::setup() {
  build_network();
  network_->start_all();
  // Sequential runs replay the plan through the event queue at exact
  // times; sharded runs step it from drive() instead.
  if (injector_ && network_->sharded() == nullptr) injector_->arm();
  // Let OLSR converge: links become symmetric after two HELLO exchanges;
  // give the cluster a comfortable margin.
  const obs::WallTimer wall;
  const auto begin = network_->now();
  drive(sim::Duration::from_seconds(15.0));
  obs::span(obs::SpanName::kSetupConverge, begin, network_->now(), 0,
            wall.elapsed_ns());
}

core::DetectionReport TrustExperiment::run_investigation(
    NodeId suspect, NodeId subject, const std::vector<NodeId>& verifiers) {
  core::DetectionReport report;
  bool done = false;
  detector_->set_report_callback([&](const core::DetectionReport& r) {
    report = r;
    done = true;
  });
  // The kick draws and schedules in the investigator's context — under the
  // sharded engine that must happen on node 0's lane and stream.
  network_->run_as(0, [&] {
    detector_->investigate_claim(suspect, subject, /*claimed_up=*/true,
                                 {core::EvidenceTag::kE1MprReplaced},
                                 verifiers);
  });

  // Drive the simulation until the round's report lands (bounded wait).
  const auto deadline = network_->now() + sim::Duration::from_seconds(60.0);
  while (!done && network_->now() < deadline)
    drive(sim::Duration::from_ms(250));
  detector_->set_report_callback({});
  if (!done) throw std::runtime_error{"investigation round never completed"};
  return report;
}

TrustExperiment::RoundSnapshot TrustExperiment::run_round() {
  if (config_.attack == AttackKind::kGrayhole) return run_grayhole_round();

  RoundSnapshot snap;
  snap.round = ++round_counter_;
  const auto round_begin = network_->now();
  const obs::WallTimer wall;

  // Verifiers: every bystander (the attacker's 1-hop neighbors, §IV-B).
  std::vector<NodeId> verifiers;
  verifiers.insert(verifiers.end(), honest_.begin(), honest_.end());
  verifiers.insert(verifiers.end(), liars_.begin(), liars_.end());

  const auto report = run_investigation(attacker(), phantom_, verifiers);
  snap.detect = report.detect;
  snap.verdict = report.verdict;
  snap.margin = report.interval.margin;
  snap.at = network_->now();
  if (invariants_) invariants_->check_conviction(network_->now(), report);

  for (std::size_t i = 1; i < config_.num_nodes; ++i) {
    const auto id = Network::id_of(i);
    snap.trust[id] = detector_->trust_store().trust(id);
  }
  obs::span(obs::SpanName::kRound, round_begin, network_->now(),
            static_cast<std::uint64_t>(snap.round), wall.elapsed_ns());
  return snap;
}

TrustExperiment::RoundSnapshot TrustExperiment::run_grayhole_round() {
  RoundSnapshot snap;
  snap.round = ++round_counter_;
  const auto round_begin = network_->now();
  const obs::WallTimer wall;

  // Detection is scan-driven, not claim-driven: pad to the round's 5 s
  // slot so third-party floods accumulate (and the attacker drops its
  // share), then run one scan over the investigator's log growth.
  const auto slot_end = sim::Time::from_seconds(
      15.0 + 5.0 * static_cast<double>(round_counter_));
  if (network_->now() < slot_end) drive(slot_end - network_->now());

  core::DetectionReport attacker_report;
  bool have_attacker_report = false;
  detector_->set_report_callback([&](const core::DetectionReport& r) {
    if (r.suspect == attacker()) {
      attacker_report = r;
      have_attacker_report = true;
    } else if (r.verdict == trust::Verdict::kIntruder) {
      // Any conviction of a bystander is a false conviction — the audit's
      // WILL_ALWAYS scoping is supposed to make these impossible.
      ++false_convictions_;
    }
    if (invariants_) invariants_->check_conviction(network_->now(), r);
  });
  std::size_t launched = 0;
  const auto audits_before = detector_->pipeline().forward_audits().size();
  network_->run_as(0, [&] { launched = detector_->scan_once(); });

  // Drive until every launched investigation lands (bounded wait).
  const auto outstanding = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < config_.num_nodes; ++i)
      n += network_->investigations(i).outstanding();
    return n;
  };
  const auto deadline = network_->now() + sim::Duration::from_seconds(60.0);
  while (outstanding() != 0 && network_->now() < deadline)
    drive(sim::Duration::from_ms(250));
  detector_->set_report_callback({});
  if (outstanding() != 0)
    throw std::runtime_error{"grayhole round investigations never completed"};

  if (have_attacker_report) {
    snap.detect = attacker_report.detect;
    snap.verdict = attacker_report.verdict;
    snap.margin = attacker_report.interval.margin;
  }
  snap.at = network_->now();
  snap.investigations = launched;
  // Delta, not deque size: the forward-audit ring (like the report ring)
  // is skipped by the checkpoint surface, so per-round telemetry must not
  // read its absolute length.
  snap.audits = detector_->pipeline().forward_audits().size() - audits_before;
  snap.dropped_control = drop_ ? drop_->dropped_control() : 0;
  snap.false_convictions = false_convictions_;
  snap.suppressed = detector_->degradation().suppressed_convictions;
  snap.converged = network_->converged();
  for (std::size_t i = 1; i < config_.num_nodes; ++i) {
    const auto id = Network::id_of(i);
    snap.trust[id] = detector_->trust_store().trust(id);
  }
  obs::span(obs::SpanName::kRound, round_begin, network_->now(),
            static_cast<std::uint64_t>(snap.round), wall.elapsed_ns());
  return snap;
}

TrustExperiment::RoundSnapshot TrustExperiment::run_churn_round() {
  RoundSnapshot snap = run_round();

  if (injector_) {
    // Churn rounds run on a fixed 5 s cadence: the investigation itself is
    // sub-second, so pad each round with idle simulation until its slot
    // ends. The padding is what gives fault events room to land between
    // investigations (FaultPlan::chaos sizes its window to this cadence)
    // and gives the OLSR plane time to react before the probe below.
    const auto slot_end = sim::Time::from_seconds(
        15.0 + 5.0 * static_cast<double>(round_counter_));
    if (network_->now() < slot_end) drive(slot_end - network_->now());

    // False-conviction probe: the lowest-id down bystander is a crashed,
    // honest node whose links have gone stale — exactly what a naive
    // detector convicts. Its "claim" of a live link to the investigator is
    // investigated like any spoofing suspicion; verifiers whose tables
    // have expired the links answer against it.
    NodeId probe{};
    for (const auto& [id, since] : injector_->down_nodes()) {
      if (id == investigator() || id == attacker()) continue;
      probe = id;
      break;
    }
    if (probe.valid()) {
      std::vector<NodeId> verifiers;
      for (const auto id : honest_)
        if (id != probe) verifiers.push_back(id);
      for (const auto id : liars_)
        if (id != probe) verifiers.push_back(id);
      const auto report = run_investigation(probe, investigator(), verifiers);
      if (report.verdict == trust::Verdict::kIntruder) ++false_convictions_;
      invariants_->check_conviction(network_->now(), report);
    }

    const auto now = network_->now();
    invariants_->check_trust_bounds(now, investigator(),
                                    detector_->trust_store());
    for (std::size_t i = 0; i < config_.num_nodes; ++i) {
      const auto id = Network::id_of(i);
      if (network_->medium().is_up(id))
        invariants_->check_routing(now, id, network_->agent(i).routes());
    }

    // The probe may have moved trust values; re-snapshot after it.
    for (std::size_t i = 1; i < config_.num_nodes; ++i) {
      const auto id = Network::id_of(i);
      snap.trust[id] = detector_->trust_store().trust(id);
    }
  }

  snap.down = injector_ ? injector_->down_count() : 0;
  snap.suppressed = detector_->degradation().suppressed_convictions;
  snap.false_convictions = false_convictions_;
  snap.converged = network_->converged();
  snap.at = network_->now();
  return snap;
}

TrustExperiment::RoundSnapshot TrustExperiment::run_idle_round() {
  RoundSnapshot snap;
  snap.round = ++round_counter_;
  const auto round_begin = network_->now();
  const obs::WallTimer wall;
  // Through the pipeline, not the trust store directly: the decay is an
  // audit-stream event (kDecay frame), so a recorded run replays it.
  detector_->pipeline().consume_decay(network_->now());
  drive(sim::Duration::from_seconds(2.0));
  snap.at = network_->now();
  obs::span(obs::SpanName::kIdleRound, round_begin, network_->now(),
            static_cast<std::uint64_t>(snap.round), wall.elapsed_ns());
  for (std::size_t i = 1; i < config_.num_nodes; ++i) {
    const auto id = Network::id_of(i);
    snap.trust[id] = detector_->trust_store().trust(id);
  }
  return snap;
}

void TrustExperiment::cease_attack() {
  if (spoof_) spoof_->set_active(false);
  if (drop_) drop_->set_active(false);
  for (auto liar : liars_) {
    // Former liars answer honestly once the collusion ends.
    for (std::size_t i = 0; i < config_.num_nodes; ++i) {
      if (Network::id_of(i) == liar)
        network_->set_answer_policy(i, core::AnswerPolicy::kHonest);
    }
  }
}

std::vector<TrustExperiment::RoundSnapshot> TrustExperiment::run_attack_rounds(
    int rounds) {
  std::vector<RoundSnapshot> out;
  out.reserve(static_cast<std::size_t>(rounds));
  for (int i = 0; i < rounds; ++i) out.push_back(run_round());
  return out;
}

// ----------------------------------------------------------- checkpointing

std::vector<std::uint8_t> TrustExperiment::save_checkpoint() {
  if (!config_.checkpointable)
    throw std::logic_error{"save_checkpoint requires checkpointable mode"};
  if (network_ == nullptr || network_->sharded() != nullptr)
    throw std::logic_error{"save_checkpoint requires the sequential engine"};
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    if (network_->investigations(i).outstanding() != 0)
      throw std::logic_error{
          "save_checkpoint at a round boundary only (outstanding "
          "investigations)"};
  }

  obs::hit(obs::Hot::kCheckpointSaves);
  obs::instant(obs::SpanName::kCheckpointSave, network_->now());
  faults::CheckpointWriter w;
  w.u32(faults::kCheckpointMagic);
  w.u32(faults::kCheckpointVersion);
  w.u32(static_cast<std::uint32_t>(config_.num_nodes));
  w.u64(config_.seed);
  w.i64(round_counter_);
  w.u64(false_convictions_);
  w.time(network_->now());
  faults::encode_rng(w, network_->sim().rng().state());
  faults::encode_medium(w, network_->medium());
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    faults::encode_agent(w, network_->agent(i));
    faults::encode_investigations(w, network_->investigations(i));
  }
  faults::encode_detector(w, *detector_);
  // Per-attack-kind payload (checkpoint v2): the kind byte pins the layout
  // so a config/bytes mismatch is a clean error, not a misparse.
  w.u8(static_cast<std::uint8_t>(config_.attack));
  if (drop_) {
    w.boolean(drop_->active());
    faults::encode_rng(w, drop_->rng_state());
    w.u64(drop_->dropped_control());
    w.u64(drop_->dropped_data());
    w.u32(drop_->duty_position());
  } else {
    w.boolean(spoof_->active());
    w.u64(spoof_->forged_count());
  }
  w.boolean(injector_ != nullptr);
  if (injector_) {
    w.u64(injector_->cursor());
    const auto down = injector_->down_nodes();
    w.count(down.size());
    for (const auto& [id, since] : down) {
      w.node(id);
      w.time(since);
    }
    w.time(injector_->last_disruption());
    w.time(injector_->last_heal());
    w.boolean(injector_->armed());
    w.time(injector_->pending_at());
    w.u64(injector_->pending_seq());
  }
  return w.take();
}

std::unique_ptr<TrustExperiment> TrustExperiment::restore_checkpoint(
    Config config, const std::vector<std::uint8_t>& bytes) {
  auto exp = std::make_unique<TrustExperiment>(std::move(config));
  exp->apply_restored(bytes);
  return exp;
}

std::vector<std::uint8_t> TrustExperiment::audit_log() const {
  return audit_writer_ ? audit_writer_->buffer()
                       : std::vector<std::uint8_t>{};
}

void TrustExperiment::apply_restored(const std::vector<std::uint8_t>& bytes) {
  if (!config_.checkpointable)
    throw std::invalid_argument{"restore requires a checkpointable config"};
  if (config_.record_audit)
    throw std::invalid_argument{
        "record_audit cannot resume from a checkpoint: the recorded stream "
        "would have no beginning"};
  // Rebuild the object graph exactly as setup() does — no timers armed, no
  // draws from the network's RNG — then overwrite all state and re-arm the
  // pending events.
  build_network();

  faults::CheckpointReader r{bytes};
  if (r.u32() != faults::kCheckpointMagic)
    throw faults::CheckpointError{"bad checkpoint magic"};
  if (const auto v = r.u32(); v != faults::kCheckpointVersion)
    throw faults::CheckpointError{"unsupported checkpoint version " +
                                  std::to_string(v)};
  if (r.u32() != config_.num_nodes)
    throw faults::CheckpointError{"checkpoint node count mismatch"};
  if (r.u64() != config_.seed)
    throw faults::CheckpointError{"checkpoint seed mismatch"};
  round_counter_ = static_cast<int>(r.i64());
  false_convictions_ = r.u64();
  const sim::Time now = r.time();

  auto& sim = network_->sim();
  if (now < sim.now())
    throw faults::CheckpointError{"checkpoint time before simulation start"};
  sim.restore_now(now);
  sim.rng().set_state(faults::decode_rng(r));

  // Pending-event re-arm protocol: collect everything that was in the
  // queue at save time, sort by (time, original seq), arm in that order.
  // Fresh consecutive seqs then preserve every original tie-break.
  struct ResumeItem {
    sim::Time at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  std::vector<ResumeItem> items;

  const faults::MediumImage medium_img =
      faults::decode_medium(r, network_->medium());
  for (const auto& f : medium_img.flights)
    items.push_back({f.arrival, f.seq,
                     [this, f] { network_->medium().restore_in_flight(f); }});

  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    auto& agent = network_->agent(i);
    const faults::AgentImage img = faults::decode_agent(r, agent);
    if (img.running) agent.resume_running();
    const auto arm_timer = [&items](sim::PeriodicTimer& t,
                                    const faults::TimerImage& ti) {
      if (!ti.running) return;
      items.push_back(
          {ti.next_fire, ti.seq, [&t, at = ti.next_fire] { t.resume_at(at); }});
    };
    arm_timer(agent.hello_timer(), img.hello);
    arm_timer(agent.tc_timer(), img.tc);
    arm_timer(agent.mid_timer(), img.mid);
    arm_timer(agent.housekeeping_timer(), img.housekeeping);
    for (const auto& fwd : img.forwards) {
      olsr::OlsrPacket packet;
      try {
        packet = olsr::parse_packet(fwd.message);
      } catch (const olsr::WireError& e) {
        throw faults::CheckpointError{std::string{"pending forward: "} +
                                      e.what()};
      }
      if (packet.messages.size() != 1)
        throw faults::CheckpointError{"corrupt pending-forward message"};
      items.push_back({fwd.at, fwd.seq,
                       [&agent, msg = std::move(packet.messages.front()),
                        at = fwd.at] { agent.restore_pending_forward(msg, at); }});
    }
    faults::decode_investigations(r, network_->investigations(i));
  }

  faults::decode_detector(r, *detector_);
  if (r.u8() != static_cast<std::uint8_t>(config_.attack))
    throw faults::CheckpointError{"checkpoint attack kind mismatch"};
  if (drop_) {
    const bool active = r.boolean();
    const auto rng = faults::decode_rng(r);
    const auto dropped_control = r.u64();
    const auto dropped_data = r.u64();
    const auto duty_pos = r.u32();
    drop_->restore(rng, active, dropped_control, dropped_data, duty_pos);
  } else {
    spoof_->set_active(r.boolean());
    spoof_->restore_forged(r.u64());
  }

  const bool has_injector = r.boolean();
  if (has_injector != (injector_ != nullptr))
    throw faults::CheckpointError{"fault plan presence mismatch"};
  if (injector_) {
    const auto cursor = static_cast<std::size_t>(r.u64());
    const std::size_t ndown = r.count(12);  // node + time
    std::vector<std::pair<NodeId, sim::Time>> down;
    down.reserve(ndown);
    for (std::size_t k = 0; k < ndown; ++k) {
      const auto id = r.node();
      const auto since = r.time();
      down.emplace_back(id, since);
    }
    const auto last_disruption = r.time();
    const auto last_heal = r.time();
    injector_->restore(cursor, std::move(down), last_disruption, last_heal);
    const bool armed = r.boolean();
    const auto at = r.time();
    const auto seq = r.u64();
    if (armed) items.push_back({at, seq, [this] { injector_->arm(); }});
  }
  if (!r.at_end())
    throw faults::CheckpointError{"trailing bytes after checkpoint"};

  for (const auto& item : items)
    if (item.at < now)
      throw faults::CheckpointError{"pending event before checkpoint time"};
  std::stable_sort(items.begin(), items.end(),
                   [](const ResumeItem& a, const ResumeItem& b) {
                     return a.at != b.at ? a.at < b.at : a.seq < b.seq;
                   });
  for (const auto& item : items) item.fn();
  obs::hit(obs::Hot::kCheckpointRestores);
  obs::instant(obs::SpanName::kCheckpointRestore, now);
}

}  // namespace manet::scenario
