#include "core/detector.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/signatures_olsr.hpp"
#include "obs/obs.hpp"

namespace manet::core {
namespace {

/// Counts one IDS log query that examined `visited` records.
void count_query(std::size_t visited) {
  obs::hit(obs::Hot::kIdsLogQueries);
  obs::hit(obs::Hot::kIdsLogRecordsVisited, visited);
}

}  // namespace

PipelineConfig pipeline_config(NodeId self, const DetectorConfig& config) {
  PipelineConfig p;
  p.self = self;
  p.trust_params = config.trust_params;
  p.decision = config.decision;
  p.trust_update_min_detect = config.trust_update_min_detect;
  p.liveness_window = config.liveness_window;
  p.decay_unresponsive = config.decay_unresponsive;
  return p;
}

Detector::Detector(sim::Engine& sim, olsr::Agent& agent,
                   InvestigationManager& investigations, DetectorConfig config)
    : sim_{sim},
      agent_{agent},
      config_{config},
      pipeline_{pipeline_config(agent.id(), config)},
      investigations_{investigations},
      auditor_{agent.id(), config.audit},
      scan_timer_{sim, config.scan_interval, sim::Duration::from_ms(100),
                  [this] { scan_once(); }} {
  matcher_.add_signature(link_spoofing_claim_signature(config_.hello_window));
  matcher_.add_signature(link_omission_signature(config_.hello_window));
  matcher_.add_signature(
      storm_signature(config_.storm_burst, config_.storm_window));
  matcher_.add_signature(drop_signature(config_.fwd_timeout +
                                        config_.scan_interval));
  matcher_.add_signature(mpr_replacement_signature());
  // Gated so the spoofing suites' pinned signature set stays untouched.
  if (config_.forwarding_audit)
    matcher_.add_signature(forwarding_audit_signature());
}

void Detector::start() {
  if (running_) return;
  running_ = true;
  scan_timer_.start();
}

void Detector::stop() {
  if (!running_) return;
  running_ = false;
  scan_timer_.stop();
}

void Detector::feed_log_growth() {
  const auto& log = agent_.log();
  // Retention may have dropped records past the cursor; they are gone for
  // the live pipeline exactly as they were for the old full-log rescan.
  std::uint64_t next = std::max(next_feed_, log.base_index());
  for (; next < log.total_appended(); ++next)
    pipeline_.consume_line(
        log.at(static_cast<std::size_t>(next - log.base_index())));
  next_feed_ = next;
}

sim::Time Detector::last_heard_of(NodeId node) {
  feed_log_growth();
  return pipeline_.last_heard_of(node);
}

Detector::Persisted Detector::persist() const {
  if (running_)
    throw std::logic_error{"cannot checkpoint a detector with a live scan timer"};
  Persisted p;
  p.last_scan = last_scan_;
  p.current_mprs.assign(current_mprs_.begin(), current_mprs_.end());
  p.pending_tcs.assign(pending_tcs_.begin(), pending_tcs_.end());
  p.last_investigated.assign(last_investigated_.begin(),
                             last_investigated_.end());
  const auto& pool = pipeline_.answer_pool();
  p.answer_pool.assign(pool.begin(), pool.end());
  p.degradation = pipeline_.degradation();
  p.auditor = auditor_.persist();
  return p;
}

void Detector::restore(Persisted p) {
  last_scan_ = p.last_scan;
  current_mprs_ = std::set<NodeId>(p.current_mprs.begin(),
                                   p.current_mprs.end());
  pending_tcs_.assign(p.pending_tcs.begin(), p.pending_tcs.end());
  last_investigated_.clear();
  last_investigated_.insert(p.last_investigated.begin(),
                            p.last_investigated.end());
  DetectionPipeline::AnswerPool pool;
  pool.insert(p.answer_pool.begin(), p.answer_pool.end());
  pipeline_.restore(std::move(pool), p.degradation);
  auditor_.restore(p.auditor);
  // Rebuild the pipeline's liveness oracle from the restored log's retained
  // window — the same records the pre-checkpoint newest-first scan saw.
  next_feed_ = agent_.log().base_index();
  feed_log_growth();
}

bool Detector::in_cooldown(NodeId suspect, NodeId subject) const {
  auto it = last_investigated_.find({suspect, subject});
  return it != last_investigated_.end() &&
         sim_.now() - it->second < config_.suspect_cooldown;
}

std::vector<NodeId> Detector::believed_neighbors_of(NodeId suspect) const {
  // Log-derived: the freshest HELLO heard from the suspect names its
  // advertised neighbors; any node whose latest HELLO lists the suspect is
  // also a believed neighbor.
  const auto& log = agent_.log();
  std::set<NodeId> out;
  if (const auto* rec = log.latest_hello_from(suspect)) {
    const auto& sym = rec->node_list_field("sym");
    out.insert(sym.begin(), sym.end());
  }
  const auto latest = log.latest_hellos();
  for (const auto& [from, rec] : latest) {
    if (from == suspect) continue;
    const auto& sym = rec->node_list_field("sym");
    if (std::find(sym.begin(), sym.end(), suspect) != sym.end())
      out.insert(from);
  }
  count_query(latest.size());
  out.erase(agent_.id());
  out.erase(suspect);
  return {out.begin(), out.end()};
}

std::size_t Detector::scan_once() {
  // The new log growth reaches the pipeline first (kLine events keep its
  // liveness oracle exactly as fresh as the log), then the IDS reads the
  // same growth in place from the store.
  feed_log_growth();
  std::vector<const logging::LogRecord*> batch;
  for (const auto& rec : agent_.log().records_since(last_scan_))
    batch.push_back(&rec);
  last_scan_ = sim_.now();
  count_query(batch.size());

  // Synthesize mpr_fwd_timeout records for E2 (drop) detection before
  // feeding the matcher, so the drop signature can fire. Synthesized
  // records live in a deque so the batch's pointers to them stay valid.
  std::deque<logging::LogRecord> synthesized;
  check_forward_timeouts(batch, synthesized);

  // Forwarding audit (grayhole path): close expired flood windows, stream
  // the tallies (observability frames), and synthesize fwd_audit_fail
  // records so the matcher can fire on failing MPRs.
  if (config_.forwarding_audit) {
    for (const auto* rec : batch) auditor_.ingest(*rec);
    std::vector<logging::LogRecord> failures;
    for (const auto& tally : auditor_.sweep(sim_.now(), failures))
      pipeline_.consume_forward_audit(sim_.now(), tally);
    for (auto& fail : failures) {
      synthesized.push_back(std::move(fail));
      batch.push_back(&synthesized.back());
    }
  }

  // The matcher runs before any investigation is launched: launching one
  // appends to the log, which may retire records the batch points at.
  const auto matches = matcher_.feed_all(batch);
  std::size_t launched = 0;
  process_matches(matches, launched);

  // Periodic MPR audit (§III-B: non-event-driven cases are "handled by
  // launching periodical/random checks"): cross-check every currently
  // selected MPR's advertised links against independent local knowledge.
  for (auto mpr : current_mprs_) {
    for (auto x : find_disputed_links(mpr)) {
      if (in_cooldown(mpr, x)) continue;
      investigate_claim(mpr, x, /*claimed_up=*/true,
                        {EvidenceTag::kPeriodicCheck});
      ++launched;
    }
  }
  return launched;
}

void Detector::check_forward_timeouts(
    std::vector<const logging::LogRecord*>& batch,
    std::deque<logging::LogRecord>& synthesized) {
  // Track our own TC emissions and which MPRs echoed them, purely from the
  // log records that arrive.
  for (const auto* rec : batch) {
    if (rec->event == "mpr_changed") {
      const auto& mprs = rec->node_list_field("mprs");
      current_mprs_ = {mprs.begin(), mprs.end()};
    } else if (rec->event == "tc_sent") {
      pending_tcs_.push_back(
          SentTc{rec->time, rec->int_field("seq"), current_mprs_, {}});
    } else if (rec->event == "own_fwd_heard") {
      const auto seq = rec->int_field("seq");
      for (auto& tc : pending_tcs_)
        if (tc.seq == seq) tc.heard_from.insert(rec->node_field("by"));
    }
  }

  const auto now = sim_.now();
  while (!pending_tcs_.empty() &&
         now - pending_tcs_.front().at >= config_.fwd_timeout) {
    const auto tc = pending_tcs_.front();
    pending_tcs_.pop_front();
    for (auto mpr : tc.mprs_then) {
      if (tc.heard_from.contains(mpr)) continue;
      auto& r = synthesized.emplace_back();
      r.time = now;
      r.node = agent_.id();
      r.event = "mpr_fwd_timeout";
      r.with("mpr", mpr).with("seq", tc.seq);
      batch.push_back(&r);
    }
  }
}

void Detector::process_matches(const std::vector<SignatureMatch>& matches,
                               std::size_t& launched) {
  for (const auto& m : matches) {
    if (m.signature == "link_spoofing_claim") {
      // Records: [0] HELLO from suspect I claiming I-X, [1] HELLO from X.
      const auto suspect = m.records[0].node_field("from");
      const auto subject = m.records[1].node_field("from");
      if (in_cooldown(suspect, subject)) continue;
      investigate_claim(suspect, subject, /*claimed_up=*/true,
                        {EvidenceTag::kSignatureMatch});
      ++launched;
    } else if (m.signature == "link_omission") {
      const auto subject = m.records[0].node_field("from");  // claims link
      const auto suspect = m.records[1].node_field("from");  // omits it
      if (in_cooldown(suspect, subject)) continue;
      investigate_claim(suspect, subject, /*claimed_up=*/false,
                        {EvidenceTag::kSignatureMatch});
      ++launched;
    } else if (m.signature == "broadcast_storm") {
      // Correlated on "orig": every matched tc_recv names the suspect.
      const auto suspect = m.records[0].node_field("orig");
      if (in_cooldown(suspect, agent_.id())) continue;
      investigate_claim(suspect, agent_.id(), /*claimed_up=*/true,
                        {EvidenceTag::kE2MprMisbehaving,
                         EvidenceTag::kSignatureMatch});
      ++launched;
    } else if (m.signature == "mpr_drop") {
      const auto suspect = m.records[1].node_field("mpr");
      if (in_cooldown(suspect, agent_.id())) continue;
      LinkQuery q;
      q.kind = QueryKind::kForwarding;
      q.suspect = suspect;
      q.subject = agent_.id();
      q.claimed_up = true;  // an MPR implicitly claims it forwards
      auto verifiers = believed_neighbors_of(suspect);
      last_investigated_[{suspect, agent_.id()}] = sim_.now();
      investigations_.investigate(
          q, std::move(verifiers),
          [this, tags = std::vector<EvidenceTag>{
                     EvidenceTag::kE2MprMisbehaving}](const RoundResult& r) {
            on_round_complete(r, tags);
          });
      ++launched;
    } else if (m.signature == "forwarding_audit") {
      // Grayhole: an audited WILL_ALWAYS MPR failed its forwarded/expected
      // window. Same round shape as mpr_drop — the MPR implicitly claims it
      // forwards — so the trust pipeline is reused verbatim.
      const auto suspect = m.records[0].node_field("mpr");
      if (in_cooldown(suspect, agent_.id())) continue;
      LinkQuery q;
      q.kind = QueryKind::kForwarding;
      q.suspect = suspect;
      q.subject = agent_.id();
      q.claimed_up = true;
      auto verifiers = believed_neighbors_of(suspect);
      last_investigated_[{suspect, agent_.id()}] = sim_.now();
      investigations_.investigate(
          q, std::move(verifiers),
          [this, tags = std::vector<EvidenceTag>{
                     EvidenceTag::kE2MprMisbehaving,
                     EvidenceTag::kSignatureMatch}](const RoundResult& r) {
            on_round_complete(r, tags);
          });
      ++launched;
    } else if (m.signature == "mpr_replacement") {
      // E1: the MPR set gained a member — either a true replacement (the
      // new MPR grew its coverage to the detriment of the replaced one) or
      // a suspicious initial selection. Each added MPR's advertised links
      // are cross-checked against *independent* local knowledge; only
      // uncorroborated or contradicted links go to investigation.
      for (auto suspect : m.records[0].node_list_field("added")) {
        for (auto x : find_disputed_links(suspect)) {
          if (in_cooldown(suspect, x)) continue;
          investigate_claim(suspect, x, /*claimed_up=*/true,
                            {EvidenceTag::kE1MprReplaced});
          ++launched;
        }
      }
    }
  }
}

std::vector<NodeId> Detector::find_disputed_links(NodeId suspect,
                                                  std::size_t max_links) const {
  // Freshest advertised neighbor list of the suspect, plus per-origin
  // latest HELLO contents — all from the local log.
  const auto& log = agent_.log();
  const auto* claims = log.latest_hello_from(suspect);
  if (!claims) {
    count_query(0);
    return {};
  }

  // Nodes independently evidenced: heard directly, originated a TC, were
  // advertised in a TC, or listed by a third party's HELLO.
  std::set<NodeId> independent;
  const auto latest = log.latest_hellos();
  for (const auto& [from, rec] : latest) {
    independent.insert(from);
    if (from == suspect) continue;
    const auto& sym = rec->node_list_field("sym");
    independent.insert(sym.begin(), sym.end());
  }
  const auto tcs = log.records_with_event("tc_recv");
  for (const auto& rec : tcs) {
    const auto orig = rec.node_field("orig");
    independent.insert(orig);
    if (orig == suspect) continue;
    const auto& adv = rec.node_list_field("adv");
    independent.insert(adv.begin(), adv.end());
  }
  count_query(latest.size() + tcs.size());

  std::vector<NodeId> disputed;
  for (auto x : claims->node_list_field("sym")) {
    if (disputed.size() >= max_links) break;
    if (x == agent_.id()) continue;
    // Uncorroborated neighbor: nobody but the suspect has ever mentioned x.
    if (!independent.contains(x)) {
      disputed.push_back(x);
      continue;
    }
    // Contradicted neighbor: x's own freshest HELLO omits the suspect.
    if (const auto* xh = log.latest_hello_from(x)) {
      const auto& x_sym = xh->node_list_field("sym");
      if (std::find(x_sym.begin(), x_sym.end(), suspect) == x_sym.end())
        disputed.push_back(x);
    }
  }
  return disputed;
}

void Detector::investigate_claim(NodeId suspect, NodeId subject,
                                 bool claimed_up,
                                 std::vector<EvidenceTag> tags,
                                 std::vector<NodeId> verifiers) {
  LinkQuery q;
  q.kind = QueryKind::kLinkStatus;
  q.suspect = suspect;
  q.subject = subject;
  q.claimed_up = claimed_up;

  if (verifiers.empty()) verifiers = believed_neighbors_of(suspect);
  // E3 check: a suspect that is the sole provider toward some node makes
  // independent verification impossible; tag it so the report reflects the
  // lower confidence (the paper deliberately does not trigger on E3 alone).
  const auto& graph = agent_.knowledge_graph();
  const auto path_without = olsr::RoutingTable::shortest_path(
      graph, agent_.id(), subject, {suspect});
  if (!path_without && subject != agent_.id())
    tags.push_back(EvidenceTag::kE3SoleProvider);

  last_investigated_[{suspect, subject}] = sim_.now();
  investigations_.investigate(
      q, std::move(verifiers),
      [this, tags = std::move(tags)](const RoundResult& r) {
        on_round_complete(r, tags);
      });
}

void Detector::on_round_complete(const RoundResult& result,
                                 std::vector<EvidenceTag> tags) {
  // The producer's whole job: turn the completed round into one audit-event
  // and hand it to the pipeline. The first-hand observation is captured
  // HERE — it reads live protocol state (the agent's link/topology view)
  // that an offline replay no longer has, so it travels with the event.
  feed_log_growth();
  AuditRound round;
  round.query = result.query;
  round.own_observation = investigations_.honest_observation(result.query);
  round.answers = result.answers;
  round.timeouts = result.timeouts;
  round.tags = std::move(tags);
  pipeline_.consume_round(sim_.now(), round);
}

}  // namespace manet::core
