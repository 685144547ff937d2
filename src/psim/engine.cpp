#include "psim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/obs.hpp"

namespace manet::psim {
namespace {

/// SplitMix64 of (root seed, node): well-spread, collision-free per-node
/// stream seeds — the same generator ExperimentSpec uses for replication
/// seeds. Zero is avoided because Rng treats seeds verbatim.
std::uint64_t stream_seed(std::uint64_t root, std::uint32_t node) {
  std::uint64_t z =
      root + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(node) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z = z ^ (z >> 31);
  return z == 0 ? 1 : z;
}

/// The lane whose event (or run_as context) this thread is executing.
thread_local ShardSim* tl_current_lane = nullptr;

/// RAII save/restore of the thread's current lane.
class LaneScope {
 public:
  explicit LaneScope(ShardSim* lane) : saved_{tl_current_lane} {
    tl_current_lane = lane;
  }
  ~LaneScope() { tl_current_lane = saved_; }
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  ShardSim* saved_;
};

unsigned auto_shard_count(std::size_t nodes) {
  // Heuristic: a lane per ~128 nodes keeps per-window work per lane large
  // relative to the barrier cost, capped at 8 lanes. Any choice yields the
  // same results (the determinism contract) — this is a perf knob only.
  const auto want = static_cast<unsigned>(std::max<std::size_t>(nodes / 128, 1));
  return std::min(want, 8u);
}

}  // namespace

/// Persistent worker pool: one generation per window, lanes handed out via
/// an atomic ticket so any worker count drains any lane count.
class Engine::Pool {
 public:
  explicit Pool(unsigned workers) {
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
      threads_.emplace_back([this] { worker(); });
  }

  ~Pool() {
    {
      std::lock_guard lock{mutex_};
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Runs fn(0..count-1) across the workers; returns when all are done.
  /// Rethrows the first exception any worker hit.
  void run(unsigned count, const std::function<void(unsigned)>& fn) {
    std::unique_lock lock{mutex_};
    fn_ = &fn;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    done_ = 0;
    error_ = nullptr;
    ++generation_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [this] { return done_ == threads_.size(); });
    fn_ = nullptr;
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void worker() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(unsigned)>* fn = nullptr;
      unsigned count = 0;
      {
        std::unique_lock lock{mutex_};
        work_cv_.wait(lock,
                      [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = fn_;
        count = count_;
      }
      for (unsigned lane;
           (lane = next_.fetch_add(1, std::memory_order_relaxed)) < count;) {
        try {
          (*fn)(lane);
        } catch (...) {
          std::lock_guard lock{mutex_};
          if (!error_) error_ = std::current_exception();
        }
      }
      {
        std::lock_guard lock{mutex_};
        if (++done_ == threads_.size()) done_cv_.notify_one();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* fn_ = nullptr;
  unsigned count_ = 0;
  std::atomic<unsigned> next_{0};
  std::size_t done_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

Engine::Engine(Config config, const std::vector<net::Position>& positions)
    : config_{config},
      map_{positions, config.cell_size > 0.0 ? config.cell_size : 250.0,
           config.shards != 0 ? config.shards
                              : auto_shard_count(positions.size())} {
  if (config_.lookahead <= sim::Duration{})
    throw std::invalid_argument{
        "psim::Engine needs a positive lookahead (the radio base_delay): "
        "zero-latency cross-node interaction admits no conservative window"};

  shards_.reserve(map_.count());
  for (unsigned s = 0; s < map_.count(); ++s) {
    shards_.push_back(std::make_unique<ShardSim>(s));
    for (const auto node : map_.members(s)) {
      shards_.back()->add_node(net::NodeId{node},
                               stream_seed(config_.seed, node));
    }
  }
  // resize, not assign: Mail is move-only (it holds a sim::Callback).
  outboxes_.resize(shards());
  for (auto& row : outboxes_) row.resize(shards());

  threads_ = config_.threads != 0 ? config_.threads
                                  : std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;
  threads_ = std::min(threads_, shards());
  if (threads_ > 1) pool_ = std::make_unique<Pool>(threads_);
}

Engine::~Engine() = default;

ShardSim& Engine::current() {
  if (tl_current_lane == nullptr)
    throw std::logic_error{
        "psim::Engine: no lane is executing on this thread (wrap "
        "out-of-event interactions in run_as)"};
  return *tl_current_lane;
}

const ShardSim& Engine::current() const {
  return const_cast<Engine*>(this)->current();
}

sim::Engine& Engine::current_engine() { return current(); }

unsigned Engine::current_shard() const { return current().index(); }

bool Engine::is_local(net::NodeId receiver) const {
  return map_.shard_of(receiver) == current().index();
}

void Engine::schedule_delivery(net::NodeId receiver, sim::Time at,
                               sim::EventQueue::Callback cb) {
  ShardSim& src = current();
  const unsigned dst = map_.shard_of(receiver);
  const auto origin = src.current_node().value();
  const auto seq = src.take_origin_seq();
  if (dst == src.index()) {
    src.push_keyed(at, origin, seq, receiver, std::move(cb));
    return;
  }
  // The conservative guarantee everything rests on: a cross-shard effect
  // can never land inside the window that produced it.
  if (at < src.now() + config_.lookahead)
    throw std::logic_error{
        "psim::Engine: cross-shard delivery scheduled inside the lookahead "
        "window"};
  outboxes_[src.index()][dst].push_back(
      Mail{at, origin, seq, receiver.value(), std::move(cb)});
}

void Engine::run_as(net::NodeId node, const std::function<void()>& fn) {
  ShardSim& lane = *shards_[map_.shard_of(node)];
  LaneScope scope{&lane};
  // Save/restore the lane's node context, not just the thread's lane
  // pointer: nested run_as calls landing on the same lane must hand the
  // outer node context back intact.
  const net::NodeId prev = lane.enter_node(node);
  try {
    fn();
  } catch (...) {
    lane.restore_node(prev);
    throw;
  }
  lane.restore_node(prev);
}

void Engine::exec_lane(unsigned lane, sim::Time end) {
  LaneScope scope{shards_[lane].get()};
  shards_[lane]->run_window(end);
}

void Engine::run_window(sim::Time end) {
  // Capture the caller's obs binding so worker threads inherit the
  // replication's Context with the deterministic shard-lane id stamped on
  // everything they record (worker threads themselves carry no binding).
  obs::Context* const obs_ctx = obs::detail::tls.ctx;
  const auto lane_window = [this, end, obs_ctx](unsigned lane) {
    obs::Scope obs_scope{obs_ctx, lane};
    const auto begin = shards_[lane]->now();
    const obs::WallTimer wall;
    exec_lane(lane, end);
    obs::hit(obs::Hot::kPsimWindows);
    obs::span(obs::SpanName::kPsimWindow, begin, shards_[lane]->now(), lane,
              wall.elapsed_ns());
  };
  if (pool_) {
    pool_->run(shards(), lane_window);
  } else {
    for (unsigned lane = 0; lane < shards(); ++lane) lane_window(lane);
  }
}

void Engine::drain_mailboxes() {
  for (unsigned dst = 0; dst < shards(); ++dst) {
    drain_scratch_.clear();
    for (unsigned src = 0; src < shards(); ++src) {
      auto& box = outboxes_[src][dst];
      for (auto& m : box) drain_scratch_.push_back(std::move(m));
      box.clear();
    }
    if (drain_scratch_.empty()) continue;
    // The same global key the lane queues order by, so the drain order —
    // and with it the EventId assignment — is deterministic regardless of
    // which source shard produced what.
    std::sort(drain_scratch_.begin(), drain_scratch_.end(),
              [](const Mail& a, const Mail& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.origin_node != b.origin_node)
                  return a.origin_node < b.origin_node;
                return a.origin_seq < b.origin_seq;
              });
    cross_shard_events_ += drain_scratch_.size();
    for (auto& m : drain_scratch_) {
      shards_[dst]->push_keyed(m.at, m.origin_node, m.origin_seq,
                               net::NodeId{m.owner}, std::move(m.cb));
    }
    drain_scratch_.clear();
  }
}

void Engine::run_until(sim::Time horizon) {
  // run_as may have produced cross-shard mail since the last run.
  drain_mailboxes();
  for (;;) {
    bool any = false;
    sim::Time next;
    for (const auto& s : shards_) {
      sim::Time t;
      if (!s->peek_next(t)) continue;
      if (!any || t < next) next = t;
      any = true;
    }
    if (!any || next > horizon) break;
    // Window [next, next + lookahead): everything in it is causally
    // independent across lanes. The +1us on the horizon bound makes the
    // final window inclusive of events at exactly `horizon`, matching
    // Simulator::run_until semantics.
    const sim::Time end = std::min(next + config_.lookahead,
                                   horizon + sim::Duration::from_us(1));
    run_window(end);
    drain_mailboxes();
    ++windows_;
  }
  for (auto& s : shards_) s->set_now(horizon);
  // Forward-only, like Simulator::run_until: a past horizon is a no-op and
  // must not rewind the engine clock.
  if (now_ < horizon) now_ = horizon;
}

EngineStats Engine::stats() const {
  EngineStats out;
  out.windows = windows_;
  out.cross_shard_events = cross_shard_events_;
  out.lane_events.reserve(shards_.size());
  for (const auto& s : shards_) {
    out.executed_events += s->executed_events();
    out.max_shard_events = std::max(out.max_shard_events,
                                    s->executed_events());
    out.lane_events.push_back(s->executed_events());
  }
  return out;
}

}  // namespace manet::psim
