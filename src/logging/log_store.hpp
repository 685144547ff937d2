#pragma once

#include <deque>
#include <functional>
#include <map>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "logging/record.hpp"

namespace manet::logging {

class AuditWriter;

/// Append-only audit log of one node's routing daemon, with bounded
/// retention. The IDS reads it in place: records_since for its scan batch,
/// records_with_event and latest_hellos for its queries. Every view and
/// pointer these return stays valid until the next append or restore.
class LogStore {
 public:
  /// Throws std::invalid_argument on capacity 0 (a store must retain the
  /// record it just appended for the writer and observer to see it).
  explicit LogStore(std::size_t max_records = 100'000);
  // The indexes point into records_: a copy would point into the original.
  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  void append(LogRecord record);

  std::size_t size() const { return records_.size(); }
  const LogRecord& at(std::size_t i) const { return records_.at(i); }

  /// Retained records with time >= since, oldest first (they are appended
  /// in time order).
  using Range = std::ranges::subrange<std::deque<LogRecord>::const_iterator>;
  Range records_since(sim::Time since) const;

  /// Retained records of one event kind, oldest first, from a per-event
  /// position index that retention trims along with the log.
  struct Deref {
    const LogRecord& operator()(const LogRecord* r) const { return *r; }
  };
  using EventView =
      std::ranges::transform_view<std::span<const LogRecord* const>, Deref>;
  EventView records_with_event(std::string_view event) const;

  /// The newest retained hello_recv of each sender (its `from` node),
  /// sorted by sender.
  using LatestHello = std::pair<net::NodeId, const LogRecord*>;
  std::span<const LatestHello> latest_hellos() const { return latest_hello_; }
  /// The newest retained hello_recv from `from`, or nullptr.
  const LogRecord* latest_hello_from(net::NodeId from) const;

  /// The formatted text of all records with time >= since — what a log
  /// analyzer would read from disk.
  std::string text_since(sim::Time since) const;

  /// Observer invoked on every append (used by tests and live detectors).
  void set_observer(std::function<void(const LogRecord&)> observer) {
    observer_ = std::move(observer);
  }

  /// Writer mode: every appended record is also emitted as a kLine frame of
  /// the binary audit-log format (logging/audit_log.hpp) — the recording
  /// half of the offline detection pipeline. The writer must outlive this
  /// store (or be detached with nullptr); retention dropping old records
  /// never rewrites frames already emitted.
  void set_audit_writer(AuditWriter* writer) { audit_writer_ = writer; }
  AuditWriter* audit_writer() const { return audit_writer_; }

  /// Absolute index of the oldest retained record: records_[i] is the
  /// (base_index() + i)-th record ever appended. Lets cursor-based readers
  /// (the detector's pipeline feed) survive retention drops.
  std::uint64_t base_index() const {
    return total_appended_ - records_.size();
  }

  std::uint64_t total_appended() const { return total_appended_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Checkpoint surface: the retained window plus the lifetime counters
  /// (capacity stays whatever this store was constructed with).
  const std::deque<LogRecord>& records() const { return records_; }
  void restore(std::deque<LogRecord> records, std::uint64_t total_appended,
               std::uint64_t dropped);

 private:
  void index(const LogRecord& record);
  void unindex(const LogRecord& record);

  std::size_t max_records_;
  std::deque<LogRecord> records_;
  /// Retained records of one event name, oldest first: records[head..].
  /// Deque elements never move on push_back/pop_front, so the pointers
  /// stay valid until their record is retired; retired slots are dropped
  /// once they are half the vector.
  struct EventIndex {
    std::vector<const LogRecord*> records;
    std::size_t head = 0;
  };
  std::map<std::string, EventIndex, std::less<>> by_event_;
  std::vector<LatestHello> latest_hello_;  ///< sorted by sender
  std::function<void(const LogRecord&)> observer_;
  AuditWriter* audit_writer_ = nullptr;
  std::uint64_t total_appended_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace manet::logging
