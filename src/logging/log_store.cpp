#include "logging/log_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "logging/audit_log.hpp"
#include "logging/format.hpp"

namespace manet::logging {
namespace {

constexpr std::string_view kHelloRecv = "hello_recv";

/// The sender of a hello_recv record, if it names one.
const net::NodeId* hello_sender(const LogRecord& record) {
  if (record.event != kHelloRecv) return nullptr;
  const auto* from = record.find("from");
  return from ? std::get_if<net::NodeId>(&from->value) : nullptr;
}

/// The slot of `from` in the sender-sorted latest-HELLO table, or where it
/// would go.
template <class Slots>
auto slot_of(Slots& slots, net::NodeId from) {
  return std::lower_bound(
      slots.begin(), slots.end(), from,
      [](const LogStore::LatestHello& e, net::NodeId f) { return e.first < f; });
}

}  // namespace

LogStore::LogStore(std::size_t max_records) : max_records_{max_records} {
  if (max_records_ == 0)
    throw std::invalid_argument{"LogStore capacity must be at least 1"};
}

void LogStore::append(LogRecord record) {
  records_.push_back(std::move(record));
  index(records_.back());
  ++total_appended_;
  while (records_.size() > max_records_) {
    unindex(records_.front());
    records_.pop_front();
    ++dropped_;
  }
  if (audit_writer_) audit_writer_->line(records_.back());
  if (observer_) observer_(records_.back());
}

void LogStore::index(const LogRecord& record) {
  by_event_.try_emplace(record.event).first->second.records.push_back(
      &record);
  if (const auto* from = hello_sender(record)) {
    const auto at = slot_of(latest_hello_, *from);
    if (at != latest_hello_.end() && at->first == *from)
      at->second = &record;
    else
      latest_hello_.insert(at, {*from, &record});
  }
}

void LogStore::unindex(const LogRecord& record) {
  // `record` is the oldest retained record, so it heads its event's index;
  // it is its sender's latest hello only if no newer one was retained.
  auto& index = by_event_.find(record.event)->second;
  if (++index.head * 2 > index.records.size()) {
    index.records.erase(index.records.begin(),
                        index.records.begin() +
                            static_cast<std::ptrdiff_t>(index.head));
    index.head = 0;
  }
  if (const auto* from = hello_sender(record)) {
    const auto at = slot_of(latest_hello_, *from);
    if (at->second == &record) latest_hello_.erase(at);
  }
}

void LogStore::restore(std::deque<LogRecord> records,
                       std::uint64_t total_appended, std::uint64_t dropped) {
  records_ = std::move(records);
  total_appended_ = total_appended;
  dropped_ = dropped;
  by_event_.clear();
  latest_hello_.clear();
  for (const auto& r : records_) index(r);
}

LogStore::Range LogStore::records_since(sim::Time since) const {
  auto it = std::lower_bound(
      records_.begin(), records_.end(), since,
      [](const LogRecord& r, sim::Time t) { return r.time < t; });
  return {it, records_.end()};
}

LogStore::EventView LogStore::records_with_event(std::string_view event) const {
  std::span<const LogRecord* const> records;
  if (const auto it = by_event_.find(event); it != by_event_.end())
    records = std::span{it->second.records}.subspan(it->second.head);
  return EventView{records, Deref{}};
}

const LogRecord* LogStore::latest_hello_from(net::NodeId from) const {
  const auto at = slot_of(latest_hello_, from);
  return at != latest_hello_.end() && at->first == from ? at->second
                                                        : nullptr;
}

std::string LogStore::text_since(sim::Time since) const {
  std::string out;
  for (const auto& r : records_since(since)) {
    out += format_record(r);
    out += '\n';
  }
  return out;
}

}  // namespace manet::logging
