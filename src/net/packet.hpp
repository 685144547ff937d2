#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace manet::net {

using Bytes = std::vector<std::uint8_t>;

/// Immutable payload shared by every receiver of one transmission. A
/// broadcast serializes its bytes once; each delivery holds a reference
/// instead of a deep copy (zero-copy broadcast).
///
/// The refcount is intrusive and deliberately NOT atomic: a simulation and
/// every frame it delivers are confined to a single thread (the parallel
/// Runner gives each replication its own simulator stack and extracts only
/// plain-value results), and one Packet copy per receiver per frame is the
/// hottest allocation-adjacent path in the system — two lock-prefixed ops
/// per delivery are measurable at N=1024. Do not hand payloads to another
/// thread; share the serialized Bytes instead.
///
/// Decode memo: the payload also carries one type-erased slot (a pointer
/// plus its deleter) that memo() fills on first use, so the first receiver
/// decodes the bytes and every later receiver reads the same result by
/// const reference. The slot lives and dies with the bytes (freed with the
/// last reference) and sits under the same single-thread confinement as
/// the refcount. A psim cross-shard delivery carries a deep copy of the
/// bytes (see Medium), so each copy fills its own memo on its own lane. A
/// memo is sound because the bytes never change after construction: the
/// collision model drops whole frames and no fault rewrites single bytes,
/// so every receiver that gets the frame at all gets these bytes.
class PayloadPtr {
 public:
  PayloadPtr() noexcept = default;
  explicit PayloadPtr(Bytes bytes) : rep_{new Rep{std::move(bytes), 1}} {}

  PayloadPtr(const PayloadPtr& other) noexcept : rep_{other.rep_} {
    if (rep_ != nullptr) ++rep_->refs;
  }
  PayloadPtr(PayloadPtr&& other) noexcept
      : rep_{std::exchange(other.rep_, nullptr)} {}
  PayloadPtr& operator=(PayloadPtr other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~PayloadPtr() { release(); }

  const Bytes& operator*() const noexcept { return rep_->bytes; }
  const Bytes* operator->() const noexcept { return &rep_->bytes; }
  explicit operator bool() const noexcept { return rep_ != nullptr; }

  /// The value `decode(bytes)` memoized on this payload: computed on the
  /// first call, returned by reference on every later one. One payload
  /// holds one memo type; `decode` must not throw (fold errors into T).
  template <class T, class Decode>
  const T& memo(Decode&& decode) const {
    if (rep_->memo == nullptr) {
      rep_->memo = new T(decode(rep_->bytes));
      rep_->drop_memo = &drop<T>;
    }
    assert(rep_->drop_memo == &drop<T>);
    return *static_cast<const T*>(rep_->memo);
  }

 private:
  template <class T>
  static void drop(const void* memo) {
    delete static_cast<const T*>(memo);
  }

  struct Rep {
    Bytes bytes;
    std::uint32_t refs;
    const void* memo = nullptr;
    void (*drop_memo)(const void*) = nullptr;

    ~Rep() {
      if (memo != nullptr) drop_memo(memo);
    }
  };
  void release() noexcept {
    if (rep_ != nullptr && --rep_->refs == 0) delete rep_;
  }
  Rep* rep_ = nullptr;
};

/// Serializes-once helper mirroring the old std::make_shared call sites.
inline PayloadPtr make_payload(Bytes bytes) {
  return PayloadPtr{std::move(bytes)};
}

/// A frame as seen by a receiver: who transmitted it on the air (the
/// link-layer sender, not the originator of the routed message) and the
/// payload bytes. OLSR parses the payload itself per RFC 3626 wire format.
struct Packet {
  NodeId transmitter;     ///< link-layer sender
  NodeId link_dest;       ///< kInvalidNode for link-layer broadcast
  PayloadPtr data;        ///< shared across all receivers of the frame
  sim::Time sent_at;      ///< transmission start time

  const Bytes& payload() const { return *data; }
};

}  // namespace manet::net
