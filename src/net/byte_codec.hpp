#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace manet::net {

/// The one fixed-width byte codec behind every binary format of the
/// project: OLSR packets and investigation payloads (big-endian), the audit
/// log and checkpoints (little-endian). Each format also picks the error
/// type its reader throws (docs/ARCHITECTURE.md, "Byte codec").
/// Variable-length data is a u64 element count followed by the elements;
/// str() is a count plus raw bytes.
template <std::endian E> class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void time(sim::Time t) { i64(t.us()); }
  void node(NodeId n) { u32(n.value()); }
  /// u64 element count of a following sequence.
  void count(std::size_t n) { u64(static_cast<std::uint64_t>(n)); }
  /// Element count in a narrow field of type U; throws std::length_error
  /// when `n` does not fit instead of writing it truncated.
  template <std::unsigned_integral U>
  void narrow_count(std::size_t n) {
    put(narrow<U>(n));
  }
  void str(std::string_view s) {
    count(s.size());
    blob(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  /// Raw bytes, no length prefix (the caller writes its own count).
  void blob(const std::uint8_t* data, std::size_t size) {
    buf_.insert(buf_.end(), data, data + size);
  }

  /// Writes a zero U-wide size prefix and returns its offset for
  /// patch_size().
  template <std::unsigned_integral U>
  std::size_t size_prefix() {
    const std::size_t at = buf_.size();
    put(U{0});
    return at;
  }
  /// Back-patches the U-wide prefix at `at` with `n`; throws
  /// std::length_error when `n` does not fit.
  template <std::unsigned_integral U>
  void patch_size(std::size_t at, std::size_t n) {
    store(buf_.data() + at, narrow<U>(n));
  }

  void reserve(std::size_t n) { buf_.reserve(n); }
  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <std::unsigned_integral U>
  static U narrow(std::size_t n) {
    if (n > std::numeric_limits<U>::max())
      throw std::length_error{"count does not fit its wire field"};
    return static_cast<U>(n);
  }
  /// Byte `i` of `v` in wire order.
  template <std::unsigned_integral U>
  static std::uint8_t wire_byte(U v, std::size_t i) {
    const std::size_t from_low =
        E == std::endian::little ? i : sizeof(U) - 1 - i;
    return static_cast<std::uint8_t>(v >> (8 * from_low));
  }
  template <std::unsigned_integral U>
  static void store(std::uint8_t* p, U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i) p[i] = wire_byte(v, i);
  }
  template <std::unsigned_integral U>
  void put(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i)
      buf_.push_back(wire_byte(v, i));
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked mirror of ByteWriter over borrowed memory (the bytes must
/// outlive the reader); throws `Error` instead of reading past the end.
template <std::endian E, class Error> class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_{data}, size_{size} {}
  explicit ByteReader(const std::vector<std::uint8_t>& data)
      : ByteReader{data.data(), data.size()} {}
  explicit ByteReader(std::vector<std::uint8_t>&&) = delete;

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  sim::Time time() { return sim::Time::from_us(i64()); }
  NodeId node() { return NodeId{u32()}; }

  /// The one length guard: a u64 element count whose elements occupy at
  /// least `min_bytes` each on the wire must fit in the remaining bytes.
  /// Rejecting it here turns a corrupt length into a clean error before
  /// any reserve()/resize() can allocate for it.
  std::size_t count(std::size_t min_bytes = 1) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_bytes) throw Error{"corrupt element count"};
    return static_cast<std::size_t>(n);
  }
  /// Read in place: valid as long as the borrowed bytes.
  std::string_view str() {
    const std::size_t n = count();
    std::string_view s{reinterpret_cast<const char*>(data_ + pos_), n};
    pos_ += n;
    return s;
  }
  /// Count-prefixed raw bytes.
  std::vector<std::uint8_t> blob() {
    std::vector<std::uint8_t> b;
    bytes(b, count());
    return b;
  }
  /// Appends `n` raw bytes to `out`.
  void bytes(std::vector<std::uint8_t>& out, std::size_t n) {
    require(n);
    out.insert(out.end(), data_ + pos_, data_ + pos_ + n);
    pos_ += n;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw Error{"truncated input"};
  }
  template <std::unsigned_integral U>
  U get() {
    require(sizeof(U));
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      const std::size_t byte =
          E == std::endian::little ? i : sizeof(U) - 1 - i;
      v |= static_cast<U>(U{data_[pos_ + byte]} << (8 * i));
    }
    pos_ += sizeof(U);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace manet::net
