#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace manet::logging {

/// Value type of a record field. It is fixed per key by field_type(), so a
/// record built in code and the same record parsed back from its text are
/// equal field for field.
enum class FieldType : std::uint8_t {
  kText,      ///< stored and rendered verbatim (integers, flags, reasons)
  kNode,      ///< one node id, rendered "n7"
  kNodeList,  ///< node ids, rendered '|'-joined ("n1|n2"), "" when empty
};

/// The key→type table of the audit log: node ids (`from`, `orig`, `via`,
/// `by`, `nbr`, `mpr`, `src`, `dest`, `next`) and node-id lists (`sym`,
/// `asym`, `neigh`, `adv`, `ifaces`, `nodes`, `mprs`, `added`, `removed`,
/// `route`). Every other key is text.
FieldType field_type(std::string_view key);

/// One `key=value` field. Node and node-list values are held as ids; text
/// is a renderer (format_record, write_record), not the storage.
struct LogField {
  using Value = std::variant<std::string, net::NodeId, std::vector<net::NodeId>>;

  std::string key;
  Value value;

  /// Stores `text` as the value, typed as field_type(key) says, reusing
  /// the value's storage. Throws std::invalid_argument when a node or
  /// node-list value is not ids ("n3", "n1|n2", "" for an empty list).
  void parse_value(std::string_view text);

  /// The node ids of a kNode or kNodeList value; empty for text.
  std::span<const net::NodeId> ids() const;
  /// Appends the value's text form ("" for an empty list).
  void render(std::string& out) const;

  bool operator==(const LogField&) const = default;
};

/// One audit-log line emitted by the routing daemon. The paper's IDS is
/// log-based: it never inspects protocol state directly, only these
/// records, which it reads in place through the LogStore's typed queries.
///
/// Field values must not contain spaces; lists render with '|' separators
/// (e.g. neigh=n1|n2|n4). Keys are lower_snake_case.
struct LogRecord {
  sim::Time time;
  net::NodeId node;   ///< the node whose daemon wrote the line
  std::string event;  ///< e.g. "hello_recv", "mpr_changed"
  std::vector<LogField> fields;

  /// Appends a field, stored as field_type(key) says: text given for a
  /// node or node-list key is parsed (LogField::parse_value; a malformed
  /// value throws and appends nothing), ids given for a text key are
  /// rendered.
  LogRecord& with(std::string key, std::string_view text);
  LogRecord& with(std::string key, net::NodeId id);
  LogRecord& with(std::string key, std::vector<net::NodeId> ids);
  LogRecord& with(std::string key, std::int64_t v);

  /// First field named `key`, or nullptr.
  const LogField* find(std::string_view key) const;

  /// Text of the first value for `key`, if present (rendered for ids).
  std::optional<std::string> field(std::string_view key) const;

  /// Typed accessors, reading the stored value without parsing. They throw
  /// std::invalid_argument when the field is missing or of another type
  /// (the IDS treats that as a corrupt log line); int_field also when the
  /// text is not an integer.
  net::NodeId node_field(std::string_view key) const;
  const std::vector<net::NodeId>& node_list_field(std::string_view key) const;
  std::int64_t int_field(std::string_view key) const;

  bool operator==(const LogRecord&) const = default;
};

/// Builds the '|'-separated list form used in record text.
std::string join_node_list(const std::vector<net::NodeId>& ids);

}  // namespace manet::logging
