#pragma once

#include <string>
#include <string_view>

#include "logging/record.hpp"

namespace manet::logging {

/// Text form of a record, one line, no trailing newline:
///   t=12.345678s node=n3 event=hello_recv from=n5 neigh=n1|n2
std::string format_record(const LogRecord& record);

/// Parses one line produced by format_record. Throws std::invalid_argument
/// on malformed input (missing t/node/event, bad tokens, a node or
/// node-list field whose value is not ids). A parsed record is a fixed
/// point: parse_record(format_record(r)) == r.
LogRecord parse_record(std::string_view line);

/// Parses a whole log (newline-separated); blank lines are skipped.
std::vector<LogRecord> parse_log(std::string_view text);

}  // namespace manet::logging
