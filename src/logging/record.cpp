#include "logging/record.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace manet::logging {
namespace {

/// A key of at most 7 characters packed into one integer (its length in
/// the top byte), so the table lookup is integer compares.
constexpr std::uint64_t pack_key(std::string_view key) {
  std::uint64_t v = std::uint64_t{key.size()} << 56;
  for (std::size_t i = 0; i < key.size(); ++i)
    v |= std::uint64_t{static_cast<unsigned char>(key[i])} << (8 * i);
  return v;
}

constexpr std::pair<std::uint64_t, FieldType> kFieldTypes[] = {
    {pack_key("from"), FieldType::kNode},
    {pack_key("orig"), FieldType::kNode},
    {pack_key("via"), FieldType::kNode},
    {pack_key("by"), FieldType::kNode},
    {pack_key("nbr"), FieldType::kNode},
    {pack_key("mpr"), FieldType::kNode},
    {pack_key("src"), FieldType::kNode},
    {pack_key("dest"), FieldType::kNode},
    {pack_key("next"), FieldType::kNode},
    {pack_key("sym"), FieldType::kNodeList},
    {pack_key("asym"), FieldType::kNodeList},
    {pack_key("neigh"), FieldType::kNodeList},
    {pack_key("adv"), FieldType::kNodeList},
    {pack_key("ifaces"), FieldType::kNodeList},
    {pack_key("nodes"), FieldType::kNodeList},
    {pack_key("mprs"), FieldType::kNodeList},
    {pack_key("added"), FieldType::kNodeList},
    {pack_key("removed"), FieldType::kNodeList},
    {pack_key("route"), FieldType::kNodeList},
};

[[noreturn]] void bad_ids(std::string_view text) {
  std::string msg = "bad NodeId in log field value: ";
  msg += text;
  throw std::invalid_argument{msg};
}

/// Reads one "n<digits>" id of a list at `p` and advances past it: the
/// grammar of net::NodeId::parse (leading zeros allowed, the reserved
/// kInvalid not), without building a string per id.
bool read_id(const char*& p, const char* end, net::NodeId& out) {
  if (p == end || *p != 'n') return false;
  const char* const digits = ++p;
  std::uint64_t v = 0;
  for (; p != end && static_cast<unsigned>(*p - '0') < 10; ++p) {
    v = v * 10 + static_cast<unsigned>(*p - '0');
    if (v >= net::NodeId::kInvalid) return false;
  }
  if (p == digits) return false;
  out = net::NodeId{static_cast<std::uint32_t>(v)};
  return true;
}

void parse_node_list(std::string_view text, std::vector<net::NodeId>& out) {
  out.clear();
  if (text.empty()) return;
  // Every id takes at least three characters with its separator.
  out.reserve(text.size() / 3 + 1);
  const char* p = text.data();
  const char* const end = p + text.size();
  for (net::NodeId id;; ++p) {  // ++p steps over the '|'
    if (!read_id(p, end, id)) bad_ids(text);
    out.push_back(id);
    if (p == end) return;
    if (*p != '|') bad_ids(text);
  }
}

void render_ids(std::string& out, std::span<const net::NodeId> ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += '|';
    if (!ids[i].valid()) {
      out += "n?";
      continue;
    }
    out += 'n';
    char digits[10];
    out.append(digits, std::to_chars(digits, digits + sizeof digits,
                                     ids[i].value())
                           .ptr);
  }
}

const LogField& require(const LogRecord& record, std::string_view key) {
  const auto* f = record.find(key);
  if (!f) {
    std::string msg = "log record missing field: ";
    msg += key;
    throw std::invalid_argument{msg};
  }
  return *f;
}

[[noreturn]] void wrong_type(std::string_view key, const char* want) {
  std::string msg = "log field ";
  msg += key;
  msg += " is not ";
  msg += want;
  throw std::invalid_argument{msg};
}

}  // namespace

FieldType field_type(std::string_view key) {
  if (key.size() > 7) return FieldType::kText;  // every typed key is shorter
  const auto packed = pack_key(key);
  for (const auto& [k, type] : kFieldTypes)
    if (k == packed) return type;
  return FieldType::kText;
}

std::span<const net::NodeId> LogField::ids() const {
  if (const auto* id = std::get_if<net::NodeId>(&value)) return {id, 1};
  if (const auto* list = std::get_if<std::vector<net::NodeId>>(&value))
    return *list;
  return {};
}

void LogField::render(std::string& out) const {
  if (const auto* text = std::get_if<std::string>(&value))
    out += *text;
  else
    render_ids(out, ids());
}

void LogField::parse_value(std::string_view text) {
  switch (field_type(key)) {
    case FieldType::kText:
      if (auto* s = std::get_if<std::string>(&value))
        s->assign(text);
      else
        value.emplace<std::string>(text);
      break;
    case FieldType::kNode:
      value = net::NodeId::parse(text);
      break;
    case FieldType::kNodeList: {
      auto* list = std::get_if<std::vector<net::NodeId>>(&value);
      parse_node_list(
          text, list ? *list : value.emplace<std::vector<net::NodeId>>());
      break;
    }
  }
}

LogRecord& LogRecord::with(std::string key, std::string_view text) {
  auto& f = fields.emplace_back();
  f.key = std::move(key);
  try {
    f.parse_value(text);
  } catch (...) {
    fields.pop_back();
    throw;
  }
  return *this;
}

LogRecord& LogRecord::with(std::string key, net::NodeId id) {
  switch (field_type(key)) {
    case FieldType::kNode:
      fields.emplace_back(std::move(key), id);
      return *this;
    case FieldType::kNodeList:
      fields.emplace_back(std::move(key), std::vector<net::NodeId>{id});
      return *this;
    case FieldType::kText:
      break;
  }
  return with(std::move(key), std::string_view{id.to_string()});
}

LogRecord& LogRecord::with(std::string key, std::vector<net::NodeId> ids) {
  if (field_type(key) == FieldType::kNodeList) {
    fields.emplace_back(std::move(key), std::move(ids));
    return *this;
  }
  return with(std::move(key), std::string_view{join_node_list(ids)});
}

LogRecord& LogRecord::with(std::string key, std::int64_t v) {
  return with(std::move(key), std::string_view{std::to_string(v)});
}

const LogField* LogRecord::find(std::string_view key) const {
  for (const auto& f : fields)
    if (f.key == key) return &f;
  return nullptr;
}

std::optional<std::string> LogRecord::field(std::string_view key) const {
  const auto* f = find(key);
  if (!f) return std::nullopt;
  std::string out;
  f->render(out);
  return out;
}

net::NodeId LogRecord::node_field(std::string_view key) const {
  const auto& f = require(*this, key);
  if (const auto* id = std::get_if<net::NodeId>(&f.value)) return *id;
  wrong_type(key, "a node id");
}

const std::vector<net::NodeId>& LogRecord::node_list_field(
    std::string_view key) const {
  const auto& f = require(*this, key);
  if (const auto* list = std::get_if<std::vector<net::NodeId>>(&f.value))
    return *list;
  wrong_type(key, "a node-id list");
}

std::int64_t LogRecord::int_field(std::string_view key) const {
  const auto& f = require(*this, key);
  const auto* text = std::get_if<std::string>(&f.value);
  if (!text) wrong_type(key, "an integer");
  std::int64_t out = 0;
  auto [ptr, ec] =
      std::from_chars(text->data(), text->data() + text->size(), out);
  if (ec != std::errc{} || ptr != text->data() + text->size()) {
    std::string msg = "bad integer field ";
    msg += key;
    msg += '=';
    msg += *text;
    throw std::invalid_argument{msg};
  }
  return out;
}

std::string join_node_list(const std::vector<net::NodeId>& ids) {
  std::string out;
  render_ids(out, ids);
  return out;
}

}  // namespace manet::logging
