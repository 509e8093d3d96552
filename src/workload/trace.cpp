#include "workload/trace.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace webcache::workload {

namespace {

bool parse_u64(std::string_view token, std::uint64_t& out) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

bool all_digits(std::string_view token) {
  return !token.empty() &&
         std::all_of(token.begin(), token.end(), [](char c) { return c >= '0' && c <= '9'; });
}

[[noreturn]] void malformed(std::size_t line_no, const std::string& what,
                            std::string_view token) {
  throw std::runtime_error("trace line " + std::to_string(line_no) + ": " + what + " '" +
                           std::string(token) + "'");
}

/// Splits the next whitespace-delimited token off `rest` (empty when none).
std::string_view next_token(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && (rest[begin] == ' ' || rest[begin] == '\t')) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && rest[end] != ' ' && rest[end] != '\t') ++end;
  const auto token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

/// Heterogeneous string hashing so URL tokens are looked up as
/// string_views — no per-line std::string allocation on the hot path.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace

ObjectNum read_trace_stream(std::istream& in, const RequestSink& sink) {
  std::unordered_map<std::string, ObjectNum, StringHash, std::equal_to<>> url_ids;
  ObjectNum distinct = 0;
  // The first object token fixes the kind of every later one: a URL's
  // first-seen id would otherwise alias the numeric object of that id.
  std::optional<bool> numeric_ids;
  std::string line;
  std::size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view rest = line;
    if (!rest.empty() && rest.back() == '\r') rest.remove_suffix(1);  // CRLF logs
    if (rest.empty() || rest.front() == '#') continue;

    const auto time_tok = next_token(rest);
    const auto client_tok = next_token(rest);
    const auto object_tok = next_token(rest);
    if (object_tok.empty()) {
      throw std::runtime_error("trace line " + std::to_string(line_no) +
                               ": expected '<time> <client> <object> [size]', got '" +
                               std::string(line) + "'");
    }
    const auto size_tok = next_token(rest);  // optional
    if (const auto extra = next_token(rest); !extra.empty()) {
      malformed(line_no, "trailing field", extra);
    }

    Request r;
    std::uint64_t v = 0;
    if (!parse_u64(time_tok, v)) malformed(line_no, "bad time", time_tok);
    r.time = v;
    if (!parse_u64(client_tok, v)) malformed(line_no, "bad client", client_tok);
    if (v > std::numeric_limits<ClientNum>::max()) {
      malformed(line_no, "client id does not fit 32 bits", client_tok);
    }
    r.client = static_cast<ClientNum>(v);

    const bool numeric = all_digits(object_tok);
    if (numeric_ids.has_value() && *numeric_ids != numeric) {
      const char* what = numeric ? "numeric object id after URLs" : "URL after numeric object ids";
      malformed(line_no, what, object_tok);
    }
    numeric_ids = numeric;
    if (numeric) {
      // Id + 1 is the universe, and it must fit an ObjectNum too.
      if (!parse_u64(object_tok, v) || v >= std::numeric_limits<ObjectNum>::max()) {
        malformed(line_no, "object id leaves no room for the universe (must be below 4294967295)",
                  object_tok);
      }
      r.object = static_cast<ObjectNum>(v);
      distinct = std::max(distinct, r.object + 1);
    } else {
      // URL token: assign dense ids in first-seen order.
      const auto it = url_ids.find(object_tok);
      if (it != url_ids.end()) {
        r.object = it->second;
      } else {
        r.object = static_cast<ObjectNum>(url_ids.size());
        url_ids.emplace(std::string(object_tok), r.object);
        distinct = std::max(distinct, r.object + 1);
      }
    }

    if (!size_tok.empty()) {
      if (!parse_u64(size_tok, v)) malformed(line_no, "bad size", size_tok);
      r.size = v;
    }
    sink(r);
  }
  return distinct;
}

Trace read_trace(std::istream& in) {
  Trace trace;
  trace.universe =
      read_trace_stream(in, [&trace](const Request& r) { trace.requests.push_back(r); });
  return trace;
}

Trace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

void write_trace(std::ostream& out, const Trace& trace) {
  // Format rows into a chunk with to_chars and flush it in bulk; the
  // token-by-token operator<< path spends most of its time in stream
  // internals, which `trace compile` of large text traces actually notices.
  constexpr std::size_t kFlushAt = 1 << 20;
  std::string buffer;
  buffer.reserve(kFlushAt + 128);
  char digits[20];
  const auto append_u64 = [&buffer, &digits](std::uint64_t v, char suffix) {
    const auto end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
    buffer.append(digits, end);
    buffer.push_back(suffix);
  };
  for (const auto& r : trace.requests) {
    append_u64(r.time, ' ');
    append_u64(r.client, ' ');
    append_u64(r.object, ' ');
    append_u64(r.size, '\n');
    if (buffer.size() >= kFlushAt) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  if (!buffer.empty()) {
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  }
}

void write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file for writing: " + path);
  write_trace(out, trace);
  out.flush();
  if (!out) throw std::runtime_error("failed writing trace file: " + path);
}

}  // namespace webcache::workload
