#include "workload/squid_log.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace webcache::workload {

namespace {

bool parse_status(const std::string& action_code, unsigned& status_out) {
  // "TCP_MISS/200" -> 200
  const auto slash = action_code.find('/');
  if (slash == std::string::npos) return false;
  const auto* first = action_code.data() + slash + 1;
  const auto* last = action_code.data() + action_code.size();
  const auto [ptr, ec] = std::from_chars(first, last, status_out);
  return ec == std::errc() && ptr == last;
}

}  // namespace

SquidReadResult read_squid_log(std::istream& in, SquidReadOptions options) {
  SquidReadResult result;
  std::unordered_map<std::string, ClientNum> client_ids;
  std::unordered_map<std::string, ObjectNum> url_ids;

  std::string line;
  while (std::getline(in, line)) {
    ++result.lines_total;
    if (line.empty() || line[0] == '#') {
      ++result.lines_skipped;
      continue;
    }

    std::istringstream fields(line);
    std::string timestamp, elapsed, client, action_code, size_tok, method, url;
    fields >> timestamp >> elapsed >> client >> action_code >> size_tok >> method >> url;
    if (url.empty()) {
      ++result.lines_malformed;
      continue;
    }

    double ts = 0.0;
    try {
      ts = std::stod(timestamp);
    } catch (const std::exception&) {
      ++result.lines_malformed;
      continue;
    }
    // The time is kept in whole milliseconds, which must fit 64 bits.
    if (!(ts >= 0.0) || !(ts * 1000.0 < 0x1p64)) {
      ++result.lines_malformed;
      continue;
    }

    unsigned status = 0;
    if (!parse_status(action_code, status)) {
      ++result.lines_malformed;
      continue;
    }

    if (options.only_get && method != "GET") {
      ++result.lines_skipped;
      continue;
    }
    if (options.only_successful && (status < 200 || status >= 400)) {
      ++result.lines_skipped;
      continue;
    }

    std::uint64_t size = 1;
    {
      std::uint64_t v = 0;
      const auto [ptr, ec] = std::from_chars(size_tok.data(),
                                             size_tok.data() + size_tok.size(), v);
      if (ec == std::errc() && ptr == size_tok.data() + size_tok.size()) size = std::max<std::uint64_t>(v, 1);
    }

    Request r;
    r.time = static_cast<std::uint64_t>(ts * 1000.0);  // ms resolution
    r.client = client_ids.emplace(client, static_cast<ClientNum>(client_ids.size()))
                   .first->second;
    r.object =
        url_ids.emplace(url, static_cast<ObjectNum>(url_ids.size())).first->second;
    r.size = size;
    result.trace.requests.push_back(r);
  }

  result.trace.universe = static_cast<ObjectNum>(url_ids.size());
  result.distinct_clients = static_cast<ClientNum>(client_ids.size());
  return result;
}

SquidReadResult read_squid_log_file(const std::string& path, SquidReadOptions options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open squid log: " + path);
  return read_squid_log(in, options);
}

}  // namespace webcache::workload
