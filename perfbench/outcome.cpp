#include "outcome.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using webcache::obs::Registry;

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Splits "cluster<N>.<rest>" into (N, rest); false for any other name.
bool split_cluster(const std::string& name, unsigned& cluster, std::string& rest) {
  static const std::string kPrefix = "cluster";
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  std::size_t i = kPrefix.size();
  unsigned n = 0;
  bool digits = false;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    n = n * 10 + static_cast<unsigned>(name[i] - '0');
    ++i;
    digits = true;
  }
  if (!digits || i >= name.size() || name[i] != '.') return false;
  cluster = n;
  rest = name.substr(i + 1);
  return true;
}

void expect_equal(std::vector<std::string>& out, const std::string& what, std::uint64_t got,
                  std::uint64_t want) {
  if (got != want) {
    out.push_back(what + ": " + std::to_string(got) + " != " + std::to_string(want));
  }
}

}  // namespace

std::vector<std::string> check_invariants(const Registry& r, const webcache::sim::SimConfig& config,
                                          std::uint64_t expected_requests) {
  using webcache::sim::Scheme;
  std::vector<std::string> v;
  const auto c = [&r](const std::string& name) { return r.counter_value(name); };

  // Every request lands in exactly one outcome counter.
  const std::uint64_t requests = c("sim.requests");
  expect_equal(v, "sim.requests vs trace length", requests, expected_requests);
  const std::uint64_t outcomes = c("sim.hits_browser") + c("sim.hits_local_proxy") +
                                 c("sim.hits_local_p2p") + c("sim.hits_remote_proxy") +
                                 c("sim.hits_remote_p2p") + c("sim.server_fetches");
  expect_equal(v, "sum of outcome counters vs sim.requests", outcomes, requests);
  const auto* latency = r.find_histogram("sim.request_latency");
  expect_equal(v, "sim.request_latency total vs sim.requests",
               latency == nullptr ? 0 : latency->total(), requests);
  if (const auto* hops = r.find_stat("sim.p2p_hops")) {
    const auto* hist = r.find_histogram("sim.p2p_hops");
    expect_equal(v, "sim.p2p_hops histogram vs stat count", hist == nullptr ? 0 : hist->total(),
                 hops->count());
  }

  // Per-cluster counters sum to the simulator totals.
  std::map<unsigned, std::map<std::string, std::uint64_t>> clusters;
  for (const auto& name : r.counter_names()) {
    unsigned cluster = 0;
    std::string rest;
    if (split_cluster(name, cluster, rest)) clusters[cluster][rest] = c(name);
  }
  std::uint64_t dir_adds = 0;
  std::uint64_t dir_removes = 0;
  for (const auto& [cluster, counters] : clusters) {
    const std::string where = "cluster" + std::to_string(cluster);
    const auto get = [&counters](const char* name) -> std::uint64_t {
      const auto it = counters.find(name);
      return it == counters.end() ? 0 : it->second;
    };
    // Only a cluster with a lookup directory registers dir.* counters.
    if (counters.count("dir.adds") != 0) {
      dir_adds += get("dir.adds");
      dir_removes += get("dir.removes");
      expect_equal(v, where + " client_cache.insertions vs dir.adds",
                   get("client_cache.insertions"), get("dir.adds"));
      if (get("dir.positives") > get("dir.lookups")) {
        v.push_back(where + ": dir.positives exceeds dir.lookups");
      }
    }
    if (counters.count("pastry.messages_routed") != 0) {
      const auto* hist = r.find_histogram(where + ".pastry.hops");
      expect_equal(v, where + " pastry.hops histogram vs messages_routed",
                   hist == nullptr ? 0 : hist->total(), get("pastry.messages_routed"));
    }
  }
  expect_equal(v, "sum of cluster dir.adds vs net.directory_adds", dir_adds,
               c("net.directory_adds"));
  expect_equal(v, "sum of cluster dir.removes vs net.directory_removes + false positives",
               dir_removes, c("net.directory_removes") + c("net.directory_false_positives"));
  const bool sharded = config.sim_shards >= 1 && webcache::sim::Simulator::sharding_supported(config);
  const Scheme s = config.scheme;
  if (!sharded && (s == Scheme::kNC || s == Scheme::kSC || s == Scheme::kFC || s == Scheme::kHierGD)) {
    std::uint64_t proxy_hits = 0;
    for (unsigned p = 0; p < config.num_proxies; ++p) {
      proxy_hits += c("proxy" + std::to_string(p) + ".cache.hits");
    }
    expect_equal(v, "sum of proxy cache hits vs local + remote proxy hits", proxy_hits,
                 c("sim.hits_local_proxy") + c("sim.hits_remote_proxy"));
  }

  // Policy and protocol counters cross-foot.
  for (const auto& name : r.counter_names()) {
    if (ends_with(name, "insertions")) {
      const std::string prefix = name.substr(0, name.size() - std::string("insertions").size());
      if (c(prefix + "evictions") > c(name)) v.push_back(prefix + "evictions exceeds insertions");
    }
    if (ends_with(name, "policy.admission_considered")) {
      const std::string prefix =
          name.substr(0, name.size() - std::string("admission_considered").size());
      expect_equal(v, prefix + "admission accepts + rejects vs considered",
                   c(prefix + "admission_accepts") + c(prefix + "admission_rejects"), c(name));
    }
  }
  expect_equal(v, "net.p2p_retries vs net.p2p_messages_lost", c("net.p2p_retries"),
               c("net.p2p_messages_lost"));
  if (c("fault.crashes") == 0 && c("fault.objects_lost") != 0) {
    v.push_back("fault.objects_lost without a crash");
  }
  if (c("fault.rejoins") > c("fault.crashes")) v.push_back("fault.rejoins exceeds fault.crashes");
  return v;
}

std::uint64_t export_digest(const Registry& registry) {
  std::ostringstream body;
  registry.write_json_body(body);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : body.str()) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

DigestBook DigestBook::load(const std::string& path) {
  DigestBook book;
  std::ifstream in(path);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Entry e;
    if (!(fields >> e.workload >> e.seed >> e.scale >> e.label >> e.digest)) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) + ": malformed digest line");
    }
    book.entries_.push_back(std::move(e));
  }
  return book;
}

std::optional<std::string> DigestBook::find(const std::string& workload, std::uint64_t seed,
                                            const std::string& scale,
                                            const std::string& label) const {
  for (const Entry& e : entries_) {
    if (e.workload == workload && e.seed == seed && e.scale == scale && e.label == label) {
      return e.digest;
    }
  }
  return std::nullopt;
}

void DigestBook::replace(const std::string& workload, std::uint64_t seed, const std::string& scale,
                         const std::vector<std::pair<std::string, std::string>>& entries) {
  std::erase_if(entries_, [&](const Entry& e) {
    return e.workload == workload && e.seed == seed && e.scale == scale;
  });
  for (const auto& [label, digest] : entries) {
    entries_.push_back({workload, seed, scale, label, digest});
  }
}

void DigestBook::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# webcache-metrics/1 export digests: workload seed scale label fnv1a64\n"
         "# Re-record with the commands in perfbench/README.md (\"Outcome check\").\n";
  for (const Entry& e : entries_) {
    out << e.workload << ' ' << e.seed << ' ' << e.scale << ' ' << e.label << ' ' << e.digest
        << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
