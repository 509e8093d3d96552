// Deterministic mutation fuzzer for the trace readers: the text reader, the
// Squid log reader and the wctrace/1 header and record reader.
//
// Each test starts from one well-formed seed and derives 1,500 mutants from
// it with a fixed-seed LCG: byte flips, inserts and deletes, truncations,
// digit runs stretched past 2^32 and 2^64 (boundary values in the binary
// format), and duplicated or swapped lines (records). Every mutant must
// either parse or be rejected with std::runtime_error or
// std::invalid_argument; any other exception, a crash or a sanitizer report
// fails the test. A text trace that parses must keep every object below its
// universe. A wctrace mutant that opens must survive the cache-sizing pass:
// core::cluster_infinite_cache_size either rejects it or returns, and when
// it returns, workload::analyze must return too, since every run sizes its
// caches there before trusting the ids. A mutant that claims more than 2^20
// objects is only checked by iterating its records: the sizing pass would
// allocate per object of the claimed universe.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "workload/squid_log.hpp"
#include "workload/trace.hpp"
#include "workload/trace_stats.hpp"
#include "workload/wctrace.hpp"

namespace webcache::workload {
namespace {

constexpr int kMutantsPerSeed = 1'500;
constexpr std::uint64_t kSizingUniverseLimit = std::uint64_t{1} << 20;

// Deterministic 64-bit LCG (MMIX constants): the mutant stream is the same
// on every platform and standard library.
class FuzzRng {
 public:
  explicit FuzzRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

using Bytes = std::string;

// --- seeds -------------------------------------------------------------------

Bytes numeric_text_seed() {
  std::ostringstream out;
  out << "# time client object size\n";
  for (int i = 0; i < 40; ++i) {
    out << 1000 + 7 * i << ' ' << i % 5 << ' ' << (i * i) % 23 << ' ' << 100 + 13 * i << '\n';
  }
  return out.str();
}

Bytes url_text_seed() {
  std::ostringstream out;
  for (int i = 0; i < 40; ++i) {
    out << 2000 + 3 * i << ' ' << i % 4 << " http://host" << i % 3 << ".example/p" << (i * 7) % 11;
    if (i % 2 == 0) out << ' ' << 512 + i;
    out << '\n';
  }
  return out.str();
}

Bytes squid_seed() {
  static constexpr std::array<const char*, 4> kActions = {"TCP_MISS/200", "TCP_HIT/200",
                                                         "TCP_MISS/304", "TCP_MISS/404"};
  std::ostringstream out;
  for (int i = 0; i < 40; ++i) {
    out << 1017772599 + i << '.' << 100 + i << ' ' << i % 9 << " 10.0.0." << i % 6 << ' '
        << kActions[static_cast<std::size_t>(i) % kActions.size()] << ' ' << 300 + 11 * i << ' '
        << (i % 7 == 6 ? "POST" : "GET") << " http://a.example/o" << (i * 5) % 13
        << " - DIRECT/- text/html\n";
  }
  return out.str();
}

Trace wctrace_seed_trace() {
  Trace trace;
  trace.universe = 40;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Request r{10 * i, static_cast<ClientNum>(i % 8), static_cast<ObjectNum>((i * i) % 40),
                    1 + i};
    trace.requests.push_back(r);
  }
  return trace;
}

// --- mutations ---------------------------------------------------------------

std::vector<std::pair<std::size_t, std::size_t>> line_spans(const Bytes& data) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // [begin, end) incl. '\n'
  std::size_t begin = 0;
  while (begin < data.size()) {
    const std::size_t nl = data.find('\n', begin);
    const std::size_t end = nl == Bytes::npos ? data.size() : nl + 1;
    spans.emplace_back(begin, end);
    begin = end;
  }
  return spans;
}

/// Replaces a random run of digits with a value at or past 2^32 or 2^64, or
/// stretches it with more digits.
void stretch_digit_run(Bytes& data, FuzzRng& rng) {
  static constexpr std::array<const char*, 5> kBoundaries = {
      "4294967295", "4294967296", "18446744073709551615", "18446744073709551616",
      "99999999999999999999999"};
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const bool digit = data[i] >= '0' && data[i] <= '9';
    const bool prev_digit = i > 0 && data[i - 1] >= '0' && data[i - 1] <= '9';
    if (digit && !prev_digit) starts.push_back(i);
  }
  if (starts.empty()) return;
  const std::size_t begin = starts[rng.below(starts.size())];
  std::size_t end = begin;
  while (end < data.size() && data[end] >= '0' && data[end] <= '9') ++end;
  if (rng.below(4) == 0) {
    data.insert(end, Bytes(10 + rng.below(12), static_cast<char>('0' + rng.below(10))));
  } else {
    data.replace(begin, end - begin, kBoundaries[rng.below(kBoundaries.size())]);
  }
}

/// Overwrites an aligned 4- or 8-byte field with a boundary value.
void write_boundary_field(Bytes& data, FuzzRng& rng) {
  static constexpr std::array<std::uint64_t, 6> kValues = {
      0,          0xFFFFFFF0ULL, 0xFFFFFFFFULL, 0x100000000ULL, 0x80000000ULL,
      ~0ULL};
  const std::size_t width = rng.below(2) == 0 ? 4 : 8;
  if (data.size() < width) return;
  const std::size_t at = rng.below(data.size() / width) * width;
  const std::uint64_t value = kValues[rng.below(kValues.size())];
  for (std::size_t i = 0; i < width; ++i) data[at + i] = static_cast<char>(value >> (8 * i));
}

/// Duplicates or swaps whole units: text lines, or wctrace records.
void shuffle_units(Bytes& data, FuzzRng& rng, bool binary) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  if (binary) {
    for (std::size_t at = kWctraceHeaderSize; at + kWctraceRecordSize <= data.size();
         at += kWctraceRecordSize) {
      spans.emplace_back(at, at + kWctraceRecordSize);
    }
  } else {
    spans = line_spans(data);
  }
  if (spans.empty()) return;
  const auto a = spans[rng.below(spans.size())];
  const Bytes unit_a = data.substr(a.first, a.second - a.first);
  if (rng.below(2) == 0) {
    data.insert(a.second, unit_a);
    return;
  }
  const auto b = spans[rng.below(spans.size())];
  if (b.first == a.first) return;
  const auto first = a.first < b.first ? a : b;
  const auto second = a.first < b.first ? b : a;
  const Bytes unit_first = data.substr(first.first, first.second - first.first);
  const Bytes unit_second = data.substr(second.first, second.second - second.first);
  data.replace(second.first, second.second - second.first, unit_first);
  data.replace(first.first, first.second - first.first, unit_second);
}

Bytes mutate(Bytes data, FuzzRng& rng, bool binary) {
  static constexpr char kText[] = "0123456789 \t\n#/.:-x";
  const std::size_t edits = 1 + rng.below(3);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (rng.below(7)) {
      case 0:  // flip one bit
        if (!data.empty()) data[rng.below(data.size())] ^= static_cast<char>(1U << rng.below(8));
        break;
      case 1: {  // insert one byte
        const char c = binary || rng.below(2) == 0 ? static_cast<char>(rng.below(256))
                                                   : kText[rng.below(sizeof(kText) - 1)];
        data.insert(data.begin() + static_cast<std::ptrdiff_t>(rng.below(data.size() + 1)), c);
        break;
      }
      case 2:  // delete one byte
        if (!data.empty()) data.erase(rng.below(data.size()), 1);
        break;
      case 3:  // truncate
        data.resize(rng.below(data.size() + 1));
        break;
      case 4:
        if (binary) {
          write_boundary_field(data, rng);
        } else {
          stretch_digit_run(data, rng);
        }
        break;
      case 5:
      case 6:
        shuffle_units(data, rng, binary);
        break;
    }
  }
  // Half the binary mutants get a header whose request count matches their
  // length again, so that duplicated, swapped or truncated records reach
  // the record reader instead of stopping at the length check.
  if (binary && data.size() >= kWctraceHeaderSize && rng.below(2) == 0 &&
      (data.size() - kWctraceHeaderSize) % kWctraceRecordSize == 0) {
    const std::uint64_t count = (data.size() - kWctraceHeaderSize) / kWctraceRecordSize;
    for (std::size_t i = 0; i < 8; ++i) data[16 + i] = static_cast<char>(count >> (8 * i));
  }
  return data;
}

// --- properties ----------------------------------------------------------------

/// Runs `parse`, accepting a return or a std::runtime_error /
/// std::invalid_argument rejection; anything else fails the test. Returns
/// whether `parse` returned.
bool parses_or_rejects(const std::function<void()>& parse, int mutant) {
  try {
    parse();
    return true;
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutant " << mutant << " threw an unexpected exception: " << e.what();
  }
  return false;
}

void expect_objects_in_universe(const Trace& trace, int mutant) {
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    ASSERT_LT(trace.requests[i].object, trace.universe)
        << "mutant " << mutant << ", request " << i << " names an object outside the universe";
  }
}

void fuzz_text(const Bytes& seed, std::uint64_t rng_seed) {
  FuzzRng rng(rng_seed);
  int parsed = 0;
  for (int mutant = 0; mutant < kMutantsPerSeed; ++mutant) {
    const Bytes data = mutate(seed, rng, /*binary=*/false);
    Trace trace;
    if (parses_or_rejects(
            [&] {
              std::istringstream in(data);
              trace = read_trace(in);
            },
            mutant)) {
      ++parsed;
      ASSERT_NO_FATAL_FAILURE(expect_objects_in_universe(trace, mutant));
    }
  }
  // The mutants must exercise both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutantsPerSeed);
}

TEST(TraceFuzz, NumericTextTraceMutants) { fuzz_text(numeric_text_seed(), 101); }

TEST(TraceFuzz, UrlTextTraceMutants) { fuzz_text(url_text_seed(), 202); }

TEST(TraceFuzz, SquidLogMutants) {
  FuzzRng rng(303);
  const Bytes seed = squid_seed();
  for (int mutant = 0; mutant < kMutantsPerSeed; ++mutant) {
    const Bytes data = mutate(seed, rng, /*binary=*/false);
    SquidReadResult result;
    if (parses_or_rejects(
            [&] {
              std::istringstream in(data);
              result = read_squid_log(in);
            },
            mutant)) {
      ASSERT_NO_FATAL_FAILURE(expect_objects_in_universe(result.trace, mutant));
    }
  }
}

/// A temporary directory for this test alone: ctest runs tests in parallel,
/// and other builds may fuzz on the same host.
std::filesystem::path test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  auto dir = std::filesystem::path(::testing::TempDir()) /
             ("webcache_fuzz_" + std::string(info->name()) + "_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir;
}

Bytes file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The sizing pass over an opened mutant: it rejects an object outside the
/// universe or returns, and a mutant it accepts must analyze cleanly.
void check_opened(const TraceSource& source, int mutant) {
  if (source.distinct_objects() > kSizingUniverseLimit) {
    std::uint64_t records = 0;
    std::uint64_t outside = 0;
    for_each_window(source, [&](std::span<const Request> win) {
      for (const Request& r : win) {
        ++records;
        if (r.object >= source.distinct_objects()) ++outside;
      }
    });
    EXPECT_EQ(records, source.size()) << "mutant " << mutant;
    EXPECT_LE(outside, records) << "mutant " << mutant;
    return;
  }
  try {
    (void)core::cluster_infinite_cache_size(source, 2);
  } catch (const std::invalid_argument&) {
    return;  // rejected: nothing downstream will trust its ids
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutant " << mutant << ": sizing threw an unexpected exception: " << e.what();
    return;
  }
  try {
    (void)analyze(source);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutant " << mutant << ": sizing accepted the trace but analyze threw: "
                  << e.what();
  }
}

TEST(TraceFuzz, WctraceMutants) {
  const auto dir = test_dir();
  const std::string seed_path = (dir / "seed.wct").string();
  write_wctrace_file(seed_path, wctrace_seed_trace());
  const Bytes seed = file_bytes(seed_path);
  ASSERT_EQ(seed.size(), kWctraceHeaderSize + std::size_t{64} * kWctraceRecordSize);

  FuzzRng rng(404);
  const std::string path = (dir / "mutant.wct").string();
  int opened = 0;
  for (int mutant = 0; mutant < kMutantsPerSeed; ++mutant) {
    const Bytes data = mutate(seed, rng, /*binary=*/true);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(data.data(), static_cast<std::streamsize>(data.size()));
      ASSERT_TRUE(out.good());
    }
    std::unique_ptr<MmapTraceSource> source;
    if (!parses_or_rejects([&] { source = std::make_unique<MmapTraceSource>(path); }, mutant)) {
      continue;
    }
    ++opened;
    (void)source->verify_checksum();
    check_opened(*source, mutant);
  }
  EXPECT_GT(opened, 0);
  EXPECT_LT(opened, kMutantsPerSeed);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace webcache::workload
