// Streaming trace pipeline tests: the wctrace/1 binary format, its
// mmap-backed reader, the TraceSource windowing contract, and — the
// tentpole guarantee — that streamed replays are indistinguishable from
// materialized ones, down to byte-identical "webcache-metrics/1" exports at
// any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/prowgen.hpp"
#include "workload/trace_source.hpp"
#include "workload/trace_stats.hpp"
#include "workload/wctrace.hpp"

namespace webcache::workload {
namespace {

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

/// A ProWGen trace whose records carry varied sizes, up to 44 bits wide, so
/// the round trips cover every byte of the size field (ProWGen itself emits
/// unit sizes).
Trace small_trace() {
  ProWGenConfig cfg;
  cfg.total_requests = 20'000;
  cfg.distinct_objects = 1'500;
  cfg.seed = 7;
  Trace trace = ProWGen(cfg).generate();
  for (auto& r : trace.requests) {
    r.size = 1 + ((std::uint64_t{r.object} * 0x9e3779b97f4a7c15ULL) >> 20);
  }
  return trace;
}

void patch_byte(const std::string& path, std::size_t offset, char value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&value, 1);
}

bool same_requests(const Trace& a, const Trace& b) {
  if (a.universe != b.universe) return false;
  if (a.requests.size() != b.requests.size()) return false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const auto& x = a.requests[i];
    const auto& y = b.requests[i];
    if (x.time != y.time || x.client != y.client || x.object != y.object || x.size != y.size) {
      return false;
    }
  }
  return true;
}

// --- format round trips ---------------------------------------------------

TEST(Wctrace, BinaryRoundTripPreservesEveryField) {
  const auto trace = small_trace();
  const auto path = temp_path("roundtrip.wct");
  write_wctrace_file(path, trace);

  const auto header = read_wctrace_header(path);
  EXPECT_EQ(header.request_count, trace.requests.size());
  EXPECT_EQ(header.distinct_objects, trace.universe);

  const auto back = read_wctrace_file(path);
  EXPECT_TRUE(same_requests(trace, back));
  std::filesystem::remove(path);
}

TEST(Wctrace, TextBinaryTextRoundTripIsExact) {
  const auto trace = small_trace();
  const auto text1 = temp_path("roundtrip1.txt");
  const auto binary = temp_path("roundtrip.bin.wct");
  const auto text2 = temp_path("roundtrip2.txt");
  write_trace_file(text1, trace);

  const auto header = compile_text_to_wctrace(text1, binary);
  EXPECT_EQ(header.request_count, trace.requests.size());
  const auto back = read_wctrace_file(binary);
  write_trace_file(text2, back);

  std::ifstream a(text1, std::ios::binary);
  std::ifstream b(text2, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  for (const auto& p : {text1, binary, text2}) std::filesystem::remove(p);
}

TEST(Wctrace, StreamedProWGenEqualsMaterializedGeneration) {
  ProWGenConfig cfg;
  cfg.total_requests = 15'000;
  cfg.distinct_objects = 1'000;
  cfg.seed = 11;
  const auto materialized = ProWGen(cfg).generate();

  Trace streamed;
  streamed.universe = cfg.distinct_objects;
  ProWGen(cfg).generate([&streamed](const Request& r) { streamed.requests.push_back(r); });
  EXPECT_TRUE(same_requests(materialized, streamed));
}

TEST(Wctrace, EmptyTraceRoundTrips) {
  const auto path = temp_path("empty.wct");
  Trace empty;
  write_wctrace_file(path, empty);
  const auto header = read_wctrace_header(path);
  EXPECT_EQ(header.request_count, 0u);
  EXPECT_EQ(header.distinct_objects, 0u);

  const MmapTraceSource source(path);
  EXPECT_TRUE(source.empty());
  EXPECT_TRUE(source.window(0, 128).empty());
  EXPECT_TRUE(source.verify_checksum());
  std::filesystem::remove(path);
}

// --- malformed-file rejection --------------------------------------------

TEST(Wctrace, RejectsBadMagic) {
  const auto path = temp_path("badmagic.wct");
  write_wctrace_file(path, small_trace());
  patch_byte(path, 0, 'X');
  EXPECT_FALSE(is_wctrace_file(path));
  EXPECT_THROW((void)read_wctrace_header(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Wctrace, RejectsUnsupportedVersion) {
  const auto path = temp_path("badversion.wct");
  write_wctrace_file(path, small_trace());
  patch_byte(path, 8, 99);  // version field
  EXPECT_THROW((void)read_wctrace_header(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Wctrace, RejectsCorruptRecordSize) {
  const auto path = temp_path("badrecord.wct");
  write_wctrace_file(path, small_trace());
  patch_byte(path, 12, 23);  // record_size field
  EXPECT_THROW((void)read_wctrace_header(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Wctrace, RejectsTruncatedPayload) {
  const auto path = temp_path("truncated.wct");
  write_wctrace_file(path, small_trace());
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 13);
  EXPECT_THROW((void)read_wctrace_header(path), std::runtime_error);
  EXPECT_THROW(MmapTraceSource{path}, std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Wctrace, RejectsTruncatedHeader) {
  const auto path = temp_path("shortheader.wct");
  write_wctrace_file(path, small_trace());
  std::filesystem::resize_file(path, kWctraceHeaderSize / 2);
  EXPECT_THROW((void)read_wctrace_header(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Wctrace, ChecksumDetectsPayloadCorruption) {
  const auto path = temp_path("corrupt.wct");
  write_wctrace_file(path, small_trace());
  {
    const MmapTraceSource source(path);
    EXPECT_TRUE(source.verify_checksum());
  }
  patch_byte(path, kWctraceHeaderSize + std::size_t{5} * kWctraceRecordSize + 3, 0x5a);
  const MmapTraceSource source(path);  // header still consistent: opens fine
  EXPECT_FALSE(source.verify_checksum());
  std::filesystem::remove(path);
}

TEST(Wctrace, WriterRejectsUniverseSmallerThanReferencedIds) {
  const auto path = temp_path("universe.wct");
  WctraceWriter writer(path);
  writer.append(Request{0, 0, 41, 1});
  writer.set_distinct_objects(10);  // id 41 does not fit
  EXPECT_THROW((void)writer.finalize(), std::runtime_error);
  std::filesystem::remove(path);
}

// A header may not promise more objects than an ObjectNum can count, and a
// writer left to derive the universe from a record of id 2^32 - 1 must not
// wrap it to 0.
TEST(Wctrace, RejectsUniverseBeyondObjectIds) {
  const auto path = temp_path("hugeuniverse.wct");
  write_wctrace_file(path, small_trace());
  for (int i = 0; i < 8; ++i) {
    patch_byte(path, 24 + static_cast<std::size_t>(i), i == 4 ? '\x01' : '\0');  // 2^32
  }
  EXPECT_THROW((void)read_wctrace_header(path), std::runtime_error);
  EXPECT_THROW(MmapTraceSource{path}, std::runtime_error);
  {
    WctraceWriter writer(path);
    writer.append(Request{0, 0, 0xFFFFFFFFu, 1});
    EXPECT_THROW((void)writer.finalize(), std::runtime_error);
  }
  std::filesystem::remove(path);
}

// Every run sizes its caches through cluster_infinite_cache_size before it
// builds universe-sized maps, so that pass must reject an object outside
// the universe wherever it sits, not only in proxy 0's substream.
TEST(Wctrace, InfiniteCacheSizeRejectsAnOutOfUniverseRecordAtAnyPosition) {
  const auto trace = small_trace();
  const auto path = temp_path("outside.wct");
  write_wctrace_file(path, trace);
  // Record 11: proxy 1's substream at 2 proxies.
  const std::size_t object_at = kWctraceHeaderSize + std::size_t{11} * kWctraceRecordSize + 12;
  const ObjectNum outside = trace.universe;
  for (std::size_t i = 0; i < 4; ++i) {
    patch_byte(path, object_at + i, static_cast<char>((outside >> (8 * i)) & 0xFF));
  }
  const MmapTraceSource source(path);
  EXPECT_THROW((void)core::cluster_infinite_cache_size(source, 2), std::invalid_argument);
  std::filesystem::remove(path);
}

// --- TraceSource windowing contract ---------------------------------------

TEST(TraceSourceContract, WindowsTileTheStreamExactly) {
  const auto trace = small_trace();
  const auto path = temp_path("windows.wct");
  write_wctrace_file(path, trace);
  const MmapTraceSource source(path);
  ASSERT_EQ(source.size(), trace.requests.size());
  EXPECT_EQ(source.distinct_objects(), trace.universe);

  // Walk with a chunk that does not divide the length: the tail window must
  // clamp, and every record must come back byte-for-byte.
  std::uint64_t pos = 0;
  while (pos < source.size()) {
    const auto win = source.window(pos, 777);
    ASSERT_FALSE(win.empty());
    for (std::size_t i = 0; i < win.size(); ++i) {
      const auto& expect = trace.requests[static_cast<std::size_t>(pos) + i];
      ASSERT_EQ(win[i].object, expect.object);
      ASSERT_EQ(win[i].time, expect.time);
    }
    pos += win.size();
    source.discard_consumed(pos);  // must never affect later reads' contents
  }
  EXPECT_EQ(pos, source.size());
  EXPECT_TRUE(source.window(source.size(), 16).empty());
  EXPECT_TRUE(source.window(source.size() + 100, 16).empty());
  std::filesystem::remove(path);
}

// The in-memory Trace is its own TraceSource: windows are spans over its
// request vector.
TEST(TraceSourceContract, MaterializedAdapterMatchesVectorExactly) {
  const auto trace = small_trace();
  const TraceSource& source = trace;
  EXPECT_EQ(source.size(), trace.requests.size());
  const auto all = source.window(0, trace.requests.size());
  ASSERT_EQ(all.size(), trace.requests.size());
  EXPECT_EQ(all.data(), trace.requests.data());  // zero-copy: same storage
  EXPECT_TRUE(source.window(trace.requests.size(), 4).empty());

  const auto copy = materialize(source);
  EXPECT_TRUE(same_requests(trace, copy));
}

TEST(TraceSourceContract, AnalyzeStreamedMatchesMaterialized) {
  const auto trace = small_trace();
  const auto path = temp_path("analyze.wct");
  write_wctrace_file(path, trace);
  const MmapTraceSource streamed(path);

  const auto a = analyze(trace);
  const auto b = analyze(streamed);
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.distinct_objects, b.distinct_objects);
  EXPECT_EQ(a.one_timers, b.one_timers);
  EXPECT_EQ(a.infinite_cache_size, b.infinite_cache_size);
  EXPECT_EQ(a.frequency, b.frequency);
  std::filesystem::remove(path);
}

// --- the tentpole: streamed == materialized, byte for byte ----------------

// Sweep a compiled trace through the mmap reader at 1 and 8 threads and
// demand byte-identical "webcache-metrics/1" exports against the in-memory
// run: workers sharing one mapping must replay exactly what the in-memory
// sweep does. (Window boundaries and page release are crossed by
// StreamedReplay.CrossesReplayWindowsByteIdentically.)
TEST(StreamedSweep, GoldenDiffAgainstMaterializedAcrossThreadCounts) {
  const auto trace = small_trace();
  const auto path = temp_path("golden.wct");
  write_wctrace_file(path, trace);
  const MmapTraceSource streamed(path);

  core::SweepConfig cfg;
  cfg.schemes = {sim::Scheme::kNC, sim::Scheme::kSC, sim::Scheme::kHierGD};
  cfg.cache_percents = {20, 60};
  cfg.collect_observability = true;
  cfg.threads = 1;

  const auto render = [](const core::SweepResult& result) {
    std::ostringstream out;
    core::write_metrics_json(out, result, "golden");
    return out.str();
  };

  const auto reference = render(core::run_sweep(trace, cfg));
  EXPECT_GT(reference.size(), 1000u);

  for (const unsigned threads : {1u, 8u}) {
    core::SweepConfig streamed_cfg = cfg;
    streamed_cfg.threads = threads;
    const auto exported = render(core::run_sweep(streamed, streamed_cfg));
    EXPECT_EQ(reference, exported) << "threads=" << threads;
  }
  std::filesystem::remove(path);
}

// A sequential replay reads default_replay_chunk() requests per window and
// releases each consumed window's pages. A trace longer than two windows
// crosses two such boundaries, which must serve every request once and leave
// the export byte-identical to the in-memory replay's.
TEST(StreamedReplay, CrossesReplayWindowsByteIdentically) {
  ProWGenConfig gen;
  gen.total_requests = 2 * default_replay_chunk() + 4'321;
  gen.distinct_objects = 4'000;
  gen.seed = 18;
  const auto trace = ProWGen(gen).generate();
  const auto path = temp_path("window_boundary.wct");
  write_wctrace_file(path, trace);
  const MmapTraceSource streamed(path);

  const auto render = [](sim::SimConfig cfg, const TraceSource& source) {
    cfg.registry = std::make_shared<obs::Registry>();
    sim::Simulator simulator(cfg, source);
    EXPECT_EQ(simulator.run().requests, source.size());
    std::ostringstream out;
    cfg.registry->write_json(out, "window_boundary");
    return out.str();
  };
  for (const auto scheme : {sim::Scheme::kSC, sim::Scheme::kHierGD}) {
    sim::SimConfig cfg;
    cfg.scheme = scheme;
    cfg.proxy_capacity = 200;
    cfg.clients_per_cluster = 20;
    cfg.client_cache_capacity = 4;
    EXPECT_EQ(render(cfg, trace), render(cfg, streamed)) << sim::to_string(scheme);
  }
  std::filesystem::remove(path);
}

// The scan strides proxy 0's round-robin substream across replay windows:
// on a trace shorter than one window and on one crossing two boundaries,
// with strides that do not divide the window, the streamed count must equal
// the in-memory one and a direct walk of the request vector.
TEST(StreamedSweep, ClusterInfiniteCacheSizeMatchesStreamed) {
  ProWGenConfig long_gen;
  long_gen.total_requests = 2 * default_replay_chunk() + 4'321;
  long_gen.distinct_objects = 4'000;
  long_gen.seed = 23;
  for (const auto& trace : {small_trace(), ProWGen(long_gen).generate()}) {
    const auto path = temp_path("infinite.wct");
    write_wctrace_file(path, trace);
    const MmapTraceSource streamed(path);
    for (const unsigned proxies : {1u, 2u, 3u, 7u}) {
      std::vector<std::uint64_t> freq(trace.universe, 0);
      for (std::size_t i = 0; i < trace.requests.size(); i += proxies) {
        ++freq[trace.requests[i].object];
      }
      const auto direct = static_cast<ObjectNum>(
          std::count_if(freq.begin(), freq.end(), [](std::uint64_t f) { return f > 1; }));
      EXPECT_EQ(core::cluster_infinite_cache_size(trace, proxies), direct) << proxies;
      EXPECT_EQ(core::cluster_infinite_cache_size(streamed, proxies), direct) << proxies;
    }
    std::filesystem::remove(path);
  }
}

// --- bounded memory of whole-stream scans ----------------------------------

/// This process's resident set (VmRSS) in KiB, or -1 when /proc/self/status
/// cannot be read.
long vm_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

// Checksum verification, analysis and the infinite-cache-size scan each walk
// a compiled trace in replay windows and release every window they read, so
// none of them maps the whole file — on the first pass or any later one.
TEST(StreamedScans, ResidentSetStaysBoundedAcrossRepeatedScans) {
  if (vm_rss_kib() < 0) GTEST_SKIP() << "/proc/self/status cannot be read";
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ThreadSanitizer's shadow memory grows with every byte read";
#endif
  constexpr std::uint64_t kRequests = 1'000'000;  // 24 MB of records
  const auto path = temp_path("rss_scans.wct");
  {
    WctraceWriter writer(path);
    Rng rng(29);
    for (std::uint64_t t = 0; t < kRequests; ++t) {
      writer.append(Request{t, static_cast<ClientNum>(rng.next_below(100)),
                            static_cast<ObjectNum>(rng.next_below(10'000)), 1});
    }
    writer.set_distinct_objects(10'000);
    writer.finalize();
  }
  const MmapTraceSource source(path);
  constexpr long kBoundKib = 8 * 1024;
  for (int round = 0; round < 2; ++round) {
    const long before = vm_rss_kib();
    EXPECT_TRUE(source.verify_checksum());
    EXPECT_EQ(analyze(source).total_requests, kRequests);
    EXPECT_GT(core::cluster_infinite_cache_size(source, 3), 0U);
    EXPECT_LT(vm_rss_kib() - before, kBoundKib) << "round " << round;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace webcache::workload
