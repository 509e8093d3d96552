// wctrace/1 — the compact binary trace format behind the streaming
// pipeline, plus its mmap-backed zero-copy reader.
//
// Layout (all integers little-endian):
//
//   offset  size  field
//        0     8  magic "wctrace1"
//        8     4  version (1)
//       12     4  record_size (24 = sizeof(Request))
//       16     8  request_count
//       24     8  distinct_objects (object ids are in [0, distinct_objects);
//                 at most 2^32 - 1, what an ObjectNum can count)
//       32     8  checksum — FNV-1a over the record bytes, folded 8 bytes at
//                 a time (see wctrace_checksum_*)
//       40    24  reserved (zero)
//       64     …  request_count records of 24 bytes each:
//                 u64 time, u32 client, u32 object, u64 size
//
// A record is byte-for-byte the in-memory Request layout, so the mmap
// reader serves request windows straight out of the page cache with no
// decode step. That requires a little-endian POSIX host, which the build
// checks at compile time.
//
// Readers validate magic, version, record size and that the file length is
// exactly header + count * record_size — a truncated or padded file is
// rejected up front. The checksum is verified on demand (`trace info
// --verify`, tests), not at open: verifying would scan the whole file and
// defeat the point of streaming.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "workload/trace_source.hpp"

namespace webcache::workload {

inline constexpr char kWctraceMagic[8] = {'w', 'c', 't', 'r', 'a', 'c', 'e', '1'};
inline constexpr std::uint32_t kWctraceVersion = 1;
inline constexpr std::uint32_t kWctraceRecordSize = 24;
inline constexpr std::size_t kWctraceHeaderSize = 64;

struct WctraceHeader {
  char magic[8];
  std::uint32_t version = kWctraceVersion;
  std::uint32_t record_size = kWctraceRecordSize;
  std::uint64_t request_count = 0;
  std::uint64_t distinct_objects = 0;
  std::uint64_t checksum = 0;
  std::uint8_t reserved[24] = {};
};
static_assert(sizeof(WctraceHeader) == kWctraceHeaderSize);

/// Streaming writer: records are appended through an in-memory buffer
/// (default 64Ki records = 1.5 MiB) and flushed in bulk, so a
/// billion-request trace is compiled with bounded memory. finalize() seeks
/// back and writes the real header; the file is not a valid wctrace before
/// that.
class WctraceWriter {
 public:
  explicit WctraceWriter(const std::string& path, std::size_t buffer_records = 65536);
  WctraceWriter(const WctraceWriter&) = delete;
  WctraceWriter& operator=(const WctraceWriter&) = delete;
  /// Finalizes if the caller did not; errors are swallowed here, so callers
  /// that care (all of them) should call finalize() themselves.
  ~WctraceWriter();

  void append(const Request& request);

  /// Declares the object universe explicitly (e.g. a generator's configured
  /// universe, which may exceed the ids actually referenced). When not set,
  /// the universe is derived as max referenced id + 1. Must cover every
  /// appended record; finalize() throws otherwise, and when a derived
  /// universe is more than an ObjectNum can count (a record of id 2^32 - 1).
  void set_distinct_objects(ObjectNum distinct);

  /// Flushes, writes the header, and closes. Returns the final header.
  WctraceHeader finalize();

 private:
  void flush();

  std::string path_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Writes a fully materialized trace as wctrace/1.
void write_wctrace_file(const std::string& path, const Trace& trace);

/// Reads and validates just the header (plus the length consistency check).
/// Throws std::runtime_error on anything malformed.
[[nodiscard]] WctraceHeader read_wctrace_header(const std::string& path);

/// True when the file exists and starts with the wctrace magic — the sniff
/// the CLI uses to route --trace files to the right reader.
[[nodiscard]] bool is_wctrace_file(const std::string& path);

/// The mmap-backed zero-copy reader. Thread-safe for concurrent windows
/// (run_sweep replays one shared mapping from many workers);
/// discard_consumed releases every whole page below its position, so a
/// sequential pass's resident set stays bounded by its window.
class MmapTraceSource final : public TraceSource {
 public:
  explicit MmapTraceSource(const std::string& path);
  ~MmapTraceSource() override;
  MmapTraceSource(const MmapTraceSource&) = delete;
  MmapTraceSource& operator=(const MmapTraceSource&) = delete;

  [[nodiscard]] std::uint64_t size() const override { return count_; }
  [[nodiscard]] ObjectNum distinct_objects() const override { return distinct_; }
  [[nodiscard]] std::span<const Request> window(std::uint64_t pos,
                                                std::size_t max_len) const override;
  void discard_consumed(std::uint64_t pos) const override;

  [[nodiscard]] const WctraceHeader& header() const { return header_; }

  /// Full checksum scan against the header. O(file) time; a windowed scan,
  /// so resident memory stays bounded by the window.
  [[nodiscard]] bool verify_checksum() const;

 private:
  WctraceHeader header_{};
  std::uint64_t count_ = 0;
  ObjectNum distinct_ = 0;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  const Request* records_ = nullptr;
};

/// Materializes a whole wctrace file (tools/tests).
[[nodiscard]] Trace read_wctrace_file(const std::string& path);

/// Opens `path` as a TraceSource: wctrace files get the mmap reader,
/// anything else goes through the text-trace reader into an in-memory
/// Trace.
[[nodiscard]] std::shared_ptr<const TraceSource> open_trace_source(const std::string& path);

/// Streams a text trace into a wctrace file with bounded memory (the
/// `webcache_cli trace compile` core). Returns the final header.
WctraceHeader compile_text_to_wctrace(const std::string& text_path,
                                      const std::string& out_path);

// --- checksum building blocks (exposed for the writer and tests) ----------
inline constexpr std::uint64_t kWctraceChecksumSeed = 0xcbf29ce484222325ULL;
/// Folds one little-endian 8-byte word into the running FNV-1a state.
[[nodiscard]] inline std::uint64_t wctrace_checksum_step(std::uint64_t state,
                                                         std::uint64_t word) {
  return (state ^ word) * 0x100000001b3ULL;
}

}  // namespace webcache::workload
