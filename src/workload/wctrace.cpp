#include "workload/wctrace.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <vector>

#include "workload/trace.hpp"

namespace webcache::workload {

// The record IS the in-memory Request — pin the layout the file format
// depends on. Records are read and written in place, so the host must be
// little-endian (the header is encoded byte by byte and is portable).
static_assert(std::endian::native == std::endian::little,
              "wctrace/1 records are mapped in place: a little-endian host is required");
static_assert(sizeof(Request) == kWctraceRecordSize);
static_assert(std::is_trivially_copyable_v<Request>);
static_assert(offsetof(Request, time) == 0);
static_assert(offsetof(Request, client) == 8);
static_assert(offsetof(Request, object) == 12);
static_assert(offsetof(Request, size) == 16);

namespace {

/// Folds one record into the running checksum: FNV-1a over the record's
/// three little-endian 8-byte words, written over the field values.
std::uint64_t checksum_record(std::uint64_t state, const Request& r) {
  state = wctrace_checksum_step(state, r.time);
  state = wctrace_checksum_step(
      state, std::uint64_t{r.client} | (std::uint64_t{r.object} << 32));
  return wctrace_checksum_step(state, r.size);
}

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

void encode_header(const WctraceHeader& h, unsigned char (&bytes)[kWctraceHeaderSize]) {
  std::memset(bytes, 0, sizeof(bytes));
  std::memcpy(bytes, h.magic, sizeof(h.magic));
  put_u32(bytes + 8, h.version);
  put_u32(bytes + 12, h.record_size);
  put_u64(bytes + 16, h.request_count);
  put_u64(bytes + 24, h.distinct_objects);
  put_u64(bytes + 32, h.checksum);
}

/// Decodes and validates a header against the known total file size.
/// `what` names the file in error messages.
WctraceHeader decode_header(const unsigned char (&bytes)[kWctraceHeaderSize],
                            std::uint64_t file_bytes, const std::string& what) {
  WctraceHeader h;
  std::memcpy(h.magic, bytes, sizeof(h.magic));
  if (std::memcmp(h.magic, kWctraceMagic, sizeof(kWctraceMagic)) != 0) {
    throw std::runtime_error(what + ": not a wctrace file (bad magic)");
  }
  h.version = get_u32(bytes + 8);
  if (h.version != kWctraceVersion) {
    throw std::runtime_error(what + ": unsupported wctrace version " +
                             std::to_string(h.version));
  }
  h.record_size = get_u32(bytes + 12);
  if (h.record_size != kWctraceRecordSize) {
    throw std::runtime_error(what + ": corrupt header (record size " +
                             std::to_string(h.record_size) + ", expected " +
                             std::to_string(kWctraceRecordSize) + ")");
  }
  h.request_count = get_u64(bytes + 16);
  h.distinct_objects = get_u64(bytes + 24);
  h.checksum = get_u64(bytes + 32);
  const std::uint64_t expected =
      kWctraceHeaderSize + h.request_count * std::uint64_t{kWctraceRecordSize};
  if (file_bytes != expected) {
    throw std::runtime_error(
        what + ": truncated or corrupt (header promises " + std::to_string(expected) +
        " bytes for " + std::to_string(h.request_count) + " requests, file has " +
        std::to_string(file_bytes) + ")");
  }
  if (h.distinct_objects > std::numeric_limits<ObjectNum>::max()) {
    throw std::runtime_error(what + ": corrupt header (universe of " +
                             std::to_string(h.distinct_objects) +
                             " objects, more than an ObjectNum can count)");
  }
  return h;
}

std::uint64_t stream_file_bytes(std::istream& in) {
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(0, std::ios::beg);
  return end < 0 ? 0 : static_cast<std::uint64_t>(end);
}

}  // namespace

// --- writer -----------------------------------------------------------------

struct WctraceWriter::Impl {
  std::ofstream out;
  std::vector<Request> buffer;
  std::size_t buffer_records = 0;
  std::uint64_t count = 0;
  std::uint64_t checksum = kWctraceChecksumSeed;
  std::uint64_t derived_distinct = 0;  ///< max referenced id + 1
  ObjectNum explicit_distinct = 0;     ///< set_distinct_objects override
  bool has_explicit_distinct = false;
  bool finalized = false;
};

WctraceWriter::WctraceWriter(const std::string& path, std::size_t buffer_records)
    : path_(path), impl_(std::make_unique<Impl>()) {
  if (buffer_records == 0) buffer_records = 1;
  impl_->buffer_records = buffer_records;
  impl_->buffer.reserve(buffer_records);
  impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    throw std::runtime_error("cannot open wctrace file for writing: " + path);
  }
  // Placeholder header; finalize() seeks back and writes the real one.
  unsigned char zeros[kWctraceHeaderSize] = {};
  impl_->out.write(reinterpret_cast<const char*>(zeros), sizeof(zeros));
}

WctraceWriter::~WctraceWriter() {
  if (impl_ && !impl_->finalized) {
    try {
      finalize();
    } catch (...) {  // NOLINT(bugprone-empty-catch): dtor must not throw
    }
  }
}

void WctraceWriter::append(const Request& request) {
  Impl& im = *impl_;
  im.derived_distinct = std::max(im.derived_distinct, std::uint64_t{request.object} + 1);
  im.buffer.push_back(request);
  ++im.count;
  if (im.buffer.size() >= im.buffer_records) flush();
}

void WctraceWriter::set_distinct_objects(ObjectNum distinct) {
  impl_->explicit_distinct = distinct;
  impl_->has_explicit_distinct = true;
}

void WctraceWriter::flush() {
  Impl& im = *impl_;
  if (im.buffer.empty()) return;
  for (const auto& r : im.buffer) im.checksum = checksum_record(im.checksum, r);
  im.out.write(reinterpret_cast<const char*>(im.buffer.data()),
               static_cast<std::streamsize>(im.buffer.size() * sizeof(Request)));
  im.buffer.clear();
}

WctraceHeader WctraceWriter::finalize() {
  Impl& im = *impl_;
  if (im.finalized) {
    throw std::logic_error("WctraceWriter::finalize: already finalized");
  }
  flush();
  im.finalized = true;
  if (im.has_explicit_distinct && im.explicit_distinct < im.derived_distinct) {
    throw std::runtime_error(
        "WctraceWriter: declared universe (" + std::to_string(im.explicit_distinct) +
        ") smaller than max referenced id + 1 (" + std::to_string(im.derived_distinct) +
        ")");
  }
  WctraceHeader header;
  std::memcpy(header.magic, kWctraceMagic, sizeof(kWctraceMagic));
  header.request_count = im.count;
  header.distinct_objects =
      im.has_explicit_distinct ? im.explicit_distinct : im.derived_distinct;
  if (header.distinct_objects > std::numeric_limits<ObjectNum>::max()) {
    throw std::runtime_error("WctraceWriter: universe of " +
                             std::to_string(header.distinct_objects) +
                             " objects is more than an ObjectNum can count");
  }
  header.checksum = im.checksum;
  unsigned char bytes[kWctraceHeaderSize];
  encode_header(header, bytes);
  im.out.seekp(0);
  im.out.write(reinterpret_cast<const char*>(bytes), sizeof(bytes));
  im.out.flush();
  if (!im.out) {
    throw std::runtime_error("failed writing wctrace file: " + path_);
  }
  im.out.close();
  return header;
}

void write_wctrace_file(const std::string& path, const Trace& trace) {
  WctraceWriter writer(path);
  writer.set_distinct_objects(trace.universe);
  for (const auto& r : trace.requests) writer.append(r);
  writer.finalize();
}

// --- readers ----------------------------------------------------------------

WctraceHeader read_wctrace_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open wctrace file: " + path);
  const std::uint64_t file_bytes = stream_file_bytes(in);
  unsigned char bytes[kWctraceHeaderSize];
  in.read(reinterpret_cast<char*>(bytes), sizeof(bytes));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(bytes))) {
    throw std::runtime_error(path + ": truncated wctrace header (" +
                             std::to_string(file_bytes) + " bytes)");
  }
  return decode_header(bytes, file_bytes, path);
}

bool is_wctrace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kWctraceMagic)];
  in.read(magic, sizeof(magic));
  return in.gcount() == static_cast<std::streamsize>(sizeof(magic)) &&
         std::memcmp(magic, kWctraceMagic, sizeof(magic)) == 0;
}

MmapTraceSource::MmapTraceSource(const std::string& path) {
  header_ = read_wctrace_header(path);
  count_ = header_.request_count;
  distinct_ = static_cast<ObjectNum>(header_.distinct_objects);
  const std::size_t total_bytes = static_cast<std::size_t>(
      kWctraceHeaderSize + count_ * std::uint64_t{kWctraceRecordSize});

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open wctrace file: " + path);
  void* map = ::mmap(nullptr, total_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    throw std::runtime_error("mmap failed for wctrace file: " + path);
  }
  ::madvise(map, total_bytes, MADV_SEQUENTIAL);
  map_ = map;
  map_bytes_ = total_bytes;
  records_ = reinterpret_cast<const Request*>(static_cast<const char*>(map_) +
                                              kWctraceHeaderSize);
}

MmapTraceSource::~MmapTraceSource() { ::munmap(map_, map_bytes_); }

std::span<const Request> MmapTraceSource::window(std::uint64_t pos,
                                                 std::size_t max_len) const {
  if (pos >= count_) return {};
  const auto len =
      static_cast<std::size_t>(std::min<std::uint64_t>(max_len, count_ - pos));
  return {records_ + pos, len};
}

void MmapTraceSource::discard_consumed(std::uint64_t pos) const {
  const std::uint64_t consumed_bytes =
      kWctraceHeaderSize + std::min(pos, count_) * std::uint64_t{kWctraceRecordSize};
  static const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  // Stateless: release every whole page below `pos`. Releasing a page again
  // is a no-op, so each pass over the mapping (a scan, a replay, every sweep
  // job) releases what it read, and concurrent readers need no shared
  // state; a reader still behind `pos` simply refaults the pages it needs
  // (minor faults — the page cache keeps them).
  const std::size_t bytes = static_cast<std::size_t>(consumed_bytes) / page * page;
  if (bytes > 0) ::madvise(map_, bytes, MADV_DONTNEED);
}

bool MmapTraceSource::verify_checksum() const {
  std::uint64_t state = kWctraceChecksumSeed;
  for_each_window(*this, [&state](std::span<const Request> win) {
    for (const auto& r : win) state = checksum_record(state, r);
  });
  return state == header_.checksum;
}

Trace read_wctrace_file(const std::string& path) {
  const MmapTraceSource source(path);
  return materialize(source);
}

std::shared_ptr<const TraceSource> open_trace_source(const std::string& path) {
  if (is_wctrace_file(path)) return std::make_shared<MmapTraceSource>(path);
  return make_source(read_trace_file(path));
}

WctraceHeader compile_text_to_wctrace(const std::string& text_path,
                                      const std::string& out_path) {
  std::ifstream in(text_path);
  if (!in) throw std::runtime_error("cannot open trace file: " + text_path);
  WctraceWriter writer(out_path);
  const ObjectNum distinct =
      read_trace_stream(in, [&writer](const Request& r) { writer.append(r); });
  writer.set_distinct_objects(distinct);
  return writer.finalize();
}

}  // namespace webcache::workload
