// Request traces: a plain-text interchange format for the in-memory Trace
// (trace_source.hpp), so real proxy logs can be converted and replayed
// through the simulator in place of the synthetic workloads. (The binary
// companion format for out-of-core replay is wctrace.hpp.)
//
// File format (one request per line, '#' comments ignored):
//     <time> <client> <object-or-url> [size]
// where <object-or-url> is either a decimal dense object id or any
// non-numeric token (e.g. a URL), which the reader maps to dense ids in
// first-seen order. One file uses one kind throughout. Client ids must fit
// 32 bits and object ids must be below 2^32 - 1, so the universe (largest
// id + 1) fits an ObjectNum.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "workload/trace_source.hpp"

namespace webcache::workload {

/// Per-record consumer for the streaming readers/generators.
using RequestSink = std::function<void(const Request&)>;

/// Streaming text reader: parses `in` line by line (std::from_chars, no
/// stream extraction) and hands each request to `sink` without ever holding
/// the trace — the bounded-memory half of `trace compile`. Returns the
/// object universe size (max id + 1, URLs mapped to dense ids in first-seen
/// order). Throws std::runtime_error naming the 1-based line number and the
/// offending token on malformed input: a bad field, an id that does not fit,
/// or the first object token of the other kind (empty input is fine).
ObjectNum read_trace_stream(std::istream& in, const RequestSink& sink);

/// Reads a trace from a stream/file. Throws std::runtime_error on malformed
/// input (wrong arity, non-numeric time/client, empty file is fine).
[[nodiscard]] Trace read_trace(std::istream& in);
[[nodiscard]] Trace read_trace_file(const std::string& path);

/// Writes a trace in the text format (dense ids, size column included).
/// Buffered: rows are formatted with std::to_chars into a chunk that is
/// flushed in bulk, not streamed token by token.
void write_trace(std::ostream& out, const Trace& trace);
void write_trace_file(const std::string& path, const Trace& trace);

}  // namespace webcache::workload
