#include "workload/trace_source.hpp"

namespace webcache::workload {

Trace materialize(const TraceSource& source) {
  Trace trace;
  trace.universe = source.distinct_objects();
  trace.requests.reserve(static_cast<std::size_t>(source.size()));
  for_each_window(source, [&trace](std::span<const Request> win) {
    trace.requests.insert(trace.requests.end(), win.begin(), win.end());
  });
  return trace;
}

}  // namespace webcache::workload
