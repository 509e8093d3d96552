#include "workload/trace_source.hpp"

namespace webcache::workload {

Trace materialize(const TraceSource& source) {
  Trace trace;
  trace.universe = source.distinct_objects();
  const auto all = source.window(0, static_cast<std::size_t>(source.size()));
  trace.requests.assign(all.begin(), all.end());
  return trace;
}

}  // namespace webcache::workload
