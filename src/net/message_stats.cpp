#include "net/message_stats.hpp"

namespace webcache::net {

MessageCounters::MessageCounters(obs::Registry& registry, const std::string& prefix)
    : destage_piggybacked(registry.counter(prefix + "destage_piggybacked")),
      destage_dedicated(registry.counter(prefix + "destage_dedicated")),
      destage_bytes(registry.counter(prefix + "destage_bytes")),
      pastry_forward_messages(registry.counter(prefix + "pastry_forward_messages")),
      diversions(registry.counter(prefix + "diversions")),
      diversion_pointer_lookups(registry.counter(prefix + "diversion_pointer_lookups")),
      store_receipts(registry.counter(prefix + "store_receipts")),
      directory_adds(registry.counter(prefix + "directory_adds")),
      directory_removes(registry.counter(prefix + "directory_removes")),
      push_requests(registry.counter(prefix + "push_requests")),
      push_transfers(registry.counter(prefix + "push_transfers")),
      directory_false_positives(registry.counter(prefix + "directory_false_positives")),
      directory_true_positives(registry.counter(prefix + "directory_true_positives")),
      p2p_messages_lost(registry.counter(prefix + "p2p_messages_lost")),
      p2p_retries(registry.counter(prefix + "p2p_retries")) {}

MessageStats MessageCounters::view() const {
  MessageStats stats;
  stats.destage_piggybacked = destage_piggybacked.value();
  stats.destage_dedicated = destage_dedicated.value();
  stats.destage_bytes = destage_bytes.value();
  stats.pastry_forward_messages = pastry_forward_messages.value();
  stats.diversions = diversions.value();
  stats.diversion_pointer_lookups = diversion_pointer_lookups.value();
  stats.store_receipts = store_receipts.value();
  stats.directory_adds = directory_adds.value();
  stats.directory_removes = directory_removes.value();
  stats.push_requests = push_requests.value();
  stats.push_transfers = push_transfers.value();
  stats.directory_false_positives = directory_false_positives.value();
  stats.directory_true_positives = directory_true_positives.value();
  stats.p2p_messages_lost = p2p_messages_lost.value();
  stats.p2p_retries = p2p_retries.value();
  return stats;
}

}  // namespace webcache::net
