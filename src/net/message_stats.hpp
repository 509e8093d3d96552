// Message and byte accounting for the protocol mechanisms whose overhead the
// paper argues about qualitatively: piggybacking destaged objects onto HTTP
// responses (Section 4.4), the push protocol through the firewall
// (Section 4.5), store receipts and directory updates (Section 4.3).
// The ablation benches quantify these.
#pragma once

#include <cstdint>
#include <string>

#include "obs/registry.hpp"

namespace webcache::net {

struct MessageStats {
  // --- destaging (proxy -> P2P client cache) ---
  std::uint64_t destage_piggybacked = 0;   ///< evictions riding on responses
  std::uint64_t destage_dedicated = 0;     ///< evictions needing a new message
  std::uint64_t destage_bytes = 0;         ///< payload bytes destaged
  std::uint64_t pastry_forward_messages = 0;  ///< client -> destination routing msgs

  // --- object diversion within leaf sets ---
  std::uint64_t diversions = 0;            ///< objects stored at a leaf-set peer
  std::uint64_t diversion_pointer_lookups = 0;  ///< extra hop via diversion pointer

  // --- lookup directory maintenance ---
  std::uint64_t store_receipts = 0;        ///< client cache -> proxy receipts
  std::uint64_t directory_adds = 0;
  std::uint64_t directory_removes = 0;

  // --- push protocol (remote proxy fetches from our P2P cache) ---
  std::uint64_t push_requests = 0;         ///< proxy-routed push requests
  std::uint64_t push_transfers = 0;        ///< client cache -> proxy pushes

  // --- directory accuracy ---
  std::uint64_t directory_false_positives = 0;  ///< wasted P2P lookups (Bloom)
  std::uint64_t directory_true_positives = 0;

  // --- fault injection (LossModel) ---
  std::uint64_t p2p_messages_lost = 0;  ///< P2P transfers lost to injected faults
  std::uint64_t p2p_retries = 0;        ///< retransmissions after a loss/timeout

  void merge(const MessageStats& other) {
    destage_piggybacked += other.destage_piggybacked;
    destage_dedicated += other.destage_dedicated;
    destage_bytes += other.destage_bytes;
    pastry_forward_messages += other.pastry_forward_messages;
    diversions += other.diversions;
    diversion_pointer_lookups += other.diversion_pointer_lookups;
    store_receipts += other.store_receipts;
    directory_adds += other.directory_adds;
    directory_removes += other.directory_removes;
    push_requests += other.push_requests;
    push_transfers += other.push_transfers;
    directory_false_positives += other.directory_false_positives;
    directory_true_positives += other.directory_true_positives;
    p2p_messages_lost += other.p2p_messages_lost;
    p2p_retries += other.p2p_retries;
  }

  /// Messages a non-piggybacking implementation would have sent for
  /// destaging: one dedicated connection per evicted object.
  [[nodiscard]] std::uint64_t destage_messages_without_piggyback() const {
    return destage_piggybacked + destage_dedicated;
  }
};

/// Registry-backed handles for the MessageStats fields. Components that
/// account protocol messages (the simulator, P2PClientCache) bind one of
/// these against an obs::Registry with a naming prefix (e.g. "net.",
/// "cluster0.net.") and increment the counters directly; `view()` rebuilds
/// the legacy MessageStats struct from the registry, so the struct is a
/// read-time view rather than parallel bookkeeping.
class MessageCounters {
 public:
  MessageCounters(obs::Registry& registry, const std::string& prefix);

  obs::Counter& destage_piggybacked;
  obs::Counter& destage_dedicated;
  obs::Counter& destage_bytes;
  obs::Counter& pastry_forward_messages;
  obs::Counter& diversions;
  obs::Counter& diversion_pointer_lookups;
  obs::Counter& store_receipts;
  obs::Counter& directory_adds;
  obs::Counter& directory_removes;
  obs::Counter& push_requests;
  obs::Counter& push_transfers;
  obs::Counter& directory_false_positives;
  obs::Counter& directory_true_positives;
  obs::Counter& p2p_messages_lost;
  obs::Counter& p2p_retries;

  [[nodiscard]] MessageStats view() const;
};

}  // namespace webcache::net
