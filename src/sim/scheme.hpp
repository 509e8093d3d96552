// The seven caching schemes the paper defines and compares (Section 2-3),
// plus the Squirrel extension used to quantify its related-work comparison.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

namespace webcache::sim {

enum class Scheme {
  kNC,      ///< no cooperation; isolated proxies, LFU
  kSC,      ///< simple cooperation: proxies serve each other's misses, LFU
  kFC,      ///< full cooperation: SC + coordinated cost-benefit replacement
  kNC_EC,   ///< NC with the proxy unified with its (ideal) P2P client cache
  kSC_EC,   ///< SC with unified P2P client caches, shared across proxies
  kFC_EC,   ///< FC with unified P2P client caches, fully coordinated
  kHierGD,  ///< hierarchical greedy-dual over a real Pastry P2P client cache
  /// Extension (not one of the paper's seven): the decentralized proxy-less
  /// design of Iyer/Rowstron/Druschel (PODC'02) that the paper's related-
  /// work section argues against — browser caches pool over Pastry with a
  /// home node per object, no proxy cache, and no sharing across
  /// organizations (firewalls block incoming connections). Implemented so
  /// the Section 6 comparison can be made quantitative.
  kSquirrel,
};

/// The paper's seven schemes (Squirrel is an extension, benchmarked
/// separately).
inline constexpr std::array<Scheme, 7> kAllSchemes = {
    Scheme::kNC,    Scheme::kSC,    Scheme::kFC,    Scheme::kNC_EC,
    Scheme::kSC_EC, Scheme::kFC_EC, Scheme::kHierGD,
};

[[nodiscard]] std::string_view to_string(Scheme scheme);
[[nodiscard]] std::optional<Scheme> scheme_from_string(std::string_view name);

/// True for the schemes where proxies serve each other's misses.
[[nodiscard]] constexpr bool proxies_cooperate(Scheme s) {
  return s == Scheme::kSC || s == Scheme::kFC || s == Scheme::kSC_EC ||
         s == Scheme::kFC_EC || s == Scheme::kHierGD;
}

}  // namespace webcache::sim
