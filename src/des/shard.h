// Sharded-simulation building blocks: contiguous index partitioning and a
// deterministic k-way merge of per-shard sorted event logs.
//
// The fleet simulator splits the cluster's node index space into contiguous
// shards, runs each shard on a private Engine, and merges the per-shard
// ordered event logs back into one global stream.  Both helpers here are
// pure functions of their inputs — shard boundaries depend only on
// (item count, shard count), never on worker-thread count, and the merge is
// a stable total order — which is what makes the sharded simulation
// byte-identical at any --threads (see DESIGN.md "Sharded simulation
// determinism").
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace gpures::des {

/// Contiguous [begin, end) slice of an index space.
struct IndexRange {
  std::int32_t begin = 0;
  std::int32_t end = 0;  ///< exclusive

  std::int32_t size() const { return end - begin; }
  bool contains(std::int32_t i) const { return i >= begin && i < end; }
};

/// Split [0, n) into `shards` contiguous ranges whose sizes differ by at
/// most one (the first n % shards ranges get the extra item).  `shards` is
/// clamped to [1, max(n, 1)], so every returned range is non-empty.
inline std::vector<IndexRange> partition_range(std::int32_t n,
                                               std::int32_t shards) {
  if (n < 0) n = 0;
  shards = std::clamp<std::int32_t>(shards, 1, std::max<std::int32_t>(n, 1));
  std::vector<IndexRange> out;
  out.reserve(static_cast<std::size_t>(shards));
  const std::int32_t base = n / shards;
  const std::int32_t extra = n % shards;
  std::int32_t at = 0;
  for (std::int32_t s = 0; s < shards; ++s) {
    const std::int32_t len = base + (s < extra ? 1 : 0);
    out.push_back({at, at + len});
    at += len;
  }
  return out;
}

/// Default shard sizing: one shard per `per_shard` items, clamped to
/// [1, max_shards].  Deliberately independent of thread count — the shard
/// structure defines the simulation, threads only decide who runs it.
inline std::int32_t auto_shard_count(std::int32_t items, std::int32_t per_shard,
                                     std::int32_t max_shards) {
  if (items <= 0 || per_shard <= 0) return 1;
  const std::int32_t want = (items + per_shard - 1) / per_shard;
  return std::clamp<std::int32_t>(want, 1, std::max<std::int32_t>(max_shards, 1));
}

/// Stable k-way merge of per-shard vectors, each already sorted under
/// `less`: calls fn(T&) on every element in merged order, repeatedly taking
/// the smallest head and breaking cross-shard ties toward the lower shard
/// index.  The order is a pure function of the inputs, independent of how
/// the shards were produced.  `fn` may move from the element it is given;
/// the merge never looks at it again.
template <typename T, typename Less, typename Fn>
void for_each_merged(std::span<std::vector<T>* const> shards, Less less,
                     Fn&& fn) {
  // Head cursor per shard; a binary heap of shard indices keyed by the head
  // element (ties toward lower shard index).
  std::vector<std::size_t> pos(shards.size(), 0);
  const auto head_after = [&](std::size_t a, std::size_t b) {
    const T& ea = (*shards[a])[pos[a]];
    const T& eb = (*shards[b])[pos[b]];
    if (less(ea, eb)) return false;
    if (less(eb, ea)) return true;
    return a > b;
  };
  std::vector<std::size_t> heads;
  heads.reserve(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (!shards[s]->empty()) heads.push_back(s);
  }
  std::make_heap(heads.begin(), heads.end(), head_after);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), head_after);
    const std::size_t s = heads.back();
    heads.pop_back();
    fn((*shards[s])[pos[s]]);
    if (++pos[s] < shards[s]->size()) {
      heads.push_back(s);
      std::push_heap(heads.begin(), heads.end(), head_after);
    }
  }
}

/// for_each_merged over owned shard vectors, collected into one vector.
template <typename T, typename Less>
std::vector<T> merge_sorted_shards(std::vector<std::vector<T>>&& shards,
                                   Less less) {
  std::vector<std::vector<T>*> views;
  std::size_t total = 0;
  views.reserve(shards.size());
  for (auto& s : shards) {
    views.push_back(&s);
    total += s.size();
  }
  std::vector<T> out;
  out.reserve(total);
  for_each_merged(std::span<std::vector<T>* const>(views), less,
                  [&out](T& e) { out.push_back(std::move(e)); });
  return out;
}

}  // namespace gpures::des
