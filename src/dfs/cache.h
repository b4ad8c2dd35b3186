// In-memory block caching on worker nodes.
//
// The paper's executor model is E_u = {D_x : E_u stores *or caches* D_x}
// (Sec. III-A): a block a node has recently pulled over the network is as
// local as one on its disk.  BlockCache implements that second clause — a
// per-node LRU cache of remotely-read blocks — and maintains the *merged*
// block -> nodes map (disk replicas + cached copies) that the Custody
// allocator and delay scheduler consult.
//
// Two kinds of query exist on purpose:
//   - peek_cached() answers scheduling inquiries ("would this task be local
//     there?") without touching LRU recency or the hit counters — an
//     inquiry is not a read, and the dispatch hot path may ask thousands of
//     times per decision.
//   - record_cached_read() is called when a task actually reads a cached
//     copy: it refreshes recency and counts the hit.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "dfs/dfs.h"

namespace custody::obs {
class Tracer;
}

namespace custody::dfs {

struct CacheStats {
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t hits = 0;    ///< cached reads (record_cached_read / is_cached)
  std::uint64_t lookups = 0; ///< total read-path queries
};

class BlockCache {
 public:
  /// Observes cached-copy churn: fires with cached=true when a node gains a
  /// cached copy of a block, cached=false when it loses one (eviction or
  /// node failure).  Lets the dispatch index track cache locality without
  /// rescanning.
  using ChangeListener = std::function<void(BlockId, NodeId, bool cached)>;
  using ListenerId = std::uint64_t;

  /// `capacity_bytes` is the per-node cache budget; 0 disables caching.
  /// Subscribes to `dfs`'s replica changes, which must outlive the cache.
  BlockCache(const Dfs& dfs, double capacity_bytes);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  [[nodiscard]] bool enabled() const { return capacity_bytes_ > 0.0; }

  /// Record that `node` now holds a cached copy of `block`; evicts LRU
  /// blocks if the node's budget is exceeded.  No-op when the block is
  /// already cached there (it is just touched) or already on disk there.
  void insert(NodeId node, BlockId block);

  /// True when the node holds a *cached* copy (disk replicas not counted).
  /// Touches LRU recency and counts a hit — use for actual reads; tests of
  /// the cache itself also use it as the observable query.
  [[nodiscard]] bool is_cached(NodeId node, BlockId block);

  /// Non-mutating is_cached: no LRU touch, no stats.  The scheduling paths
  /// use this so that locality *inquiries* cannot perturb eviction order.
  [[nodiscard]] bool peek_cached(NodeId node, BlockId block) const;

  /// A task on `node` actually read its block from the local cache:
  /// refresh recency and count the hit.
  void record_cached_read(NodeId node, BlockId block);

  /// Live disk replicas plus cached copies, sorted by node id.  The
  /// reference stays valid until the next insert, eviction or disk replica
  /// change touching the block.
  [[nodiscard]] const std::vector<NodeId>& merged_locations(
      BlockId block) const;

  /// Nodes currently holding a cached copy of `block` (unsorted; empty when
  /// none).
  [[nodiscard]] const std::vector<NodeId>& cached_holders(BlockId block) const;

  /// Like Dfs::is_local but including cached copies (touches LRU).
  [[nodiscard]] bool is_local(BlockId block, NodeId node);

  /// Drop everything a failed node cached (its memory is gone).
  void fail_node(NodeId node);

  ListenerId add_change_listener(ChangeListener fn);
  void remove_change_listener(ListenerId id);

  /// Optional span tracing (null disables; the default).  LRU evictions and
  /// failure invalidations are recorded as instants (the Tracer supplies the
  /// timestamps — the cache itself holds no clock); tracing never changes
  /// eviction order.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] double bytes_on(NodeId node) const;

  /// Serialize per-node LRU lists (recency order is state), the cached-on
  /// working sets and the hit counters.  The restore rebuilds the merged
  /// location map from the working sets and the DFS, which must be
  /// restored first.  Listeners and tracer are left untouched.
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);

  struct NodeCache {
    std::list<BlockId> lru;  ///< front = most recently used
    std::unordered_map<BlockId, std::list<BlockId>::iterator> index;
    double bytes = 0.0;
  };

  void touch(NodeCache& cache, BlockId block);
  void evict_lru(NodeId node, NodeCache& cache);
  void rebuild_merged(BlockId block);
  void notify(BlockId block, NodeId node, bool cached);

  const Dfs& dfs_;
  /// Keeps merged_ live when disk replicas move (node failover).
  Dfs::ListenerId dfs_listener_ = 0;
  double capacity_bytes_;
  std::vector<NodeCache> nodes_;
  /// block -> nodes caching it (unsorted working set)
  std::unordered_map<BlockId, std::vector<NodeId>> cached_on_;
  /// block -> disk ∪ cache locations for every block ever cached (the
  /// keys of cached_on_), rebuilt on cache churn and on disk replica
  /// changes of the block
  std::unordered_map<BlockId, std::vector<NodeId>> merged_;
  struct Listener {
    ListenerId id;
    ChangeListener fn;
  };
  std::vector<Listener> listeners_;
  ListenerId next_listener_ = 1;
  CacheStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace custody::dfs
