#include "dfs/cache.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/snapshot.h"
#include "obs/trace.h"

namespace custody::dfs {

BlockCache::BlockCache(const Dfs& dfs, double capacity_bytes)
    : dfs_(dfs),
      capacity_bytes_(capacity_bytes),
      nodes_(dfs.num_nodes()) {
  // An entry holds the disk replicas as of its last rebuild; when a
  // failover moves them, rebuild it, or merged_locations would offer a
  // dead node as a read source.  Blocks without an entry read the DFS.
  dfs_listener_ = dfs_.add_replica_listener(
      [this](BlockId block, NodeId /*node*/, bool /*added*/) {
        if (merged_.count(block) > 0) rebuild_merged(block);
      });
}

BlockCache::~BlockCache() { dfs_.remove_replica_listener(dfs_listener_); }

void BlockCache::touch(NodeCache& cache, BlockId block) {
  auto it = cache.index.find(block);
  assert(it != cache.index.end());
  cache.lru.splice(cache.lru.begin(), cache.lru, it->second);
}

void BlockCache::notify(BlockId block, NodeId node, bool cached) {
  for (const Listener& listener : listeners_) listener.fn(block, node, cached);
}

void BlockCache::evict_lru(NodeId node, NodeCache& cache) {
  assert(!cache.lru.empty());
  const BlockId victim = cache.lru.back();
  cache.lru.pop_back();
  cache.index.erase(victim);
  cache.bytes -= dfs_.block(victim).bytes;
  ++stats_.evictions;

  auto& holders = cached_on_[victim];
  holders.erase(std::remove(holders.begin(), holders.end(), node),
                holders.end());
  rebuild_merged(victim);
  if (tracer_ != nullptr) {
    tracer_->instant({.node = obs::IdOf(node),
                      .block = obs::IdOf(victim),
                      .kind = obs::EventKind::kCacheEvict});
  }
  notify(victim, node, false);
}

void BlockCache::rebuild_merged(BlockId block) {
  std::vector<NodeId> merged = dfs_.locations(block);
  auto it = cached_on_.find(block);
  if (it != cached_on_.end()) {
    merged.insert(merged.end(), it->second.begin(), it->second.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  merged_[block] = std::move(merged);
}

void BlockCache::insert(NodeId node, BlockId block) {
  if (!enabled()) return;
  assert(node.value() < nodes_.size());
  NodeCache& cache = nodes_[node.value()];
  if (cache.index.count(block)) {
    touch(cache, block);
    return;
  }
  if (dfs_.is_local(block, node)) return;  // disk copy already there
  const double bytes = dfs_.block(block).bytes;
  if (bytes > capacity_bytes_) return;  // would never fit
  // The emptiness test only matters for a restored byte count that
  // overstates the list: a live one never does.
  while (!cache.lru.empty() && cache.bytes + bytes > capacity_bytes_) {
    evict_lru(node, cache);
  }

  cache.lru.push_front(block);
  cache.index[block] = cache.lru.begin();
  cache.bytes += bytes;
  ++stats_.insertions;
  cached_on_[block].push_back(node);
  rebuild_merged(block);
  notify(block, node, true);
}

bool BlockCache::is_cached(NodeId node, BlockId block) {
  ++stats_.lookups;
  if (!enabled()) return false;
  NodeCache& cache = nodes_[node.value()];
  auto it = cache.index.find(block);
  if (it == cache.index.end()) return false;
  touch(cache, block);
  ++stats_.hits;
  return true;
}

bool BlockCache::peek_cached(NodeId node, BlockId block) const {
  if (!enabled()) return false;
  assert(node.value() < nodes_.size());
  return nodes_[node.value()].index.count(block) > 0;
}

void BlockCache::record_cached_read(NodeId node, BlockId block) {
  (void)is_cached(node, block);
}

const std::vector<NodeId>& BlockCache::merged_locations(BlockId block) const {
  auto it = merged_.find(block);
  if (it != merged_.end()) return it->second;
  return dfs_.locations(block);  // nothing cached: disk replicas as-is
}

const std::vector<NodeId>& BlockCache::cached_holders(BlockId block) const {
  static const std::vector<NodeId> kEmpty;
  auto it = cached_on_.find(block);
  return it == cached_on_.end() ? kEmpty : it->second;
}

bool BlockCache::is_local(BlockId block, NodeId node) {
  return dfs_.is_local(block, node) || is_cached(node, block);
}

void BlockCache::fail_node(NodeId node) {
  if (!enabled()) return;
  NodeCache& cache = nodes_[node.value()];
  const std::vector<BlockId> held(cache.lru.begin(), cache.lru.end());
  cache.lru.clear();
  cache.index.clear();
  cache.bytes = 0.0;
  for (BlockId block : held) {
    auto& holders = cached_on_[block];
    holders.erase(std::remove(holders.begin(), holders.end(), node),
                  holders.end());
    rebuild_merged(block);
    if (tracer_ != nullptr) {
      tracer_->instant({.node = obs::IdOf(node),
                        .block = obs::IdOf(block),
                        .kind = obs::EventKind::kCacheInvalidate});
    }
    notify(block, node, false);
  }
}

template <class Self, class Io>
void BlockCache::Fields(Self& self, Io& io) {
  double capacity = self.capacity_bytes_;
  io.f64(capacity);
  if (capacity != self.capacity_bytes_) {
    throw snap::SnapshotError(
        "BlockCache capacity mismatch: snapshot has " +
        std::to_string(capacity) + " bytes/node, this cache has " +
        std::to_string(self.capacity_bytes_));
  }
  std::size_t nodes = self.nodes_.size();
  io.size(nodes);
  if (nodes != self.nodes_.size()) {
    throw snap::SnapshotError("BlockCache node count mismatch: snapshot has " +
                              std::to_string(nodes) + ", this cache has " +
                              std::to_string(self.nodes_.size()));
  }
  for (auto& cache : self.nodes_) {
    // Front (MRU) first.
    snap::Seq(io, cache.lru, [&io](auto& block) { io.u32(block); });
    io.f64(cache.bytes);
  }
  // In sorted-key order so the bytes are stable; each holder list
  // verbatim.  The restore rebuilds a merged list per entry from the DFS,
  // and readers index per-node tables by the holders, so a block must be
  // known and a holder on the cluster.
  snap::SortedMap(io, self.cached_on_, "BlockCache: repeated block",
                  [&](BlockId block, auto& holders) {
    snap::Seq(io, holders, [&io](auto& n) { io.u32(n); });
    if (!self.dfs_.namenode().has_block(block) ||
        std::any_of(holders.begin(), holders.end(),
                    [nodes](NodeId n) { return n.value() >= nodes; })) {
      throw snap::SnapshotError("BlockCache: bad holder list for block " +
                                std::to_string(block.value()));
    }
  });
  io.u64(self.stats_.insertions);
  io.u64(self.stats_.evictions);
  io.u64(self.stats_.hits);
  io.u64(self.stats_.lookups);
}

void BlockCache::SaveTo(snap::SnapshotWriter& w) const { Fields(*this, w); }

void BlockCache::RestoreFrom(snap::SnapshotReader& r) {
  Fields(*this, r);
  // The merged map has an entry exactly where cached_on_ has one (each is
  // made by rebuild_merged right after a holder change, and neither is
  // ever erased), built from the DFS restored before the cache.
  merged_.clear();
  for (const auto& entry : cached_on_) rebuild_merged(entry.first);
  for (NodeCache& cache : nodes_) {
    cache.index.clear();
    for (auto it = cache.lru.begin(); it != cache.lru.end(); ++it) {
      if (!dfs_.namenode().has_block(*it) ||
          !cache.index.emplace(*it, it).second) {
        throw snap::SnapshotError("BlockCache: unknown or repeated block " +
                                  std::to_string(it->value()) +
                                  " in a node's LRU list");
      }
    }
  }
}

BlockCache::ListenerId BlockCache::add_change_listener(ChangeListener fn) {
  const ListenerId id = next_listener_++;
  listeners_.push_back({id, std::move(fn)});
  return id;
}

void BlockCache::remove_change_listener(ListenerId id) {
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->id == id) {
      listeners_.erase(it);
      return;
    }
  }
}

double BlockCache::bytes_on(NodeId node) const {
  assert(node.value() < nodes_.size());
  return nodes_[node.value()].bytes;
}

}  // namespace custody::dfs
