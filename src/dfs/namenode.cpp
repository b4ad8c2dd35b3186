#include "dfs/namenode.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "common/snapshot.h"

namespace custody::dfs {

FileId NameNode::create_file(const std::string& path, double bytes,
                             double block_bytes, int replication) {
  if (bytes <= 0.0 || block_bytes <= 0.0) {
    throw std::invalid_argument("NameNode: file and block sizes must be > 0");
  }
  if (replication < 1) {
    throw std::invalid_argument("NameNode: replication must be >= 1");
  }
  if (by_path_.count(path)) {
    throw std::invalid_argument("NameNode: path already exists: " + path);
  }

  const FileId id(next_file_++);
  FileInfo info;
  info.id = id;
  info.path = path;
  info.bytes = bytes;
  info.replication = replication;

  const auto num_blocks =
      static_cast<std::uint32_t>(std::ceil(bytes / block_bytes));
  double left = bytes;
  for (std::uint32_t i = 0; i < num_blocks; ++i) {
    const BlockId bid(next_block_++);
    BlockInfo block;
    block.id = bid;
    block.file = id;
    block.index = i;
    block.bytes = std::min(block_bytes, left);
    left -= block.bytes;
    blocks_.emplace(bid, block);
    replicas_.emplace(bid, std::vector<NodeId>{});
    info.blocks.push_back(bid);
  }

  by_path_.emplace(path, id);
  files_.emplace(id, std::move(info));
  return id;
}

void NameNode::delete_file(FileId file) {
  auto it = files_.find(file);
  if (it == files_.end()) throw std::invalid_argument("NameNode: no such file");
  for (BlockId b : it->second.blocks) {
    if (auto rit = replicas_.find(b); rit != replicas_.end()) {
      for (NodeId n : rit->second) blocks_on_node_[n].erase(b);
    }
    blocks_.erase(b);
    replicas_.erase(b);
  }
  by_path_.erase(it->second.path);
  files_.erase(it);
}

std::optional<FileId> NameNode::lookup(const std::string& path) const {
  auto it = by_path_.find(path);
  if (it == by_path_.end()) return std::nullopt;
  return it->second;
}

const FileInfo& NameNode::file(FileId id) const {
  auto it = files_.find(id);
  if (it == files_.end()) throw std::invalid_argument("NameNode: no such file");
  return it->second;
}

const BlockInfo& NameNode::block(BlockId id) const {
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    throw std::invalid_argument("NameNode: no such block");
  }
  return it->second;
}

const std::vector<BlockId>& NameNode::blocks_of(FileId id) const {
  return file(id).blocks;
}

const std::vector<NodeId>& NameNode::locations(BlockId block) const {
  auto it = replicas_.find(block);
  if (it == replicas_.end()) {
    throw std::invalid_argument("NameNode: no such block");
  }
  return it->second;
}

bool NameNode::is_local(BlockId block, NodeId node) const {
  const auto& locs = locations(block);
  return std::binary_search(locs.begin(), locs.end(), node);
}

void NameNode::add_replica(BlockId block, NodeId node) {
  auto it = replicas_.find(block);
  if (it == replicas_.end()) {
    throw std::invalid_argument("NameNode: no such block");
  }
  auto& locs = it->second;
  const auto pos = std::lower_bound(locs.begin(), locs.end(), node);
  if (pos != locs.end() && *pos == node) {
    throw std::invalid_argument("NameNode: replica already on node");
  }
  locs.insert(pos, node);
  blocks_on_node_[node].insert(block);
}

void NameNode::remove_replica(BlockId block, NodeId node) {
  auto it = replicas_.find(block);
  if (it == replicas_.end()) {
    throw std::invalid_argument("NameNode: no such block");
  }
  auto& locs = it->second;
  if (locs.size() <= 1) {
    throw std::logic_error("NameNode: refusing to remove the last replica");
  }
  const auto pos = std::lower_bound(locs.begin(), locs.end(), node);
  if (pos == locs.end() || *pos != node) {
    throw std::invalid_argument("NameNode: no replica on node");
  }
  locs.erase(pos);
  if (auto nit = blocks_on_node_.find(node); nit != blocks_on_node_.end()) {
    nit->second.erase(block);
  }
}

const std::set<BlockId>& NameNode::blocks_on(NodeId node) const {
  static const std::set<BlockId> kEmpty;
  auto it = blocks_on_node_.find(node);
  return it == blocks_on_node_.end() ? kEmpty : it->second;
}

void NameNode::SaveTo(snap::SnapshotWriter& w) const {
  w.u32(next_file_);
  w.u32(next_block_);
  w.size(files_.size());
  w.size(blocks_.size());
  // Blocks in creation-id order: deterministic bytes, and restore can walk
  // the same sequence without a key lookup table.
  for (BlockId::value_type i = 0; i < next_block_; ++i) {
    const auto it = replicas_.find(BlockId(i));
    if (it == replicas_.end()) continue;
    w.u32(i);
    w.size(it->second.size());
    for (NodeId n : it->second) w.u32(n.value());
  }
}

void NameNode::RestoreFrom(snap::SnapshotReader& r, std::size_t num_nodes) {
  const auto next_file = r.u32();
  const auto next_block = r.u32();
  const std::size_t files = r.size();
  const std::size_t blocks = r.size();
  if (next_file != next_file_ || next_block != next_block_ ||
      files != files_.size() || blocks != blocks_.size()) {
    throw snap::SnapshotError(
        "NameNode catalog mismatch: snapshot has " + std::to_string(files) +
        " files / " + std::to_string(blocks) + " blocks, this namenode has " +
        std::to_string(files_.size()) + " / " + std::to_string(blocks_.size()));
  }
  blocks_on_node_.clear();
  for (std::size_t k = 0; k < blocks; ++k) {
    const BlockId id(r.u32());
    const auto it = replicas_.find(id);
    if (it == replicas_.end()) {
      throw snap::SnapshotError("NameNode: snapshot names unknown block " +
                                std::to_string(id.value()));
    }
    auto& locs = it->second;
    locs.assign(r.size(), NodeId());
    for (NodeId& n : locs) n = NodeId(r.u32());
    // Readers index per-node tables by these ids and binary-search the
    // list (is_local), and a block never loses its last replica.
    if (locs.empty() || locs.back().value() >= num_nodes ||
        std::adjacent_find(locs.begin(), locs.end(), std::greater_equal<>()) !=
            locs.end()) {
      throw snap::SnapshotError("NameNode: block " +
                                std::to_string(id.value()) +
                                " needs a strictly ascending, non-empty"
                                " replica list of nodes below " +
                                std::to_string(num_nodes));
    }
    for (NodeId n : locs) blocks_on_node_[n].insert(id);
  }
}

std::vector<BlockId> NameNode::all_blocks() const {
  std::vector<BlockId> out;
  out.reserve(blocks_.size());
  for (BlockId::value_type i = 0; i < next_block_; ++i) {
    const BlockId id(i);
    if (blocks_.count(id)) out.push_back(id);
  }
  return out;
}

}  // namespace custody::dfs
