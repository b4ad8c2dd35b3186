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

template <class Self, class Io>
void NameNode::Fields(Self& self, Io& io) {
  // The catalog is recreated by dataset materialization; its shape is
  // written so a restore can check that it targets the same one.
  auto next_file = self.next_file_;
  auto next_block = self.next_block_;
  std::size_t files = self.files_.size();
  std::size_t blocks = self.blocks_.size();
  io.u32(next_file);
  io.u32(next_block);
  io.size(files);
  io.size(blocks);
  if (next_file != self.next_file_ || next_block != self.next_block_ ||
      files != self.files_.size() || blocks != self.blocks_.size()) {
    throw snap::SnapshotError(
        "NameNode catalog mismatch: snapshot has " + std::to_string(files) +
        " files / " + std::to_string(blocks) + " blocks, this namenode has " +
        std::to_string(self.files_.size()) + " / " +
        std::to_string(self.blocks_.size()));
  }
  // Per block its id and replica list, in creation-id order (deterministic
  // bytes): saving walks the ids issued, skipping deleted blocks.
  BlockId::value_type next = 0;
  for (std::size_t k = 0; k < blocks; ++k) {
    auto it = self.replicas_.end();
    if constexpr (Io::kLoading) {
      const BlockId id(io.u32());
      it = self.replicas_.find(id);
      if (it == self.replicas_.end()) {
        throw snap::SnapshotError("NameNode: snapshot names unknown block " +
                                  std::to_string(id.value()));
      }
    } else {
      do {
        it = self.replicas_.find(BlockId(next++));
      } while (it == self.replicas_.end());
      io.u32(it->first);
    }
    snap::Seq(io, it->second, [&io](auto& n) { io.u32(n); });
  }
}

void NameNode::SaveTo(snap::SnapshotWriter& w) const { Fields(*this, w); }

void NameNode::RestoreFrom(snap::SnapshotReader& r, std::size_t num_nodes) {
  Fields(*this, r);
  blocks_on_node_.clear();
  for (const auto& [id, locs] : replicas_) {
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
