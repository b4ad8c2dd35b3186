#include "dfs/namenode.h"

#include <algorithm>
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

  const FileId id(static_cast<FileId::value_type>(files_.size()));
  FileInfo info;
  info.id = id;
  info.path = path;
  info.bytes = bytes;
  info.replication = replication;

  const auto num_blocks =
      static_cast<std::uint32_t>(std::ceil(bytes / block_bytes));
  info.blocks.reserve(num_blocks);
  double left = bytes;
  for (std::uint32_t i = 0; i < num_blocks; ++i) {
    const BlockId bid(static_cast<BlockId::value_type>(blocks_.size()));
    BlockInfo block;
    block.id = bid;
    block.file = id;
    block.index = i;
    block.bytes = std::min(block_bytes, left);
    left -= block.bytes;
    blocks_.push_back(block);
    replicas_.emplace_back().reserve(static_cast<std::size_t>(replication));
    info.blocks.push_back(bid);
  }

  by_path_.emplace(path, id);
  files_.push_back(std::move(info));
  return id;
}

std::optional<FileId> NameNode::lookup(const std::string& path) const {
  auto it = by_path_.find(path);
  if (it == by_path_.end()) return std::nullopt;
  return it->second;
}

const FileInfo& NameNode::file(FileId id) const {
  if (id.value() >= files_.size()) {
    throw std::invalid_argument("NameNode: no such file");
  }
  return files_[id.value()];
}

const BlockInfo& NameNode::block(BlockId id) const {
  if (!has_block(id)) throw std::invalid_argument("NameNode: no such block");
  return blocks_[id.value()];
}

const std::vector<BlockId>& NameNode::blocks_of(FileId id) const {
  return file(id).blocks;
}

const std::vector<NodeId>& NameNode::locations(BlockId block) const {
  if (!has_block(block)) throw std::invalid_argument("NameNode: no such block");
  return replicas_[block.value()];
}

bool NameNode::is_local(BlockId block, NodeId node) const {
  const auto& locs = locations(block);
  return std::binary_search(locs.begin(), locs.end(), node);
}

void NameNode::add_replica(BlockId block, NodeId node) {
  if (!has_block(block)) throw std::invalid_argument("NameNode: no such block");
  auto& locs = replicas_[block.value()];
  const auto pos = std::lower_bound(locs.begin(), locs.end(), node);
  if (pos != locs.end() && *pos == node) {
    throw std::invalid_argument("NameNode: replica already on node");
  }
  locs.insert(pos, node);
}

void NameNode::remove_replica(BlockId block, NodeId node) {
  if (!has_block(block)) throw std::invalid_argument("NameNode: no such block");
  auto& locs = replicas_[block.value()];
  if (locs.size() <= 1) {
    throw std::logic_error("NameNode: refusing to remove the last replica");
  }
  const auto pos = std::lower_bound(locs.begin(), locs.end(), node);
  if (pos == locs.end() || *pos != node) {
    throw std::invalid_argument("NameNode: no replica on node");
  }
  locs.erase(pos);
}

std::vector<BlockId> NameNode::blocks_on(NodeId node) const {
  std::vector<BlockId> out;
  for (std::size_t b = 0; b < replicas_.size(); ++b) {
    const auto& locs = replicas_[b];
    if (std::binary_search(locs.begin(), locs.end(), node)) {
      out.push_back(BlockId(static_cast<BlockId::value_type>(b)));
    }
  }
  return out;
}

template <class Self, class Io>
void NameNode::Fields(Self& self, Io& io) {
  // The catalog is recreated by dataset materialization; its shape is
  // written so a restore can check that it targets the same one.  Ids are
  // dense, so the next ids to issue are the table sizes.
  const auto num_files = static_cast<FileId::value_type>(self.files_.size());
  const auto num_blocks =
      static_cast<BlockId::value_type>(self.blocks_.size());
  auto next_file = num_files;
  auto next_block = num_blocks;
  std::size_t files = self.files_.size();
  std::size_t blocks = self.blocks_.size();
  io.u32(next_file);
  io.u32(next_block);
  io.size(files);
  io.size(blocks);
  if (next_file != num_files || next_block != num_blocks ||
      files != self.files_.size() || blocks != self.blocks_.size()) {
    throw snap::SnapshotError(
        "NameNode catalog mismatch: snapshot has " + std::to_string(files) +
        " files / " + std::to_string(blocks) + " blocks, this namenode has " +
        std::to_string(self.files_.size()) + " / " +
        std::to_string(self.blocks_.size()));
  }
  // Per block its id and replica list, in id order (deterministic bytes).
  for (std::size_t k = 0; k < blocks; ++k) {
    auto id = static_cast<BlockId::value_type>(k);
    io.u32(id);
    if (id >= num_blocks) {
      throw snap::SnapshotError("NameNode: snapshot names unknown block " +
                                std::to_string(id));
    }
    snap::Seq(io, self.replicas_[id], [&io](auto& n) { io.u32(n); });
  }
}

void NameNode::SaveTo(snap::SnapshotWriter& w) const { Fields(*this, w); }

void NameNode::RestoreFrom(snap::SnapshotReader& r, std::size_t num_nodes) {
  Fields(*this, r);
  for (std::size_t b = 0; b < replicas_.size(); ++b) {
    const auto& locs = replicas_[b];
    // Readers index per-node tables by these ids and binary-search the
    // list (is_local), and a block never loses its last replica.
    if (locs.empty() || locs.back().value() >= num_nodes ||
        std::adjacent_find(locs.begin(), locs.end(), std::greater_equal<>()) !=
            locs.end()) {
      throw snap::SnapshotError("NameNode: block " + std::to_string(b) +
                                " needs a strictly ascending, non-empty"
                                " replica list of nodes below " +
                                std::to_string(num_nodes));
    }
  }
}

std::vector<BlockId> NameNode::all_blocks() const {
  std::vector<BlockId> out;
  out.reserve(blocks_.size());
  for (const BlockInfo& block : blocks_) out.push_back(block.id);
  return out;
}

}  // namespace custody::dfs
