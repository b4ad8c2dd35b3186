// The NameNode: the metadata authority of the simulated DFS.
//
// Mirrors HDFS's split (paper Sec. IV-C): the NameNode owns the directory
// tree, the block map and the block -> DataNode location map; DataNodes hold
// the actual replica state.  Custody "inquires the NameNode" for the
// locations of a job's input blocks — that inquiry is `locations()` here.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "dfs/block.h"

namespace custody::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace custody::snap

namespace custody::dfs {

class NameNode {
 public:
  /// Register a new file and carve it into blocks of at most `block_bytes`.
  /// Returns the new file's id.  Paths must be unique.
  FileId create_file(const std::string& path, double bytes, double block_bytes,
                     int replication);

  /// Remove a file and all its block metadata (replica lists included).
  void delete_file(FileId file);

  [[nodiscard]] std::optional<FileId> lookup(const std::string& path) const;
  [[nodiscard]] const FileInfo& file(FileId id) const;
  [[nodiscard]] bool has_block(BlockId id) const {
    return blocks_.count(id) != 0;
  }
  [[nodiscard]] const BlockInfo& block(BlockId id) const;
  [[nodiscard]] const std::vector<BlockId>& blocks_of(FileId id) const;

  /// Nodes currently holding a replica of `block` (sorted by node id).
  [[nodiscard]] const std::vector<NodeId>& locations(BlockId block) const;
  [[nodiscard]] bool is_local(BlockId block, NodeId node) const;

  void add_replica(BlockId block, NodeId node);
  /// Removes a replica; refuses to remove the last one.
  void remove_replica(BlockId block, NodeId node);

  [[nodiscard]] std::size_t num_files() const { return files_.size(); }
  [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }

  /// All block ids, in creation order (for test sweeps).
  [[nodiscard]] std::vector<BlockId> all_blocks() const;

  /// Blocks with a replica on `node`, ordered by block id — the inverse of
  /// the location map, maintained incrementally by add/remove_replica.
  /// Iterating it is equivalent to the all_blocks() scan filtered by
  /// is_local(b, node), at O(blocks-on-node) instead of O(all blocks).
  [[nodiscard]] const std::set<BlockId>& blocks_on(NodeId node) const;

  /// Serialize the replica location map (the only state that moves during a
  /// run — file and block metadata are recreated identically by dataset
  /// materialization).  RestoreFrom targets a NameNode holding the same
  /// catalog and rebuilds the node -> blocks inverse index; it rejects a
  /// replica list that is empty, not strictly ascending, or names a node at
  /// or above `num_nodes`.
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r, std::size_t num_nodes);

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);

  std::unordered_map<FileId, FileInfo> files_;
  std::unordered_map<std::string, FileId> by_path_;
  std::unordered_map<BlockId, BlockInfo> blocks_;
  std::unordered_map<BlockId, std::vector<NodeId>> replicas_;
  std::unordered_map<NodeId, std::set<BlockId>> blocks_on_node_;
  FileId::value_type next_file_ = 0;
  BlockId::value_type next_block_ = 0;
};

}  // namespace custody::dfs
