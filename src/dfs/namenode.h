// The NameNode: the metadata authority of the simulated DFS.
//
// Mirrors HDFS's split (paper Sec. IV-C): the NameNode owns the directory
// tree, the block map and the block -> DataNode location map; DataNodes hold
// the actual replica state.  Custody "inquires the NameNode" for the
// locations of a job's input blocks — that inquiry is `locations()` here.
#pragma once

#include <optional>
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

/// File and block ids are issued densely from 0 and never retired, so the
/// catalog and the replica map are tables indexed by id.
class NameNode {
 public:
  /// Register a new file and carve it into blocks of at most `block_bytes`.
  /// Returns the new file's id.  Paths must be unique.
  FileId create_file(const std::string& path, double bytes, double block_bytes,
                     int replication);

  [[nodiscard]] std::optional<FileId> lookup(const std::string& path) const;
  [[nodiscard]] const FileInfo& file(FileId id) const;
  [[nodiscard]] bool has_block(BlockId id) const {
    return id.value() < blocks_.size();
  }
  [[nodiscard]] const BlockInfo& block(BlockId id) const;
  [[nodiscard]] const std::vector<BlockId>& blocks_of(FileId id) const;

  /// Nodes currently holding a replica of `block` (sorted by node id).
  [[nodiscard]] const std::vector<NodeId>& locations(BlockId block) const;
  [[nodiscard]] bool is_local(BlockId block, NodeId node) const;

  void add_replica(BlockId block, NodeId node);
  /// Removes a replica; refuses to remove the last one.
  void remove_replica(BlockId block, NodeId node);

  /// All block ids, in creation order (for test sweeps).
  [[nodiscard]] std::vector<BlockId> all_blocks() const;

  /// Blocks with a replica on `node`, ascending by id: one scan of the
  /// replica table.  Only node failure asks, a few times a run, so no
  /// node -> blocks index is kept up to date on every replica change.
  [[nodiscard]] std::vector<BlockId> blocks_on(NodeId node) const;

  /// Serialize the replica location map (the only state that moves during a
  /// run — file and block metadata are recreated identically by dataset
  /// materialization).  RestoreFrom targets a NameNode holding the same
  /// catalog; it rejects a block id outside it and a replica list that is
  /// empty, not strictly ascending, or names a node at or above
  /// `num_nodes`.
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r, std::size_t num_nodes);

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);

  std::vector<FileInfo> files_;  ///< indexed by file id
  std::unordered_map<std::string, FileId> by_path_;
  std::vector<BlockInfo> blocks_;  ///< indexed by block id
  /// Per block id its replica nodes, ascending.
  std::vector<std::vector<NodeId>> replicas_;
};

}  // namespace custody::dfs
