// Persistent idle-executor index — allocation rounds without an O(cluster)
// rebuild.
//
// Rebuilding per-node idle lists from the executor ledger on every round
// costs a mostly-idle 10k-node cluster ~2 ms/event even when the round
// grants nothing.  This index is owned by the cluster and updated
// incrementally on grant/release/failure; a round borrows an epoch-stamped
// `RoundView` without touching per-executor state up front.  The claim
// contract: `claim_on` takes the lowest-id idle executor on any of the
// given nodes, `claim_any` the lowest-id idle executor not yet claimed this
// round.  Executor ids are node-major, so backfill grants fill the lowest
// nodes first.  CustodyAllocator::Allocate builds a round-local index the
// same way when a caller holds an explicit idle vector.
//
// Internals: a bitset of idle executor ids (in-order enumeration and
// claim_any's forward cursor) and per-node ascending idle-id lists
// (claim_on heads).  Round scratch (taken marks, node cursors) is
// epoch-stamped, so starting a round is O(1) — nothing is cleared.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/model.h"

namespace custody::core {

class IdleExecutorIndex {
 public:
  /// Executor ids must be dense in [0, num_executors); node ids dense in
  /// [0, num_nodes).  The index starts empty — the owner adds each idle
  /// executor, or all of them at once with add_all.
  IdleExecutorIndex(std::size_t num_executors, std::size_t num_nodes);

  /// Executor `id` (living on `node`) became idle.  Must not be in the
  /// index already; must not be called while a round view is live.
  void add(ExecutorId id, NodeId node);
  /// Every executor became idle, executor e living on `home[e]`: the same
  /// state as add(e, home[e]) for each e ascending, built in one linear
  /// pass.  The index must be empty and `home` hold num_executors nodes.
  void add_all(std::span<const NodeId> home);
  /// Executor `id` left the idle set (granted, or its node died).
  void remove(ExecutorId id, NodeId node);

  [[nodiscard]] std::size_t count() const { return count_; }

  /// Lowest-id idle executor on `node` past its `skip` lowest; invalid
  /// when none.
  [[nodiscard]] ExecutorId first_on(NodeId node, std::size_t skip = 0) const;

  /// Append the idle executors in ascending id order (== the order
  /// `Cluster::idle_executors()` reports them in).
  void append_ids(std::vector<ExecutorId>& out) const;
  void append_infos(std::vector<ExecutorInfo>& out) const;

  /// One allocation round's claim state over the index.  The index is
  /// frozen while a view is live (add/remove assert); claims only stamp
  /// round-local epochs, so dropping the view without applying the
  /// assignments leaves the index untouched (benchmarks rely on this).
  class RoundView {
   public:
    explicit RoundView(IdleExecutorIndex& index) : index_(&index) {
      index.begin_round();
    }
    ~RoundView() { index_->end_round(); }
    RoundView(const RoundView&) = delete;
    RoundView& operator=(const RoundView&) = delete;

    /// Claim the lowest-id unclaimed idle executor on one of `nodes`;
    /// invalid id when none exists.
    ExecutorId claim_on(const std::vector<NodeId>& nodes) {
      return index_->view_claim_on(nodes);
    }
    /// Claim the lowest-id unclaimed idle executor; invalid id when none
    /// exists.
    ExecutorId claim_any() { return index_->view_claim_any(); }
    [[nodiscard]] bool has_on(const std::vector<NodeId>& nodes) const {
      return index_->view_has_on(nodes);
    }
    [[nodiscard]] bool empty() const {
      return index_->round_taken_ == index_->round_n_;
    }
    [[nodiscard]] std::size_t size() const {
      return index_->round_n_ - index_->round_taken_;
    }
    /// Candidates enumerated so far this round (the round's work counter).
    [[nodiscard]] std::uint64_t scanned() const { return index_->enumerated_; }

   private:
    IdleExecutorIndex* index_;
  };

 private:
  friend class RoundView;
  static constexpr std::size_t kNone = ~std::size_t{0};

  void begin_round();
  void end_round();
  ExecutorId view_claim_on(const std::vector<NodeId>& nodes);
  ExecutorId view_claim_any();
  [[nodiscard]] bool view_has_on(const std::vector<NodeId>& nodes) const;

  [[nodiscard]] bool is_idle(std::size_t exec) const {
    return (idle_[exec / 64] >> (exec % 64) & 1) != 0;
  }
  /// Lowest idle executor id >= `from`; num_execs_ when none.
  [[nodiscard]] std::size_t next_idle(std::size_t from) const;
  /// Lowest unclaimed idle executor id on `node` this round, or kNone.
  [[nodiscard]] std::size_t head_on(NodeId node) const;
  /// Mark `exec` claimed for this round.
  void take(std::size_t exec);

  std::size_t num_execs_;
  std::size_t num_nodes_;
  /// Bit e % 64 of word e / 64 is set while executor e is idle.
  std::vector<std::uint64_t> idle_;
  /// Home node of each executor ever added (for append_infos).
  std::vector<NodeId::value_type> node_of_;
  std::size_t count_ = 0;
  /// node -> idle executor ids on it, ascending.
  std::vector<std::vector<std::uint32_t>> by_node_;

  // Round scratch — valid only where the stored epoch == epoch_.
  std::uint64_t epoch_ = 0;
  bool round_active_ = false;
  std::size_t round_n_ = 0;      ///< idle count at round start
  std::size_t round_taken_ = 0;  ///< claims so far this round
  /// claim_any's cursor: every idle executor below it is claimed this round.
  std::size_t any_cursor_ = 0;
  mutable std::uint64_t enumerated_ = 0;
  std::vector<std::uint64_t> taken_epoch_;        ///< per executor id
  mutable std::vector<std::uint64_t> cursor_epoch_;  ///< per node
  mutable std::vector<std::uint32_t> cursor_pos_;    ///< per node
};

}  // namespace custody::core
