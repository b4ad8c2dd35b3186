// Persistent idle-executor index — allocation rounds without an O(cluster)
// rebuild.
//
// Rebuilding per-node idle lists from the executor ledger on every round
// costs a mostly-idle 10k-node cluster ~2 ms/event even when the round
// grants nothing.  This index is owned by the cluster and updated
// incrementally on grant/release/failure; a round borrows an epoch-stamped
// `RoundView` without touching per-executor state up front.  The claim
// contract: `claim_on` takes the lowest-id idle executor on any of the
// given nodes, `claim_any` the first idle executor at or after a rotating
// scan start (wrapping once), so backfill grants spread across nodes.
// CustodyAllocator::Allocate builds a round-local index the same way when
// a caller holds an explicit idle vector.
//
// Internals: per-node ascending idle-id lists (claim_on heads), a Fenwick
// tree over executor ids (rank/select for claim_any's positional rotation
// and O(log E) sorted-list insertion), and an intrusive doubly-linked list
// over idle ids for O(idle) in-order enumeration.  All round scratch
// (taken marks, node cursors, union-find parents) is epoch-stamped, so
// starting a round is O(1) — nothing is cleared.
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
    /// Claim the first unclaimed idle executor at or after the rotating
    /// scan start (wrapping once); the start moves past each claim.
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

  /// Lowest unclaimed idle executor id on `node` this round, or kNone.
  [[nodiscard]] std::size_t head_on(NodeId node) const;
  /// Mark `exec` claimed for this round.
  void take(std::size_t exec);
  /// First round-start rank >= r whose executor is unclaimed; round_n_
  /// when none.  Links claimed ranks lazily (union-find, path-compressed).
  [[nodiscard]] std::size_t find_free(std::size_t r);
  [[nodiscard]] std::size_t uf_find(std::size_t r);

  // Fenwick tree over executor ids, 1 == idle.
  void fen_add(std::size_t id, int delta);
  /// Number of idle executors with id < `id`.
  [[nodiscard]] std::size_t fen_rank(std::size_t id) const;
  /// Id of the (k+1)-th smallest idle executor (k 0-based, k < count_).
  [[nodiscard]] std::size_t fen_select(std::size_t k) const;

  std::size_t num_execs_;
  std::size_t num_nodes_;
  std::size_t fen_mask_;  ///< highest power of two <= num_execs_
  std::vector<bool> idle_;
  /// Home node of each executor ever added (for append_infos).
  std::vector<NodeId::value_type> node_of_;
  std::size_t count_ = 0;
  std::vector<std::int64_t> fenwick_;  ///< 1-indexed, size num_execs_+1
  /// node -> idle executor ids on it, ascending.
  std::vector<std::vector<std::uint32_t>> by_node_;
  /// Intrusive list over idle ids, ascending; sentinel at num_execs_.
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> prev_;

  // Round scratch — valid only where the stored epoch == epoch_.
  std::uint64_t epoch_ = 0;
  bool round_active_ = false;
  std::size_t round_n_ = 0;      ///< idle count at round start
  std::size_t round_taken_ = 0;  ///< claims so far this round
  std::size_t scan_start_ = 0;   ///< rotating claim_any rank (reset per round)
  mutable std::uint64_t enumerated_ = 0;
  std::vector<std::uint64_t> taken_epoch_;        ///< per executor id
  mutable std::vector<std::uint64_t> cursor_epoch_;  ///< per node
  mutable std::vector<std::uint32_t> cursor_pos_;    ///< per node
  std::vector<std::uint64_t> uf_epoch_;   ///< per round rank + sentinel
  std::vector<std::uint32_t> uf_parent_;  ///< per round rank + sentinel
};

}  // namespace custody::core
