// Persistent price-ladder bid book for continuous auctions.
//
// The book keeps every live bid on an ordered ladder keyed by the greedy
// score ratio mu_i / c_i — descending, ties broken by ascending worker id,
// which is exactly the total order the ranking-queue rank sort produces.
// Because the order is total, a ladder maintained incrementally (insert /
// remove / update one bid at a time, O(log N) each) is guaranteed to hold
// the same permutation a full rebuild-and-sort would compute, so the greedy
// mechanism can materialize its ranking queue from the ladder in O(N) with
// bit-identical allocation (locked by test_bid_book / test_incremental_auction).
//
// Layout follows wzli/DecentralizedPathAuction's linked price ladder: a
// slot arena of parallel arrays with prev/next links for O(1) neighbor
// queries, and cheap check_auction_links-style invariant checks for
// property tests. Order maintenance is LAZY: a mutation is O(1) — write
// the slot arrays, mark the slot dirty — and the ordered structures (the
// contiguous materialized image, the prev/next links derived from it, and
// the rank cache) are repaired on first read by a sorted merge of the
// dirty slots into the previous image. That keeps the per-run cost of the
// incremental auction at ~one streaming pass instead of D tree operations,
// which is where the low-churn re-run speedup actually comes from.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "auction/types.h"

namespace melody::auction {

/// One observed change to the bid population between two auction runs.
/// Upserts carry the worker's full new profile (absolute, not relative, so
/// applying a delta twice is a no-op); withdrawals carry only the id.
struct BidDelta {
  enum class Kind : std::uint8_t { kUpsert, kWithdraw };
  Kind kind = Kind::kUpsert;
  WorkerProfile profile;  // kWithdraw: only profile.id is meaningful

  bool operator==(const BidDelta&) const = default;
};

class BidBook {
 public:
  using Slot = std::int32_t;
  static constexpr Slot kNone = -1;

  BidBook() = default;

  std::size_t size() const noexcept { return index_.size(); }
  bool empty() const noexcept { return index_.empty(); }
  bool contains(WorkerId id) const { return index_.contains(id); }

  // --- Ladder navigation (slots are stable across updates of the same
  // worker; kNone terminates both directions). head() is the best ratio.
  // Links are repaired lazily from the materialized image on first read
  // after churn: O(N) once, then O(1) until the next reorder.
  Slot head() const {
    ensure_links();
    return head_;
  }
  Slot tail() const {
    ensure_links();
    return tail_;
  }
  Slot next(Slot s) const {
    ensure_links();
    return next_[static_cast<std::size_t>(s)];
  }
  Slot prev(Slot s) const {
    ensure_links();
    return prev_[static_cast<std::size_t>(s)];
  }
  Slot slot_of(WorkerId id) const;

  WorkerId id_at(Slot s) const { return id_[static_cast<std::size_t>(s)]; }
  double quality_at(Slot s) const {
    return quality_[static_cast<std::size_t>(s)];
  }
  double cost_at(Slot s) const { return cost_[static_cast<std::size_t>(s)]; }
  int frequency_at(Slot s) const {
    return frequency_[static_cast<std::size_t>(s)];
  }
  /// The ladder sort ratio: quality / cost, or -inf for bids that can never
  /// qualify (non-positive or non-finite quality or cost), which sink to
  /// the tail without breaking the strict weak order.
  double ratio_at(Slot s) const { return ratio_[static_cast<std::size_t>(s)]; }
  WorkerProfile profile_at(Slot s) const {
    const auto i = static_cast<std::size_t>(s);
    return {id_[i], {cost_[i], frequency_[i]}, quality_[i]};
  }

  /// 0-based ladder position (0 == best ratio). Lazily reindexed after
  /// structural churn: O(N) once, then O(1) until the next reorder.
  std::size_t rank_of(WorkerId id) const;

  // --- Mutation. All maintain the ladder invariants incrementally.

  /// Insert or update one bid. Returns true when the worker was new.
  /// An update whose sort key is unchanged (same ratio) keeps the slot's
  /// ladder position and rank cache; otherwise the slot is relinked.
  bool upsert(const WorkerProfile& profile);

  /// Remove one bid. Returns false when the worker was not in the book.
  bool erase(WorkerId id);

  /// Apply a delta batch in order (upsert/withdraw). Idempotent: replaying
  /// a batch already applied leaves the book unchanged.
  void apply(std::span<const BidDelta> deltas);

  void clear();

  /// Replace the whole book with the given profiles (ids must be unique).
  void bulk_load(std::span<const WorkerProfile> profiles);

  /// Compute the delta batch transforming this book's content into exactly
  /// `target` (ids must be unique within target): upserts for new/changed
  /// workers in target order, then withdrawals for vanished workers in
  /// ladder order — a deterministic function of (book, target). Appends to
  /// `out` (cleared first). Does not modify the ladder.
  void diff(std::span<const WorkerProfile> target,
            std::vector<BidDelta>& out) const;

  /// The book's content as profiles sorted by ascending worker id.
  std::vector<WorkerProfile> snapshot_by_id() const;

  /// The ladder content in ladder order as contiguous parallel spans,
  /// valid until the next mutation.
  struct LadderView {
    std::span<const WorkerId> ids;
    std::span<const double> quality;
    std::span<const double> cost;
    std::span<const int> frequency;
    std::span<const double> ratio;

    std::size_t size() const noexcept { return ids.size(); }
  };

  /// Materialize the ladder into contiguous arrays (cached). After churn
  /// the cache is repaired by a sorted merge of the dirtied slots into the
  /// previous image — O(N + D log D) streaming passes instead of a sort or
  /// a pointer-chasing walk — which is what makes ranking from the book
  /// cheaper than rebuild-and-radix-sort on low-churn re-runs. Falls back
  /// to a full sort when most of the book changed (or no image exists
  /// yet). The merge respects the same (ratio desc, id asc) total order
  /// the ladder holds, so the view is always the exact ladder sequence
  /// (asserted by check_links).
  LadderView materialized() const;

  /// check_auction_links-style invariant sweep: mutual prev/next links,
  /// strict (ratio desc, id asc) ordering, no cycles, index agreement,
  /// rank-cache consistency, and materialized-view agreement. Returns ""
  /// when healthy, else a description.
  std::string check_links() const;

  /// FNV-1a digest of the ladder content in ladder order.
  std::uint64_t content_digest() const;

 private:
  struct Key {
    double ratio = 0.0;
    WorkerId id = -1;
  };
  struct KeyLess {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.ratio != b.ratio) return a.ratio > b.ratio;
      return a.id < b.id;
    }
  };

  static double ladder_ratio(double quality, double cost) noexcept;

  Key key_at(Slot s) const {
    const auto i = static_cast<std::size_t>(s);
    return {ratio_[i], id_[i]};
  }
  Slot allocate_slot();

  /// Record `slot` as changed since the last materialization (no-op while
  /// no materialized image exists — a full sort rebuilds from scratch).
  void mark_dirty(Slot slot);
  void materialize_full() const;
  void materialize_merge() const;
  /// Rebuild prev/next/head/tail from the (repaired) materialized image.
  void ensure_links() const;

  // Slot arena: parallel arrays, stable per-worker slots, free-list reuse.
  std::vector<WorkerId> id_;
  std::vector<double> quality_;
  std::vector<double> cost_;
  std::vector<int> frequency_;
  std::vector<double> ratio_;
  std::vector<Slot> free_;

  // Navigation links, derived lazily from the materialized image (see
  // ensure_links); mutable because const reads repair them.
  mutable std::vector<Slot> prev_;
  mutable std::vector<Slot> next_;
  mutable Slot head_ = kNone;
  mutable Slot tail_ = kNone;
  mutable bool links_valid_ = true;

  std::unordered_map<WorkerId, Slot> index_;    // id -> slot

  // Lazy rank cache (mutable: reads reindex on demand).
  mutable std::vector<std::uint32_t> rank_;
  mutable bool rank_valid_ = false;

  // Epoch-marked scratch for diff(): seen_[slot] == seen_epoch_ means the
  // slot appeared in the current diff's target (avoids a per-call set).
  mutable std::vector<std::uint32_t> seen_;
  mutable std::uint32_t seen_epoch_ = 0;

  // Materialized-ladder cache (see materialized()): the ladder image in
  // ladder order plus the slots it was taken from, a second buffer set the
  // merge repair ping-pongs into, and the dirty list accumulated by
  // upsert/erase since the image was taken. All lazily maintained by const
  // reads, hence mutable.
  struct LadderImage {
    std::vector<Slot> slots;
    std::vector<WorkerId> ids;
    std::vector<double> quality;
    std::vector<double> cost;
    std::vector<int> frequency;
    std::vector<double> ratio;

    void resize(std::size_t n) {
      slots.resize(n);
      ids.resize(n);
      quality.resize(n);
      cost.resize(n);
      frequency.resize(n);
      ratio.resize(n);
    }
  };
  mutable LadderImage mat_;
  mutable LadderImage mat_scratch_;
  mutable bool mat_valid_ = false;
  mutable std::vector<Slot> mat_dirty_;
  mutable std::vector<std::uint8_t> mat_dirty_mark_;  // per-slot membership
};

}  // namespace melody::auction
