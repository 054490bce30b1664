// Factorized answer graphs (docs/ARCHITECTURE.md, "Factorized answer
// graphs"): the result representation, its lazy expansion cursor, and the
// builder its sink drives, serially and from the parallel replay alike.
//
// A FactorizedResult keeps each solution record as (core embedding ×
// per-projected-satellite candidate lists) instead of expanding the
// Cartesian product: COUNT is the saturating sum of group cardinalities,
// LIMIT/OFFSET skips whole groups through the cursor's prefix arithmetic,
// and expansion — when someone finally wants rows — follows the one
// expansion order of core/exec.h (OdometerStep), so expanded rows are
// bit-identical to the ones Stream delivers.

#ifndef AMBER_CORE_FACTORIZED_H_
#define AMBER_CORE_FACTORIZED_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/exec.h"
#include "rdf/encoded_dataset.h"

namespace amber {

/// A query result kept in factorized form.
struct FactorizedResult {
  /// Projection slots per row.
  uint32_t num_slots = 0;
  /// Per slot: index into Group::lists, or kNoGroupList for core-bound
  /// slots. Shared by every group (it derives from the plan, not the data).
  std::vector<uint32_t> slot_list;
  /// Built under SELECT DISTINCT semantics (multiplicity forced to 1;
  /// expansion dedups the flagged groups).
  bool distinct = false;

  struct Group {
    /// One entry per projection slot; satellite slots are unspecified and
    /// draw from `lists[slot_list[i]]` instead.
    std::vector<VertexId> fixed;
    /// One sorted, duplicate-free candidate list per distinct projected
    /// satellite (first-appearance order over the projection).
    std::vector<std::vector<VertexId>> lists;
    /// Row repetitions from non-projected satellites (1 under DISTINCT).
    uint64_t multiplicity = 1;
    /// DISTINCT only: this group's projected-core key collides with another
    /// group's, so its expansion routes through the row-level dedup set.
    bool needs_dedup = false;

    /// Rows this group represents: multiplicity × Π list sizes (saturating).
    uint64_t Cardinality() const {
      uint64_t card = multiplicity;
      for (const std::vector<VertexId>& l : lists) {
        card = SaturatingMul(card, l.size());
      }
      return card;
    }
    uint64_t ByteSize() const;
  };

  /// Groups in emission order (= the serial matcher's order, which the
  /// parallel replay reproduces), less any exact duplicates DISTINCT
  /// dropped.
  std::vector<Group> groups;

  /// Exact number of expansion rows: the saturating sum of group
  /// cardinalities, minus the DISTINCT duplicates (dropped groups and rows
  /// the fallback filters; tracked exactly at build time — never an
  /// estimate).
  uint64_t total_rows = 0;
  /// Sum of group cardinalities (rows represented before any dedup).
  uint64_t represented_rows = 0;
  /// Some group carries needs_dedup (the row-level DISTINCT fallback).
  bool needs_row_dedup = false;
  /// The builder's cap stopped group collection early; the retained groups
  /// still cover at least `row_limit` rows, callers trim expansion.
  bool truncated = false;
  /// Row cap the result was built under (0 = none). Rows past this index
  /// may be missing (collection stopped at the group crossing the cap).
  uint64_t row_limit = 0;

  /// Deterministic byte accounting for cache budgets (charges group
  /// storage, not the expanded cross-product).
  uint64_t ByteSize() const;

  /// \brief Resumable forward cursor over the expansion, in the order of
  /// ExpandGroupRows (each row repeats `multiplicity` times consecutively,
  /// then one OdometerStep; DISTINCT-flagged groups replay first-occurrence
  /// filtering).
  class Cursor {
   public:
    explicit Cursor(const FactorizedResult* r);

    /// Advances to the next row; false at the end. Row() valid after true.
    bool Next();
    std::span<const VertexId> Row() const { return row_; }

    /// Skips `n` rows (distinct rows when the result is DISTINCT). Whole
    /// groups are skipped by cardinality without touching their lists and
    /// the boundary group's odometer is positioned by division; only
    /// DISTINCT-flagged groups must expand row by row (their rows feed the
    /// dedup set later groups depend on).
    void Skip(uint64_t n);

    /// Rows materialized so far (ExecStats::rows_expanded accounting):
    /// every row Next() produced plus rows the DISTINCT fallback had to
    /// expand during Skip.
    uint64_t rows_expanded() const { return rows_expanded_; }

   private:
    bool GroupNeedsDedup(const Group& g) const {
      return r_->distinct && g.needs_dedup;
    }
    void LoadGroup();
    bool NextInGroup();
    void BuildRow();

    const FactorizedResult* r_;
    size_t gi_ = 0;
    bool group_loaded_ = false;
    uint64_t card_ = 0;           // cached Cardinality() of groups[gi_]
    uint64_t done_in_group_ = 0;  // rows already produced from groups[gi_]
    uint64_t rep_ = 0;            // repetition index within multiplicity
    std::vector<uint64_t> pick_;  // odometer digits, one per list
    std::vector<VertexId> row_;
    std::unordered_set<std::string> seen_;  // DISTINCT-fallback rows
    uint64_t rows_expanded_ = 0;
  };

  Cursor Expand() const { return Cursor(this); }
};

/// \brief Accumulates groups in emission order into a FactorizedResult.
///
/// FactorizedSink drives it whatever the thread count: the parallel stage
/// replays the serial groups, in the serial order, into the same sink, so
/// serial and parallel results are identical by construction.
///
/// Under DISTINCT the builder keys each group by the byte string of its
/// core-bound slots. Distinct keys can never yield equal rows (the rows
/// differ in a core slot) and rows within one group are always distinct
/// (candidate lists are duplicate-free), so duplicates are possible only
/// between groups sharing a key. A group without lists (no projected
/// satellite) IS its key, so a collision there is an exact duplicate row
/// and the group is dropped. Otherwise, on the first collision both groups
/// are flagged needs_dedup and their rows expanded into a row-level seen
/// set, keeping `total_rows` exact while everything else stays compact.
class FactorizedBuilder {
 public:
  /// `cap`: stop accepting once the (distinct-aware) total reaches this
  /// many rows; 0 = unlimited. The group that crosses the cap is kept, so
  /// the expansion's first `cap` rows equal the uncapped run's.
  FactorizedBuilder(uint32_t num_slots, std::vector<uint32_t> slot_list,
                    bool distinct, uint64_t cap);

  /// Appends one group (emission order), or drops it when DISTINCT makes
  /// it an exact duplicate. Returns false once the cap is reached — the
  /// group IS retained; the caller stops producing. Any incoming
  /// needs_dedup flag is recomputed.
  bool Add(FactorizedResult::Group&& g);

  /// Exact (distinct-aware) expansion rows accumulated so far.
  uint64_t total_rows() const { return total_; }
  /// Rows the DISTINCT collision fallback expanded (stats accounting).
  uint64_t rows_expanded() const { return rows_expanded_; }

  /// Finalizes totals and flags; the builder is spent afterwards.
  FactorizedResult Finish();

 private:
  static constexpr size_t kInDedup = std::numeric_limits<size_t>::max();

  std::string CoreKey(const FactorizedResult::Group& g) const;
  /// Expands `g` into the seen set; returns how many rows were fresh.
  uint64_t ExpandIntoSeen(const FactorizedResult::Group& g);

  FactorizedResult result_;
  uint64_t cap_;
  uint64_t total_ = 0;
  uint64_t rows_expanded_ = 0;
  /// Core key → index of the sole group holding it, or kInDedup once the
  /// key collided and its groups joined the row-level set.
  std::unordered_map<std::string, size_t> key_to_group_;
  std::unordered_set<std::string> seen_;
};

/// Collects group emissions into a FactorizedBuilder: the matcher's
/// serially, or the parallel stage's ordered replay of them.
class FactorizedSink : public EmbeddingSink {
 public:
  explicit FactorizedSink(FactorizedBuilder* builder) : builder_(builder) {}

  bool OnGroup(const EmbeddingGroupView& view) override;

 private:
  FactorizedBuilder* builder_;
};

/// Derives FactorizedResult::slot_list for `projection` under `plan`:
/// kNoGroupList for core slots, otherwise the index of the satellite's
/// candidate list in first-appearance order (the same derivation the
/// matcher's scratch uses — the two must agree byte for byte).
std::vector<uint32_t> BuildSlotList(const std::vector<uint32_t>& projection,
                                    const std::vector<bool>& is_core);

}  // namespace amber

#endif  // AMBER_CORE_FACTORIZED_H_
