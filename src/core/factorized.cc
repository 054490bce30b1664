#include "core/factorized.h"

#include <utility>

namespace amber {

uint64_t FactorizedResult::Group::ByteSize() const {
  uint64_t bytes = sizeof(Group);
  bytes += fixed.size() * sizeof(VertexId);
  bytes += lists.size() * sizeof(std::vector<VertexId>);
  for (const std::vector<VertexId>& l : lists) {
    bytes += l.size() * sizeof(VertexId);
  }
  return bytes;
}

uint64_t FactorizedResult::ByteSize() const {
  uint64_t bytes = sizeof(FactorizedResult);
  bytes += slot_list.size() * sizeof(uint32_t);
  for (const Group& g : groups) bytes += g.ByteSize();
  return bytes;
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

FactorizedResult::Cursor::Cursor(const FactorizedResult* r)
    : r_(r), row_(r->num_slots) {}

void FactorizedResult::Cursor::LoadGroup() {
  const Group& g = r_->groups[gi_];
  row_.assign(g.fixed.begin(), g.fixed.end());
  row_.resize(r_->num_slots);
  pick_.assign(g.lists.size(), 0);
  rep_ = 0;
  done_in_group_ = 0;
  card_ = g.Cardinality();
  group_loaded_ = true;
}

void FactorizedResult::Cursor::BuildRow() {
  const Group& g = r_->groups[gi_];
  for (uint32_t i = 0; i < r_->num_slots; ++i) {
    const uint32_t sl = r_->slot_list[i];
    if (sl != kNoGroupList) row_[i] = g.lists[sl][pick_[sl]];
  }
}

bool FactorizedResult::Cursor::NextInGroup() {
  const Group& g = r_->groups[gi_];
  if (done_in_group_ >= card_) return false;
  BuildRow();
  ++rows_expanded_;
  ++done_in_group_;
  // Advance: repetitions first, then one step of the shared odometer.
  if (++rep_ >= g.multiplicity) {
    rep_ = 0;
    OdometerStep(pick_, g.lists);
  }
  return true;
}

bool FactorizedResult::Cursor::Next() {
  while (gi_ < r_->groups.size()) {
    if (!group_loaded_) LoadGroup();
    const bool dedup = GroupNeedsDedup(r_->groups[gi_]);
    if (NextInGroup()) {
      if (dedup && !seen_.insert(RowDedupKey(row_)).second) continue;
      return true;
    }
    ++gi_;
    group_loaded_ = false;
  }
  return false;
}

void FactorizedResult::Cursor::Skip(uint64_t n) {
  while (n > 0 && gi_ < r_->groups.size()) {
    const Group& g = r_->groups[gi_];
    if (GroupNeedsDedup(g)) {
      // Flagged groups expand row by row: their rows feed the dedup set
      // later flagged groups depend on, and duplicates don't count as
      // skipped rows.
      if (!Next()) return;
      --n;
      continue;
    }
    if (!group_loaded_) {
      const uint64_t card = g.Cardinality();
      if (card <= n) {  // skip the whole group without touching its lists
        n -= card;
        ++gi_;
        continue;
      }
      LoadGroup();
    }
    const uint64_t remaining = card_ - done_in_group_;
    if (remaining <= n) {
      n -= remaining;
      ++gi_;
      group_loaded_ = false;
      continue;
    }
    // Boundary group: position the odometer by division — O(lists), no row
    // materialization.
    const uint64_t target = done_in_group_ + n;
    rep_ = target % g.multiplicity;
    uint64_t state = target / g.multiplicity;
    for (size_t d = 0; d < pick_.size(); ++d) {
      pick_[d] = state % g.lists[d].size();
      state /= g.lists[d].size();
    }
    done_in_group_ = target;
    return;
  }
}

// ---------------------------------------------------------------------------
// FactorizedBuilder
// ---------------------------------------------------------------------------

FactorizedBuilder::FactorizedBuilder(uint32_t num_slots,
                                     std::vector<uint32_t> slot_list,
                                     bool distinct, uint64_t cap)
    : cap_(cap) {
  result_.num_slots = num_slots;
  result_.slot_list = std::move(slot_list);
  result_.distinct = distinct;
}

std::string FactorizedBuilder::CoreKey(
    const FactorizedResult::Group& g) const {
  std::string key;
  key.reserve(result_.num_slots * sizeof(VertexId));
  for (uint32_t i = 0; i < result_.num_slots; ++i) {
    if (result_.slot_list[i] != kNoGroupList) continue;
    const char* p = reinterpret_cast<const char*>(&g.fixed[i]);
    key.append(p, sizeof(VertexId));
  }
  return key;
}

uint64_t FactorizedBuilder::ExpandIntoSeen(const FactorizedResult::Group& g) {
  const std::vector<std::span<const VertexId>> lists(g.lists.begin(),
                                                     g.lists.end());
  const EmbeddingGroupView view{.fixed = g.fixed,
                                .slot_list = result_.slot_list,
                                .lists = lists,
                                .multiplicity = g.multiplicity};
  std::vector<VertexId> row_buf;
  std::vector<uint64_t> pick;
  uint64_t fresh = 0;
  ExpandGroupRows(view, &row_buf, &pick, [&](std::span<const VertexId> row) {
    ++rows_expanded_;
    if (seen_.insert(RowDedupKey(row)).second) ++fresh;
    return true;
  });
  return fresh;
}

bool FactorizedBuilder::Add(FactorizedResult::Group&& g) {
  g.needs_dedup = false;
  const uint64_t card = g.Cardinality();
  result_.represented_rows = SaturatingAdd(result_.represented_rows, card);
  if (!result_.distinct) {
    total_ = SaturatingAdd(total_, card);
    result_.groups.push_back(std::move(g));
  } else {
    auto [it, fresh_key] =
        key_to_group_.try_emplace(CoreKey(g), result_.groups.size());
    if (fresh_key) {
      // Sole holder of its core key: all `card` rows are distinct and
      // cannot recur (a later group with this key would collide below).
      total_ = SaturatingAdd(total_, card);
      result_.groups.push_back(std::move(g));
    } else if (g.lists.empty()) {
      // No projected satellite: the key is the whole row, which the key's
      // holder already contributed. Drop the exact duplicate.
    } else {
      if (it->second != kInDedup) {
        // First collision on this key: retroactively flag the prior group
        // and seed the seen set with its rows (all fresh — no other key
        // can have produced equal rows), leaving its counted total intact.
        FactorizedResult::Group& prior = result_.groups[it->second];
        prior.needs_dedup = true;
        ExpandIntoSeen(prior);
        it->second = kInDedup;
      }
      g.needs_dedup = true;
      result_.needs_row_dedup = true;
      total_ = SaturatingAdd(total_, ExpandIntoSeen(g));
      result_.groups.push_back(std::move(g));
    }
  }
  return cap_ == 0 || total_ < cap_;
}

FactorizedResult FactorizedBuilder::Finish() {
  result_.total_rows = total_;
  result_.row_limit = cap_;
  result_.truncated = cap_ != 0 && total_ >= cap_;
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// FactorizedSink
// ---------------------------------------------------------------------------

bool FactorizedSink::OnGroup(const EmbeddingGroupView& view) {
  FactorizedResult::Group g;
  g.fixed.assign(view.fixed.begin(), view.fixed.end());
  g.lists.reserve(view.lists.size());
  for (std::span<const VertexId> l : view.lists) {
    g.lists.emplace_back(l.begin(), l.end());
  }
  g.multiplicity = view.multiplicity;
  return builder_->Add(std::move(g));
}

// ---------------------------------------------------------------------------

std::vector<uint32_t> BuildSlotList(const std::vector<uint32_t>& projection,
                                    const std::vector<bool>& is_core) {
  std::vector<uint32_t> slot_list(projection.size(), kNoGroupList);
  std::vector<uint32_t> expand;  // satellites in first-appearance order
  for (size_t i = 0; i < projection.size(); ++i) {
    const uint32_t u = projection[i];
    if (u < is_core.size() && is_core[u]) continue;
    uint32_t idx = kNoGroupList;
    for (size_t j = 0; j < expand.size(); ++j) {
      if (expand[j] == u) {
        idx = static_cast<uint32_t>(j);
        break;
      }
    }
    if (idx == kNoGroupList) {
      idx = static_cast<uint32_t>(expand.size());
      expand.push_back(u);
    }
    slot_list[i] = idx;
  }
  return slot_list;
}

}  // namespace amber
