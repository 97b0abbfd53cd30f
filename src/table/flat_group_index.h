// Columnar index of all personal groups of a table (paper §3.2, §5
// preprocessing): the one sorted pass of D by NA, materialized. A
// *personal group* D(x1,...,xn) is the set of records agreeing on every
// public attribute; a predicate with wildcards matches a union of them,
// and their SA histograms add up.
//
// The index stores four contiguous columns:
//
//   na_codes_     num_groups x num_public   NA key of each group, row-major
//   sa_counts_    num_groups x m            SA histogram matrix, row-major
//   row_offsets_  num_groups + 1            CSR offsets into row_values_
//   row_values_   num_records               group members, group-major
//
// Build() is a pack-keys-then-sort pass: when the public domains fit 64
// bits, each row's NA key is bit-packed into a uint64_t (attribute 0 in the
// highest bits, so numeric order == lexicographic order), the (packed_key,
// row) pairs are radix-sorted, and groups fall out of one run-length pass.
// Domains too wide for 64 bits take a fallback path over contiguous
// row-major wide keys. Either way groups come out in NA-lexicographic
// order and each group's rows in ascending row id.
//
// FindGroup is a binary search over the sorted keys; AnswerInto fuses
// predicate matching with the histogram-column sum so a count query needs
// no materialized match list at all.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "table/predicate.h"
#include "table/schema.h"
#include "table/table.h"

namespace recpriv::table {

/// Reusable per-call scratch for the FlatGroupIndex kernels. Callers on a
/// hot path own one and thread it through, so every kernel (scalar and
/// SIMD) shares one audited scratch path and the owner controls the
/// memory's lifetime. Cold callers may use the zero-argument kernel
/// overloads, which route through a single shared thread-local instance.
/// GroupPostingIndex needs none of it.
struct AnswerScratch {
  /// Bound (key column, code) pairs of the current predicate.
  std::vector<std::pair<uint32_t, uint32_t>> bound;
  /// NA-key probe buffer for the fully-bound binary-search fast path.
  std::vector<uint32_t> key;
  /// A caller-owned match list, e.g. for MatchingGroupsInto.
  std::vector<uint32_t> groups;
  /// Unused by every kernel; kept for callers written against the
  /// intersection-based GroupPostingIndex.
  std::vector<uint32_t> intersect;

  /// Returns all capacity to the allocator — for owners that batch bursts
  /// of large queries and then go idle.
  void Release() {
    bound = {};
    key = {};
    groups = {};
    intersect = {};
  }
};

/// Sort-based columnar index of all personal groups of a table.
///
/// Storage ownership: the query kernels read the columns through
/// std::span views. After Build the views alias vectors owned by the
/// index itself; after FromStorage they alias caller-provided memory
/// (typically an mmap'd snapshot section — see store/snapshot_reader.h),
/// which the caller must keep alive for the index's lifetime. The hot
/// path is identical either way.
class FlatGroupIndex {
 public:
  /// Key layout chosen by Build: packed 64-bit keys when the public
  /// domains fit, wide row-major uint32 keys otherwise. kForceWide exists
  /// so tests can exercise the wide path on narrow schemas.
  enum class KeyMode { kAuto, kForceWide };

  /// The columnar arrays of a built index, viewed as borrowable storage —
  /// exactly the sections a persisted snapshot stores. `packed_keys` is
  /// empty unless `packed`.
  struct Storage {
    bool packed = false;
    uint64_t num_groups = 0;
    uint64_t num_records = 0;
    std::span<const uint64_t> packed_keys;  ///< num_groups (packed only)
    std::span<const uint32_t> na_codes;     ///< num_groups x num_public
    std::span<const uint64_t> sa_counts;    ///< num_groups x m
    std::span<const uint64_t> row_offsets;  ///< num_groups + 1 (CSR)
    std::span<const uint32_t> row_values;   ///< num_records, group-major
  };

  /// Builds the index with one pack + sort + run-length pass.
  static FlatGroupIndex Build(const Table& t, KeyMode mode = KeyMode::kAuto);

  /// One sorted run of groups for MergeRuns: NA keys in strictly ascending
  /// lexicographic order, each paired with its SA histogram row. The spans
  /// typically borrow the `na_codes` / `sa_counts` sections of a built
  /// index's Storage (see RunOf) — the borrow seam that lets a merged
  /// index read base sections without copying them first.
  struct GroupRun {
    std::span<const uint32_t> na_codes;   ///< num_groups x num_public
    std::span<const uint64_t> sa_counts;  ///< num_groups x m
    uint64_t num_groups = 0;
  };

  /// Views the group sections of built storage as a run (borrows `s`).
  static GroupRun RunOf(const Storage& s) {
    return GroupRun{s.na_codes, s.sa_counts, s.num_groups};
  }

  /// Two-level (LSM-style) run-merge build: produces the index of the
  /// canonical group-major table assembled from `base` with `overlay`
  /// applied on top. On a key collision the overlay's histogram replaces
  /// the base group's; an overlay histogram summing to zero is a tombstone
  /// that deletes the group. The output describes a table whose rows are
  /// group-major in ascending key order with each group's SA values in
  /// ascending-value runs, so `row_values` is the identity permutation and
  /// the result is bit-identical to `Build` over that table — without the
  /// O(n log n) sort. Cost is O(|base| + |overlay| + n_out). The run spans
  /// are only read during the call; the result owns all of its storage.
  static Result<FlatGroupIndex> MergeRuns(SchemaPtr schema,
                                          const GroupRun& base,
                                          const GroupRun& overlay,
                                          KeyMode mode = KeyMode::kAuto);

  /// Reconstructs an index over borrowed columns without copying them.
  /// Every structural invariant Build guarantees is re-validated here —
  /// the spans typically come from a file — and any violation returns
  /// kDataLoss rather than an index that could crash or answer wrongly.
  /// The caller keeps the spanned memory alive for the index's lifetime.
  static Result<FlatGroupIndex> FromStorage(SchemaPtr schema,
                                            const Storage& storage);

  /// This index's columns as borrowable storage (aliases live memory).
  Storage storage() const {
    return Storage{packed_,    num_groups_, num_records_, packed_keys_,
                   na_codes_,  sa_counts_,  row_offsets_, row_values_};
  }

  /// An empty index (no schema); overwrite via move before use.
  FlatGroupIndex() = default;
  FlatGroupIndex(FlatGroupIndex&&) = default;
  FlatGroupIndex& operator=(FlatGroupIndex&&) = default;
  // The views would alias the source's buffers after a member-wise copy,
  // so copying is forbidden rather than silently wrong.
  FlatGroupIndex(const FlatGroupIndex&) = delete;
  FlatGroupIndex& operator=(const FlatGroupIndex&) = delete;

  size_t num_groups() const { return num_groups_; }
  size_t num_records() const { return num_records_; }
  /// Number of public attributes (columns of the NA key).
  size_t num_public() const { return public_idx_.size(); }
  /// SA domain size m (columns of the histogram matrix).
  size_t sa_domain() const { return m_; }
  /// |D| / |G| as reported in Tables 4-5.
  double AverageGroupSize() const;
  /// True when the packed-key fast path was taken.
  bool packed() const { return packed_; }
  /// Sorted packed NA keys, one per group (empty unless packed()).
  std::span<const uint64_t> packed_keys() const { return packed_keys_; }

  /// Packed-key spelling of `pred`'s NA conditions: group g matches iff
  /// (packed_keys()[g] & *mask) == *want. Returns false — no group can
  /// match — when a bound code overflows its attribute's bit field.
  /// Requires packed().
  bool PackedMatchMask(const Predicate& pred, uint64_t* mask,
                       uint64_t* want) const;

  /// NA key of group `g`, in schema public-index order.
  std::span<const uint32_t> na_codes(size_t g) const {
    return {na_codes_.data() + g * public_idx_.size(), public_idx_.size()};
  }
  uint32_t na_code(size_t g, size_t k) const {
    return na_codes_[g * public_idx_.size() + k];
  }

  /// SA histogram row of group `g` (length m).
  std::span<const uint64_t> sa_counts(size_t g) const {
    return {sa_counts_.data() + g * m_, m_};
  }
  uint64_t sa_count(size_t g, size_t sa) const {
    return sa_counts_[g * m_ + sa];
  }

  /// Row indices of group `g`'s records in the indexed table.
  std::span<const uint32_t> rows(size_t g) const {
    return {row_values_.data() + row_offsets_[g],
            row_offsets_[g + 1] - row_offsets_[g]};
  }
  uint64_t group_size(size_t g) const {
    return row_offsets_[g + 1] - row_offsets_[g];
  }

  /// Frequency (fraction) of SA value `sa` in group `g`.
  double Frequency(size_t g, size_t sa) const;
  /// Max over SA values of Frequency — the `f` of Eq. (10).
  double MaxFrequency(size_t g) const;

  /// Group ids whose NA key satisfies the NA conditions of `pred`
  /// (SA condition, if any, is ignored here — it selects histogram bins).
  std::vector<uint32_t> MatchingGroups(const Predicate& pred) const;

  /// Batched entry point: fills `out` with the matching group ids, clearing
  /// it first. A fully-bound predicate short-circuits to a key binary
  /// search; otherwise one cache-linear scan of the NA-key column.
  /// The scratch-less overload uses the shared thread-local scratch.
  void MatchingGroupsInto(const Predicate& pred,
                          std::vector<uint32_t>& out) const;
  void MatchingGroupsInto(const Predicate& pred, AnswerScratch& scratch,
                          std::vector<uint32_t>& out) const;

  /// Group with exactly this NA key (public-index order), or NotFound.
  /// Binary search over the sorted keys: O(log |G|).
  Result<size_t> FindGroup(std::span<const uint32_t> na_codes) const;

  /// Sum of sa_counts[sa] over matching groups (a count-query answer),
  /// without materializing the match list.
  uint64_t CountAnswer(const Predicate& pred, uint32_t sa) const;

  /// Fused count-query kernel: one scan accumulating both the observed
  /// count O* = sum sa_counts[sa] and the matched size |S*| over the
  /// groups matching `pred`. The serving engine's uncached path. The scan
  /// body is dispatched to the best SIMD kernel the host supports (see
  /// table/simd/dispatch.h); every level is bit-identical by construction
  /// (integer sums only). The scratch-less overload uses the shared
  /// thread-local scratch.
  void AnswerInto(const Predicate& pred, uint32_t sa, uint64_t* observed,
                  uint64_t* matched_size) const;
  void AnswerInto(const Predicate& pred, uint32_t sa, AnswerScratch& scratch,
                  uint64_t* observed, uint64_t* matched_size) const;

  const SchemaPtr& schema() const { return schema_; }
  /// Attribute indices (schema order) of the public attributes.
  const std::vector<size_t>& public_indices() const { return public_idx_; }

 private:
  /// Fills `scratch.bound` with the predicate's bound (key column, code)
  /// pairs, collected once per call so the scan does not re-probe the
  /// predicate per group.
  void CollectBound(const Predicate& pred, AnswerScratch& scratch) const;
  /// Packs `na` into a 64-bit key; false when a code overflows its
  /// attribute's bit field (no group can carry it).
  bool PackKey(std::span<const uint32_t> na, uint64_t* key) const;
  /// Three-way lexicographic compare of group `g`'s NA key against `na`.
  int CompareKeyAt(size_t g, std::span<const uint32_t> na) const;
  /// Derives public_idx_ / m_ / key_bits_ / key_shifts_ from schema_.
  /// False when the packed layout is requested but does not fit 64 bits.
  bool DeriveKeyLayout(bool want_packed);
  /// Points the view members at the owned vectors (the Build path).
  void BindOwnedStorage();

  SchemaPtr schema_;
  std::vector<size_t> public_idx_;
  size_t m_ = 0;
  size_t num_records_ = 0;
  size_t num_groups_ = 0;
  bool packed_ = false;

  /// Per-public-attribute bit widths and shifts of the packed layout
  /// (valid only when packed_).
  std::vector<uint32_t> key_bits_;
  std::vector<uint32_t> key_shifts_;

  /// Owned storage — empty when the index reads borrowed storage.
  std::vector<uint64_t> packed_keys_own_;
  std::vector<uint32_t> na_codes_own_;
  std::vector<uint64_t> sa_counts_own_;
  std::vector<uint64_t> row_offsets_own_;
  std::vector<uint32_t> row_values_own_;

  /// The views every accessor and kernel reads, aliasing either the owned
  /// vectors above or borrowed memory. Moving a vector keeps its heap
  /// buffer's address, so the defaulted move leaves the views valid.
  std::span<const uint64_t> packed_keys_;  // sorted keys (packed_ only)
  std::span<const uint32_t> na_codes_;     // num_groups x num_public
  std::span<const uint64_t> sa_counts_;    // num_groups x m
  std::span<const uint64_t> row_offsets_;  // num_groups + 1 (CSR)
  std::span<const uint32_t> row_values_;   // num_records, group-major
};

/// Density-adaptive group filter over a FlatGroupIndex: for each (public
/// attribute, value), the groups carrying that value, stored in whichever
/// form is smaller. A value held by at least num_groups/32 groups is a
/// num_groups-bit bitmap (num_groups/8 bytes, no more than its id array
/// would take, up to the padding of the last word); any other value is a
/// sorted group-id array. The rule reads only the index, so there is no
/// knob. Roaring bitmaps make the same dense/sparse container split
/// (Chambi et al., arXiv:1402.6407).
///
/// A query finds its groups in one of three ways:
///  * some bound value is sparse: walk the smallest such array and keep a
///    candidate iff its NA key matches every bound attribute — one masked
///    64-bit compare on packed keys, a per-column compare on wide keys;
///  * every bound value is dense: AND their bitmaps word by word and walk
///    the set bits;
///  * nothing is bound: every group matches.
/// AnswerInto sums O* and |S*| as it finds them — no match list, no
/// scratch. It is how the serving engine answers every uncached query;
/// pool generation and benches use the same filter through
/// MatchingGroupsInto and CountAnswer.
class GroupPostingIndex {
 public:
  /// Builds in a counting pass and a fill pass over the NA-key column.
  /// Reads `index` by reference: it must outlive this object.
  explicit GroupPostingIndex(const FlatGroupIndex& index);

  /// Same contract as FlatGroupIndex::MatchingGroups. An unbound predicate
  /// returns all group ids.
  std::vector<uint32_t> MatchingGroups(const Predicate& pred) const;

  /// Fills `out` (cleared first) with the matching group ids, ascending;
  /// `out` keeps its capacity across calls.
  void MatchingGroupsInto(const Predicate& pred,
                          std::vector<uint32_t>& out) const;
  /// As above. `scratch` is unused — the filter needs no working space —
  /// and the overload remains for callers written against the
  /// intersection-based index.
  void MatchingGroupsInto(const Predicate& pred, std::vector<uint32_t>& scratch,
                          std::vector<uint32_t>& out) const;

  /// Sum of sa_counts[sa] over matching groups (a count-query answer).
  uint64_t CountAnswer(const Predicate& pred, uint32_t sa) const;

  /// Fused count-query answer: O* = sum of sa_counts[sa] and |S*| = sum of
  /// group sizes over the matching groups, bit-identical to
  /// FlatGroupIndex::AnswerInto (integer sums only).
  void AnswerInto(const Predicate& pred, uint32_t sa, uint64_t* observed,
                  uint64_t* matched_size) const;

  /// True when the groups carrying `code` on the k-th public attribute are
  /// stored as a bitmap. Requires `code` inside the attribute's domain.
  bool IsDense(size_t k, uint32_t code) const {
    return entries_[first_entry_[k] + code].dense;
  }
  /// Bytes held by the bitmaps and by the sorted id arrays.
  size_t dense_bytes() const { return bitmaps_.size() * sizeof(uint64_t); }
  size_t sparse_bytes() const { return ids_.size() * sizeof(uint32_t); }

 private:
  /// The groups carrying one (attribute, value): `count` of them, in the
  /// bitmap starting at word `begin` of bitmaps_ when `dense`, else in
  /// ids_[begin, begin + count).
  struct Entry {
    uint64_t begin = 0;
    uint32_t count = 0;
    bool dense = false;
  };

  /// Entry of `pred`'s bound code on the k-th public attribute; nullptr
  /// when the code lies outside the attribute's domain (no group has it).
  const Entry* BoundEntry(const Predicate& pred, size_t k) const;

  /// Calls `visit(group id)` for each group matching `pred`, ascending.
  template <class Visit>
  void ForEachMatch(const Predicate& pred, Visit&& visit) const;

  const FlatGroupIndex* index_;
  size_t words_ = 0;  ///< 64-bit words per bitmap: ceil(num_groups / 64)
  /// entries_[first_entry_[k] + v] describes value v of public attribute
  /// k; first_entry_ has num_public + 1 prefix offsets.
  std::vector<size_t> first_entry_;
  std::vector<Entry> entries_;
  std::vector<uint64_t> bitmaps_;  ///< dense values, words_ words each
  std::vector<uint32_t> ids_;      ///< sparse values, ascending ids each
};

}  // namespace recpriv::table
