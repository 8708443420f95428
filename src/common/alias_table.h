// AliasTable: O(1) draws from a discrete distribution (Walker/Vose).
//
// The sampling hot paths draw from fixed weight vectors over and over —
// the exact-weight root row, the per-group child rows of a walk step, the
// union sampler's join selection. A binary-searched CDF costs O(log n)
// per draw and a data-dependent chain of cache misses; the alias method
// preprocesses the weights once into two flat arrays (`prob`, `alias`)
// and then serves every draw with one uniform integer, one uniform
// double, and at most two array reads. Zero-weight entries are
// structurally unreachable: their acceptance probability is exactly 0 and
// their alias always points at a positive-weight entry, so the
// exact-weight guarantee cannot be violated by boundary clamping the way
// a CDF search's `u * total` rounding up to `total` can.

#ifndef SUJ_COMMON_ALIAS_TABLE_H_
#define SUJ_COMMON_ALIAS_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace suj {

/// \brief One discrete distribution preprocessed for O(1) sampling.
class AliasTable {
 public:
  /// Empty table; Sample on it is invalid (size() == 0).
  AliasTable() = default;

  /// Builds the table for `weights` (not necessarily normalized). Fails
  /// when `weights` is empty, contains a negative or non-finite entry, or
  /// sums to zero.
  static Result<AliasTable> Build(const std::vector<double>& weights);

  size_t size() const { return prob_.size(); }

  /// Draws an index proportionally to the build weights. Consumes one
  /// UniformInt and one UniformDouble from `rng`; never returns an index
  /// whose build weight was zero.
  size_t Sample(Rng& rng) const {
    const size_t k = static_cast<size_t>(rng.UniformInt(prob_.size()));
    return rng.UniformDouble() < prob_[k] ? k
                                          : static_cast<size_t>(alias_[k]);
  }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

/// \brief Many small alias tables flattened into shared arrays.
///
/// Per-group weighted draws (one group per join key, thousands of groups
/// of a handful of rows each) would waste space and locality as separate
/// AliasTable objects. The flat form stores every group's `prob`/`alias`
/// entries contiguously in append order; a group is addressed by its
/// element range [begin, begin + n), and `alias` entries are LOCAL to the
/// group (0..n-1), so a draw is `begin + local`.
class FlatAliasGroups {
 public:
  /// Appends one group built from `weights[0..n)`. Entries with zero
  /// weight are unreachable, as in AliasTable::Build. Returns the group's
  /// begin offset into the flat arrays, or fails on a negative,
  /// non-finite, or all-zero group.
  Result<size_t> AppendGroup(const double* weights, size_t n);

  size_t num_elements() const { return prob_.size(); }

  /// Draws a LOCAL index in [0, n) for the group at [begin, begin + n).
  size_t SampleGroup(size_t begin, size_t n, Rng& rng) const {
    const size_t k = static_cast<size_t>(rng.UniformInt(n));
    return rng.UniformDouble() < prob_[begin + k]
               ? k
               : static_cast<size_t>(alias_[begin + k]);
  }

  /// Raw array access for prefetching.
  const double* prob_data() const { return prob_.data(); }
  const uint32_t* alias_data() const { return alias_.data(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

/// \brief Alias-backed categorical draw whose weights can be zeroed.
///
/// The union-level selection loops share one pattern: a weight vector is
/// fixed up front (cover sizes), drawn from many times per call, and
/// occasionally an entry is zeroed when a round abandons its join. This
/// wraps that pattern over an AliasTable: draws are O(1), and Zero()
/// rebuilds the table — O(n), but abandonment is rare by construction
/// (each join is zeroed at most once per selector).
class WeightedSelector {
 public:
  WeightedSelector() = default;

  /// Builds from `weights`; fails exactly as AliasTable::Build does
  /// (empty, negative, non-finite, or all-zero weights).
  static Result<WeightedSelector> Build(std::vector<double> weights);

  /// Draws an index proportionally to the current weights; never returns
  /// a zero-weight index. Same RNG consumption as AliasTable::Sample.
  size_t Sample(Rng& rng) const { return table_.Sample(rng); }

  /// Zeroes weight `i` and rebuilds the table. Fails (leaving the
  /// selector unusable) when no positive weight remains — the caller's
  /// "every cover abandoned" condition.
  Status Zero(size_t i);

  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;
  AliasTable table_;
};

namespace internal {
/// Shared Vose construction: writes n entries at prob/alias (alias values
/// are local indexes). Returns false on negative/non-finite/all-zero
/// weights.
bool BuildAliasInto(const double* weights, size_t n, double* prob,
                    uint32_t* alias);
}  // namespace internal

}  // namespace suj

#endif  // SUJ_COMMON_ALIAS_TABLE_H_
