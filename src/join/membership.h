// JoinMembershipProber: exact O(1)-per-relation test of `t in J`.
//
// For a natural join J over relations R_1..R_m, an output tuple t belongs to
// J iff every relation contains the projection of t onto its attributes (the
// shared-attribute equalities then hold automatically because all values
// come from the single tuple t), and t passes J's selection predicates.
// This is the "(N-1) x (M-1) queries with key" membership operation of
// §6.2, and the oracle behind the centralized union-sampler mode.
//
// Each relation is probed through its RowMembershipIndex, a (hash tag, row
// id) table over the relation's columns, reading t's values at the
// relation's output-schema positions in place: a probe projects, encodes
// and allocates nothing. Equality is encoding identity, so answers are
// exactly those of a set of `Tuple::Encode()` strings.

#ifndef SUJ_JOIN_MEMBERSHIP_H_
#define SUJ_JOIN_MEMBERSHIP_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/row_membership_index.h"
#include "join/join_spec.h"

namespace suj {

/// \brief Membership oracle for one join.
class JoinMembershipProber {
 public:
  /// Builds one row-id index per base relation of `join`.
  static Result<std::shared_ptr<const JoinMembershipProber>> Build(
      JoinSpecPtr join);

  /// True iff `output_tuple` (over the join's output schema) is in the join
  /// result.
  bool Contains(const Tuple& output_tuple) const;

  const JoinSpecPtr& join() const { return join_; }

 private:
  explicit JoinMembershipProber(JoinSpecPtr join) : join_(std::move(join)) {}

  JoinSpecPtr join_;
  std::vector<RowMembershipIndexPtr> indexes_;          // per relation
  std::vector<std::vector<int>> projection_fields_;     // output-schema cols
};

using JoinMembershipProberPtr = std::shared_ptr<const JoinMembershipProber>;

/// Builds probers for every join of a union.
Result<std::vector<JoinMembershipProberPtr>> BuildProbers(
    const std::vector<JoinSpecPtr>& joins);

/// Cover ownership f(u): the index of the first prober whose join
/// contains `tuple`, or -1 iff no join does. A pure function of the
/// tuple for a fixed prober set, so any number of threads may call it
/// over shared probers.
int FirstOwner(const std::vector<JoinMembershipProberPtr>& probers,
               const Tuple& tuple);

/// \brief FirstOwner bound to a prober set the caller keeps alive and
/// unchanged. Stateless: copying it or sharing it across threads is free.
class OwnerOracle {
 public:
  explicit OwnerOracle(const std::vector<JoinMembershipProberPtr>* probers)
      : probers_(probers) {}

  int Owner(const Tuple& tuple) const { return FirstOwner(*probers_, tuple); }

 private:
  const std::vector<JoinMembershipProberPtr>* probers_;
};

}  // namespace suj

#endif  // SUJ_JOIN_MEMBERSHIP_H_
