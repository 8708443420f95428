// Tests for index/: HashIndex, CompositeIndex, RowMembershipIndex, caches.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "index/composite_index.h"
#include "index/hash_index.h"
#include "index/row_membership_index.h"
#include "workloads/synthetic.h"

namespace suj {
namespace {

using workloads::MakeRelation;

RelationPtr TestRelation() {
  return MakeRelation("r", {"a", "b"},
                      {{1, 10}, {1, 11}, {2, 10}, {3, 12}, {1, 12}})
      .value();
}

TEST(HashIndexTest, DegreesAndLookup) {
  auto index = HashIndex::Build(TestRelation(), "a");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->Degree(Value::Int64(1)), 3u);
  EXPECT_EQ((*index)->Degree(Value::Int64(2)), 1u);
  EXPECT_EQ((*index)->Degree(Value::Int64(9)), 0u);
  EXPECT_EQ((*index)->MaxDegree(), 3u);
  EXPECT_EQ((*index)->NumDistinct(), 3u);
  EXPECT_DOUBLE_EQ((*index)->AvgDegree(), 5.0 / 3.0);
  const auto& rows = (*index)->Lookup(Value::Int64(1));
  EXPECT_EQ(rows.size(), 3u);
}

TEST(HashIndexTest, MissingAttributeFails) {
  auto index = HashIndex::Build(TestRelation(), "zz");
  EXPECT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kNotFound);
}

TEST(HashIndexTest, EmptyRelation) {
  auto rel = MakeRelation("e", {"a"}, {}).value();
  auto index = HashIndex::Build(rel, "a");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->MaxDegree(), 0u);
  EXPECT_DOUBLE_EQ((*index)->AvgDegree(), 0.0);
}

TEST(IndexCacheTest, ReusesIndexes) {
  IndexCache cache;
  auto rel = TestRelation();
  auto i1 = cache.GetOrBuild(rel, "a");
  auto i2 = cache.GetOrBuild(rel, "a");
  auto i3 = cache.GetOrBuild(rel, "b");
  ASSERT_TRUE(i1.ok() && i2.ok() && i3.ok());
  EXPECT_EQ(i1.value().get(), i2.value().get());
  EXPECT_NE(i1.value().get(), i3.value().get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CompositeIndexTest, SingleAttribute) {
  auto index = CompositeIndex::Build(TestRelation(), {"a"});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->Degree(Tuple({Value::Int64(1)})), 3u);
  EXPECT_EQ((*index)->MaxDegree(), 3u);
}

TEST(CompositeIndexTest, TwoAttributes) {
  auto index = CompositeIndex::Build(TestRelation(), {"a", "b"});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->Degree(Tuple({Value::Int64(1), Value::Int64(10)})), 1u);
  EXPECT_EQ((*index)->Degree(Tuple({Value::Int64(1), Value::Int64(99)})), 0u);
  EXPECT_EQ((*index)->NumKeys(), 5u);
  EXPECT_EQ((*index)->MaxDegree(), 1u);
}

TEST(CompositeIndexTest, KeyOrderMatters) {
  auto ab = CompositeIndex::Build(TestRelation(), {"a", "b"});
  auto ba = CompositeIndex::Build(TestRelation(), {"b", "a"});
  ASSERT_TRUE(ab.ok() && ba.ok());
  Tuple key_ab({Value::Int64(1), Value::Int64(10)});
  Tuple key_ba({Value::Int64(10), Value::Int64(1)});
  EXPECT_EQ((*ab)->Degree(key_ab), 1u);
  EXPECT_EQ((*ba)->Degree(key_ba), 1u);
  EXPECT_EQ((*ab)->Degree(key_ba), 0u);
}

TEST(CompositeIndexTest, EmptyAttributeListFails) {
  EXPECT_FALSE(CompositeIndex::Build(TestRelation(), {}).ok());
}

TEST(CompositeIndexTest, CsrArraysAgreeWithLookups) {
  // The raw CSR accessors are what the columnar walk loops read; they
  // must describe exactly the groups the encoded-key API serves.
  auto rel = TestRelation();
  auto index = CompositeIndex::Build(rel, {"a"}).value();
  const auto& offsets = index->group_offsets();
  const auto& rows = index->group_rows();
  ASSERT_EQ(offsets.size(), index->NumKeys() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), rows.size());
  EXPECT_EQ(rows.size(), rel->num_rows());

  // Every row appears exactly once, in the group its key maps to.
  std::vector<int> seen(rel->num_rows(), 0);
  for (uint32_t g = 0; g + 1 < offsets.size(); ++g) {
    RowSpan span = index->GroupRows(g);
    EXPECT_EQ(span.data(), rows.data() + offsets[g]);
    EXPECT_EQ(span.size(), offsets[g + 1] - offsets[g]);
    for (uint32_t row : span) {
      ++seen[row];
      EXPECT_EQ(index->GroupOfEncoded(rel->ProjectRow(row, {0}).Encode()), g);
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  // kNoGroup resolves to the empty span, never a CSR slice.
  EXPECT_TRUE(index->GroupRows(CompositeIndex::kNoGroup).empty());
}

TEST(CompositeIndexTest, MapRowsTranslatesRowsToGroups) {
  // MapRows is the probe-array build: for each row of the probe
  // relation, the group its projection maps to — kNoGroup for dangling
  // rows. This is what lets walk loops skip key encoding entirely.
  auto target = TestRelation();  // keyed on b below
  auto probe = MakeRelation("p", {"b", "c"},
                            {{10, 1}, {12, 2}, {99, 3}, {11, 4}})
                   .value();
  auto index = CompositeIndex::Build(target, {"b"}).value();
  auto mapped = index->MapRows(*probe);
  ASSERT_TRUE(mapped.ok());
  ASSERT_EQ(mapped->size(), probe->num_rows());
  for (size_t row = 0; row < probe->num_rows(); ++row) {
    const uint32_t expected =
        index->GroupOfEncoded(probe->ProjectRow(row, {0}).Encode());
    EXPECT_EQ((*mapped)[row], expected) << "row=" << row;
  }
  EXPECT_EQ((*mapped)[2], CompositeIndex::kNoGroup) << "dangling b=99";

  // A probe relation missing an indexed attribute fails loudly.
  auto bad = MakeRelation("q", {"z", "w"}, {{1, 0}}).value();
  EXPECT_FALSE(index->MapRows(*bad).ok());
}

TEST(CompositeIndexCacheTest, ProbeArraysAreCachedByIndexAndRelation) {
  CompositeIndexCache cache;
  auto target = TestRelation();
  auto probe = MakeRelation("p", {"a", "b"}, {{1, 10}, {9, 99}}).value();
  auto index = cache.GetOrBuild(target, {"a"}).value();
  auto p1 = cache.GetOrBuildProbe(index, probe);
  auto p2 = cache.GetOrBuildProbe(index, probe);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1->get(), p2->get()) << "same (index, probe) must share";
  ASSERT_EQ((*p1)->size(), 2u);
  EXPECT_NE((**p1)[0], CompositeIndex::kNoGroup);
  EXPECT_EQ((**p1)[1], CompositeIndex::kNoGroup);

  auto other_index = cache.GetOrBuild(target, {"b"}).value();
  auto p3 = cache.GetOrBuildProbe(other_index, probe);
  ASSERT_TRUE(p3.ok());
  EXPECT_NE(p1->get(), p3->get()) << "different index, different array";
}

TEST(CompositeIndexCacheTest, KeyedByRelationAndAttrs) {
  CompositeIndexCache cache;
  auto rel = TestRelation();
  auto i1 = cache.GetOrBuild(rel, {"a", "b"});
  auto i2 = cache.GetOrBuild(rel, {"a", "b"});
  auto i3 = cache.GetOrBuild(rel, {"b"});
  ASSERT_TRUE(i1.ok() && i2.ok() && i3.ok());
  EXPECT_EQ(i1.value().get(), i2.value().get());
  EXPECT_NE(i1.value().get(), i3.value().get());
}

TEST(RowMembershipIndexTest, ContainsProjectedRows) {
  auto index = RowMembershipIndex::Build(TestRelation(), {"a", "b"});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->Contains(Tuple({Value::Int64(1), Value::Int64(10)})));
  EXPECT_TRUE((*index)->Contains(Tuple({Value::Int64(3), Value::Int64(12)})));
  EXPECT_FALSE(
      (*index)->Contains(Tuple({Value::Int64(3), Value::Int64(10)})));
  EXPECT_EQ((*index)->NumDistinctRows(), 5u);
}

TEST(RowMembershipIndexTest, SubsetOfAttributes) {
  auto index = RowMembershipIndex::Build(TestRelation(), {"b"});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->Contains(Tuple({Value::Int64(10)})));
  EXPECT_FALSE((*index)->Contains(Tuple({Value::Int64(13)})));
  EXPECT_EQ((*index)->NumDistinctRows(), 3u);  // distinct b values
}

TEST(RowMembershipIndexTest, MissingAttributeFails) {
  EXPECT_FALSE(RowMembershipIndex::Build(TestRelation(), {"zz"}).ok());
}

// ---------------------------------------------------------------------------
// Exactness of the row-id table: every answer must equal membership in a
// set of canonical Tuple::Encode() strings, i.e. encoding identity.

double DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Small per-type pools, so random rows repeat and random probes both hit
// and miss. They hold the cases where value equality and encoding
// identity differ (0.0 / -0.0, NaN payloads) and strings that share
// prefixes, straddle the 8-byte hashing word or carry NUL bytes.
std::vector<Value> ValuePool(ValueType type) {
  std::vector<Value> pool;
  switch (type) {
    case ValueType::kInt64:
      for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{7},
                        std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max()}) {
        pool.push_back(Value::Int64(v));
      }
      break;
    case ValueType::kDouble:
      for (double v :
           {0.0, -0.0, 1.5, -1.5, std::numeric_limits<double>::infinity(),
            DoubleFromBits(0x7ff8000000000001ULL),
            DoubleFromBits(0x7ff8000000000002ULL),
            DoubleFromBits(0xfff8000000000000ULL)}) {
        pool.push_back(Value::Double(v));
      }
      break;
    case ValueType::kString:
      for (const std::string& v :
           {std::string(), std::string("a"), std::string("ab"),
            std::string("abcdefgh"), std::string("abcdefghi"),
            std::string("abcdefghijklmnop"), std::string("abcdefghijklmnoq"),
            std::string("a\0", 2), std::string("a\0b", 3),
            std::string("\0\0\0\0\0\0\0\0", 8),
            std::string("\0\0\0\0\0\0\0", 7)}) {
        pool.push_back(Value::String(v));
      }
      break;
  }
  return pool;
}

Value PoolValue(ValueType type, Rng& rng) {
  std::vector<Value> pool = ValuePool(type);
  return pool[rng.UniformInt(pool.size())];
}

RelationPtr RandomMixedRelation(uint64_t seed, size_t rows) {
  const Schema schema({{"i", ValueType::kInt64},
                       {"d", ValueType::kDouble},
                       {"s", ValueType::kString},
                       {"j", ValueType::kInt64}});
  Rng rng(seed);
  RelationBuilder builder("mixed", schema);
  std::vector<Tuple> appended;
  for (size_t r = 0; r < rows; ++r) {
    Tuple row;
    if (!appended.empty() && rng.Bernoulli(0.2)) {
      row = appended[rng.UniformInt(appended.size())];  // exact duplicate
    } else {
      for (const Field& f : schema.fields()) {
        row.Append(PoolValue(f.type, rng));
      }
    }
    EXPECT_TRUE(builder.AppendTuple(row).ok());
    appended.push_back(row);
  }
  return builder.Finish();
}

std::unordered_set<std::string> EncodedProjections(
    const Relation& rel, const std::vector<std::string>& attrs) {
  std::vector<int> cols;
  for (const auto& a : attrs) cols.push_back(rel.schema().FieldIndex(a));
  std::unordered_set<std::string> out;
  for (size_t row = 0; row < rel.num_rows(); ++row) {
    out.insert(rel.ProjectRow(row, cols).Encode());
  }
  return out;
}

// Random probe over `attrs`' types; with probability 1/8 one position
// takes a value of another type whose payload bits coincide where
// possible (Int64(bits of a double) vs Double).
Tuple RandomProbe(const Relation& rel, const std::vector<std::string>& attrs,
                  Rng& rng) {
  Tuple t;
  for (const auto& a : attrs) {
    const ValueType type = rel.schema().field(rel.schema().FieldIndex(a)).type;
    Value v = PoolValue(type, rng);
    if (rng.Bernoulli(0.125)) {
      if (type == ValueType::kDouble) {
        uint64_t bits;
        const double d = v.dbl();
        std::memcpy(&bits, &d, sizeof(bits));
        v = Value::Int64(static_cast<int64_t>(bits));
      } else if (type == ValueType::kInt64) {
        v = Value::Double(DoubleFromBits(static_cast<uint64_t>(v.int64())));
      } else {
        v = Value::Int64(static_cast<int64_t>(v.str().size()));
      }
    }
    t.Append(std::move(v));
  }
  return t;
}

TEST(RowMembershipIndexTest, MatchesEncodedSetOnRandomMixedRelations) {
  const std::vector<std::vector<std::string>> attribute_sets = {
      {"i", "d", "s", "j"}, {"s", "i"}, {"d"}, {"j", "s", "d"}};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RelationPtr rel = RandomMixedRelation(seed, 40 + 60 * seed);
    for (const auto& attrs : attribute_sets) {
      auto index = RowMembershipIndex::Build(rel, attrs);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      const auto reference = EncodedProjections(*rel, attrs);
      EXPECT_EQ((*index)->NumDistinctRows(), reference.size())
          << "seed=" << seed;
      std::vector<int> cols;
      for (const auto& a : attrs) cols.push_back(rel->schema().FieldIndex(a));
      for (size_t row = 0; row < rel->num_rows(); ++row) {
        EXPECT_TRUE((*index)->Contains(rel->ProjectRow(row, cols)))
            << "seed=" << seed << " row=" << row;
      }
      Rng rng(seed * 1000 + attrs.size());
      size_t hits = 0;
      for (int p = 0; p < 2000; ++p) {
        Tuple probe = RandomProbe(*rel, attrs, rng);
        const bool expected = reference.count(probe.Encode()) > 0;
        hits += expected;
        EXPECT_EQ((*index)->Contains(probe), expected)
            << "seed=" << seed << " probe=" << probe.ToString();
      }
      EXPECT_GT(hits, 0u) << "probes never hit; the test would be vacuous";
    }
  }
}

TEST(RowMembershipIndexTest, EncodingIdentityNotValueEquality) {
  const Schema schema({{"d", ValueType::kDouble}, {"s", ValueType::kString}});
  RelationBuilder builder("edge", schema);
  const double nan_a = DoubleFromBits(0x7ff8000000000001ULL);
  const double nan_b = DoubleFromBits(0x7ff8000000000002ULL);
  ASSERT_TRUE(builder
                  .AppendRow({Value::Double(0.0),
                              Value::String(std::string("a\0b", 3))})
                  .ok());
  ASSERT_TRUE(
      builder.AppendRow({Value::Double(nan_a), Value::String("pre")}).ok());
  ASSERT_TRUE(
      builder.AppendRow({Value::Double(nan_a), Value::String("pre")}).ok());
  auto index = RowMembershipIndex::Build(builder.Finish(), {"d", "s"});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->NumDistinctRows(), 2u);  // equal NaN payloads dedupe

  auto probe = [&](double d, std::string s) {
    return (*index)->Contains(Tuple({Value::Double(d), Value::String(s)}));
  };
  EXPECT_TRUE(probe(0.0, std::string("a\0b", 3)));
  EXPECT_FALSE(probe(-0.0, std::string("a\0b", 3)));  // -0.0 == 0.0 as values
  EXPECT_FALSE(probe(0.0, std::string("a\0c", 3)));
  EXPECT_FALSE(probe(0.0, std::string("a")));  // shares the prefix
  EXPECT_TRUE(probe(nan_a, "pre"));            // NaN != NaN as values
  EXPECT_FALSE(probe(nan_b, "pre"));           // other payload
  EXPECT_FALSE(probe(nan_a, "pref"));
  EXPECT_FALSE(probe(nan_a, "pr"));
  // Same bits, other type tag.
  EXPECT_FALSE((*index)->Contains(
      Tuple({Value::Int64(0), Value::String(std::string("a\0b", 3))})));
  // Wrong arity never matches.
  EXPECT_FALSE((*index)->Contains(Tuple({Value::Double(0.0)})));
}

TEST(RowMembershipIndexTest, EmptyRelationAndEmptyProjection) {
  auto empty = MakeRelation("e", {"a", "b"}, {}).value();
  auto index = RowMembershipIndex::Build(empty, {"a", "b"});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->NumDistinctRows(), 0u);
  EXPECT_FALSE((*index)->Contains(Tuple({Value::Int64(0), Value::Int64(0)})));
  EXPECT_FALSE((*index)->Contains(Tuple()));

  // Projecting onto no attribute: every row encodes to "", which is in
  // the set iff the relation has a row.
  auto none = RowMembershipIndex::Build(TestRelation(), {});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ((*none)->NumDistinctRows(), 1u);
  EXPECT_TRUE((*none)->Contains(Tuple()));
  EXPECT_FALSE((*none)->Contains(Tuple({Value::Int64(1)})));
  auto none_empty = RowMembershipIndex::Build(empty, {});
  ASSERT_TRUE(none_empty.ok());
  EXPECT_FALSE((*none_empty)->Contains(Tuple()));
}

TEST(RowMembershipIndexTest, FieldsOverloadReadsAnUnprojectedTuple) {
  RelationPtr rel = RandomMixedRelation(77, 300);
  const std::vector<std::string> attrs = {"s", "d", "i"};
  auto index = RowMembershipIndex::Build(rel, attrs);
  ASSERT_TRUE(index.ok());
  const auto reference = EncodedProjections(*rel, attrs);
  // A wide "output tuple": the probe attributes sit at positions 4, 1 and
  // 6, surrounded by unrelated values of every type.
  const std::vector<int> fields = {4, 1, 6};
  Rng rng(78);
  size_t hits = 0;
  for (int p = 0; p < 3000; ++p) {
    Tuple probe = RandomProbe(*rel, attrs, rng);
    std::vector<Value> wide = {PoolValue(ValueType::kString, rng),
                               probe.value(1),
                               PoolValue(ValueType::kInt64, rng),
                               PoolValue(ValueType::kDouble, rng),
                               probe.value(0),
                               PoolValue(ValueType::kString, rng),
                               probe.value(2)};
    const Tuple output(std::move(wide));
    const bool expected = reference.count(output.Project(fields).Encode()) > 0;
    hits += expected;
    EXPECT_EQ((*index)->Contains(output, fields), expected)
        << output.ToString();
    EXPECT_EQ((*index)->Contains(output.Project(fields)), expected);
  }
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace suj
