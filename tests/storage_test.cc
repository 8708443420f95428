// Tests for storage/: Value, Schema, Tuple, Relation, Catalog.

#include <gtest/gtest.h>

#include <set>

#include "storage/catalog.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/key_codec.h"
#include "storage/tuple.h"
#include "storage/value.h"

namespace suj {
namespace {

TEST(ValueTest, EqualityAndType) {
  EXPECT_EQ(Value::Int64(3), Value::Int64(3));
  EXPECT_NE(Value::Int64(3), Value::Int64(4));
  EXPECT_NE(Value::Int64(3), Value::Double(3.0));  // typed equality
  EXPECT_EQ(Value::String("ab"), Value::String("ab"));
  EXPECT_NE(Value::String("ab"), Value::String("ac"));
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value::Int64(1), Value::Int64(2));
  EXPECT_LT(Value::Double(1.5), Value::Double(2.5));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  // Cross-type ordering is by type tag, and is total.
  EXPECT_LT(Value::Int64(100), Value::Double(0.0));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Int64(42).Hash());
  EXPECT_EQ(Value::String("xyz").Hash(), Value::String("xyz").Hash());
  EXPECT_NE(Value::Int64(1).Hash(), Value::Int64(2).Hash());
}

TEST(ValueTest, EncodingInjective) {
  std::set<std::string> encodings;
  std::vector<Value> values = {
      Value::Int64(0),      Value::Int64(1),     Value::Int64(-1),
      Value::Double(0.0),   Value::Double(1.0),  Value::String(""),
      Value::String("a"),   Value::String("ab"), Value::String("b"),
      Value::Int64(256),
  };
  for (const auto& v : values) {
    std::string enc;
    v.EncodeTo(&enc);
    EXPECT_TRUE(encodings.insert(enc).second)
        << "duplicate encoding for " << v.ToString();
  }
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(5).ToString(), "5");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
}

TEST(SchemaTest, FieldLookup) {
  Schema s({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(s.num_fields(), 2u);
  EXPECT_EQ(s.FieldIndex("a"), 0);
  EXPECT_EQ(s.FieldIndex("b"), 1);
  EXPECT_EQ(s.FieldIndex("c"), -1);
  EXPECT_TRUE(s.HasField("a"));
  EXPECT_FALSE(s.HasField("z"));
}

TEST(SchemaTest, CommonFields) {
  Schema s1({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
  Schema s2({{"b", ValueType::kInt64}, {"c", ValueType::kInt64}});
  EXPECT_EQ(s1.CommonFields(s2), std::vector<std::string>{"b"});
  EXPECT_TRUE(Schema().CommonFields(s1).empty());
}

TEST(SchemaTest, Project) {
  Schema s({{"a", ValueType::kInt64},
            {"b", ValueType::kString},
            {"c", ValueType::kDouble}});
  auto p = s.Project({"c", "a"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->field(0).name, "c");
  EXPECT_EQ(p->field(1).name, "a");
  EXPECT_FALSE(s.Project({"z"}).ok());
}

TEST(SchemaTest, Equality) {
  Schema s1({{"a", ValueType::kInt64}});
  Schema s2({{"a", ValueType::kInt64}});
  Schema s3({{"a", ValueType::kDouble}});
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1, s3);
}

TEST(TupleTest, EncodeInjectiveAcrossArity) {
  Tuple t1({Value::Int64(1), Value::Int64(2)});
  Tuple t2({Value::Int64(1), Value::Int64(3)});
  Tuple t3({Value::Int64(1)});
  EXPECT_NE(t1.Encode(), t2.Encode());
  EXPECT_NE(t1.Encode(), t3.Encode());
  EXPECT_EQ(t1.Encode(), Tuple({Value::Int64(1), Value::Int64(2)}).Encode());
}

TEST(TupleTest, ProjectAndMap) {
  Tuple t({Value::Int64(10), Value::Int64(20), Value::Int64(30)});
  Tuple p = t.Project({2, 0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.value(0), Value::Int64(30));
  EXPECT_EQ(p.value(1), Value::Int64(10));

  Schema from({{"x", ValueType::kInt64},
               {"y", ValueType::kInt64},
               {"z", ValueType::kInt64}});
  Schema to({{"z", ValueType::kInt64}, {"x", ValueType::kInt64}});
  Tuple m = t.MapToSchema(from, to);
  EXPECT_EQ(m.value(0), Value::Int64(30));
  EXPECT_EQ(m.value(1), Value::Int64(10));
}

TEST(RelationBuilderTest, BuildAndAccess) {
  RelationBuilder b("r", Schema({{"k", ValueType::kInt64},
                                 {"name", ValueType::kString},
                                 {"w", ValueType::kDouble}}));
  ASSERT_TRUE(b.AppendRow({Value::Int64(1), Value::String("one"),
                           Value::Double(1.5)})
                  .ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(2), Value::String("two"),
                           Value::Double(2.5)})
                  .ok());
  RelationPtr r = b.Finish();
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->num_columns(), 3u);
  EXPECT_EQ(r->GetInt64(0, 0), 1);
  EXPECT_EQ(r->GetString(1, 1), "two");
  EXPECT_DOUBLE_EQ(r->GetDouble(1, 2), 2.5);
  EXPECT_EQ(r->GetValue(0, 1), Value::String("one"));
  Tuple t = r->GetTuple(1);
  EXPECT_EQ(t.value(0), Value::Int64(2));
}

TEST(RelationBuilderTest, RejectsArityMismatch) {
  RelationBuilder b("r", Schema({{"k", ValueType::kInt64}}));
  EXPECT_FALSE(b.AppendRow({Value::Int64(1), Value::Int64(2)}).ok());
}

TEST(RelationBuilderTest, RejectsTypeMismatch) {
  RelationBuilder b("r", Schema({{"k", ValueType::kInt64}}));
  Status s = b.AppendRow({Value::String("oops")});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(RelationBuilderTest, FinishResetsBuilder) {
  RelationBuilder b("r", Schema({{"k", ValueType::kInt64}}));
  ASSERT_TRUE(b.AppendRow({Value::Int64(1)}).ok());
  RelationPtr first = b.Finish();
  EXPECT_EQ(first->num_rows(), 1u);
  ASSERT_TRUE(b.AppendRow({Value::Int64(2)}).ok());
  RelationPtr second = b.Finish();
  EXPECT_EQ(second->num_rows(), 1u);
  EXPECT_EQ(first->num_rows(), 1u);  // first unaffected
}

TEST(RelationTest, ProjectRow) {
  RelationBuilder b("r", Schema({{"a", ValueType::kInt64},
                                 {"b", ValueType::kInt64}}));
  ASSERT_TRUE(b.AppendRow({Value::Int64(7), Value::Int64(8)}).ok());
  RelationPtr r = b.Finish();
  Tuple p = r->ProjectRow(0, {1});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.value(0), Value::Int64(8));
}

TEST(KeyCodecTest, ByteIdenticalToTupleEncode) {
  // The codec is the hot-loop form of ProjectRow(...).Encode(): it must
  // produce the exact same bytes for every type, row, and column order,
  // or indexes built from it would disagree with Tuple-keyed probes.
  RelationBuilder b("r", Schema({{"k", ValueType::kInt64},
                                 {"name", ValueType::kString},
                                 {"w", ValueType::kDouble}}));
  ASSERT_TRUE(b.AppendRow({Value::Int64(1), Value::String("one"),
                           Value::Double(1.5)})
                  .ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(-7), Value::String(""),
                           Value::Double(-0.25)})
                  .ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(1), Value::String("one|x"),
                           Value::Double(0.0)})
                  .ok());
  RelationPtr r = b.Finish();

  std::string scratch;
  const std::vector<std::vector<int>> projections = {
      {0}, {1}, {2}, {0, 1}, {2, 0}, {1, 2, 0}};
  for (const auto& cols : projections) {
    for (size_t row = 0; row < r->num_rows(); ++row) {
      // Scratch reuse across iterations must not leak previous bytes.
      const std::string& key = EncodeRowKey(*r, cols, row, &scratch);
      EXPECT_EQ(key, r->ProjectRow(row, cols).Encode())
          << "row=" << row << " cols=" << cols.size();
    }
  }

  // Append form composes into a larger buffer without separators lost.
  std::string combined = "prefix:";
  AppendRowKey(*r, {0, 1}, 0, &combined);
  EXPECT_EQ(combined,
            "prefix:" + r->ProjectRow(0, {0, 1}).Encode());
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog catalog;
  RelationBuilder b("t", Schema({{"a", ValueType::kInt64}}));
  ASSERT_TRUE(b.AppendRow({Value::Int64(1)}).ok());
  RelationPtr r = b.Finish();
  ASSERT_TRUE(catalog.Register(r).ok());
  EXPECT_TRUE(catalog.Contains("t"));
  EXPECT_FALSE(catalog.Contains("u"));
  auto got = catalog.Get("t");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().get(), r.get());
  EXPECT_FALSE(catalog.Get("u").ok());
  EXPECT_FALSE(catalog.Register(r).ok());  // duplicate
  EXPECT_EQ(catalog.TotalRows(), 1u);
  catalog.Upsert(r);  // idempotent
  EXPECT_EQ(catalog.size(), 1u);
}

}  // namespace
}  // namespace suj
