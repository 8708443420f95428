#include "join/exact_weight.h"

#include <algorithm>

#include "common/logging.h"
#include "common/prefetch.h"
#include "storage/key_codec.h"

namespace suj {

namespace {

// Schema column indexes of `attrs` within `rel`.
std::vector<int> ColumnIndexes(const Relation& rel,
                               const std::vector<std::string>& attrs) {
  std::vector<int> cols;
  cols.reserve(attrs.size());
  for (const auto& a : attrs) {
    int idx = rel.schema().FieldIndex(a);
    SUJ_CHECK(idx >= 0);
    cols.push_back(idx);
  }
  return cols;
}

}  // namespace

Result<std::shared_ptr<const ExactWeightIndex>> ExactWeightIndex::Build(
    JoinSpecPtr join, CompositeIndexCache* cache) {
  return Build(std::move(join), cache, /*with_root_alias=*/true);
}

Result<std::shared_ptr<const ExactWeightIndex>> ExactWeightIndex::Build(
    JoinSpecPtr join, CompositeIndexCache* cache, bool with_root_alias) {
  if (join == nullptr) return Status::InvalidArgument("null join");
  if (cache == nullptr) return Status::InvalidArgument("null index cache");

  auto index = std::shared_ptr<ExactWeightIndex>(
      new ExactWeightIndex(std::move(join)));
  const JoinSpec& spec = *index->join_;
  const JoinGraph& graph = spec.graph();
  const int n = spec.num_relations();

  index->weights_.resize(n);
  std::vector<CompositeIndexPtr> child_indexes(n);
  for (int r = 0; r < n; ++r) {
    if (graph.tree_parent()[r] >= 0) {
      auto built =
          cache->GetOrBuild(spec.relation(r), graph.tree_edge_attrs()[r]);
      if (!built.ok()) return built.status();
      child_indexes[r] = std::move(built).value();
    }
  }

  // Children before parents: reverse BFS order of the spanning tree.
  std::vector<int> order = graph.tree_order();
  std::reverse(order.begin(), order.end());
  // agg[r]: encoded tree-edge key of relation r -> sum of weights of r's
  // rows with that key. Consumed by r's parent.
  std::vector<std::unordered_map<std::string, double>> agg(n);

  std::string scratch;
  for (int r : order) {
    const Relation& rel = *spec.relation(r);
    auto& w = index->weights_[r];
    w.assign(rel.num_rows(), 1.0);
    for (int c : graph.tree_children()[r]) {
      const auto& child_agg = agg[c];
      std::vector<int> cols = ColumnIndexes(rel, graph.tree_edge_attrs()[c]);
      for (size_t row = 0; row < rel.num_rows(); ++row) {
        if (w[row] == 0.0) continue;
        auto it = child_agg.find(EncodeRowKey(rel, cols, row, &scratch));
        w[row] *= it == child_agg.end() ? 0.0 : it->second;
      }
    }
    if (graph.tree_parent()[r] >= 0) {
      std::vector<int> cols = ColumnIndexes(rel, graph.tree_edge_attrs()[r]);
      auto& my_agg = agg[r];
      for (size_t row = 0; row < rel.num_rows(); ++row) {
        if (w[row] > 0.0) {
          my_agg[EncodeRowKey(rel, cols, row, &scratch)] += w[row];
        }
      }
    }
  }

  int root = graph.tree_order().empty() ? 0 : graph.tree_order()[0];
  for (double w : index->weights_[root]) index->total_weight_ += w;
  index->exact_ =
      graph.tree_captures_all_constraints() && !spec.has_predicates();

  Status columnar =
      index->BuildColumnar(child_indexes, cache, with_root_alias);
  if (!columnar.ok()) return columnar;
  return std::shared_ptr<const ExactWeightIndex>(index);
}

Status ExactWeightIndex::BuildColumnar(
    const std::vector<CompositeIndexPtr>& child_indexes,
    CompositeIndexCache* cache, bool with_root_alias) {
  const JoinSpec& spec = *join_;
  const JoinGraph& graph = spec.graph();
  const int n = spec.num_relations();
  const auto& order = graph.tree_order();

  if (total_weight_ <= 0.0) return Status::OK();  // nothing samplable

  if (with_root_alias) {
    const int root = order.empty() ? 0 : order[0];
    auto root_alias = AliasTable::Build(weights_[root]);
    if (!root_alias.ok()) return root_alias.status();
    root_alias_ = std::move(root_alias).value();
  }

  columnar_edges_.resize(n);
  std::vector<double> group_weights;
  for (int r = 0; r < n; ++r) {
    const int parent = graph.tree_parent()[r];
    if (parent < 0) continue;
    const CompositeIndexPtr& child_index = child_indexes[r];
    auto probe = cache->GetOrBuildProbe(child_index, spec.relation(parent));
    if (!probe.ok()) return probe.status();

    ColumnarEdge& edge = columnar_edges_[r];
    edge.parent_probe = std::move(probe).value();
    const auto& w = weights_[r];
    const size_t num_groups = child_index->NumKeys();
    edge.offsets.assign(num_groups + 1, 0);
    edge.rows.reserve(child_index->group_rows().size());
    for (size_t g = 0; g < num_groups; ++g) {
      group_weights.clear();
      for (uint32_t row : child_index->GroupRows(static_cast<uint32_t>(g))) {
        if (w[row] > 0.0) {
          edge.rows.push_back(row);
          group_weights.push_back(w[row]);
        }
      }
      if (!group_weights.empty()) {
        auto begin =
            edge.alias.AppendGroup(group_weights.data(), group_weights.size());
        if (!begin.ok()) return begin.status();
        SUJ_CHECK(begin.value() == edge.offsets[g]);
      }
      edge.offsets[g + 1] = static_cast<uint32_t>(edge.rows.size());
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<ExactWeightSampler>> ExactWeightSampler::Create(
    JoinSpecPtr join, CompositeIndexCache* cache) {
  auto weights = ExactWeightIndex::Build(join, cache);
  if (!weights.ok()) return weights.status();
  return Create(std::move(weights).value());
}

Result<std::unique_ptr<ExactWeightSampler>> ExactWeightSampler::Create(
    ExactWeightIndexPtr weights) {
  if (weights == nullptr) return Status::InvalidArgument("null weight index");
  JoinSpecPtr join = weights->join();
  return std::unique_ptr<ExactWeightSampler>(
      new ExactWeightSampler(std::move(join), std::move(weights)));
}

bool ExactWeightSampler::TrySampleRows(Rng& rng, RowDraw* draw) {
  if (weights_->TotalWeight() <= 0.0) {
    ++stats_.attempts;
    ++stats_.dead_ends;
    return false;
  }
  draw->spec = join_.get();
  return DescendColumnar(
      static_cast<uint32_t>(weights_->root_alias().Sample(rng)), rng,
      draw->rows);
}

bool ExactWeightSampler::Accept(uint32_t* rows) {
  const JoinSpec& spec = *join_;
  if (spec.needs_checks() && !spec.PassesChecks(rows)) {
    ++stats_.rejections;  // non-tree constraint violated (cyclic join)
    return false;
  }
  if (spec.has_predicates() &&
      !spec.SatisfiesPredicates(RowDraw{&spec, rows})) {
    ++stats_.rejections;
    return false;
  }
  ++stats_.successes;
  return true;
}

bool ExactWeightSampler::DescendColumnar(uint32_t root_row, Rng& rng,
                                         uint32_t* rows) {
  ++stats_.attempts;
  const JoinGraph& graph = join_->graph();
  const auto& order = graph.tree_order();
  const size_t n = order.size();

  rows[order[0]] = root_row;
  for (size_t pos = 1; pos < n; ++pos) {
    const int r = order[pos];
    const auto& edge = weights_->columnar_edge(r);
    const uint32_t g = (*edge.parent_probe)[rows[graph.tree_parent()[r]]];
    if (g == CompositeIndex::kNoGroup) {
      ++stats_.dead_ends;
      return false;
    }
    const uint32_t begin = edge.offsets[g];
    const uint32_t len = edge.offsets[g + 1] - begin;
    if (len == 0) {
      // All candidate rows carry zero weight (pruned subtree): a dead end.
      ++stats_.dead_ends;
      return false;
    }
    const size_t local = edge.alias.SampleGroup(begin, len, rng);
    rows[r] = edge.rows[begin + local];
  }
  return Accept(rows);
}

size_t ExactWeightSampler::TrySampleBatch(size_t count, Rng& rng,
                                          std::vector<Tuple>* out) {
  size_t appended = 0;
  if (count < 2) {
    for (size_t i = 0; i < count; ++i) {
      auto t = TrySample(rng);
      if (t.has_value()) {
        out->push_back(*std::move(t));
        ++appended;
      }
    }
    return appended;
  }

  stats_.attempts += count;
  if (weights_->TotalWeight() <= 0.0) {
    stats_.dead_ends += count;
    return 0;
  }
  const JoinGraph& graph = join_->graph();
  const auto& order = graph.tree_order();
  const size_t n = order.size();

  batch_rows_.assign(n == 0 ? 0 : join_->num_relations() * count, 0);
  batch_begin_.assign(count, 0);
  batch_len_.assign(count, 0);
  batch_alive_.assign(count, 1);

  const AliasTable& root_alias = weights_->root_alias();
  uint32_t* root_rows = batch_rows_.data() +
                        static_cast<size_t>(order[0]) * count;
  for (size_t i = 0; i < count; ++i) {
    root_rows[i] = static_cast<uint32_t>(root_alias.Sample(rng));
  }

  // Level-synchronous descent: finish level p for every in-flight walk
  // before starting level p+1, prefetching each walk's next cache lines a
  // pass ahead so the dependent misses of independent walks overlap.
  for (size_t pos = 1; pos < n; ++pos) {
    const int r = order[pos];
    const auto& edge = weights_->columnar_edge(r);
    const uint32_t* probe = edge.parent_probe->data();
    const uint32_t* offsets = edge.offsets.data();
    const uint32_t* parent_rows =
        batch_rows_.data() +
        static_cast<size_t>(graph.tree_parent()[r]) * count;
    uint32_t* rows_out = batch_rows_.data() + static_cast<size_t>(r) * count;

    // Pass 1: probe the parent rows; prefetch each group's offset pair.
    for (size_t i = 0; i < count; ++i) {
      if (!batch_alive_[i]) continue;
      const uint32_t g = probe[parent_rows[i]];
      if (g == CompositeIndex::kNoGroup) {
        batch_alive_[i] = 0;
        ++stats_.dead_ends;
        continue;
      }
      batch_begin_[i] = g;  // group id until pass 2 resolves the slice
      SUJ_PREFETCH(offsets + g);
    }
    // Pass 2: resolve group slices; prefetch alias and row storage.
    for (size_t i = 0; i < count; ++i) {
      if (!batch_alive_[i]) continue;
      const uint32_t g = batch_begin_[i];
      const uint32_t begin = offsets[g];
      const uint32_t len = offsets[g + 1] - begin;
      if (len == 0) {
        batch_alive_[i] = 0;
        ++stats_.dead_ends;
        continue;
      }
      batch_begin_[i] = begin;
      batch_len_[i] = len;
      SUJ_PREFETCH(edge.alias.prob_data() + begin);
      SUJ_PREFETCH(edge.alias.alias_data() + begin);
      SUJ_PREFETCH(edge.rows.data() + begin);
    }
    // Pass 3: alias draws. RNG is consumed in walk order within the level,
    // only for walks still alive, so the stream is a pure function of the
    // batch's inputs.
    for (size_t i = 0; i < count; ++i) {
      if (!batch_alive_[i]) continue;
      const size_t local =
          edge.alias.SampleGroup(batch_begin_[i], batch_len_[i], rng);
      rows_out[i] = edge.rows[batch_begin_[i] + local];
    }
  }

  const size_t m = static_cast<size_t>(join_->num_relations());
  uint32_t rows[kMaxJoinRelations];
  for (size_t i = 0; i < count; ++i) {
    if (!batch_alive_[i]) continue;
    for (size_t r = 0; r < m; ++r) rows[r] = batch_rows_[r * count + i];
    if (Accept(rows)) {
      out->push_back(RowDraw{join_.get(), rows}.Materialize());
      ++appended;
    }
  }
  return appended;
}

}  // namespace suj
