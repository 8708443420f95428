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
  const Schema& out_schema = spec.output_schema();
  const int n = spec.num_relations();
  const auto& order = graph.tree_order();

  // Materialization plan: in tree order, the first relation carrying an
  // output field writes it; later carriers only check it (and only cyclic
  // trees ever need those checks evaluated). A child's group is probed
  // from its parent's row even when the parent is not an edge attribute's
  // first assigner: tree edge attributes are exactly those parent and
  // child share, so the parent's checks() reject any walk whose parent
  // value disagrees with the assigned one.
  writes_.assign(n, {});
  checks_.assign(n, {});
  std::vector<bool> assigned(out_schema.num_fields(), false);
  for (int r : order) {
    const Schema& rel_schema = spec.relation(r)->schema();
    for (size_t c = 0; c < rel_schema.num_fields(); ++c) {
      int out_idx = out_schema.FieldIndex(rel_schema.field(c).name);
      SUJ_CHECK(out_idx >= 0);
      auto pair = std::make_pair(static_cast<uint16_t>(c),
                                 static_cast<uint16_t>(out_idx));
      if (!assigned[out_idx]) {
        assigned[out_idx] = true;
        writes_[r].push_back(pair);
      } else {
        checks_[r].push_back(pair);
      }
    }
  }

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
  auto sampler = std::unique_ptr<ExactWeightSampler>(
      new ExactWeightSampler(std::move(join), std::move(weights)));
  sampler->need_checks_ =
      !sampler->join_->graph().tree_captures_all_constraints();
  return sampler;
}

std::optional<Tuple> ExactWeightSampler::TrySample(Rng& rng) {
  if (weights_->TotalWeight() <= 0.0) {
    ++stats_.attempts;
    ++stats_.dead_ends;
    return std::nullopt;
  }
  return DescendColumnar(
      static_cast<uint32_t>(weights_->root_alias().Sample(rng)), rng);
}

std::optional<Tuple> ExactWeightSampler::Materialize(const uint32_t* chosen,
                                                     size_t stride,
                                                     size_t offset) {
  const JoinSpec& spec = *join_;
  const Schema& out_schema = spec.output_schema();
  std::vector<Value> assignment(out_schema.num_fields());
  for (int r : spec.graph().tree_order()) {
    const Relation& rel = *spec.relation(r);
    const uint32_t row = chosen[static_cast<size_t>(r) * stride + offset];
    for (const auto& [col, out_idx] : weights_->writes(r)) {
      assignment[out_idx] = rel.GetValue(row, col);
    }
    if (need_checks_) {
      for (const auto& [col, out_idx] : weights_->checks(r)) {
        if (!(assignment[out_idx] == rel.GetValue(row, col))) {
          ++stats_.rejections;  // non-tree constraint violated (cyclic join)
          return std::nullopt;
        }
      }
    }
  }
  Tuple out(std::move(assignment));
  if (!spec.SatisfiesPredicates(out)) {
    ++stats_.rejections;
    return std::nullopt;
  }
  ++stats_.successes;
  return out;
}

std::optional<Tuple> ExactWeightSampler::DescendColumnar(uint32_t root_row,
                                                         Rng& rng) {
  ++stats_.attempts;
  const JoinGraph& graph = join_->graph();
  const auto& order = graph.tree_order();
  const size_t n = order.size();

  uint32_t chosen[64];
  SUJ_CHECK(n <= 64);
  chosen[order[0]] = root_row;
  for (size_t pos = 1; pos < n; ++pos) {
    const int r = order[pos];
    const auto& edge = weights_->columnar_edge(r);
    const uint32_t g =
        (*edge.parent_probe)[chosen[graph.tree_parent()[r]]];
    if (g == CompositeIndex::kNoGroup) {
      ++stats_.dead_ends;
      return std::nullopt;
    }
    const uint32_t begin = edge.offsets[g];
    const uint32_t len = edge.offsets[g + 1] - begin;
    if (len == 0) {
      // All candidate rows carry zero weight (pruned subtree): a dead end.
      ++stats_.dead_ends;
      return std::nullopt;
    }
    const size_t local = edge.alias.SampleGroup(begin, len, rng);
    chosen[r] = edge.rows[begin + local];
  }
  return Materialize(chosen, 1, 0);
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

  for (size_t i = 0; i < count; ++i) {
    if (!batch_alive_[i]) continue;
    auto t = Materialize(batch_rows_.data(), count, i);
    if (t.has_value()) {
      out->push_back(*std::move(t));
      ++appended;
    }
  }
  return appended;
}

}  // namespace suj
