#include "join/olken_sampler.h"

#include "common/logging.h"

namespace suj {

Result<std::unique_ptr<OlkenJoinSampler>> OlkenJoinSampler::Create(
    JoinSpecPtr join, CompositeIndexCache* cache) {
  if (join == nullptr) return Status::InvalidArgument("null join");
  if (cache == nullptr) return Status::InvalidArgument("null index cache");

  auto sampler =
      std::unique_ptr<OlkenJoinSampler>(new OlkenJoinSampler(join));
  const JoinGraph& graph = join->graph();
  const Schema& out_schema = join->output_schema();
  const auto& order = graph.walk_order();

  sampler->size_bound_ =
      static_cast<double>(join->relation(order[0])->num_rows());
  for (size_t pos = 1; pos < order.size(); ++pos) {
    Step step;
    step.relation = order[pos];
    auto index = cache->GetOrBuild(join->relation(order[pos]),
                                   graph.bound_attrs()[pos]);
    if (!index.ok()) return index.status();
    step.index = std::move(index).value();
    for (const auto& a : graph.bound_attrs()[pos]) {
      int idx = out_schema.FieldIndex(a);
      SUJ_CHECK(idx >= 0);
      step.key_fields.push_back(idx);
    }
    step.max_degree = step.index->MaxDegree();
    sampler->size_bound_ *= static_cast<double>(step.max_degree);
    // Columnar probe source (see WanderJoinSampler::Create): every bound
    // attribute is probe-key-constrained where first bound, so any earlier
    // relation carrying all of them can feed a row->group probe array.
    for (size_t q = pos; q-- > 0;) {
      const Schema& src = join->relation(order[q])->schema();
      bool covers = true;
      for (const auto& a : graph.bound_attrs()[pos]) {
        if (!src.HasField(a)) {
          covers = false;
          break;
        }
      }
      if (!covers) continue;
      auto probe =
          cache->GetOrBuildProbe(step.index, join->relation(order[q]));
      if (!probe.ok()) continue;
      step.probe = std::move(probe).value();
      step.source_pos = static_cast<int>(q);
      break;
    }
    sampler->steps_.push_back(std::move(step));
  }

  sampler->columnar_ = true;
  for (const Step& step : sampler->steps_) {
    if (step.source_pos < 0) sampler->columnar_ = false;
  }
  return sampler;
}

bool OlkenJoinSampler::ApplyRow(int relation, uint32_t row,
                                std::vector<Value>* assignment,
                                std::vector<bool>* assigned) const {
  const Relation& rel = *join_->relation(relation);
  const Schema& out_schema = join_->output_schema();
  for (size_t c = 0; c < rel.schema().num_fields(); ++c) {
    int out_idx = out_schema.FieldIndex(rel.schema().field(c).name);
    SUJ_CHECK(out_idx >= 0);
    Value v = rel.GetValue(row, c);
    if ((*assigned)[out_idx]) {
      // Bound attributes always match by probe construction; a mismatch
      // would indicate a walk-order bug.
      if (!((*assignment)[out_idx] == v)) return false;
    } else {
      (*assignment)[out_idx] = std::move(v);
      (*assigned)[out_idx] = true;
    }
  }
  return true;
}

bool OlkenJoinSampler::TrySampleRows(Rng& rng, RowDraw* draw) {
  ++stats_.attempts;
  if (size_bound_ <= 0.0) {
    ++stats_.dead_ends;
    return false;
  }
  double accept_prob = 1.0;
  const bool walked = columnar_ ? WalkColumnar(rng, draw->rows, &accept_prob)
                                : WalkGeneric(rng, draw->rows, &accept_prob);
  if (!walked) {
    ++stats_.dead_ends;
    return false;
  }
  if (!rng.Bernoulli(accept_prob)) {
    ++stats_.rejections;
    return false;
  }
  // Every shared attribute was probed by its encoding, so the rows agree
  // on it and the spec's first-assigner plan materializes the walk.
  draw->spec = join_.get();
  if (join_->has_predicates() && !join_->SatisfiesPredicates(*draw)) {
    ++stats_.rejections;
    return false;
  }
  ++stats_.successes;
  return true;
}

bool OlkenJoinSampler::WalkColumnar(Rng& rng, uint32_t* rows,
                                    double* accept_prob) {
  const JoinSpec& spec = *join_;
  const auto& order = spec.graph().walk_order();

  uint32_t chosen[kMaxJoinRelations];
  const RelationPtr& first = spec.relation(order[0]);
  chosen[0] = static_cast<uint32_t>(rng.UniformInt(first->num_rows()));
  rows[order[0]] = chosen[0];

  for (size_t pos = 1; pos < order.size(); ++pos) {
    const Step& step = steps_[pos - 1];
    const uint32_t g = (*step.probe)[chosen[step.source_pos]];
    const RowSpan candidates = step.index->GroupRows(g);
    if (candidates.empty()) return false;
    chosen[pos] = candidates[rng.UniformInt(candidates.size())];
    rows[order[pos]] = chosen[pos];
    *accept_prob *= static_cast<double>(candidates.size()) /
                    static_cast<double>(step.max_degree);
  }
  return true;
}

bool OlkenJoinSampler::WalkGeneric(Rng& rng, uint32_t* rows,
                                   double* accept_prob) {
  const JoinSpec& spec = *join_;
  const Schema& out_schema = spec.output_schema();
  const auto& order = spec.graph().walk_order();

  // The walk probes by bound attribute values, so it tracks them.
  std::vector<Value> assignment(out_schema.num_fields());
  std::vector<bool> assigned(out_schema.num_fields(), false);

  const RelationPtr& first = spec.relation(order[0]);
  rows[order[0]] = static_cast<uint32_t>(rng.UniformInt(first->num_rows()));
  bool ok = ApplyRow(order[0], rows[order[0]], &assignment, &assigned);
  SUJ_CHECK(ok);

  for (const Step& step : steps_) {
    std::vector<Value> key_values;
    key_values.reserve(step.key_fields.size());
    for (int f : step.key_fields) key_values.push_back(assignment[f]);
    const RowSpan candidates =
        step.index->LookupEncoded(Tuple(std::move(key_values)).Encode());
    if (candidates.empty()) return false;
    rows[step.relation] = candidates[rng.UniformInt(candidates.size())];
    *accept_prob *= static_cast<double>(candidates.size()) /
                    static_cast<double>(step.max_degree);
    ok = ApplyRow(step.relation, rows[step.relation], &assignment, &assigned);
    SUJ_CHECK(ok);
  }
  return true;
}

}  // namespace suj
