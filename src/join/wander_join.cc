#include "join/wander_join.h"

#include "common/logging.h"

namespace suj {

Result<std::unique_ptr<WanderJoinSampler>> WanderJoinSampler::Create(
    JoinSpecPtr join, CompositeIndexCache* cache) {
  if (join == nullptr) return Status::InvalidArgument("null join");
  if (cache == nullptr) return Status::InvalidArgument("null index cache");

  auto sampler =
      std::unique_ptr<WanderJoinSampler>(new WanderJoinSampler(join));
  const JoinGraph& graph = join->graph();
  const Schema& out_schema = join->output_schema();
  const auto& order = graph.walk_order();
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
    // Columnar probe source: the most recent earlier position whose
    // relation carries every bound attribute. Every bound attribute is
    // probe-key-constrained at the position that first binds it, so any
    // carrier holds the walk's assigned value.
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
      if (!probe.ok()) continue;  // e.g. type mismatch; probe generically
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

WalkOutcome WanderJoinSampler::Walk(Rng& rng) {
  ++num_walks_;
  const RelationPtr& first = join_->relation(join_->graph().walk_order()[0]);
  if (first->num_rows() == 0) return WalkOutcome{};
  const uint32_t row0 =
      static_cast<uint32_t>(rng.UniformInt(first->num_rows()));
  const double p0 = 1.0 / static_cast<double>(first->num_rows());
  return columnar_ ? WalkColumnarFrom(row0, p0, rng)
                   : WalkGenericFrom(row0, p0, rng);
}

WalkOutcome WanderJoinSampler::WalkFromRoot(uint32_t root_row,
                                            double root_probability,
                                            Rng& rng) {
  ++num_walks_;
  return columnar_ ? WalkColumnarFrom(root_row, root_probability, rng)
                   : WalkGenericFrom(root_row, root_probability, rng);
}

WalkOutcome WanderJoinSampler::WalkColumnarFrom(uint32_t root_row,
                                                double root_probability,
                                                Rng& rng) {
  WalkOutcome outcome;
  const JoinSpec& spec = *join_;
  const auto& order = spec.graph().walk_order();

  // Phase 1: choose rows through flat arrays only.
  uint32_t chosen[kMaxJoinRelations];  // by walk position
  uint32_t rows[kMaxJoinRelations];    // by relation
  chosen[0] = root_row;
  rows[order[0]] = root_row;
  double probability = root_probability;
  for (size_t pos = 1; pos < order.size(); ++pos) {
    const Step& step = steps_[pos - 1];
    const uint32_t g = (*step.probe)[chosen[step.source_pos]];
    const RowSpan candidates = step.index->GroupRows(g);
    if (candidates.empty()) return outcome;  // dead end
    chosen[pos] = candidates[rng.UniformInt(candidates.size())];
    rows[order[pos]] = chosen[pos];
    probability /= static_cast<double>(candidates.size());
  }

  // Phase 2: materialize the completed walk. Every shared attribute was
  // probed by its encoding, so the rows agree on it and the spec's
  // first-assigner plan reads each output field once.
  const RowDraw draw{&spec, rows};
  if (spec.has_predicates() && !spec.SatisfiesPredicates(draw)) {
    return outcome;  // predicate rejection
  }
  outcome.success = true;
  outcome.tuple = draw.Materialize();
  outcome.probability = probability;
  ++num_successes_;
  return outcome;
}

WalkOutcome WanderJoinSampler::WalkGenericFrom(uint32_t root_row,
                                               double root_probability,
                                               Rng& rng) {
  WalkOutcome outcome;
  const JoinSpec& spec = *join_;
  const Schema& out_schema = spec.output_schema();
  const auto& order = spec.graph().walk_order();

  std::vector<Value> assignment(out_schema.num_fields());
  std::vector<bool> assigned(out_schema.num_fields(), false);
  auto apply_row = [&](int relation, uint32_t row) {
    const Relation& rel = *spec.relation(relation);
    for (size_t c = 0; c < rel.schema().num_fields(); ++c) {
      int out_idx = out_schema.FieldIndex(rel.schema().field(c).name);
      if (!assigned[out_idx]) {
        assignment[out_idx] = rel.GetValue(row, c);
        assigned[out_idx] = true;
      }
    }
  };

  apply_row(order[0], root_row);
  double probability = root_probability;

  for (const Step& step : steps_) {
    std::vector<Value> key_values;
    key_values.reserve(step.key_fields.size());
    for (int f : step.key_fields) key_values.push_back(assignment[f]);
    const RowSpan candidates =
        step.index->LookupEncoded(Tuple(std::move(key_values)).Encode());
    if (candidates.empty()) return outcome;  // dead end
    uint32_t chosen = candidates[rng.UniformInt(candidates.size())];
    probability /= static_cast<double>(candidates.size());
    apply_row(step.relation, chosen);
  }

  Tuple out(std::move(assignment));
  if (!spec.SatisfiesPredicates(out)) return outcome;  // predicate rejection
  outcome.success = true;
  outcome.tuple = std::move(out);
  outcome.probability = probability;
  ++num_successes_;
  return outcome;
}

WalkOutcome WanderJoinSizeEstimator::Step(Rng& rng) {
  WalkOutcome outcome = sampler_->Walk(rng);
  if (outcome.success) {
    ht_.AddSuccess(outcome.probability);
  } else {
    ht_.AddFailure();
  }
  return outcome;
}

void WanderJoinSizeEstimator::RunUntilConfident(Rng& rng, double confidence,
                                                double relative_halfwidth,
                                                uint64_t min_walks,
                                                uint64_t max_walks) {
  while (ht_.num_draws() < min_walks) Step(rng);
  while (ht_.num_draws() < max_walks &&
         ht_.RelativeHalfWidth(confidence) > relative_halfwidth) {
    Step(rng);
  }
}

}  // namespace suj
