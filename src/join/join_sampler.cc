#include "join/join_sampler.h"

namespace suj {

std::optional<Tuple> JoinSampler::TrySample(Rng& rng) {
  uint32_t rows[kMaxJoinRelations];
  RowDraw draw{nullptr, rows};
  if (!TrySampleRows(rng, &draw)) return std::nullopt;
  return draw.Materialize();
}

Status JoinSampler::SampleRows(Rng& rng, RowDraw* draw,
                               uint64_t max_attempts) {
  if (IsEmpty()) {
    return Status::FailedPrecondition("join '" + join_->name() +
                                      "' is empty; nothing to sample");
  }
  for (uint64_t i = 0; i < max_attempts; ++i) {
    if (TrySampleRows(rng, draw)) return Status::OK();
  }
  return Status::Internal("join sampler exceeded " +
                          std::to_string(max_attempts) +
                          " attempts without an accepted tuple");
}

Result<Tuple> JoinSampler::Sample(Rng& rng, uint64_t max_attempts) {
  uint32_t rows[kMaxJoinRelations];
  RowDraw draw{nullptr, rows};
  SUJ_RETURN_NOT_OK(SampleRows(rng, &draw, max_attempts));
  return draw.Materialize();
}

}  // namespace suj
