#include "queries.h"

#include <utility>

#include "common/random.h"

namespace perfbench {

using recpriv::Rng;
using recpriv::client::QueryRequest;
using recpriv::client::QuerySpec;

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t state = a ^ (b * 0x9E3779B97F4A7C15ULL);
  recpriv::SplitMix64Next(state);
  return recpriv::SplitMix64Next(state);
}

QuerySet::QuerySet(recpriv::table::SchemaPtr schema, uint64_t seed,
                   QueryMix mix)
    : schema_(std::move(schema)), seed_(seed), mix_(mix),
      public_(schema_->public_indices()) {
  for (double w : mix_.dim_weights) weight_total_ += w;
}

QuerySet::Drawn QuerySet::Draw(uint32_t id) const {
  Rng rng(MixSeed(seed_, 0x51EC000000000000ULL | id));
  double pick = rng.NextDouble() * weight_total_;
  size_t dims = 0;
  while (dims + 1 < mix_.dim_weights.size() &&
         pick >= mix_.dim_weights[dims]) {
    pick -= mix_.dim_weights[dims];
    ++dims;
  }
  dims = std::min(dims, public_.size());
  std::vector<size_t> attrs = public_;
  Drawn drawn;
  for (size_t d = 0; d < dims; ++d) {
    const size_t j = d + size_t(rng.NextUint64(attrs.size() - d));
    std::swap(attrs[d], attrs[j]);
    const auto& domain = schema_->attribute(attrs[d]).domain;
    drawn.where.emplace_back(attrs[d],
                             uint32_t(rng.NextUint64(domain.size())));
  }
  drawn.sa = uint32_t(rng.NextUint64(schema_->sensitive().domain.size()));
  return drawn;
}

QuerySpec QuerySet::Spec(uint32_t id) const {
  const Drawn drawn = Draw(id);
  QuerySpec spec;
  for (const auto& [attr, code] : drawn.where) {
    const recpriv::table::Attribute& a = schema_->attribute(attr);
    spec.where.emplace_back(a.name, a.domain.value(code));
  }
  spec.sa = schema_->sensitive().domain.value(drawn.sa);
  return spec;
}

recpriv::query::CountQuery QuerySet::Query(uint32_t id) const {
  const Drawn drawn = Draw(id);
  recpriv::query::CountQuery q(schema_->num_attributes());
  for (const auto& [attr, code] : drawn.where) q.na_predicate.Bind(attr, code);
  q.dimensionality = drawn.where.size();
  q.sa_code = drawn.sa;
  return q;
}

std::vector<uint32_t> QuerySet::RequestIds(uint64_t stream,
                                           uint64_t index) const {
  Rng rng(MixSeed(MixSeed(seed_, stream), index));
  const uint32_t span = mix_.max_per_request - mix_.min_per_request + 1;
  const uint32_t n = mix_.min_per_request + uint32_t(rng.NextUint64(span));
  std::vector<uint32_t> ids(n);
  for (uint32_t& id : ids) id = uint32_t(rng.NextUint64(mix_.distinct));
  return ids;
}

QueryRequest QuerySet::Request(const std::string& release,
                               const std::vector<uint32_t>& ids) const {
  QueryRequest request;
  request.release = release;
  request.queries.reserve(ids.size());
  for (uint32_t id : ids) request.queries.push_back(Spec(id));
  return request;
}

}  // namespace perfbench
