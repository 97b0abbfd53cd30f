#include "query/query_pool.h"

namespace recpriv::query {

using recpriv::table::FlatGroupIndex;
using recpriv::table::Schema;

Result<std::vector<CountQuery>> GenerateQueryPool(
    const FlatGroupIndex& raw_index, const QueryPoolConfig& config, Rng& rng) {
  if (config.pool_size == 0) {
    return Status::InvalidArgument("pool_size must be positive");
  }
  if (config.dimensionalities.empty()) {
    return Status::InvalidArgument("at least one dimensionality required");
  }
  const Schema& schema = *raw_index.schema();
  const auto& pub = raw_index.public_indices();
  for (size_t d : config.dimensionalities) {
    if (d == 0 || d > pub.size()) {
      return Status::InvalidArgument(
          "dimensionality must be in [1, #public attributes]");
    }
  }

  // Group filter: candidate selectivity checks dominate pool generation
  // on large raw indexes (tens of thousands of groups).
  recpriv::table::GroupPostingIndex postings(raw_index);
  const double num_records = static_cast<double>(raw_index.num_records());

  std::vector<CountQuery> pool;
  pool.reserve(config.pool_size);
  size_t attempts = 0;
  while (pool.size() < config.pool_size && attempts < config.max_attempts) {
    ++attempts;
    // d uniformly from the allowed dimensionalities.
    const size_t d = config.dimensionalities[rng.NextUint64(
        config.dimensionalities.size())];
    CountQuery q(schema.num_attributes());
    q.dimensionality = d;
    // d public attributes without replacement, a random value for each.
    std::vector<uint64_t> chosen =
        SampleWithoutReplacement(rng, pub.size(), d);
    for (uint64_t k : chosen) {
      const size_t attr = pub[k];
      const size_t dom = schema.attribute(attr).domain.size();
      if (dom == 0) continue;
      q.na_predicate.Bind(attr, static_cast<uint32_t>(rng.NextUint64(dom)));
    }
    // One SA value.
    q.sa_code = static_cast<uint32_t>(
        rng.NextUint64(schema.sa_domain_size()));
    const double selectivity =
        static_cast<double>(
            postings.CountAnswer(q.na_predicate, q.sa_code)) /
        num_records;
    if (selectivity >= config.min_selectivity) {
      pool.push_back(std::move(q));
    }
  }
  if (pool.empty()) {
    return Status::FailedPrecondition(
        "query-pool generation produced no query above the selectivity "
        "floor");
  }
  return pool;
}

Result<std::vector<CountQuery>> MapQueryPool(
    const recpriv::core::Generalization& plan,
    const std::vector<CountQuery>& pool) {
  std::vector<CountQuery> mapped;
  mapped.reserve(pool.size());
  for (const CountQuery& q : pool) {
    CountQuery g(q.na_predicate.num_attributes());
    RECPRIV_ASSIGN_OR_RETURN(g.na_predicate,
                             recpriv::core::MapPredicate(plan, q.na_predicate));
    g.sa_code = q.sa_code;  // SA is never generalized
    g.dimensionality = q.dimensionality;
    mapped.push_back(std::move(g));
  }
  return mapped;
}

}  // namespace recpriv::query
