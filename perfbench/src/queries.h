// Seeded count-query generation. A workload's queries form a numbered
// distinct-query set: query `id` is a pure function of (seed, id) — its
// dimensionality, attributes, values (uniform over each attribute's
// domain) and SA value drawn from the schema — and a request is a pure
// function of (seed, stream, index). Nothing is materialized up front, so
// a set far larger than the server's answer cache costs the generator no
// memory, and the verifier can regenerate any query from its id.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "client/api.h"
#include "query/count_query.h"
#include "table/schema.h"

namespace perfbench {

struct QueryMix {
  uint32_t distinct = 300;  ///< ids are drawn from [0, distinct)
  uint32_t min_per_request = 1;
  uint32_t max_per_request = 1;
  /// Relative weight of predicates binding 0, 1, 2 and 3 attributes.
  std::array<double, 4> dim_weights = {1, 1, 1, 1};
};

uint64_t MixSeed(uint64_t a, uint64_t b);

class QuerySet {
 public:
  QuerySet(recpriv::table::SchemaPtr schema, uint64_t seed, QueryMix mix);

  /// The string-level query with this id, as a client sends it.
  recpriv::client::QuerySpec Spec(uint32_t id) const;

  /// The same query bound to codes directly (no string lookups) — what
  /// the service layer must resolve Spec(id) to.
  recpriv::query::CountQuery Query(uint32_t id) const;

  /// The query ids of request `index` of request stream `stream`.
  std::vector<uint32_t> RequestIds(uint64_t stream, uint64_t index) const;

  recpriv::client::QueryRequest Request(const std::string& release,
                                        const std::vector<uint32_t>& ids) const;

  const QueryMix& mix() const { return mix_; }

 private:
  struct Drawn {
    std::vector<std::pair<size_t, uint32_t>> where;  ///< (attribute, code)
    uint32_t sa = 0;
  };
  Drawn Draw(uint32_t id) const;

  recpriv::table::SchemaPtr schema_;
  uint64_t seed_;
  QueryMix mix_;
  std::vector<size_t> public_;
  double weight_total_ = 0.0;
};

}  // namespace perfbench
