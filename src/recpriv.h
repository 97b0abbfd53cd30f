// Umbrella header for the recpriv library — a from-scratch C++20
// implementation of "Reconstruction Privacy: Enabling Statistical Learning"
// (Wang, Han, Fu, Wong, Yu — EDBT 2015).
//
// Module map:
//   common/   Status/Result, logging, deterministic PRNG and samplers,
//             JSON, flags, work-stealing thread pool
//   stats/    special functions, chi-squared tests, Chernoff bounds,
//             descriptive stats, ratio-estimator approximations
//   table/    dictionary-encoded categorical tables, CSV I/O, predicates,
//             personal-group indexing (with batched evaluation entry points)
//   datagen/  calibrated synthetic ADULT / CENSUS generators
//   perturb/  uniform perturbation (Eq. 3) and MLE reconstruction (Lemma 2)
//   core/     reconstruction privacy (Def. 3 / Cor. 4), violation audits,
//             the SPS enforcement algorithm (§5), chi-squared value
//             generalization (§3.4), streaming publication
//   dp/       Laplace mechanism baseline and the Section-2 NIR ratio attack
//   query/    count-query pools (Eq. 11), relative-error evaluation, and
//             canonical query encoding/hashing
//   analysis/ self-describing release bundles, immutable release snapshots,
//             and the consumer-side reconstructor
//   store/    persistent binary snapshot store: the paged .rps on-disk
//             release format (checksummed sections, 64-byte aligned) and
//             its mmap'd zero-parse reader
//   serve/    the release-serving subsystem: ReleaseStore (named, versioned
//             copy-on-publish snapshots with a retained-epoch window),
//             QueryEngine (parallel batched count-query answering with an
//             LRU answer cache), the typed service layer, and the versioned
//             line-delimited JSON wire protocol behind tools/recpriv_serve
//   client/   the typed consumer surface: request/response structs with a
//             stable error-code taxonomy, and the Client interface with
//             in-process and line-protocol backends
//   repl/     read-scaling replication: content digests, the primary's
//             serialized-snapshot provider behind subscribe/fetch_snapshot,
//             and the follower Replicator that mirrors a primary's
//             releases bit for bit (tools/recpriv_serve --follow)
//   exp/      experiment harness reproducing the paper's tables & figures

#pragma once

#include "common/flags.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/union_find.h"

#include "stats/chernoff.h"
#include "stats/tail_bounds.h"
#include "stats/chi_squared.h"
#include "stats/descriptive.h"
#include "stats/ratio_estimator.h"
#include "stats/special_functions.h"

#include "table/csv.h"
#include "table/dictionary.h"
#include "table/flat_group_index.h"
#include "table/predicate.h"
#include "table/schema.h"
#include "table/table.h"

#include "datagen/adult.h"
#include "datagen/census.h"
#include "datagen/effective_model.h"
#include "datagen/simple.h"

#include "perturb/matrix_perturbation.h"
#include "perturb/mle.h"
#include "perturb/perturbation_matrix.h"
#include "perturb/uniform_perturbation.h"

#include "core/generalization.h"
#include "core/rho_privacy.h"
#include "core/streaming.h"
#include "core/reconstruction_privacy.h"
#include "core/sps.h"
#include "core/violation.h"

#include "dp/count_query_engine.h"
#include "dp/gaussian_mechanism.h"
#include "dp/laplace_mechanism.h"
#include "dp/nir_attack.h"

#include "query/canonical.h"
#include "query/count_query.h"
#include "query/evaluation.h"
#include "query/query_pool.h"

#include "analysis/demo.h"
#include "analysis/reconstructor.h"
#include "analysis/release.h"

#include "net/line_channel.h"
#include "net/socket.h"

#include "store/snapshot_format.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"

#include "serve/answer_cache.h"
#include "serve/micro_batcher.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"

#include "workload/driver.h"
#include "workload/generator.h"
#include "workload/oracle.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

#include "client/api.h"
#include "client/client.h"
#include "client/in_process_client.h"
#include "client/line_protocol_client.h"
#include "client/retry.h"
#include "client/tcp_transport.h"

#include "repl/digest.h"
#include "repl/replicator.h"
#include "repl/snapshot_provider.h"

#include "anon/ldiversity.h"
#include "anon/tcloseness.h"

#include "exp/experiment.h"
#include "exp/reporting.h"
#include "exp/sweeps.h"
