// Umbrella header: the full public API of the cca-placement library.
//
// Layering (each layer only depends on those above it):
//   common/  — PRNG, Zipf, statistics, tables, CLI, error checking
//   hash/    — MD5 (page IDs, hash-mod-n placement)
//   lp/      — LP model + simplex solvers
//   trace/   — queries, corpora, workload generation, pair statistics, I/O
//   search/  — inverted indices, intersection engines, Bloom, compression
//   core/    — the paper: CCA instances, LP formulation, rounding,
//              baselines, partial optimization; extensions: hypergraph
//              partitioning, incremental re-optimization, plan I/O,
//              recovery re-placement, versioned placement maps
//   sim/     — cluster model, replay, latency, load simulation, document
//              partitioning, fault injection, the placement service
//
// Most applications want core/partial_optimizer.hpp (the end-to-end
// pipeline) plus sim/replay.hpp (measurement); see examples/.
#pragma once

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"
#include "core/component_solver.hpp"
#include "core/correlation.hpp"
#include "core/instance.hpp"
#include "core/lp_formulation.hpp"
#include "core/migration.hpp"
#include "core/partial_optimizer.hpp"
#include "core/placement_map.hpp"
#include "core/placements.hpp"
#include "core/plan_io.hpp"
#include "core/recovery.hpp"
#include "core/rounding.hpp"
#include "hash/md5.hpp"
#include "lp/canonical.hpp"
#include "lp/dense_simplex.hpp"
#include "lp/model.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/solution.hpp"
#include "lp/solver.hpp"
#include "search/bloom.hpp"
#include "search/compression.hpp"
#include "search/inverted_index.hpp"
#include "search/query_engine.hpp"
#include "sim/cluster.hpp"
#include "sim/doc_partition.hpp"
#include "sim/event_sim.hpp"
#include "sim/faults.hpp"
#include "sim/latency.hpp"
#include "sim/placement_service.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/pair_stats.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/workload.hpp"
