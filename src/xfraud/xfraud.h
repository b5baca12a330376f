#ifndef XFRAUD_XFRAUD_H_
#define XFRAUD_XFRAUD_H_

/// Umbrella header: the public API of the xFraud reproduction.
///
/// Layering (bottom-up):
///   common  -> Status, Rng, queues, timing, table printing
///   obs     -> counters/gauges/histograms, scoped traces, registry
///              snapshots (threaded through every layer below)
///   la      -> dense linear algebra (solves, eigen, expm) for the explainer
///   nn      -> tensors, tape autograd, modules, AdamW (the DL substrate)
///   graph   -> heterogeneous transaction graph, builder, subgraphs
///   data    -> synthetic eBay-like workload, splits, annotator simulation
///   kv      -> log-structured / sharded KV feature store (data loading)
///   sample  -> GraphSAGE-style and HGSampling neighbourhood samplers,
///              pipelined prefetching BatchLoader
///   core    -> the xFraud detector (self-attentive heterogeneous GNN)
///   baselines -> GAT and GEM comparison models
///   train   -> trainer, metrics (AUC/AP/curves/threshold tables)
///   explain -> GNNExplainer, 13 centrality measures, hybrid explainer
///   dist    -> PIC partitioning + DistributedDataParallel over one
///              socket ring with rendezvous (ranks as threads or as
///              processes), real SIGKILL fault injection, and
///              checkpoint-resume recovery
///   fault   -> deterministic fault injection (chaos plans, faulty KV and
///              sampler decorators) for robustness testing
///   serve   -> online scoring service over a sharded+replicated KV
///              topology: replica failover, circuit breakers, deadlines,
///              load shedding (sits above core/kv/baselines); the
///              multi-process tier's supervised shard-server processes
///              behind a failover router
///   stream  -> crash-safe streaming ingestion (DESIGN.md §15): the
///              GraphIngestor appends transactions through the WAL write
///              path and publishes immutable MVCC epochs; GraphView pins
///              an epoch for consistent reads while writers advance and
///              the background compactor garbage-collects behind the pins

#include "xfraud/baselines/gat.h"
#include "xfraud/baselines/gem.h"
#include "xfraud/baselines/rule_scorer.h"
#include "xfraud/common/atomic_file.h"
#include "xfraud/common/clock.h"
#include "xfraud/common/logging.h"
#include "xfraud/common/mpmc_queue.h"
#include "xfraud/common/retry.h"
#include "xfraud/common/rng.h"
#include "xfraud/common/status.h"
#include "xfraud/common/table_printer.h"
#include "xfraud/common/timer.h"
#include "xfraud/core/detector.h"
#include "xfraud/core/gnn_model.h"
#include "xfraud/core/hetero_conv.h"
#include "xfraud/data/annotation.h"
#include "xfraud/data/generator.h"
#include "xfraud/data/log_io.h"
#include "xfraud/data/prefilter.h"
#include "xfraud/dist/distributed.h"
#include "xfraud/dist/launcher.h"
#include "xfraud/dist/partition.h"
#include "xfraud/dist/rendezvous.h"
#include "xfraud/dist/socket_transport.h"
#include "xfraud/dist/worker.h"
#include "xfraud/explain/centrality.h"
#include "xfraud/explain/evaluation.h"
#include "xfraud/explain/feature_importance.h"
#include "xfraud/explain/gnn_explainer.h"
#include "xfraud/explain/hit_rate.h"
#include "xfraud/explain/hybrid.h"
#include "xfraud/explain/visualize.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/fault/fault_plan.h"
#include "xfraud/fault/faulty_kv.h"
#include "xfraud/fault/faulty_sampler.h"
#include "xfraud/graph/graph_builder.h"
#include "xfraud/graph/hetero_graph.h"
#include "xfraud/graph/serialize.h"
#include "xfraud/graph/subgraph.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/kv/replicated_kv.h"
#include "xfraud/kv/sharded_kv.h"
#include "xfraud/kv/snapshot.h"
#include "xfraud/nn/modules.h"
#include "xfraud/nn/ops.h"
#include "xfraud/nn/optim.h"
#include "xfraud/nn/serialize.h"
#include "xfraud/obs/metrics.h"
#include "xfraud/obs/registry.h"
#include "xfraud/obs/trace.h"
#include "xfraud/sample/batch_loader.h"
#include "xfraud/sample/sampler.h"
#include "xfraud/serve/router.h"
#include "xfraud/serve/scoring_service.h"
#include "xfraud/serve/shard_server.h"
#include "xfraud/serve/supervisor.h"
#include "xfraud/serve/wire.h"
#include "xfraud/stream/graph_ingestor.h"
#include "xfraud/stream/streaming_topology.h"
#include "xfraud/train/checkpoint.h"
#include "xfraud/train/incremental.h"
#include "xfraud/train/metrics.h"
#include "xfraud/train/trainer.h"

#endif  // XFRAUD_XFRAUD_H_
