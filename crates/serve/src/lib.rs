//! Multi-device sharded serving layer.
//!
//! A [`ShardRouter`] partitions the dataset into S disjoint shards
//! ([`psb_core::shard`]), keeps each as a [`DynamicTree`](psb_core::DynamicTree)
//! behind its own lock with one or more simulated devices, and answers kNN
//! queries by visiting shards best-first by MINDIST to the shard's bounding
//! sphere — skipping any shard whose MINDIST exceeds the current result
//! bound, exactly the pruning rule the kernels apply inside a tree. Per-shard
//! top-k lists are merged through the same
//! [`GpuKnnList`](psb_core::knnlist::GpuKnnList) the kernels use, so the
//! global result is **bit-identical** to a single-device run over the
//! unsharded tree (the argument is DESIGN.md "The router is a virtual root node").
//! Inserts, removes and shard rebuilds go to the same router; a shard nobody
//! writes to is the static shard of the paper's §IV, and a rebuild of one
//! shard never blocks queries that other shards can answer.
//!
//! A replica whose launch dies with a typed
//! [`KernelError`](psb_core::KernelError) is demoted by the batch that met it
//! and stays demoted; its queries re-route to the next healthy replica, and a
//! shard with no healthy replica degrades to the exact brute scan of its live
//! rows. Either way every answer stays exact.
//!
//! [`ResilientRouter`] is the production front-end: admission control with
//! per-tenant token-bucket quotas and typed load shedding, deadline budgets
//! checked between shard visits, per-shard circuit breakers that route around
//! sick shards, and an exact-result query cache (see DESIGN.md "The
//! resilience front-end"). With [`ResilienceConfig::default`] it is
//! bit-identical to the bare router, and even with features on every degrade
//! is a *marked* outcome. [`DynamicShardRouter`] is only a constructor's name.

pub mod admission;
pub mod deadline;
mod dynamic;
mod plan;
mod resilient;
mod router;
mod runner;

pub use admission::{
    AdmissionConfig, AdmissionControl, BreakerConfig, BreakerState, CacheKey, QueryCache,
    QuotaConfig, RejectReason, TenantId,
};
pub use deadline::DeadlineBudget;
pub use dynamic::DynamicShardRouter;
pub use psb_metrics::{MetricsHandle, Registry};
pub use resilient::{
    OutcomeTally, RequestMeta, ResilienceConfig, ResilienceReport, ResilientBatchResult,
    ResilientRouter, ServeOutcome,
};
pub use router::{
    FailoverEvent, ReplicaState, ServeBatchResult, ServeConfig, ServeReport, ShardIndex,
    ShardRouter,
};
