//! Multi-device sharded serving layer.
//!
//! A [`ShardRouter`] partitions the dataset into S disjoint shards
//! ([`psb_core::shard`]), builds one index plus one simulated device per
//! shard, and answers batched kNN queries by visiting shards best-first by
//! MINDIST to the shard's bounding sphere — skipping any shard whose MINDIST
//! exceeds the current result bound, exactly the pruning rule the kernels
//! apply inside a tree. Per-shard top-k lists are merged through the same
//! [`GpuKnnList`](psb_core::knnlist::GpuKnnList) the kernels use, so the
//! global result is **bit-identical** to a single-device run over the
//! unsharded tree (the argument is DESIGN.md "The router is a virtual root node").
//!
//! Each shard may carry R replicas. A replica whose launch dies with a typed
//! [`KernelError`](psb_core::KernelError) (the PR-2 fault layer) is demoted
//! and stays demoted; its queries re-route to the next healthy replica, and a
//! shard with no healthy replica degrades to the exact link-free brute scan.
//! Either way every answer stays exact.
//!
//! [`DynamicShardRouter`] is the mutable-index variant: per-shard
//! [`DynamicSsTree`](psb_core::DynamicSsTree)s behind per-shard locks, so a
//! rebuild of one shard never blocks queries that other shards can answer.
//!
//! [`ResilientRouter`] is the production front-end around the static router:
//! admission control with per-tenant token-bucket quotas and typed load
//! shedding, deadline budgets checked between shard visits, per-shard circuit
//! breakers that route around sick shards, and an exact-result query cache
//! (see DESIGN.md "The resilience front-end"). With
//! [`ResilienceConfig::default`] it is bit-identical to the bare router —
//! resilience features only change results when
//! explicitly turned on, and even then every degrade is a *marked* outcome.

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
    FailoverEvent, ReplicaState, ServeBatchResult, ServeConfig, ServeReport, ShardRouter,
};
