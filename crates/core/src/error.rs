//! Typed failures for the hardened kernels and the batch engine.
//!
//! The stackless traversals trust the tree's parent/sibling links and the
//! `subtreeMaxLeafId` cursor; a corrupted link would otherwise turn the leaf
//! sweep into an out-of-bounds read or an infinite loop, and an injected
//! device fault would silently poison distances. The hardened kernel entry
//! points (`Kernel::attempt` and its kind) bounds-check every link they
//! follow, run under a traversal step budget, and poll the device fault flags
//! — converting every failure mode into a [`KernelError`] the engine's
//! recovery ladder can act on.

use std::fmt;

use psb_gpu::DeviceFault;

/// Why a hardened kernel launch failed. Failed launches never return partial
/// results — the engine retries or falls back to an exact brute-force scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// The simulated device reported a fault (ECC, truncation, watchdog).
    Device(DeviceFault),
    /// A structural link pointed outside its array.
    LinkOutOfBounds {
        /// Which link was followed (e.g. `"parent"`, `"leaf_node_of"`).
        link: &'static str,
        /// The node the link was read from.
        node: u32,
        /// The out-of-range value.
        target: u64,
        /// The exclusive bound it violated.
        limit: u64,
    },
    /// A node's fields are inconsistent (wrong kind, bad level, empty tree).
    CorruptNode {
        /// The offending node id.
        node: u32,
        /// What was wrong.
        detail: &'static str,
    },
    /// The traversal exceeded its step budget — the corruption-induced-loop
    /// backstop. A valid tree can never reach this bound.
    StepBudgetExceeded {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// The kernel's static shared-memory footprint cannot fit on an SM.
    SmemOverflow {
        /// Bytes the kernel asked for.
        needed: u64,
        /// The device's per-SM capacity.
        limit: u64,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Device(d) => write!(f, "device fault: {d}"),
            KernelError::LinkOutOfBounds { link, node, target, limit } => {
                write!(f, "{link} link of node {node} points at {target}, outside limit {limit}")
            }
            KernelError::CorruptNode { node, detail } => {
                write!(f, "corrupt node {node}: {detail}")
            }
            KernelError::StepBudgetExceeded { budget } => {
                write!(f, "traversal exceeded its step budget of {budget}")
            }
            KernelError::SmemOverflow { needed, limit } => {
                write!(f, "kernel needs {needed} B of shared memory, SM holds {limit} B")
            }
        }
    }
}

impl std::error::Error for KernelError {}

impl From<DeviceFault> for KernelError {
    fn from(d: DeviceFault) -> Self {
        KernelError::Device(d)
    }
}

/// Batch-level failures from the engine entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The query batch was empty — there is nothing to launch.
    EmptyBatch,
    /// A serving-layer router holds no shards — there is nowhere to route.
    NoShards,
    /// A shard layout asked for more shards than there are points to spread
    /// over them (every shard must own at least one point).
    TooManyShards {
        /// Shards requested.
        shards: usize,
        /// Points available.
        points: usize,
    },
    /// A shard layout asked for zero replicas: a shard with no device has
    /// nothing to answer on.
    NoReplicas,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyBatch => write!(f, "empty query batch"),
            EngineError::NoShards => write!(f, "router has no shards"),
            EngineError::TooManyShards { shards, points } => {
                write!(f, "cannot split {points} points into {shards} non-empty shards")
            }
            EngineError::NoReplicas => write!(f, "a shard layout needs at least one replica"),
        }
    }
}

impl std::error::Error for EngineError {}

/// How one query in a recovering batch (or the serving layer) was answered.
///
/// `Clean`, `Retried` and `Degraded` are exact in every case — those variants
/// only describe what it cost to get the exact answer. `DeadlineDegraded` is
/// the one marked best-effort rung: the serving front-end stopped consulting
/// shards (a blown deadline budget, or an open per-shard circuit breaker) and
/// returned the best answer the visited subset could give. A best-effort
/// result is always *marked* as such — a blown deadline never produces a
/// silent partial answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// First launch succeeded.
    Clean,
    /// First launch failed; the retry succeeded.
    Retried {
        /// The error the first launch died with.
        first: KernelError,
    },
    /// Both launches failed; the exact brute-force fallback answered.
    Degraded {
        /// The error the first launch died with.
        first: KernelError,
        /// The error the retry died with.
        retry: KernelError,
    },
    /// The serving layer answered best-effort: it skipped shards it would
    /// otherwise have consulted — because the query's deadline budget ran out
    /// mid-visit, or because a shard's circuit breaker was open — and the
    /// result is exact over the `visited` shards only.
    DeadlineDegraded {
        /// Shards whose results are reflected in the answer.
        visited: u32,
        /// Shards skipped: not yet examined when the budget blew, or routed
        /// around while their breaker was open.
        skipped: u32,
    },
}

impl QueryOutcome {
    /// Whether this query needed any recovery at all.
    pub fn is_clean(&self) -> bool {
        matches!(self, QueryOutcome::Clean)
    }

    /// Whether the answer is exact over the full dataset. Everything except
    /// [`QueryOutcome::DeadlineDegraded`] is.
    pub fn is_exact(&self) -> bool {
        !matches!(self, QueryOutcome::DeadlineDegraded { .. })
    }
}
