//! Deadline budgets for the serving front-end.
//!
//! Every query through the resilience layer carries a [`DeadlineBudget`]. The
//! router charges each shard visit against it and checks the remaining budget
//! *between* visits: when the budget blows, the remaining shards are skipped
//! and the query resolves to the marked
//! [`QueryOutcome::DeadlineDegraded`](psb_core::QueryOutcome::DeadlineDegraded)
//! rung — never a silent partial answer.
//!
//! The currency is simulated device cycles ([`DeadlineBudget::Cycles`]): each
//! visited shard's [`KernelStats`] is priced with the same
//! [`block_cycles`](KernelStats::block_cycles) cost model the launch reports
//! use. No clock is read, so the same batch under the same budget degrades
//! identically on every run, every host and every thread count — also when
//! the serve runner executes a query ahead of its turn — which is what the
//! property tests in `tests/admission.rs` pin.

use psb_gpu::{DeviceConfig, KernelStats};

/// How long one query may run before the router degrades it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineBudget {
    /// No deadline: the query runs to exact completion (the golden-parity
    /// default).
    None,
    /// Budget in simulated device cycles under the launch cost model.
    /// Deterministic — the unit the tests and the chaos soak use.
    Cycles(u64),
}

/// The running clock for one query's deadline: starts full, is charged after
/// every shard visit, and reports [`blown`](DeadlineClock::blown) between
/// visits.
#[derive(Debug)]
pub(crate) struct DeadlineClock {
    budget: DeadlineBudget,
    /// Simulated cycles spent so far.
    spent_cycles: f64,
}

impl DeadlineClock {
    /// Starts the clock with nothing spent.
    pub(crate) fn start(budget: DeadlineBudget) -> Self {
        Self { budget, spent_cycles: 0.0 }
    }

    /// Charges one visited shard's launch against a cycle budget, priced by
    /// the same cost model as the launch reports (`warps_per_block` from the
    /// kernel options, the shard device's config). No-op for an unlimited
    /// budget.
    pub(crate) fn charge(&mut self, stats: &KernelStats, cfg: &DeviceConfig, warps_per_block: u32) {
        if matches!(self.budget, DeadlineBudget::Cycles(_)) {
            self.spent_cycles += stats.block_cycles(cfg, warps_per_block);
        }
    }

    /// Whether the budget is exhausted. Checked between shard visits; a blown
    /// clock makes the router skip the remaining shards and mark the outcome.
    /// A `Cycles(0)` budget is blown from the start — the deterministic way to
    /// force the nearest-shard-brute degrade rung.
    pub(crate) fn blown(&self) -> bool {
        match self.budget {
            DeadlineBudget::Cycles(0) => true,
            DeadlineBudget::None => false,
            DeadlineBudget::Cycles(limit) => self.spent_cycles > limit as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_blows() {
        let mut clock = DeadlineClock::start(DeadlineBudget::None);
        let stats = KernelStats { compute_issues: 1_000_000, blocks: 1, ..Default::default() };
        clock.charge(&stats, &DeviceConfig::k40(), 1);
        assert!(!clock.blown());
        assert_eq!(clock.spent_cycles, 0.0, "unlimited budgets are never priced");
    }

    #[test]
    fn cycle_budget_blows_deterministically() {
        let cfg = DeviceConfig::k40();
        let stats = KernelStats { compute_issues: 100, blocks: 1, ..Default::default() };
        let cost = stats.block_cycles(&cfg, 1);
        let mut clock = DeadlineClock::start(DeadlineBudget::Cycles(cost as u64 * 2));
        clock.charge(&stats, &cfg, 1);
        assert!(!clock.blown(), "one visit fits a two-visit budget");
        clock.charge(&stats, &cfg, 1);
        clock.charge(&stats, &cfg, 1);
        assert!(clock.blown(), "three visits blow a two-visit budget");
    }

    #[test]
    fn zero_cycle_budget_is_blown_from_the_start() {
        // A zero budget means "no traversal budget at all": blown before the
        // first visit, which makes the router answer with the exact brute scan
        // over the nearest shard only, marked as deadline-degraded.
        let clock = DeadlineClock::start(DeadlineBudget::Cycles(0));
        assert!(clock.blown());
    }
}
