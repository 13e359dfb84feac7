//! Deterministic, seeded fault injection for the simulated device.
//!
//! Real GPUs fail in ways an exactness-first index service has to survive:
//! ECC single/double-bit events on loads, partially-serviced (truncated)
//! memory transactions after a bus error, and kernels that stop making
//! progress and are shot by the driver watchdog. A [`FaultPlan`] describes a
//! reproducible schedule of such failures; [`Block`](crate::Block) carries an
//! optional per-launch [`FaultState`] the same way it carries a
//! [`TraceSink`](crate::trace::TraceSink), and the kernels poll
//! [`Block::device_fault`](crate::Block::device_fault) at their loop heads.
//!
//! The model is *sticky and detectable*: the instant any fault fires, a flag
//! latches on the state, every later poll reports it, and the kernel aborts
//! with a typed error instead of returning silently-wrong results. That is
//! what keeps the engine's recovery ladder exact — a faulted launch never
//! contributes answers, it only costs a retry or a brute-force fallback.
//!
//! Determinism: the random stream is a pure function of
//! `(plan.seed, block index, attempt)`, so batches stay bit-reproducible
//! under any host thread count, and a retry (attempt 1) sees a *different*
//! substream than the launch that failed (attempt 0) — transient bit flips
//! usually clear on retry, while truncation/watchdog plans are deterministic
//! per block and force the fallback.

use std::fmt;

/// A detected device-level failure, reported by
/// [`Block::device_fault`](crate::Block::device_fault).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceFault {
    /// A bit flip fired on a loaded value (sticky ECC error flag).
    EccError,
    /// A global-memory transaction was cut short (sticky truncation flag).
    TruncatedLoad,
    /// The block exceeded its issue budget and was killed by the watchdog.
    Watchdog,
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceFault::EccError => write!(f, "ECC error: a loaded value had a bit flipped"),
            DeviceFault::TruncatedLoad => write!(f, "truncated global-memory transaction"),
            DeviceFault::Watchdog => write!(f, "watchdog timeout: issue budget exceeded"),
        }
    }
}

impl std::error::Error for DeviceFault {}

/// A deterministic, seeded schedule of device faults for a batch.
///
/// `FaultPlan::none()` (or any plan with every knob off) is a no-op: kernels
/// run the exact unhardened path and results/counters are bit-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Base seed; combined with block index and attempt for each launch.
    pub seed: u64,
    /// Probability (in 1/1000 units) that any given loaded value has one
    /// random bit flipped. 0 disables bit flips.
    pub bit_flip_per_mille: u32,
    /// Latch the truncation flag once a block exceeds this many global
    /// transactions. `None` disables truncation.
    pub truncate_after_transactions: Option<u64>,
    /// Watchdog: the block is killed once its compute issues exceed this
    /// budget. `None` disables the watchdog.
    pub watchdog_issue_budget: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: no faults ever fire.
    pub fn none() -> Self {
        Self {
            seed: 0,
            bit_flip_per_mille: 0,
            truncate_after_transactions: None,
            watchdog_issue_budget: None,
        }
    }

    /// A plan that only flips bits, with the given per-value rate.
    pub fn bit_flips(seed: u64, per_mille: u32) -> Self {
        Self { seed, bit_flip_per_mille: per_mille, ..Self::none() }
    }

    /// A plan that truncates every block after `transactions` transactions.
    pub fn truncation(transactions: u64) -> Self {
        Self { truncate_after_transactions: Some(transactions), ..Self::none() }
    }

    /// A plan that fires the watchdog after `issues` compute issues.
    pub fn watchdog(issues: u64) -> Self {
        Self { watchdog_issue_budget: Some(issues), ..Self::none() }
    }

    /// Whether this plan can never fire a fault.
    pub fn is_noop(&self) -> bool {
        self.bit_flip_per_mille == 0
            && self.truncate_after_transactions.is_none()
            && self.watchdog_issue_budget.is_none()
    }

    /// The per-launch fault state for one block and attempt number. Pure
    /// function of its inputs — reruns are bit-identical.
    pub fn state_for(&self, block_idx: u64, attempt: u32) -> FaultState {
        let mut seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((block_idx.wrapping_add(1)).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((attempt as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB));
        // xorshift needs a nonzero state.
        seed |= 1;
        FaultState {
            rng: seed,
            bit_flip_per_mille: self.bit_flip_per_mille,
            truncate_after: self.truncate_after_transactions,
            watchdog_budget: self.watchdog_issue_budget,
            ecc: false,
            truncated: false,
        }
    }
}

/// Per-launch fault state owned by one [`Block`](crate::Block).
#[derive(Clone, Debug)]
pub struct FaultState {
    rng: u64,
    bit_flip_per_mille: u32,
    pub(crate) truncate_after: Option<u64>,
    pub(crate) watchdog_budget: Option<u64>,
    /// Sticky: set the moment any bit flip fires.
    pub(crate) ecc: bool,
    /// Sticky: set the moment the transaction budget is exceeded.
    pub(crate) truncated: bool,
}

impl FaultState {
    /// xorshift64*: deterministic, integer-only, platform-independent.
    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Passes `v` through the injector: with probability
    /// `bit_flip_per_mille / 1000` one random bit of its representation is
    /// flipped and the sticky ECC flag latches. Returns `v` unchanged (and
    /// advances nothing observable) otherwise.
    pub(crate) fn maybe_flip_f32(&mut self, v: f32) -> f32 {
        if self.bit_flip_per_mille == 0 {
            return v;
        }
        let roll = self.next();
        if roll % 1000 < self.bit_flip_per_mille as u64 {
            self.ecc = true;
            let bit = (self.next() % 32) as u32;
            f32::from_bits(v.to_bits() ^ (1 << bit))
        } else {
            v
        }
    }

    /// Whether the sticky ECC flag has latched.
    pub(crate) fn ecc_flagged(&self) -> bool {
        self.ecc
    }

    /// Whether the sticky truncation flag has latched.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_noop() {
        assert!(FaultPlan::none().is_noop());
        assert!(!FaultPlan::bit_flips(1, 5).is_noop());
        assert!(!FaultPlan::truncation(100).is_noop());
        assert!(!FaultPlan::watchdog(100).is_noop());
    }

    #[test]
    fn state_is_deterministic_per_block_and_attempt() {
        let plan = FaultPlan::bit_flips(42, 500);
        let mut a = plan.state_for(3, 0);
        let mut b = plan.state_for(3, 0);
        for _ in 0..64 {
            assert_eq!(a.next(), b.next());
        }
        // A retry sees a different substream.
        let mut c = plan.state_for(3, 1);
        let diverges = (0..64).any(|_| a.next() != c.next());
        assert!(diverges, "attempt 1 must not replay attempt 0's stream");
    }

    #[test]
    fn noop_state_never_flips() {
        let mut s = FaultPlan::none().state_for(0, 0);
        for i in 0..1000 {
            let v = i as f32 * 1.25;
            assert_eq!(s.maybe_flip_f32(v).to_bits(), v.to_bits());
        }
        assert!(!s.ecc_flagged());
    }

    #[test]
    fn certain_flip_latches_ecc_and_changes_one_bit() {
        let mut s = FaultPlan::bit_flips(7, 1000).state_for(0, 0);
        let v = 123.456f32;
        let flipped = s.maybe_flip_f32(v);
        assert!(s.ecc_flagged());
        let xor = v.to_bits() ^ flipped.to_bits();
        assert_eq!(xor.count_ones(), 1, "exactly one bit must differ");
    }

    #[test]
    fn rate_roughly_matches_per_mille() {
        let mut s = FaultPlan::bit_flips(99, 100).state_for(5, 0);
        let mut fired = 0;
        for i in 0..10_000 {
            let v = i as f32;
            s.ecc = false;
            if s.maybe_flip_f32(v).to_bits() != v.to_bits() {
                fired += 1;
            }
        }
        // 10% nominal; allow a generous band (the flip can also be a no-op
        // only if the same value reappears, which to_bits comparison avoids).
        assert!((500..2000).contains(&fired), "fired {fired} of 10000 at 100 per mille");
    }
}
