//! Explicit-SIMD distance evaluation (same-op-order discipline).
//!
//! [`sq_dist`](crate::sq_dist) is written so LLVM *can* auto-vectorize it, but
//! whether it does — and how well — depends on the optimizer's mood at each
//! call site. This module pins the vectorization down with explicit SSE2
//! intrinsics on `x86_64` (SSE2 is part of the x86_64 baseline ABI, so no
//! runtime feature detection is needed) and falls back to the shared scalar
//! loop everywhere else.
//!
//! ## The same-op-order contract
//!
//! The whole workspace's parity discipline (layout/schedule/wave golden tests)
//! rests on every perf path producing **bit-identical** f32 results. The wide
//! kernel here therefore mirrors the scalar loop's exact operation order
//! rather than the textbook horizontal-add reduction:
//!
//! * the scalar loop keeps four independent accumulators, `acc[lane] += d*d`
//!   over 4-element chunks — one `_mm_add_ps(acc, _mm_mul_ps(d, d))` performs
//!   the identical four independent IEEE ops per chunk (lane `L` of the vector
//!   accumulator sees exactly the operand sequence scalar `acc[L]` sees);
//! * the reduction extracts the four lanes and sums them `(l0 + l1) + (l2 +
//!   l3)`, the scalar loop's association (no `_mm_hadd_ps`, which is SSE3 and
//!   associates differently);
//! * the odd tail folds sequentially into the sum, exactly like the scalar
//!   tail.
//!
//! IEEE 754 ops are exactly specified and neither path permits FMA
//! contraction, so equality holds *bitwise*, not approximately — pinned by the
//! tests below and consumed fearlessly by [`DistKernel`](crate::DistKernel)'s
//! default resolution. A variant that reassociates merely approximates the
//! scalar bits and has no place behind that dispatch.

/// Squared Euclidean distance via the explicit-SIMD same-op-order kernel.
/// Bit-identical to [`crate::sq_dist`] for equal-length slices (hard-asserted
/// here: the raw wide loads make length mismatch unrecoverable rather than a
/// quiet fallback).
#[inline]
pub fn sq_dist_simd(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sq_dist_simd requires equal-length slices");
    sq_dist_wide(a, b)
}

/// The wide core. Callers guarantee `a.len() == b.len()`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn sq_dist_wide(a: &[f32], b: &[f32]) -> f32 {
    use core::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 4;
    // SAFETY: SSE2 is unconditionally available on x86_64, and each unaligned
    // load reads lanes [o, o + 4) with o + 4 <= chunks * 4 <= n, inside both
    // slices.
    let mut lanes = [0f32; 4];
    unsafe {
        let mut acc = _mm_setzero_ps();
        for i in 0..chunks {
            let o = i * 4;
            let d = _mm_sub_ps(_mm_loadu_ps(a.as_ptr().add(o)), _mm_loadu_ps(b.as_ptr().add(o)));
            acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
        }
        _mm_storeu_ps(lanes.as_mut_ptr(), acc);
    }
    let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for i in chunks * 4..n {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Scalar fallback for targets without a baseline vector ISA: the shared
/// scalar loop *is* the same-op-order reference, so the contract holds
/// trivially.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub(crate) fn sq_dist_wide(a: &[f32], b: &[f32]) -> f32 {
    crate::dist::sq_dist(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sq_dist;
    use proptest::prelude::*;

    fn lcg_f32(state: &mut u64) -> f32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (*state >> 40) as u32;
        (u as f32 / (1 << 24) as f32 - 0.5) * 2e4
    }

    fn random_pair(dims: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut s = seed;
        let a = (0..dims).map(|_| lcg_f32(&mut s)).collect();
        let b = (0..dims).map(|_| lcg_f32(&mut s)).collect();
        (a, b)
    }

    /// The tentpole invariant: the explicit-SIMD kernel is bit-identical to
    /// the scalar loop across the paper's dims plus odd-tail widths.
    #[test]
    fn simd_is_bit_identical_to_scalar() {
        for dims in [2usize, 3, 4, 8, 16, 17] {
            for trial in 0..500u64 {
                let (a, b) = random_pair(dims, trial * 131 + dims as u64);
                assert_eq!(
                    sq_dist_simd(&a, &b).to_bits(),
                    sq_dist(&a, &b).to_bits(),
                    "dims {dims} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn zero_and_empty_inputs() {
        assert_eq!(sq_dist_simd(&[], &[]), 0.0);
        let p = [1.5f32, -2.0, 3.25];
        assert_eq!(sq_dist_simd(&p, &p), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn length_mismatch_is_rejected() {
        let _ = sq_dist_simd(&[1.0, 2.0], &[1.0]);
    }

    // Random dims (covering sub-chunk, exact-chunk, and ragged-tail widths)
    // and hostile magnitudes: bitwise equality must hold for every input, not
    // just the pinned dims table.
    proptest! {
        #[test]
        fn simd_bit_identity_proptest(
            dims in 1usize..40,
            seed in 0u64..u64::MAX,
        ) {
            let (a, b) = random_pair(dims, seed);
            prop_assert_eq!(sq_dist_simd(&a, &b).to_bits(), sq_dist(&a, &b).to_bits());
        }
    }
}
