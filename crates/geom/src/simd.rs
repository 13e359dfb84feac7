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
//! kernels here therefore mirror the scalar loop's exact operation order
//! rather than the textbook horizontal-add reduction:
//!
//! * the scalar loop keeps four independent accumulators, `acc[lane] += d*d`
//!   over 4-element chunks — one `_mm_add_ps(acc, _mm_mul_ps(d, d))` performs
//!   the identical four independent IEEE ops per chunk (lane `L` of the vector
//!   accumulator sees exactly the operand sequence scalar `acc[L]` sees);
//! * the reduction sums the four lanes `(l0 + l1) + (l2 + l3)`, the scalar
//!   loop's association (no `_mm_hadd_ps`, which is SSE3 and associates
//!   differently);
//! * the odd tail folds sequentially into the sum, exactly like the scalar
//!   tail.
//!
//! ## Four rows at a time
//!
//! The rows form, behind [`DistKernel::dist_rows`](crate::DistKernel::dist_rows),
//! evaluates one query against four rows per step, each row with its own
//! four-lane accumulator. The four accumulators are then transposed
//! (`unpacklo/hi` + `movelh/hl`) so that vector `L` holds lane `L` of all four
//! rows, and one `(l0 + l1) + (l2 + l3)` reduces the four rows at once — per
//! row the very additions above. The odd tail folds in one dimension at a
//! time, all four rows side by side, and `_mm_sqrt_ps` finishes four
//! distances: like `f32::sqrt` it is IEEE 754's correctly rounded square
//! root, so it returns the same bits. Fewer than four leftover rows take the
//! single-row form.
//!
//! IEEE 754 ops are exactly specified and neither path permits FMA
//! contraction, so equality holds *bitwise*, not approximately — pinned by the
//! tests below and by `dist`'s rows tests, and consumed fearlessly by
//! [`DistKernel`](crate::DistKernel)'s default resolution. A variant that
//! reassociates merely approximates the scalar bits and has no place behind
//! that dispatch.

use crate::dist::root;

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

/// Appends the distance from `q` to every `q.len()`-strided row of `rows` to
/// `out` — squared when `SQRT` is false — four rows at a time; a ragged
/// trailing row is ignored. Bit-identical to [`crate::sq_dist`] (then
/// `f32::sqrt`) per row. Inlined into each caller, so a `q` of constant
/// length unrolls the whole block.
#[inline(always)]
pub(crate) fn rows_wide<const SQRT: bool>(q: &[f32], rows: &[f32], out: &mut Vec<f32>) {
    let d = q.len();
    if d == 0 {
        return;
    }
    // Reserved once; a block's four results are then one 16-byte append (a
    // `resize` up front costs a `memset` call that, on a 16-row leaf of
    // 16-d points, eats the blocking's whole gain).
    out.reserve(rows.len() / d);
    let mut blocks = rows.chunks_exact(4 * d);
    for r4 in &mut blocks {
        out.extend_from_slice(&sq_dist_x4::<SQRT>(q, r4));
    }
    for row in blocks.remainder().chunks_exact(d) {
        out.push(root::<SQRT>(sq_dist_wide(q, row)));
    }
}

/// The four rows of `r4` (`4 * q.len()` floats, row-major) against `q`:
/// squared distances, or distances when `SQRT`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn sq_dist_x4<const SQRT: bool>(q: &[f32], r4: &[f32]) -> [f32; 4] {
    use core::arch::x86_64::*;
    let n = q.len();
    assert_eq!(r4.len(), 4 * n, "four rows of the query's length");
    let chunks = n / 4;
    let mut out = [0f32; 4];
    // SAFETY: SSE2 is unconditionally available on x86_64. Row `j` starts at
    // `j * n` of `r4`, which holds `4 * n` floats (asserted above); each
    // unaligned load reads lanes [o, o + 4) of `q` and of one row with
    // o + 4 <= chunks * 4 <= n, inside both. The store writes the four lanes
    // of `out`.
    unsafe {
        let (q_p, r_p) = (q.as_ptr(), r4.as_ptr());
        let [mut a0, mut a1, mut a2, mut a3] = [_mm_setzero_ps(); 4];
        for i in 0..chunks {
            let o = i * 4;
            let qv = _mm_loadu_ps(q_p.add(o));
            let d0 = _mm_sub_ps(qv, _mm_loadu_ps(r_p.add(o)));
            let d1 = _mm_sub_ps(qv, _mm_loadu_ps(r_p.add(n + o)));
            let d2 = _mm_sub_ps(qv, _mm_loadu_ps(r_p.add(2 * n + o)));
            let d3 = _mm_sub_ps(qv, _mm_loadu_ps(r_p.add(3 * n + o)));
            a0 = _mm_add_ps(a0, _mm_mul_ps(d0, d0));
            a1 = _mm_add_ps(a1, _mm_mul_ps(d1, d1));
            a2 = _mm_add_ps(a2, _mm_mul_ps(d2, d2));
            a3 = _mm_add_ps(a3, _mm_mul_ps(d3, d3));
        }
        // Transpose: `lL` holds accumulator lane L of rows 0..3.
        let t0 = _mm_unpacklo_ps(a0, a1); // a0[0] a1[0] a0[1] a1[1]
        let t1 = _mm_unpackhi_ps(a0, a1); // a0[2] a1[2] a0[3] a1[3]
        let t2 = _mm_unpacklo_ps(a2, a3); // a2[0] a3[0] a2[1] a3[1]
        let t3 = _mm_unpackhi_ps(a2, a3); // a2[2] a3[2] a2[3] a3[3]
        let l0 = _mm_movelh_ps(t0, t2);
        let l1 = _mm_movehl_ps(t2, t0);
        let l2 = _mm_movelh_ps(t1, t3);
        let l3 = _mm_movehl_ps(t3, t1);
        let mut sum = _mm_add_ps(_mm_add_ps(l0, l1), _mm_add_ps(l2, l3));
        for i in chunks * 4..n {
            let r = _mm_setr_ps(r4[i], r4[n + i], r4[2 * n + i], r4[3 * n + i]);
            let d = _mm_sub_ps(_mm_set1_ps(q[i]), r);
            sum = _mm_add_ps(sum, _mm_mul_ps(d, d));
        }
        if SQRT {
            sum = _mm_sqrt_ps(sum);
        }
        _mm_storeu_ps(out.as_mut_ptr(), sum);
    }
    out
}

/// Scalar fallback: four single-row evaluations.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn sq_dist_x4<const SQRT: bool>(q: &[f32], r4: &[f32]) -> [f32; 4] {
    let n = q.len();
    core::array::from_fn(|j| root::<SQRT>(crate::dist::sq_dist(q, &r4[j * n..(j + 1) * n])))
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
