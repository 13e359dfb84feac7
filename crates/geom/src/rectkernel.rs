//! Rectangle bound evaluators: MINDIST / MAXDIST / anchor (fused 3-chain).
//!
//! Moved up from the R-tree crate so every consumer — the R-tree's arena
//! sweeps, the brute recovery paths, benches — shares one pinned
//! implementation. The scalar fused chain is the *reference op order*: each of
//! the three accumulators is a single sequential per-dimension chain, so any
//! wide-lane evaluation of it necessarily reassociates the sum and changes the
//! f32 bits. The dispatch therefore stays scalar (dimension-specialized for
//! unrolling, exactly like [`crate::sq_dist_d`]).
//!
//! What the batched [`RectKernel::eval_rows`] form buys instead of wider
//! lanes: one dispatch per *node block* rather than one indirect call per
//! child row, with the monomorphized row loop iterating the SoA `lo`/`hi`
//! runs directly.

/// One rectangle evaluation: MINDIST always, MAXDIST when `with_max`, center
/// (anchor) distance when `with_anchor`. The three accumulator chains are
/// independent and run in the same per-dimension order as the historical
/// `child_min_max` / `child_anchor_dist` loops, so fusing them is bit-identical.
#[inline(always)]
fn rect_eval_impl(
    lo: &[f32],
    hi: &[f32],
    q: &[f32],
    with_max: bool,
    with_anchor: bool,
) -> (f32, f32, f32) {
    let mut min_acc = 0f32;
    let mut max_acc = 0f32;
    let mut anc_acc = 0f32;
    for ((&l, &h), &x) in lo.iter().zip(hi).zip(q) {
        let d = if x < l {
            l - x
        } else if x > h {
            x - h
        } else {
            0.0
        };
        min_acc += d * d;
        if with_max {
            let far = (x - l).abs().max((x - h).abs());
            max_acc += far * far;
        }
        if with_anchor {
            let center = 0.5 * (l + h);
            anc_acc += (x - center) * (x - center);
        }
    }
    (min_acc.sqrt(), max_acc.sqrt(), anc_acc.sqrt())
}

/// The fused 3-chain rectangle evaluation (generic over runtime `dims`).
#[inline]
pub fn rect_eval(
    lo: &[f32],
    hi: &[f32],
    q: &[f32],
    with_max: bool,
    with_anchor: bool,
) -> (f32, f32, f32) {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len(), q.len());
    rect_eval_impl(lo, hi, q, with_max, with_anchor)
}

/// Dimension-specialized form of [`rect_eval`]: with slice lengths equal to
/// `D` the loop inlines with constant trip counts and unrolls; otherwise it
/// degrades to the generic loop. Bit-identical either way (same op sequence).
#[inline]
pub(crate) fn rect_eval_d<const D: usize>(
    lo: &[f32],
    hi: &[f32],
    q: &[f32],
    with_max: bool,
    with_anchor: bool,
) -> (f32, f32, f32) {
    match (<&[f32; D]>::try_from(lo), <&[f32; D]>::try_from(hi), <&[f32; D]>::try_from(q)) {
        (Ok(l), Ok(h), Ok(x)) => rect_eval_impl(l, h, x, with_max, with_anchor),
        _ => rect_eval_impl(lo, hi, q, with_max, with_anchor),
    }
}

/// A single rectangle evaluation, dispatched as a plain `fn` pointer.
pub(crate) type RectEval = fn(&[f32], &[f32], &[f32], bool, bool) -> (f32, f32, f32);

/// One query against a run of SoA rectangle rows: evaluates `lo_rows`/`hi_rows`
/// (flat, `dims`-strided, equal length) against `q` and appends MINDIST to
/// `min_d` per row, plus MAXDIST / anchor rows when requested.
pub(crate) type RectRows = fn(&[f32], &[f32], &[f32], bool, bool, &mut RectRowsOut<'_>);

/// Output buffers for a batched rectangle sweep (a struct so the row-sweep
/// `fn` pointer keeps a sane arity).
pub struct RectRowsOut<'a> {
    /// MINDIST per row (always filled).
    pub min_d: &'a mut Vec<f32>,
    /// MAXDIST per row (filled only `with_max`).
    pub max_d: &'a mut Vec<f32>,
    /// Anchor (center) distance per row (filled only `with_anchor`).
    pub anchor_d: &'a mut Vec<f32>,
}

#[inline(always)]
fn rect_rows_impl<const D: usize>(
    q: &[f32],
    lo_rows: &[f32],
    hi_rows: &[f32],
    with_max: bool,
    with_anchor: bool,
    out: &mut RectRowsOut<'_>,
) {
    // D == 0 selects the runtime-dims loop (mirroring `rect_eval` generic).
    let d = if D == 0 { q.len() } else { D };
    if d == 0 {
        return;
    }
    debug_assert_eq!(lo_rows.len(), hi_rows.len());
    for (lo, hi) in lo_rows.chunks_exact(d).zip(hi_rows.chunks_exact(d)) {
        let (mn, mx, anc) = rect_eval_d::<D>(lo, hi, q, with_max, with_anchor);
        out.min_d.push(mn);
        if with_max {
            out.max_d.push(mx);
        }
        if with_anchor {
            out.anchor_d.push(anc);
        }
    }
}

fn rect_rows_generic(
    q: &[f32],
    lo_rows: &[f32],
    hi_rows: &[f32],
    with_max: bool,
    with_anchor: bool,
    out: &mut RectRowsOut<'_>,
) {
    rect_rows_impl::<0>(q, lo_rows, hi_rows, with_max, with_anchor, out);
}

fn rect_rows_d<const D: usize>(
    q: &[f32],
    lo_rows: &[f32],
    hi_rows: &[f32],
    with_max: bool,
    with_anchor: bool,
    out: &mut RectRowsOut<'_>,
) {
    rect_rows_impl::<D>(q, lo_rows, hi_rows, with_max, with_anchor, out);
}

/// Resolve the single-rectangle evaluator for `dims` (the paper's
/// dimensionalities get the unrolled forms).
pub(crate) fn rect_eval_for_dims(dims: usize) -> RectEval {
    match dims {
        2 => rect_eval_d::<2>,
        3 => rect_eval_d::<3>,
        4 => rect_eval_d::<4>,
        8 => rect_eval_d::<8>,
        16 => rect_eval_d::<16>,
        _ => rect_eval,
    }
}

/// A rectangle-bound kernel resolved once per batch/sweep: a single-rect
/// evaluator plus the batched one-query-vs-many-rows form, both dispatched as
/// plain `fn` pointers (one indirect call per *node block*, not per child).
#[derive(Clone, Copy, Debug)]
pub struct RectKernel {
    eval: RectEval,
    rows: RectRows,
    dims: usize,
}

impl RectKernel {
    /// Resolve the kernel for `dims`.
    pub fn for_dims(dims: usize) -> Self {
        let rows: RectRows = match dims {
            2 => rect_rows_d::<2>,
            3 => rect_rows_d::<3>,
            4 => rect_rows_d::<4>,
            8 => rect_rows_d::<8>,
            16 => rect_rows_d::<16>,
            _ => rect_rows_generic,
        };
        Self { eval: rect_eval_for_dims(dims), rows, dims }
    }

    /// The dimensionality this kernel was resolved for.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Evaluate one rectangle.
    #[inline]
    pub fn eval(
        &self,
        lo: &[f32],
        hi: &[f32],
        q: &[f32],
        with_max: bool,
        with_anchor: bool,
    ) -> (f32, f32, f32) {
        (self.eval)(lo, hi, q, with_max, with_anchor)
    }

    /// Evaluate a run of SoA rectangle rows against one query, appending per
    /// row into `out`. Bit-identical to calling [`Self::eval`] per row.
    #[inline]
    pub fn eval_rows(
        &self,
        q: &[f32],
        lo_rows: &[f32],
        hi_rows: &[f32],
        with_max: bool,
        with_anchor: bool,
        out: &mut RectRowsOut<'_>,
    ) {
        (self.rows)(q, lo_rows, hi_rows, with_max, with_anchor, out);
    }
}

impl Default for RectKernel {
    /// The generic (runtime-`dims`) kernel.
    fn default() -> Self {
        Self { eval: rect_eval, rows: rect_rows_generic, dims: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lcg_f32(state: &mut u64) -> f32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (*state >> 40) as u32;
        (u as f32 / (1 << 24) as f32 - 0.5) * 2e4
    }

    fn random_rect_run(dims: usize, rows: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut s = seed;
        let q: Vec<f32> = (0..dims).map(|_| lcg_f32(&mut s)).collect();
        let mut lo = Vec::with_capacity(dims * rows);
        let mut hi = Vec::with_capacity(dims * rows);
        for _ in 0..dims * rows {
            let (a, b) = (lcg_f32(&mut s), lcg_f32(&mut s));
            lo.push(a.min(b));
            hi.push(a.max(b));
        }
        (q, lo, hi)
    }

    /// The batched rows form is bit-identical to per-row evaluation, for
    /// every flag combination, across the paper's dims plus odd tails.
    #[test]
    fn rows_sweep_is_bit_identical_to_per_row_eval() {
        for dims in [2usize, 3, 4, 8, 16, 17] {
            for (with_max, with_anchor) in [(false, false), (true, false), (true, true)] {
                let (q, lo, hi) = random_rect_run(dims, 23, dims as u64 * 977 + 5);
                let rk = RectKernel::for_dims(dims);
                let (mut min_d, mut max_d, mut anchor_d) = (Vec::new(), Vec::new(), Vec::new());
                let mut out =
                    RectRowsOut { min_d: &mut min_d, max_d: &mut max_d, anchor_d: &mut anchor_d };
                rk.eval_rows(&q, &lo, &hi, with_max, with_anchor, &mut out);
                for (i, (l, h)) in lo.chunks_exact(dims).zip(hi.chunks_exact(dims)).enumerate() {
                    let (mn, mx, anc) = rk.eval(l, h, &q, with_max, with_anchor);
                    let (gmn, gmx, ganc) = rect_eval(l, h, &q, with_max, with_anchor);
                    assert_eq!(mn.to_bits(), gmn.to_bits(), "dims {dims} row {i}");
                    assert_eq!(min_d[i].to_bits(), mn.to_bits(), "dims {dims} row {i}");
                    if with_max {
                        assert_eq!(mx.to_bits(), gmx.to_bits());
                        assert_eq!(max_d[i].to_bits(), mx.to_bits());
                    }
                    if with_anchor {
                        assert_eq!(anc.to_bits(), ganc.to_bits());
                        assert_eq!(anchor_d[i].to_bits(), anc.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn mindist_is_zero_inside_the_rect() {
        let lo = [0.0f32, 0.0];
        let hi = [2.0f32, 2.0];
        let (mn, mx, _) = rect_eval(&lo, &hi, &[1.0, 1.0], true, false);
        assert_eq!(mn, 0.0);
        assert!(mx > 0.0);
    }

    proptest! {
        #[test]
        fn rows_bit_identity_proptest(
            dims in 1usize..24,
            rows in 1usize..16,
            seed in 0u64..u64::MAX,
        ) {
            let (q, lo, hi) = random_rect_run(dims, rows, seed);
            let rk = RectKernel::for_dims(dims);
            let (mut min_d, mut max_d, mut anchor_d) = (Vec::new(), Vec::new(), Vec::new());
            let mut out = RectRowsOut {
                min_d: &mut min_d,
                max_d: &mut max_d,
                anchor_d: &mut anchor_d,
            };
            rk.eval_rows(&q, &lo, &hi, true, true, &mut out);
            for (i, (l, h)) in lo.chunks_exact(dims).zip(hi.chunks_exact(dims)).enumerate() {
                let (mn, mx, anc) = rect_eval(l, h, &q, true, true);
                prop_assert_eq!(min_d[i].to_bits(), mn.to_bits());
                prop_assert_eq!(max_d[i].to_bits(), mx.to_bits());
                prop_assert_eq!(anchor_d[i].to_bits(), anc.to_bits());
            }
        }
    }
}
