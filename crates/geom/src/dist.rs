//! Euclidean distance kernels.
//!
//! The inner loop is written over exact-size chunks so LLVM auto-vectorizes it; this
//! is the hottest code in the whole workspace (brute-force scans run it a billion
//! times at paper scale).
//!
//! Two entry forms share one implementation:
//!
//! * [`sq_dist`] — generic over runtime `dims`; the loop trip counts are only
//!   known at run time, so LLVM emits a loop.
//! * [`sq_dist_d`] — const-generic over `D`; when the slices really have length
//!   `D` the same implementation inlines with compile-time trip counts, so the
//!   whole distance fully unrolls (and vectorizes wider). Because both forms run
//!   the *identical* sequence of floating-point operations, their results are
//!   **bit-identical** — the specialization is a host-speed change only, which
//!   the tests below pin down.
//!
//! [`DistKernel`] resolves the best form **once per batch** (hoisted to batch
//! setup; per-thread scratch caches the resolution so even million-query wave
//! batches pay for dispatch exactly once per worker) for the paper's
//! dimensionalities 2/3/4/8/16, falling back to the generic loop. Resolution
//! defaults to the explicit-SIMD same-op-order kernels in [`crate::simd`] —
//! bit-identical to the scalar loops by construction — and [`DistLanes`]
//! selects the scalar reference path for A/B measurement. The batched
//! `*_rows` forms evaluate one query against a flat SoA run of rows with a
//! single indirect dispatch for the whole run.

/// The one true squared-distance loop. `#[inline(always)]` so that callers with
/// compile-time-known slice lengths (see [`sq_dist_d`]) get fully unrolled
/// code, while the op order — and therefore the f32 result bits — never
/// changes between the generic and specialized forms.
#[inline(always)]
fn sq_dist_impl(a: &[f32], b: &[f32]) -> f32 {
    // 4-wide manual unroll: keeps four independent accumulators so the loop
    // pipelines, and lets LLVM lower it to SIMD without a reduction dependency.
    let mut acc = [0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let o = i * 4;
        for lane in 0..4 {
            let d = a[o + lane] - b[o + lane];
            acc[lane] += d * d;
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in chunks * 4..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Squared Euclidean distance between two equal-length coordinate slices.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    sq_dist_impl(a, b)
}

/// Squared distance specialized for dimensionality `D`: when both slices have
/// length `D` the shared loop inlines with constant trip counts and fully
/// unrolls; otherwise it degrades to the generic loop. Bit-identical to
/// [`sq_dist`] in either case.
#[inline]
pub fn sq_dist_d<const D: usize>(a: &[f32], b: &[f32]) -> f32 {
    match (<&[f32; D]>::try_from(a), <&[f32; D]>::try_from(b)) {
        (Ok(a), Ok(b)) => sq_dist_impl(a, b),
        _ => sq_dist_impl(a, b),
    }
}

/// Euclidean distance between two equal-length coordinate slices.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f32 {
    sq_dist(a, b).sqrt()
}

/// Signed offset from a query coordinate to an axis-aligned splitting plane:
/// negative (or zero) when the query lies on the low side of the plane. This
/// is the kd-tree traversal's entire bounding geometry — the sign picks the
/// close child, and the absolute value is the *exact* Euclidean distance from
/// the query to the plane, compared against the current k-th best to decide
/// whether the far subtree can still contain a closer point.
#[inline]
pub fn plane_gap(q: f32, plane: f32) -> f32 {
    q - plane
}

/// Whether the far side of a splitting plane at signed offset `gap` (from
/// [`plane_gap`]) can still hold a point at or within `bound`.
#[inline]
pub fn plane_in_range(gap: f32, bound: f32) -> bool {
    gap.abs() <= bound
}

/// Whether a kNN search must still visit a subtree at `mindist` under
/// `bound`: at or within it, since a point at the k-th distance displaces the
/// k-th row if its id is lower. So a MINDIST overflowed to +inf is admitted
/// under a +inf bound; NaN never is.
#[inline]
pub fn mindist_in_range(mindist: f32, bound: f32) -> bool {
    mindist <= bound
}

/// Lane selection for [`DistKernel`] resolution. Both selections are
/// **bit-identical** (the `simd` module's same-op-order contract); the switch
/// exists so benches and identity tests can hold the scalar reference next to
/// the explicit lanes on the same machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DistLanes {
    /// Explicit-SIMD same-op-order kernels ([`crate::simd`]): the default.
    #[default]
    Simd,
    /// The scalar (auto-vectorized) loops — the reference op order.
    Scalar,
}

/// Explicit-SIMD squared distance with the scalar loop's panic-free fallback
/// on mismatched lengths (the wide loads require equal lengths; the sweep
/// fallback paths rely on mismatches degrading, not panicking).
fn sq_simd(a: &[f32], b: &[f32]) -> f32 {
    if a.len() == b.len() {
        crate::simd::sq_dist_wide(a, b)
    } else {
        sq_dist_impl(a, b)
    }
}

/// Dimension-specialized explicit-SIMD squared distance: constant trip counts
/// when the lengths really are `D`, graceful fallback otherwise.
fn sq_simd_d<const D: usize>(a: &[f32], b: &[f32]) -> f32 {
    match (<&[f32; D]>::try_from(a), <&[f32; D]>::try_from(b)) {
        (Ok(a), Ok(b)) => crate::simd::sq_dist_wide(a, b),
        _ => sq_simd(a, b),
    }
}

/// One query against a flat SoA run of coordinate rows: appends one distance
/// (or squared distance) per `dims`-strided row. A single `fn`-pointer
/// dispatch covers the whole run (the arena child rows / leaf point runs),
/// instead of one indirect call per row.
type Rows = fn(&[f32], &[f32], &mut Vec<f32>);
type SqFn = fn(&[f32], &[f32]) -> f32;

/// A resolution: one row's squared distance, distance rows, squared rows.
type Resolved = (SqFn, Rows, Rows);

/// A rows form's output from one squared distance.
#[inline(always)]
pub(crate) fn root<const SQRT: bool>(sq: f32) -> f32 {
    if SQRT {
        sq.sqrt()
    } else {
        sq
    }
}

/// The scalar reference: one row at a time.
fn rows_scalar<const SQRT: bool>(q: &[f32], rows: &[f32], out: &mut Vec<f32>) {
    let d = q.len();
    if d == 0 {
        return;
    }
    for row in rows.chunks_exact(d) {
        out.push(root::<SQRT>(sq_dist_impl(q, row)));
    }
}

fn rows_scalar_d<const D: usize, const SQRT: bool>(q: &[f32], rows: &[f32], out: &mut Vec<f32>) {
    let Ok(q) = <&[f32; D]>::try_from(q) else {
        return rows_scalar::<SQRT>(q, rows, out);
    };
    for row in rows.chunks_exact(D) {
        out.push(root::<SQRT>(sq_dist_d::<D>(q, row)));
    }
}

/// The four-row blocked kernel with constant trip counts when `q` really has
/// length `D`.
fn rows_simd_d<const D: usize, const SQRT: bool>(q: &[f32], rows: &[f32], out: &mut Vec<f32>) {
    match <&[f32; D]>::try_from(q) {
        Ok(q) => crate::simd::rows_wide::<SQRT>(q, rows, out),
        Err(_) => crate::simd::rows_wide::<SQRT>(q, rows, out),
    }
}

fn simd_d<const D: usize>() -> Resolved {
    (sq_simd_d::<D>, rows_simd_d::<D, true>, rows_simd_d::<D, false>)
}

fn scalar_d<const D: usize>() -> Resolved {
    (sq_dist_d::<D>, rows_scalar_d::<D, true>, rows_scalar_d::<D, false>)
}

/// A distance kernel dispatched once per batch: dimension-specialized for the
/// paper's dims (2/3/4/8/16), generic otherwise; explicit-SIMD lanes by
/// default, scalar reference on request — all selections bit-identical. The
/// selected functions are plain `fn` pointers, so carrying the kernel into a
/// per-node sweep costs one indirect call per evaluation (or per *row run*,
/// for the batched forms) and nothing else.
#[derive(Clone, Copy, Debug)]
pub struct DistKernel {
    sq: SqFn,
    rows: Rows,
    sq_rows: Rows,
    dims: usize,
    lanes: DistLanes,
}

impl DistKernel {
    /// Resolve the kernel for `dims` with the default (SIMD) lanes.
    pub fn for_dims(dims: usize) -> Self {
        Self::for_dims_lanes(dims, DistLanes::default())
    }

    /// Resolve the scalar-reference kernel for `dims` (benchmark baseline).
    pub fn scalar_for_dims(dims: usize) -> Self {
        Self::for_dims_lanes(dims, DistLanes::Scalar)
    }

    /// Resolve the kernel for `dims` under an explicit lane selection.
    pub fn for_dims_lanes(dims: usize, lanes: DistLanes) -> Self {
        use crate::simd::rows_wide;
        let (sq, rows, sq_rows): Resolved = match (lanes, dims) {
            (DistLanes::Simd, 2) => simd_d::<2>(),
            (DistLanes::Simd, 3) => simd_d::<3>(),
            (DistLanes::Simd, 4) => simd_d::<4>(),
            (DistLanes::Simd, 8) => simd_d::<8>(),
            (DistLanes::Simd, 16) => simd_d::<16>(),
            (DistLanes::Simd, _) => (sq_simd, rows_wide::<true>, rows_wide::<false>),
            (DistLanes::Scalar, 2) => scalar_d::<2>(),
            (DistLanes::Scalar, 3) => scalar_d::<3>(),
            (DistLanes::Scalar, 4) => scalar_d::<4>(),
            (DistLanes::Scalar, 8) => scalar_d::<8>(),
            (DistLanes::Scalar, 16) => scalar_d::<16>(),
            (DistLanes::Scalar, _) => (sq_dist, rows_scalar::<true>, rows_scalar::<false>),
        };
        Self { sq, rows, sq_rows, dims, lanes }
    }

    /// The dimensionality this kernel was resolved for.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The lane selection this kernel was resolved with.
    #[inline]
    pub fn lanes(&self) -> DistLanes {
        self.lanes
    }

    /// Squared distance via the resolved kernel.
    #[inline]
    pub fn sq(&self, a: &[f32], b: &[f32]) -> f32 {
        (self.sq)(a, b)
    }

    /// Distance via the resolved kernel.
    #[inline]
    pub fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        (self.sq)(a, b).sqrt()
    }

    /// Signed query-to-splitting-plane offset (the kd traversal's only
    /// per-node geometry). A single subtraction has nothing to lane-dispatch,
    /// but routing it through the resolved kernel keeps every kernel's
    /// geometry behind one handle — and pins the op order the bit-identity
    /// suites check.
    #[inline]
    pub fn plane_gap(&self, q: f32, plane: f32) -> f32 {
        plane_gap(q, plane)
    }

    /// Batched rows form of [`Self::dist`]: appends the distance from `q` to
    /// each `dims`-strided row of `rows`. Bit-identical to calling
    /// [`Self::dist`] per row.
    #[inline]
    pub fn dist_rows(&self, q: &[f32], rows: &[f32], out: &mut Vec<f32>) {
        (self.rows)(q, rows, out);
    }

    /// Batched rows form of [`Self::sq`]: appends the squared distance from
    /// `q` to each `dims`-strided row of `rows`. Bit-identical to calling
    /// [`Self::sq`] per row.
    #[inline]
    pub(crate) fn sq_rows(&self, q: &[f32], rows: &[f32], out: &mut Vec<f32>) {
        (self.sq_rows)(q, rows, out);
    }
}

impl Default for DistKernel {
    /// The generic (runtime-`dims`) scalar kernel.
    fn default() -> Self {
        Self {
            sq: sq_dist,
            rows: rows_scalar::<true>,
            sq_rows: rows_scalar::<false>,
            dims: 0,
            lanes: DistLanes::Scalar,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = [1.5, -2.0, 3.25];
        assert_eq!(sq_dist(&p, &p), 0.0);
    }

    #[test]
    fn matches_naive_sum() {
        // 11 dims exercises both the unrolled body and the scalar tail.
        let a: Vec<f32> = (0..11).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..11).map(|i| (10 - i) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((sq_dist(&a, &b) - naive).abs() <= naive * 1e-6);
    }

    #[test]
    fn dist_is_sqrt_of_sq() {
        let a = [0.0, 3.0];
        let b = [4.0, 0.0];
        assert_eq!(dist(&a, &b), 5.0);
        assert_eq!(sq_dist(&a, &b), 25.0);
    }

    #[test]
    fn one_dimensional() {
        assert_eq!(dist(&[-1.0], &[2.0]), 3.0);
    }

    /// Deterministic pseudo-random f32 in a hostile range (magnitudes spread
    /// over several orders so accumulation order differences would show up).
    fn lcg_f32(state: &mut u64) -> f32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (*state >> 40) as u32; // 24 significant bits
        (u as f32 / (1 << 24) as f32 - 0.5) * 2e4
    }

    fn random_pair(dims: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut s = seed;
        let a = (0..dims).map(|_| lcg_f32(&mut s)).collect();
        let b = (0..dims).map(|_| lcg_f32(&mut s)).collect();
        (a, b)
    }

    /// The hard invariant behind the arena layout work: every specialized
    /// kernel is bit-identical to the generic loop.
    #[test]
    fn specialized_kernels_are_bit_identical_to_generic() {
        fn check<const D: usize>() {
            for trial in 0..200u64 {
                let (a, b) = random_pair(D, trial * 31 + D as u64);
                assert_eq!(
                    sq_dist_d::<D>(&a, &b).to_bits(),
                    sq_dist(&a, &b).to_bits(),
                    "dims {D} trial {trial}"
                );
            }
        }
        check::<2>();
        check::<3>();
        check::<4>();
        check::<8>();
        check::<16>();
    }

    #[test]
    fn dist_kernel_dispatch_is_bit_identical_for_all_dims() {
        for dims in 1..=24 {
            let dk = DistKernel::for_dims(dims);
            assert_eq!(dk.dims(), dims);
            for trial in 0..50u64 {
                let (a, b) = random_pair(dims, trial * 97 + dims as u64);
                assert_eq!(dk.sq(&a, &b).to_bits(), sq_dist(&a, &b).to_bits());
                assert_eq!(dk.dist(&a, &b).to_bits(), dist(&a, &b).to_bits());
            }
        }
    }

    #[test]
    fn specialized_kernel_on_wrong_length_falls_back() {
        // A dims-4 kernel handed 6-dim slices must still be exact (the sweep
        // fallback paths rely on this never panicking).
        let (a, b) = random_pair(6, 7);
        assert_eq!(sq_dist_d::<4>(&a, &b).to_bits(), sq_dist(&a, &b).to_bits());
    }

    #[test]
    fn default_kernel_is_generic() {
        let dk = DistKernel::default();
        let (a, b) = random_pair(5, 3);
        assert_eq!(dk.sq(&a, &b).to_bits(), sq_dist(&a, &b).to_bits());
    }

    /// The sweep loops stream flat row slices through the kernel; pin the
    /// chunked form against per-row calls so a future row-iteration change
    /// cannot drift.
    #[test]
    fn chunked_row_sweep_matches_per_row_dist_bitwise() {
        for dims in [2usize, 3, 4, 5, 8, 16, 19] {
            let dk = DistKernel::for_dims(dims);
            let mut s = dims as u64 * 1117;
            let q: Vec<f32> = (0..dims).map(|_| lcg_f32(&mut s)).collect();
            let rows: Vec<f32> = (0..dims * 23).map(|_| lcg_f32(&mut s)).collect();
            for (i, row) in rows.chunks_exact(dims).enumerate() {
                let from_flat = dk.dist(&q, &rows[i * dims..(i + 1) * dims]);
                assert_eq!(from_flat.to_bits(), dk.dist(&q, row).to_bits(), "dims {dims} row {i}");
                assert_eq!(from_flat.to_bits(), dist(&q, row).to_bits(), "dims {dims} row {i}");
            }
        }
    }

    /// Both lane selections resolve to bit-identical kernels for every dims —
    /// the invariant that lets `DistLanes::Simd` be the default without any
    /// parity-pinned test noticing.
    #[test]
    fn lane_selections_are_bit_identical() {
        for dims in 1..=24 {
            let simd = DistKernel::for_dims(dims);
            let scalar = DistKernel::scalar_for_dims(dims);
            assert_eq!(simd.lanes(), DistLanes::Simd);
            assert_eq!(scalar.lanes(), DistLanes::Scalar);
            for trial in 0..50u64 {
                let (a, b) = random_pair(dims, trial * 53 + dims as u64);
                assert_eq!(
                    simd.sq(&a, &b).to_bits(),
                    scalar.sq(&a, &b).to_bits(),
                    "dims {dims} trial {trial}"
                );
            }
        }
    }

    /// A coordinate a distance kernel must not round differently from the
    /// scalar loop, harder by `level`: finite values over ±2^20 with ±0 and
    /// subnormals (0); over ±2^70, so squares and sums overflow (1); plus
    /// ±inf (2); plus NaN (3).
    fn hostile_f32(state: &mut u64, level: u8) -> f32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = *state;
        let sign = ((u >> 32) as u32) & 0x8000_0000;
        let mantissa = (u >> 8) as u32 & 0x007f_ffff;
        match u >> 58 {
            0 if level >= 2 => f32::INFINITY,
            1 if level >= 2 => f32::NEG_INFINITY,
            2 if level >= 3 => f32::NAN,
            3..=6 => f32::from_bits(sign),
            7..=10 => f32::from_bits(sign | mantissa | 1),
            _ => {
                let span = if level == 0 { 20 } else { 70 };
                let exp = 127 - span + ((u >> 40) % (2 * span as u64 + 1)) as u32;
                f32::from_bits(sign | exp << 23 | mantissa)
            }
        }
    }

    /// The batched rows form is bit-identical to per-row [`dist`] under both
    /// lane selections: every row count across a four-row block boundary,
    /// every dims up to 24, hostile inputs. A NaN anywhere in a row gives a
    /// NaN for that row (payload not pinned) and leaves its neighbours alone;
    /// a ragged trailing row is ignored; what `out` held stays in front.
    #[test]
    fn batched_rows_match_per_row_bitwise() {
        for dims in 1usize..=24 {
            for lanes in [DistLanes::Simd, DistLanes::Scalar] {
                let dk = DistKernel::for_dims_lanes(dims, lanes);
                for n in 0..=9usize {
                    for trial in 0..8u64 {
                        let mut s = (dims as u64 * 2221 + n as u64) * 31 + trial;
                        let level = (trial / 2) as u8;
                        let q: Vec<f32> = (0..dims).map(|_| hostile_f32(&mut s, level)).collect();
                        let ragged = (trial as usize) % dims;
                        let rows: Vec<f32> =
                            (0..dims * n + ragged).map(|_| hostile_f32(&mut s, level)).collect();
                        let (mut d_out, mut sq_out) = (vec![-1.5f32], vec![-1.5f32]);
                        dk.dist_rows(&q, &rows, &mut d_out);
                        dk.sq_rows(&q, &rows, &mut sq_out);
                        for out in [&d_out, &sq_out] {
                            assert_eq!(out.len(), 1 + n, "dims {dims} n {n} {lanes:?}");
                            assert_eq!(out[0], -1.5, "appends after what `out` held");
                        }
                        for (i, row) in rows.chunks_exact(dims).enumerate() {
                            let at = format!("dims {dims} n {n} row {i} trial {trial} {lanes:?}");
                            for (got, want) in
                                [(d_out[1 + i], dist(&q, row)), (sq_out[1 + i], sq_dist(&q, row))]
                            {
                                if want.is_nan() {
                                    assert!(got.is_nan(), "{at}: NaN in, {got} out");
                                } else {
                                    assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The plane-gap helper is one subtraction in a fixed order; the kernel
    /// method must be bit-identical to the free function, and the in-range
    /// predicate inclusive (a point exactly on the bound can still displace
    /// the k-th row by id), false for NaN.
    #[test]
    fn plane_gap_is_exact_and_strict() {
        let mut s = 11u64;
        for _ in 0..200 {
            let q = lcg_f32(&mut s);
            let p = lcg_f32(&mut s);
            let g = plane_gap(q, p);
            assert_eq!(g.to_bits(), (q - p).to_bits());
            assert_eq!(g.to_bits(), DistKernel::for_dims(3).plane_gap(q, p).to_bits());
            // |gap| is the 1-D Euclidean distance to the plane, bitwise.
            assert_eq!(g.abs().to_bits(), dist(&[q], &[p]).to_bits());
        }
        assert!(plane_in_range(plane_gap(3.0, 1.0), 2.5));
        assert!(plane_in_range(plane_gap(1.0, 3.0), 2.0), "bound is inclusive");
        assert!(!plane_in_range(plane_gap(3.0, 1.0), 2.0f32.next_down()));
        assert!(!plane_in_range(f32::NAN, f32::INFINITY));
        assert!(plane_gap(1.0, 3.0) <= 0.0, "low side is negative");
    }

    #[test]
    fn rows_forms_tolerate_degenerate_inputs() {
        let dk = DistKernel::for_dims(3);
        let mut out = Vec::new();
        // Empty run: nothing appended.
        dk.dist_rows(&[1.0, 2.0, 3.0], &[], &mut out);
        assert!(out.is_empty());
        // Zero-dims kernel (the Default placeholder): nothing appended.
        DistKernel::default().dist_rows(&[], &[1.0, 2.0], &mut out);
        assert!(out.is_empty());
        // A ragged tail (rows not a multiple of dims) is ignored, mirroring
        // `chunks_exact`.
        dk.dist_rows(&[0.0, 0.0, 0.0], &[3.0, 4.0, 0.0, 7.0], &mut out);
        assert_eq!(out, [5.0]);
    }
}
