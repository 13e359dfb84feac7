//! d-dimensional Hilbert space-filling curve (Skilling's transpose algorithm).
//!
//! Bottom-up SS-tree construction (paper §IV-A) sorts all points by their Hilbert
//! index and packs consecutive runs into leaves. We implement John Skilling's
//! "Programming the Hilbert curve" (AIP 2004) transpose encoding, which works for
//! any dimensionality, and serialize the transposed form into a 256-bit key whose
//! natural ordering equals curve ordering.
//!
//! Precision budget: `dims × bits_per_dim ≤ 256`, so 2-d data gets 31-bit cells
//! while 64-d data gets 4-bit cells. Coarse cells in high dimensions are inherent
//! to any fixed-width curve key — and are part of why the paper finds k-means
//! packing beats Hilbert packing as `d` grows. At 256 dimensions every axis is
//! down to one bit; beyond that the curve runs over the first 256 dimensions at
//! one bit each and the rest do not enter the key (points that agree on the
//! leading 256 half-spaces tie, and every sort breaks ties by index).
//!
//! A build *is* its key computation (100 000 sixteen-d keys against one sort and
//! one packing pass), so the keys come from one branch-free kernel,
//! `curve_keys`, written over `L` lanes that each carry one point: quantise,
//! Skilling's transform with its data-dependent branches turned into mask
//! selects, and the key packed plane by plane in the same pass — all on
//! fixed-size stack arrays, no allocation. [`hilbert_key`] is the kernel at one
//! lane, [`hilbert_keys`] runs it `LANES` points at a time on the pool, and
//! [`hilbert_sort`] is the one "bounds → keys → sort by `(key, index)`" every
//! tree build, shard plan and query schedule calls.
//! [`axes_to_transpose`] + [`transpose_to_key`] stay as the textbook pair the
//! kernel is tested against bit for bit; no build calls them.

use rayon::prelude::*;

use crate::point::PointSet;
use crate::rect::Rect;

/// A totally ordered 256-bit Hilbert curve position (most-significant word first).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HilbertKey(pub [u64; 4]);

/// Bits of curve resolution per dimension for a given dimensionality.
pub fn bits_for_dims(dims: usize) -> u32 {
    assert!(dims > 0);
    ((256 / dims) as u32).clamp(1, 31)
}

/// In-place Skilling transform: coordinates → transposed Hilbert index.
/// `x[i]` holds a `bits`-bit coordinate on entry and the i-th transposed index
/// word on exit.
pub fn axes_to_transpose(x: &mut [u32], bits: u32) {
    let n = x.len();
    let m = 1u32 << (bits - 1);

    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of x[0]
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }

    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Inverse of [`axes_to_transpose`]: transposed Hilbert index → coordinates.
pub fn transpose_to_axes(x: &mut [u32], bits: u32) {
    let n = x.len();
    let top = 2u32 << (bits - 1);

    // Gray decode by H ^ (H/2).
    let t0 = x[n - 1] >> 1;
    for i in (1..n).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t0;

    // Undo excess work.
    let mut q = 2u32;
    while q != top {
        let p = q - 1;
        for i in (0..n).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Packs a transposed index into a totally ordered key: bits are emitted
/// column-wise, most-significant bit plane first, dimension 0 first within a
/// plane — exactly the Hilbert index bit order.
pub fn transpose_to_key(x: &[u32], bits: u32) -> HilbertKey {
    let mut key = [0u64; 4];
    let mut bit_pos = 0usize; // 0 = MSB of word 0
    for plane in (0..bits).rev() {
        for &xi in x {
            if (xi >> plane) & 1 != 0 {
                key[bit_pos / 64] |= 1u64 << (63 - bit_pos % 64);
            }
            bit_pos += 1;
        }
    }
    HilbertKey(key)
}

/// Dimensions the curve runs over: one bit each is the least a key can spend.
const MAX_CURVE_DIMS: usize = 256;

/// Points per lane group in [`hilbert_keys`].
const LANES: usize = 8;

/// Points per parallel piece of [`hilbert_keys`].
const KEY_BLOCK: usize = 2048;

/// Points from which [`hilbert_keys`] enters a parallel region. A region
/// costs its workers' spawn and, on a shared host, the wake-up of a core that
/// had gone idle — a few hundred microseconds that a set below this (a query
/// batch, one shard of an ingest router: around a millisecond of keys) does
/// not earn back. Such a set is keyed on the calling thread.
const PAR_MIN_POINTS: usize = 8 * KEY_BLOCK;

/// All-ones where bit `plane` of `v` is set, zero where it is not.
#[inline(always)]
fn bit_mask(v: u32, plane: u32) -> u32 {
    0u32.wrapping_sub((v >> plane) & 1)
}

/// The Hilbert keys of `L` points at once, lane `l` carrying `points[l]`.
/// `x` is scratch (one row of lanes per curve dimension); every entry read
/// is written first.
///
/// The three stages are those of [`axes_to_transpose`] + [`transpose_to_key`]
/// with the order of operations kept and no branch on data, so the keys are
/// the same bits:
///
/// 1. quantise — the f64 expression build order has always depended on,
///    `(v - lo) / span * cells` clamped and truncated, division and all: a
///    reciprocal would round differently and move points between leaves. Only
///    the `floor()` in front of the clamp is gone, because it was the identity:
///    the clamp bounds are integers, so inside them `as u32` truncates a
///    non-negative value exactly as `floor` would, outside them both forms
///    land on the same bound, and NaN is cell 0 either way;
/// 2. inverse undo, then Gray encode — `if bit { invert low bits of x[0] }
///    else { swap low bits of x[0] and x[i] }` as masks: `invert` is the low
///    bits where the bit is set and nothing where it is not, `p ^ invert` the
///    reverse, and each arm is applied under its own;
/// 3. pack — bit planes high to low, dimension 0 first within a plane,
///    shifted into a 32-bit accumulator per lane that is stored whenever it
///    fills.
///
/// `D` is the dimension count where the caller fixes it at compile time (the
/// dims [`DistKernel`](crate::DistKernel) specialises), so every loop bound
/// and the bit budget are constants; `D = 0` reads it from `bounds`. One body
/// either way, so the keys are the same bits.
#[inline(always)]
fn curve_keys<const L: usize, const D: usize>(
    points: [&[f32]; L],
    bounds: &Rect,
    x: &mut [[u32; L]; MAX_CURVE_DIMS],
) -> [HilbertKey; L] {
    debug_assert!(D == 0 || D == bounds.dims());
    let dims = if D == 0 { bounds.dims() } else { D };
    let bits = bits_for_dims(dims);
    let n = dims.min(MAX_CURVE_DIMS);
    let points = points.map(|p| &p[..n]);
    let x = &mut x[..n];

    let cells = (1u64 << bits) as f64;
    for (d, xd) in x.iter_mut().enumerate() {
        let lo = bounds.min[d] as f64;
        let span = (bounds.max[d] as f64 - lo).max(f64::MIN_POSITIVE);
        for l in 0..L {
            let cell = (points[l][d] as f64 - lo) / span * cells;
            xd[l] = cell.clamp(0.0, cells - 1.0) as u32;
        }
    }

    let Some((first, rest)) = x.split_first_mut() else {
        return [HilbertKey::default(); L]; // unreachable: bits_for_dims rejected dims == 0
    };
    let mut x0 = *first;
    for plane in (1..bits).rev() {
        let p = (1u32 << plane) - 1;
        for v in x0.iter_mut() {
            *v ^= p & bit_mask(*v, plane);
        }
        for xi in rest.iter_mut() {
            for l in 0..L {
                let invert = p & bit_mask(xi[l], plane);
                let t = (x0[l] ^ xi[l]) & (p ^ invert);
                x0[l] = (x0[l] ^ invert) ^ t;
                xi[l] ^= t;
            }
        }
    }

    let mut last = x0;
    for xi in rest.iter_mut() {
        for l in 0..L {
            xi[l] ^= last[l];
        }
        last = *xi;
    }
    let mut t = [0u32; L];
    for plane in (1..bits).rev() {
        for l in 0..L {
            t[l] ^= ((1u32 << plane) - 1) & bit_mask(last[l], plane);
        }
    }
    *first = x0;
    for xi in x.iter_mut() {
        for l in 0..L {
            xi[l] ^= t[l];
        }
    }

    let mut halves = [[0u32; L]; 8];
    let mut acc = [0u32; L];
    let mut filled = 0usize;
    for plane in (0..bits).rev() {
        for xi in x.iter() {
            for l in 0..L {
                acc[l] = (acc[l] << 1) | ((xi[l] >> plane) & 1);
            }
            filled += 1;
            if filled.is_multiple_of(32) {
                halves[filled / 32 - 1] = acc;
            }
        }
    }
    if !filled.is_multiple_of(32) {
        halves[filled / 32] = acc.map(|a| a << (32 - filled % 32));
    }
    std::array::from_fn(|l| {
        HilbertKey(std::array::from_fn(|w| {
            (halves[2 * w][l] as u64) << 32 | halves[2 * w + 1][l] as u64
        }))
    })
}

/// Quantizes a point into curve cells over the given bounds and returns its
/// Hilbert key. Coordinates outside the bounds are clamped to the boundary cell.
pub fn hilbert_key(p: &[f32], bounds: &Rect) -> HilbertKey {
    assert_eq!(bounds.dims(), p.len(), "bounds dimensionality mismatch");
    let [key] = curve_keys::<1, 0>([p], bounds, &mut [[0; 1]; MAX_CURVE_DIMS]);
    key
}

/// [`hilbert_key`] of every point of `points`, in point order, on the rayon
/// pool: `LANES` consecutive points share one pass of the kernel (a short
/// last group repeats its last point in the spare lanes), specialised for
/// the dims [`DistKernel`](crate::DistKernel) specialises.
pub fn hilbert_keys(points: &PointSet, bounds: &Rect) -> Vec<HilbertKey> {
    assert_eq!(bounds.dims(), points.dims(), "bounds dimensionality mismatch");
    match points.dims() {
        2 => keys_in_dims::<2>(points, bounds),
        3 => keys_in_dims::<3>(points, bounds),
        4 => keys_in_dims::<4>(points, bounds),
        8 => keys_in_dims::<8>(points, bounds),
        16 => keys_in_dims::<16>(points, bounds),
        _ => keys_in_dims::<0>(points, bounds),
    }
}

/// [`hilbert_keys`] with the kernel's `D` (0: any dims).
fn keys_in_dims<const D: usize>(points: &PointSet, bounds: &Rect) -> Vec<HilbertKey> {
    let mut keys = vec![HilbertKey::default(); points.len()];
    let key_block = |(block, out): (usize, &mut [HilbertKey])| {
        let mut x = [[0u32; LANES]; MAX_CURVE_DIMS];
        for (group, out) in out.chunks_mut(LANES).enumerate() {
            let first = block * KEY_BLOCK + group * LANES;
            let rows = std::array::from_fn(|l| points.point(first + l.min(out.len() - 1)));
            out.copy_from_slice(&curve_keys::<LANES, D>(rows, bounds, &mut x)[..out.len()]);
        }
    };
    if points.len() < PAR_MIN_POINTS {
        keys.chunks_mut(KEY_BLOCK).enumerate().for_each(key_block);
    } else {
        keys.par_chunks_mut(KEY_BLOCK).enumerate().for_each(key_block);
    }
    keys
}

/// The permutation that lays `points` along the Hilbert curve over their own
/// bounding box: `order[j]` is the index of the `j`-th point on the curve.
/// Equal keys (duplicate points, coarse cells) break by index, so the order is
/// total and the same at any thread count. Panics on an empty set.
pub fn hilbert_sort(points: &PointSet) -> Vec<u32> {
    let mut order = Vec::new();
    hilbert_sort_into(points, &mut order);
    order
}

/// [`hilbert_sort`] written over `order`, whose allocation is reused (a
/// stream of query batches sorts each one into a recycled vector).
pub fn hilbert_sort_into(points: &PointSet, order: &mut Vec<u32>) {
    let keys = hilbert_keys(points, &Rect::of_point_set(points));
    order.clear();
    order.extend(0..points.len() as u32);
    order.par_sort_unstable_by_key(|&i| (keys[i as usize], i));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn transpose_round_trips() {
        for dims in [2usize, 3, 5, 8] {
            let bits = 5u32;
            let mask = (1u32 << bits) - 1;
            let mut seed = 12345u64;
            for _ in 0..200 {
                let coords: Vec<u32> = (0..dims)
                    .map(|_| {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        ((seed >> 33) as u32) & mask
                    })
                    .collect();
                let mut x = coords.clone();
                axes_to_transpose(&mut x, bits);
                transpose_to_axes(&mut x, bits);
                assert_eq!(x, coords, "round trip failed for dims={dims}");
            }
        }
    }

    #[test]
    fn keys_are_distinct_on_full_grid_2d() {
        let bits = 4u32;
        let mut keys = Vec::new();
        for a in 0..16u32 {
            for b in 0..16u32 {
                let mut x = [a, b];
                axes_to_transpose(&mut x, bits);
                keys.push(transpose_to_key(&x, bits));
            }
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 256, "Hilbert mapping must be a bijection");
    }

    #[test]
    fn curve_order_visits_grid_neighbors_2d() {
        // Sort all 16x16 cells by key; consecutive cells must be Manhattan
        // distance 1 apart — the defining continuity property of the curve.
        let bits = 4u32;
        let mut cells: Vec<([u32; 2], HilbertKey)> = Vec::new();
        for a in 0..16u32 {
            for b in 0..16u32 {
                let mut x = [a, b];
                axes_to_transpose(&mut x, bits);
                cells.push(([a, b], transpose_to_key(&x, bits)));
            }
        }
        cells.sort_by_key(|&(_, k)| k);
        for w in cells.windows(2) {
            let (c0, c1) = (w[0].0, w[1].0);
            let manhattan = c0[0].abs_diff(c1[0]) + c0[1].abs_diff(c1[1]);
            assert_eq!(manhattan, 1, "cells {c0:?} -> {c1:?} are not adjacent");
        }
    }

    #[test]
    fn curve_order_visits_grid_neighbors_3d() {
        let bits = 3u32;
        let side = 1u32 << bits;
        let mut cells = Vec::new();
        for a in 0..side {
            for b in 0..side {
                for c in 0..side {
                    let mut x = [a, b, c];
                    axes_to_transpose(&mut x, bits);
                    cells.push(([a, b, c], transpose_to_key(&x, bits)));
                }
            }
        }
        cells.sort_by_key(|&(_, k)| k);
        assert_eq!(cells.len(), (side * side * side) as usize);
        for w in cells.windows(2) {
            let (c0, c1) = (w[0].0, w[1].0);
            let manhattan: u32 = (0..3).map(|i| c0[i].abs_diff(c1[i])).sum();
            assert_eq!(manhattan, 1, "cells {c0:?} -> {c1:?} are not adjacent");
        }
    }

    #[test]
    fn quantization_clamps_out_of_bounds() {
        let bounds = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let far = hilbert_key(&[7.0, 9.0], &bounds);
        let farther = hilbert_key(&[100.0, 50.0], &bounds);
        assert_eq!(far, farther, "out-of-bounds points clamp to the same edge cell");
        let below = hilbert_key(&[-3.0, -8.0], &bounds);
        let origin = hilbert_key(&[0.0, 0.0], &bounds);
        assert_eq!(below, origin, "underflow clamps to the origin cell");
    }

    #[test]
    fn bits_scale_with_dims() {
        assert_eq!(bits_for_dims(2), 31);
        assert_eq!(bits_for_dims(8), 31);
        assert_eq!(bits_for_dims(16), 16);
        assert_eq!(bits_for_dims(64), 4);
        assert_eq!(bits_for_dims(300), 1);
    }

    #[test]
    fn nearby_points_get_nearby_keys() {
        // Spatial locality: two points in the same tiny region should be closer
        // in curve order than a point across the space, for most placements.
        let bounds = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]);
        let a = hilbert_key(&[10.0, 10.0], &bounds);
        let b = hilbert_key(&[10.5, 10.2], &bounds);
        let c = hilbert_key(&[90.0, 95.0], &bounds);
        let gap_ab = key_gap(a, b);
        let gap_ac = key_gap(a, c);
        assert!(gap_ab < gap_ac, "locality violated: {gap_ab} >= {gap_ac}");
    }

    /// The parent's `hilbert_key`, kept verbatim as the reference the kernel is
    /// held to: quantise (with its `floor`), then the textbook pair.
    fn reference_key(p: &[f32], bounds: &Rect) -> HilbertKey {
        let bits = bits_for_dims(p.len());
        let cells = (1u64 << bits) as f64;
        let mut x: Vec<u32> = p
            .iter()
            .enumerate()
            .map(|(d, &v)| {
                let lo = bounds.min[d] as f64;
                let hi = bounds.max[d] as f64;
                let span = (hi - lo).max(f64::MIN_POSITIVE);
                let cell = ((v as f64 - lo) / span * cells).floor();
                cell.clamp(0.0, cells - 1.0) as u32
            })
            .collect();
        axes_to_transpose(&mut x, bits);
        transpose_to_key(&x, bits)
    }

    /// `n` seeded points over a fixed box whose last axis is degenerate
    /// (`max == min`, from 2-d up). A fifth of the coordinates fall outside
    /// the box, and NaN, +inf and -inf each turn up every few dozen points.
    fn hostile_set(dims: usize, n: usize, seed: u64) -> (PointSet, Rect) {
        let min: Vec<f32> = (0..dims).map(|d| -100.0 - d as f32).collect();
        let max: Vec<f32> = (0..dims)
            .map(|d| if dims > 1 && d == dims - 1 { min[d] } else { 250.0 + 3.0 * d as f32 })
            .collect();
        let mut state = seed ^ (dims as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut unit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut ps = PointSet::with_capacity(dims, n);
        let mut p = vec![0f32; dims];
        for i in 0..n {
            for (d, v) in p.iter_mut().enumerate() {
                *v = min[d] + (unit() * 1.25 - 0.125) * (max[d] - min[d] + 1.0);
            }
            match i % 41 {
                5 => p[i % dims] = f32::NAN,
                17 => p[i % dims] = f32::INFINITY,
                29 => p[i % dims] = f32::NEG_INFINITY,
                _ => {}
            }
            ps.push(&p);
        }
        (ps, Rect { min, max })
    }

    fn fnv1a(keys: &[HilbertKey]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in keys.iter().flat_map(|k| k.0).flat_map(u64::to_be_bytes) {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// FNV-1a of the keys of `hostile_set(dims, 257, 0x2016)`, as computed by
    /// the per-point `hilbert_key` of the commit before the kernel existed
    /// (d60626f). A change to any key bit at any of these widths fails here.
    const GOLDEN: [(usize, u64); 11] = [
        (1, 0x80f9_be49_d61c_a031),
        (2, 0x2fd7_3df6_3345_afa1),
        (3, 0xcc60_72c1_95fe_d183),
        (4, 0xd0d8_40dd_3f0d_933e),
        (8, 0x77fc_3f84_87c3_8c31),
        (13, 0xe13a_cb4f_9df6_c41b),
        (16, 0xe549_8189_57d1_0457),
        (40, 0x1fb2_f7db_d912_b7dc),
        (64, 0xfb00_24a7_c093_c72f),
        (255, 0x98d5_1ca3_5834_3a14),
        (256, 0x3120_6f2d_c238_3618),
    ];

    #[test]
    fn keys_match_the_golden_table_of_the_parent_commit() {
        for (dims, want) in GOLDEN {
            let (ps, bounds) = hostile_set(dims, 257, 0x2016);
            let one_by_one: Vec<HilbertKey> = ps.iter().map(|p| hilbert_key(p, &bounds)).collect();
            assert_eq!(
                fnv1a(&one_by_one),
                want,
                "hilbert_key at {dims} dims: {:#018x}",
                fnv1a(&one_by_one)
            );
            assert_eq!(hilbert_keys(&ps, &bounds), one_by_one, "hilbert_keys at {dims} dims");
        }
    }

    #[test]
    fn batch_keys_equal_per_point_keys_around_the_lane_width() {
        // The last size is keyed in a parallel region, the others inline.
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 61, KEY_BLOCK + 3, PAR_MIN_POINTS + 3] {
            for dims in [2usize, 5, 16] {
                let (ps, bounds) = hostile_set(dims, n, n as u64);
                let want: Vec<HilbertKey> = ps.iter().map(|p| hilbert_key(p, &bounds)).collect();
                assert_eq!(hilbert_keys(&ps, &bounds), want, "{n} points, {dims} dims");
            }
        }
    }

    #[test]
    fn beyond_256_dims_the_curve_runs_over_the_leading_256() {
        for dims in [257usize, 300, 1000] {
            let (ps, bounds) = hostile_set(dims, 40, 9);
            let lead = Rect { min: bounds.min[..256].to_vec(), max: bounds.max[..256].to_vec() };
            let keys = hilbert_keys(&ps, &bounds);
            for (i, p) in ps.iter().enumerate() {
                assert_eq!(keys[i], hilbert_key(p, &bounds), "{dims} dims, point {i}");
                assert_eq!(keys[i], reference_key(&p[..256], &lead), "{dims} dims, point {i}");
            }
            let order = hilbert_sort(&ps);
            let by_lead = hilbert_sort(&PointSet::from_flat(
                256,
                ps.iter().flat_map(|p| p[..256].iter().copied()).collect(),
            ));
            // Bounds differ (the set's own box, not the fixed one), the rule
            // does not: the order is the order of the leading 256 dimensions.
            assert_eq!(order, by_lead, "{dims} dims");
        }
    }

    #[test]
    fn hilbert_sort_orders_by_key_then_index() {
        let (mut ps, _) = hostile_set(3, 200, 4);
        let finite: Vec<f32> =
            ps.as_flat().iter().map(|v| if v.is_finite() { *v } else { 0.0 }).collect();
        ps = PointSet::from_flat(3, finite);
        for i in 0..20 {
            let dup = ps.point(i * 7).to_vec();
            ps.push(&dup);
        }
        let bounds = Rect::of_point_set(&ps);
        let mut want: Vec<(HilbertKey, u32)> =
            ps.iter().enumerate().map(|(i, p)| (reference_key(p, &bounds), i as u32)).collect();
        want.sort_unstable();
        let want: Vec<u32> = want.into_iter().map(|(_, i)| i).collect();
        assert_eq!(hilbert_sort(&ps), want);
    }

    proptest! {
        #[test]
        fn the_kernel_equals_the_textbook_pair(
            dims in 1usize..70,
            n in 1usize..40,
            seed in 0u64..u64::MAX,
        ) {
            let (ps, bounds) = hostile_set(dims, n, seed);
            let batch = hilbert_keys(&ps, &bounds);
            for (i, p) in ps.iter().enumerate() {
                let want = reference_key(p, &bounds);
                prop_assert_eq!(hilbert_key(p, &bounds), want);
                prop_assert_eq!(batch[i], want);
            }
        }
    }

    fn key_gap(a: HilbertKey, b: HilbertKey) -> u128 {
        // Compare via the top 128 bits — enough resolution for the test.
        let hi = |k: HilbertKey| ((k.0[0] as u128) << 64) | k.0[1] as u128;
        hi(a).abs_diff(hi(b))
    }
}
