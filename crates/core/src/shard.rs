//! Disjoint sharding of a dataset for the multi-device serving layer.
//!
//! The serving crate (`psb-serve`) splits a `PointSet` into S disjoint shards,
//! builds one index plus one simulated device per shard, and prunes whole
//! shards with the same MINDIST machinery the kernels apply inside a tree: a
//! shard's bounding sphere (Ritter, like every SS-tree node) is just another
//! child sphere, one level above the root.
//!
//! Both split policies reuse the bottom-up builder's primitives: the
//! Hilbert-range split is the Hilbert leaf-packing order cut into S contiguous
//! ranges, and the k-means split is the paper's §IV-B clustering with `k = S`.

use psb_geom::{hilbert_sort, kmeans, ritter_points, KMeansParams, PointSet, RitterMode, Sphere};

/// How [`partition`] splits the dataset into shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Sort positions by Hilbert key and cut the sequence into S contiguous,
    /// near-equal ranges. Spatially coherent and perfectly balanced.
    HilbertRange,
    /// Lloyd's k-means with `k = S` (reusing [`psb_geom::kmeans()`]). Tighter
    /// shard spheres on clustered data, at the cost of balance.
    KMeans {
        /// Seed for the centroid sample.
        seed: u64,
    },
}

/// A disjoint, covering assignment of dataset positions to shards.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Per shard: the global dataset positions it owns. Every position in
    /// `0..points.len()` appears in exactly one shard; no shard is empty.
    pub assignments: Vec<Vec<u32>>,
}

impl ShardPlan {
    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.assignments.len()
    }

    /// Gathered per-shard point sets: shard `s`'s local position `i` holds the
    /// exact coordinates of global position `assignments[s][i]` (a bitwise
    /// copy, so per-shard distance computations match the unsharded ones).
    pub fn shard_points(&self, points: &PointSet) -> Vec<PointSet> {
        self.assignments.iter().map(|idx| points.gather(idx)).collect()
    }
}

/// Splits `points` into `shards` disjoint, non-empty shards.
///
/// Deterministic for a given `(points, shards, policy)`. Requires
/// `1 <= shards <= points.len()`.
pub fn partition(points: &PointSet, shards: usize, policy: &ShardPolicy) -> ShardPlan {
    assert!(shards >= 1, "at least one shard");
    assert!(shards <= points.len(), "more shards ({shards}) than points ({})", points.len());
    let assignments = match policy {
        ShardPolicy::HilbertRange => hilbert_ranges(points, shards),
        ShardPolicy::KMeans { seed } => kmeans_split(points, shards, *seed),
    };
    debug_assert_eq!(assignments.iter().map(Vec::len).sum::<usize>(), points.len());
    debug_assert!(assignments.iter().all(|a| !a.is_empty()));
    ShardPlan { assignments }
}

/// The shard's bounding sphere: the Ritter sphere of its points — the same
/// construction (and the same bit-identical parallel mode) as SS-tree nodes.
pub fn shard_sphere(points: &PointSet, assignment: &[u32], mode: RitterMode) -> Sphere {
    ritter_points(points, assignment, mode)
}

/// Hilbert sort, then S contiguous near-equal cuts (first `n % S` shards get
/// the extra point).
fn hilbert_ranges(points: &PointSet, shards: usize) -> Vec<Vec<u32>> {
    let order = hilbert_sort(points);
    let n = points.len();
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut cursor = 0usize;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        out.push(order[cursor..cursor + len].to_vec());
        cursor += len;
    }
    out
}

/// k-means with `k = S`; clusters keep ascending global position order. The
/// clustering reseeds empty clusters, but as a belt-and-braces guarantee any
/// shard that still ends up empty steals one point from the largest shard.
fn kmeans_split(points: &PointSet, shards: usize, seed: u64) -> Vec<Vec<u32>> {
    let idx: Vec<u32> = (0..points.len() as u32).collect();
    let params = KMeansParams { k: shards, max_iters: 16, seed };
    let result = kmeans(points, &idx, &params);
    let mut out = vec![Vec::new(); shards];
    for (pos, &cluster) in result.assignment.iter().enumerate() {
        out[cluster as usize].push(pos as u32);
    }
    // Rebalance any empties deterministically: take the last position owned by
    // the currently largest shard (smallest shard index on ties).
    for s in 0..shards {
        while out[s].is_empty() {
            let donor = (0..shards)
                .filter(|&d| out[d].len() > 1)
                .max_by_key(|&d| (out[d].len(), usize::MAX - d))
                .unwrap_or(s);
            if donor == s {
                break;
            }
            if let Some(moved) = out[donor].pop() {
                out[s].push(moved);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{ClusteredSpec, UniformSpec};

    fn check_plan(plan: &ShardPlan, n: usize, shards: usize) {
        assert_eq!(plan.shards(), shards);
        let mut seen = vec![false; n];
        for a in &plan.assignments {
            assert!(!a.is_empty(), "empty shard");
            for &i in a {
                assert!(!seen[i as usize], "position {i} assigned twice");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "not a covering assignment");
    }

    #[test]
    fn hilbert_ranges_are_disjoint_covering_and_balanced() {
        let ps = UniformSpec { len: 1003, dims: 5, seed: 9 }.generate();
        for shards in [1, 2, 4, 8] {
            let plan = partition(&ps, shards, &ShardPolicy::HilbertRange);
            check_plan(&plan, ps.len(), shards);
            let lens: Vec<usize> = plan.assignments.iter().map(Vec::len).collect();
            let (lo, hi) = (lens.iter().min().copied(), lens.iter().max().copied());
            assert!(hi.unwrap() - lo.unwrap() <= 1, "unbalanced hilbert cut: {lens:?}");
        }
    }

    #[test]
    fn kmeans_split_is_disjoint_and_covering() {
        let ps =
            ClusteredSpec { clusters: 4, points_per_cluster: 200, dims: 4, sigma: 50.0, seed: 3 }
                .generate();
        for shards in [2, 4, 8] {
            let plan = partition(&ps, shards, &ShardPolicy::KMeans { seed: 17 });
            check_plan(&plan, ps.len(), shards);
        }
    }

    #[test]
    fn shard_spheres_contain_their_points() {
        let ps = UniformSpec { len: 400, dims: 3, seed: 10 }.generate();
        let plan = partition(&ps, 4, &ShardPolicy::HilbertRange);
        for a in &plan.assignments {
            let sphere = shard_sphere(&ps, a, RitterMode::Parallel);
            for &i in a {
                assert!(
                    sphere.contains_point(ps.point(i as usize), 1e-4),
                    "shard sphere misses its own point"
                );
            }
        }
    }

    #[test]
    fn gathered_shard_points_are_bitwise_copies() {
        let ps = UniformSpec { len: 128, dims: 6, seed: 11 }.generate();
        let plan = partition(&ps, 4, &ShardPolicy::KMeans { seed: 5 });
        for (s, local) in plan.shard_points(&ps).into_iter().enumerate() {
            for (li, &gi) in plan.assignments[s].iter().enumerate() {
                let a = local.point(li);
                let b = ps.point(gi as usize);
                assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let ps = UniformSpec { len: 500, dims: 4, seed: 12 }.generate();
        for policy in [ShardPolicy::HilbertRange, ShardPolicy::KMeans { seed: 1 }] {
            let a = partition(&ps, 4, &policy);
            let b = partition(&ps, 4, &policy);
            assert_eq!(a.assignments, b.assignments);
        }
    }
}
