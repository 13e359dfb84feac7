//! Deterministic parallel Lloyd's k-means (paper §IV-B).
//!
//! The alternative bottom-up SS-tree construction clusters the points with k-means
//! and packs each cluster into leaves. The paper's rule of thumb for the default
//! cluster count is `k = sqrt(n/2)` (Mardia et al.).
//!
//! Determinism under parallelism: one parallel pass per Lloyd iteration assigns
//! each point (pure) and accumulates per-chunk partial sums in `f64` over a
//! *fixed* chunk grid; the update merges them in chunk order, so results are
//! bit-identical regardless of how many rayon workers run. Empty clusters are
//! reseeded to the point currently farthest from its assigned centroid
//! (smallest-index tie-break).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::dist::{sq_dist, DistKernel};
use crate::point::PointSet;

/// Parameters for [`kmeans`].
#[derive(Clone, Debug)]
pub struct KMeansParams {
    /// Number of clusters.
    pub k: usize,
    /// Iteration cap (Lloyd's usually stabilizes in well under 20 on clustered data).
    pub max_iters: usize,
    /// Seed for the initial centroid sample.
    pub seed: u64,
}

/// The paper's rule-of-thumb cluster count: `sqrt(n / 2)`, at least 1.
pub fn suggested_k(n: usize) -> usize {
    (((n as f64) / 2.0).sqrt().round() as usize).max(1)
}

/// Result of a k-means run.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// `k` centroids.
    pub centroids: PointSet,
    /// For each position in the input index slice, the assigned cluster.
    pub assignment: Vec<u32>,
    /// Points per cluster.
    pub counts: Vec<u32>,
    /// Lloyd iterations actually executed.
    pub iterations: usize,
}

/// Clusters the points selected by `idx` into `params.k` groups.
pub fn kmeans(ps: &PointSet, idx: &[u32], params: &KMeansParams) -> KMeansResult {
    let n = idx.len();
    assert!(n > 0, "kmeans over an empty index set");
    let d = ps.dims();
    let k = params.k.clamp(1, n);

    // Seed centroids with a random distinct sample of the input points.
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut sample: Vec<u32> = idx.to_vec();
    sample.shuffle(&mut rng);
    sample.truncate(k);
    let mut centroids = PointSet::with_capacity(d, k);
    for &s in &sample {
        centroids.push(ps.point(s as usize));
    }

    let mut assignment = vec![0u32; n];
    let mut counts = vec![0u32; k];
    let mut iterations = 0;

    // Fixed chunk grid: at most 32 partials, merged in order => deterministic sums.
    let chunk = n.div_ceil(32).max(1024);
    let dk = DistKernel::for_dims(d);

    for iter in 0..params.max_iters.max(1) {
        iterations = iter + 1;

        // Assignment step, and the update step's per-chunk f64 partial sums of
        // the new assignment, in one parallel pass. Each point's distances to
        // every centroid come from one blocked rows call; the argmin stays on
        // squared distances, where a square root could merge two values and
        // move the first-index tie.
        let cents = centroids.as_flat();
        let partials: Vec<(usize, Vec<f64>, Vec<u32>)> = idx
            .par_chunks(chunk)
            .zip(assignment.par_chunks_mut(chunk))
            .map(|(ids, asg)| {
                let mut changed = 0usize;
                let mut sums = vec![0f64; k * d];
                let mut cnts = vec![0u32; k];
                let mut dists = Vec::with_capacity(k);
                for (&pid, slot) in ids.iter().zip(asg.iter_mut()) {
                    let p = ps.point(pid as usize);
                    dists.clear();
                    dk.sq_rows(p, cents, &mut dists);
                    let mut best = 0u32;
                    let mut best_d = f32::INFINITY;
                    for (c, &dd) in dists.iter().enumerate() {
                        if dd < best_d {
                            best_d = dd;
                            best = c as u32;
                        }
                    }
                    if *slot != best {
                        changed += 1;
                    }
                    *slot = best;
                    let base = best as usize * d;
                    for (s, &x) in sums[base..base + d].iter_mut().zip(p) {
                        *s += x as f64;
                    }
                    cnts[best as usize] += 1;
                }
                (changed, sums, cnts)
            })
            .collect();

        let changed: usize = partials.iter().map(|p| p.0).sum();
        if changed == 0 && iter > 0 {
            break;
        }

        // Update step: the per-chunk partials merged in chunk order.
        let mut sums = vec![0f64; k * d];
        counts.iter_mut().for_each(|c| *c = 0);
        for (_, ps_sums, ps_cnts) in &partials {
            for (a, b) in sums.iter_mut().zip(ps_sums) {
                *a += b;
            }
            for (a, b) in counts.iter_mut().zip(ps_cnts) {
                *a += b;
            }
        }

        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                let dst = centroids.point_mut(c);
                for (slot, &s) in dst.iter_mut().zip(&sums[c * d..(c + 1) * d]) {
                    *slot = (s * inv) as f32;
                }
            }
        }

        // Reseed empty clusters to the worst-served point (deterministic argmax).
        let empties: Vec<usize> = (0..k).filter(|&c| counts[c] == 0).collect();
        for c in empties {
            let (pos, _) = idx
                .par_iter()
                .enumerate()
                .map(|(pos, &pid)| {
                    let p = ps.point(pid as usize);
                    let cent = centroids.point(assignment[pos] as usize);
                    (pos, sq_dist(p, cent))
                })
                .reduce(
                    || (usize::MAX, f32::NEG_INFINITY),
                    |a, b| {
                        if b.1 > a.1 || (b.1 == a.1 && b.0 < a.0) {
                            b
                        } else {
                            a
                        }
                    },
                );
            let src = ps.point(idx[pos] as usize).to_vec();
            centroids.point_mut(c).copy_from_slice(&src);
            counts[c] = 1; // provisional; fixed up by the next assignment pass
        }
    }

    // Final counts from the final assignment.
    counts.iter_mut().for_each(|c| *c = 0);
    for &a in &assignment {
        counts[a as usize] += 1;
    }

    KMeansResult { centroids, assignment, counts, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (PointSet, Vec<u32>) {
        let mut ps = PointSet::new(2);
        for i in 0..20 {
            let j = i as f32 * 0.01;
            ps.push(&[j, j]); // blob near origin
            ps.push(&[100.0 + j, 100.0 + j]); // blob far away
        }
        let idx = (0..ps.len() as u32).collect();
        (ps, idx)
    }

    #[test]
    fn separates_two_blobs() {
        let (ps, idx) = two_blobs();
        let r = kmeans(&ps, &idx, &KMeansParams { k: 2, max_iters: 10, seed: 7 });
        assert_eq!(r.counts.iter().sum::<u32>(), 40);
        assert_eq!(r.counts, vec![20, 20]);
        // All even positions (blob A) share a cluster; odd positions the other.
        let a = r.assignment[0];
        assert!(r.assignment.iter().step_by(2).all(|&x| x == a));
        assert!(r.assignment.iter().skip(1).step_by(2).all(|&x| x != a));
    }

    #[test]
    fn deterministic_across_runs() {
        let (ps, idx) = two_blobs();
        let p = KMeansParams { k: 4, max_iters: 8, seed: 42 };
        let r1 = kmeans(&ps, &idx, &p);
        let r2 = kmeans(&ps, &idx, &p);
        assert_eq!(r1.assignment, r2.assignment);
        assert_eq!(r1.centroids, r2.centroids);
    }

    #[test]
    fn k_clamped_to_n() {
        let mut ps = PointSet::new(1);
        ps.push(&[0.0]);
        ps.push(&[1.0]);
        let r = kmeans(&ps, &[0, 1], &KMeansParams { k: 10, max_iters: 4, seed: 1 });
        assert_eq!(r.centroids.len(), 2);
    }

    #[test]
    fn suggested_k_matches_paper_rule() {
        assert_eq!(suggested_k(2), 1);
        assert_eq!(suggested_k(200), 10);
        assert_eq!(suggested_k(1_000_000), 707);
    }

    #[test]
    fn centroid_is_cluster_mean() {
        let mut ps = PointSet::new(1);
        for v in [0.0f32, 2.0, 100.0, 102.0] {
            ps.push(&[v]);
        }
        let r = kmeans(&ps, &[0, 1, 2, 3], &KMeansParams { k: 2, max_iters: 10, seed: 3 });
        let mut cents: Vec<f32> = r.centroids.iter().map(|p| p[0]).collect();
        cents.sort_by(f32::total_cmp);
        assert_eq!(cents, vec![1.0, 101.0]);
    }

    #[test]
    fn subset_clustering_ignores_other_points() {
        let mut ps = PointSet::new(1);
        for v in [0.0f32, 1.0, 500.0, 501.0, 9999.0] {
            ps.push(&[v]);
        }
        // Exclude the 9999.0 outlier.
        let r = kmeans(&ps, &[0, 1, 2, 3], &KMeansParams { k: 2, max_iters: 10, seed: 5 });
        for c in r.centroids.iter() {
            assert!(c[0] < 1000.0);
        }
    }
}
