//! The shard visiting rule of the one router: MINDIST order, an initial
//! bound from the MAXDIST of the nearest shards that together hold `k`
//! points, and the kernels' strict-`>` prune one level up.

use psb_geom::Sphere;

/// One shard as the plan sees it.
#[derive(Clone, Copy)]
pub(crate) struct Visit {
    pub(crate) shard: usize,
    pub(crate) mindist: f32,
    /// Points the directory says the shard holds.
    pub(crate) len: usize,
    maxdist: f32,
    skipped: bool,
}

/// Visit order and initial bound for one query over a shard directory.
pub(crate) struct VisitPlan {
    /// Every shard, ascending by MINDIST, lower index first on ties.
    pub(crate) order: Vec<Visit>,
    /// An upper bound on the true k-th distance, `+inf` while the shards that
    /// may be visited hold fewer than `k` points.
    pub(crate) initial_bound: f32,
}

impl VisitPlan {
    /// Plans query `q` for `k` neighbours over `directory`, one entry per
    /// shard in shard order, each `read` as `(bounding sphere, point count,
    /// skipped)`. An entry is dropped as soon as it has been read, so it may
    /// be a lock guard.
    ///
    /// The bound: walk the MINDIST order until the shards passed hold at
    /// least `k` points; the largest MAXDIST of that prefix bounds the true
    /// k-th distance (those shards alone hold `k` points no farther than it).
    /// A `skipped` shard will not be consulted, so it contributes neither its
    /// points nor its MAXDIST.
    pub(crate) fn new<E>(
        q: &[f32],
        k: usize,
        directory: impl Iterator<Item = E>,
        read: impl Fn(&E) -> (&Sphere, usize, bool),
    ) -> Self {
        let mut order: Vec<Visit> = directory
            .enumerate()
            .map(|(shard, entry)| {
                let (sphere, len, skipped) = read(&entry);
                let (mindist, maxdist) = sphere.min_max_dist(q);
                Visit { shard, mindist, len, maxdist, skipped }
            })
            .collect();
        order.sort_unstable_by(|a, b| a.mindist.total_cmp(&b.mindist).then(a.shard.cmp(&b.shard)));
        let mut initial_bound = f32::INFINITY;
        let mut covered = 0usize;
        let mut running_max = 0.0f32;
        for visit in order.iter().filter(|visit| !visit.skipped) {
            covered += visit.len;
            running_max = running_max.max(visit.maxdist);
            if covered >= k {
                initial_bound = running_max;
                break;
            }
        }
        Self { order, initial_bound }
    }

    /// Whether a shard at `mindist` cannot improve a result list whose k-th
    /// distance is `list_bound` (`+inf` while the list is short). Strict `>`:
    /// a shard exactly on the bound is visited, so ties resolve as they do
    /// inside a tree.
    pub(crate) fn prunes(&self, mindist: f32, list_bound: f32) -> bool {
        mindist > list_bound.min(self.initial_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop, prop_assert, prop_assert_eq, proptest};
    use psb_geom::dist;

    type Dir = Vec<(Sphere, usize, bool)>;

    fn plan(q: &[f32], k: usize, dir: &Dir) -> VisitPlan {
        VisitPlan::new(q, k, dir.iter(), |(sphere, len, skipped)| (sphere, *len, *skipped))
    }

    /// A 1-d shard spanning `[lo, hi]`.
    fn span(lo: f32, hi: f32, len: usize, skipped: bool) -> (Sphere, usize, bool) {
        (Sphere::new(vec![(lo + hi) / 2.0], (hi - lo) / 2.0), len, skipped)
    }

    proptest! {
        #[test]
        fn initial_bound_is_never_below_the_true_kth_distance(
            coords in prop::collection::vec(0.0f32..100.0, 2..120),
            homes in prop::collection::vec(0usize..5, 60..61),
            skip_mask in 0usize..32,
            q in prop::collection::vec(0.0f32..100.0, 2..3),
            k in 1usize..12,
        ) {
            // Five shards, some possibly empty; a shard's sphere is centred on
            // its first point and reaches its farthest.
            let mut members: Vec<Vec<[f32; 2]>> = vec![Vec::new(); 5];
            for (p, &s) in coords.chunks_exact(2).zip(&homes) {
                members[s].push([p[0], p[1]]);
            }
            let dir: Dir = members
                .iter()
                .enumerate()
                .map(|(s, ps)| {
                    let center = ps.first().map_or(vec![0.0, 0.0], |p| p.to_vec());
                    let radius = ps.iter().map(|p| dist(p, &center)).fold(0.0, f32::max);
                    (Sphere::new(center, radius), ps.len(), skip_mask >> s & 1 == 1)
                })
                .collect();
            let plan = plan(&q, k, &dir);

            // Every shard once, nearest first, lower index first on ties.
            let mut seen: Vec<usize> = plan.order.iter().map(|v| v.shard).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, vec![0, 1, 2, 3, 4]);
            for pair in plan.order.windows(2) {
                prop_assert!((pair[0].mindist, pair[0].shard) < (pair[1].mindist, pair[1].shard));
            }

            // The points a visit can reach are those of the shards not skipped.
            let mut reachable: Vec<f32> = members
                .iter()
                .zip(&dir)
                .filter(|(_, entry)| !entry.2)
                .flat_map(|(ps, _)| ps.iter().map(|p| dist(&q, p)))
                .collect();
            reachable.sort_by(f32::total_cmp);
            match reachable.get(k - 1) {
                None => prop_assert_eq!(plan.initial_bound, f32::INFINITY),
                // One rounding of slack: MAXDIST is a sum of two rounded norms.
                Some(&kth) => prop_assert!(plan.initial_bound * (1.0 + 1e-6) >= kth,
                    "bound {} below the k-th distance {kth}", plan.initial_bound),
            }
        }
    }

    #[test]
    fn a_skipped_shard_gives_the_bound_neither_points_nor_maxdist() {
        let q = [0.0];
        let near = span(1.0, 2.0, 10, false);
        let far = span(5.0, 9.0, 10, false);
        // Alone, the near shard covers k = 10 with MAXDIST 2.
        assert_eq!(plan(&q, 10, &vec![near.clone(), far.clone()]).initial_bound, 2.0);
        // Skipped, its ten points do not count and the bound is the far
        // shard's MAXDIST — not the max of the two, and not 2.
        let skipped = plan(&q, 10, &vec![span(1.0, 2.0, 10, true), far.clone()]);
        assert_eq!(skipped.initial_bound, 9.0);
        // It is still in the order: the router decides what to do with it.
        assert_eq!(skipped.order.iter().map(|v| v.shard).collect::<Vec<_>>(), [0, 1]);
        // A skipped shard in the middle of the prefix adds no MAXDIST to it.
        let middle = vec![near, span(3.0, 50.0, 10, true), far];
        assert_eq!(plan(&q, 15, &middle).initial_bound, 9.0);
    }

    #[test]
    fn fewer_than_k_covered_points_leave_the_bound_infinite() {
        let q = [0.0];
        let dir = vec![span(1.0, 2.0, 3, false), span(4.0, 5.0, 4, false), span(6.0, 7.0, 9, true)];
        assert_eq!(plan(&q, 7, &dir).initial_bound, 5.0, "3 + 4 points cover k = 7");
        let short = plan(&q, 8, &dir);
        assert_eq!(short.initial_bound, f32::INFINITY, "the skipped shard's nine do not count");
        assert!(short.order.iter().all(|v| !short.prunes(v.mindist, f32::INFINITY)));
    }

    #[test]
    fn a_shard_exactly_on_the_bound_is_visited() {
        let q = [0.0];
        // The second shard's MINDIST is the first shard's MAXDIST: 2.
        let dir =
            vec![span(1.0, 2.0, 4, false), span(2.0, 3.0, 4, false), span(2.5, 3.0, 4, false)];
        let plan = plan(&q, 4, &dir);
        assert_eq!(plan.initial_bound, 2.0);
        let pruned: Vec<bool> =
            plan.order.iter().map(|v| plan.prunes(v.mindist, f32::INFINITY)).collect();
        assert_eq!(pruned, [false, false, true], "strict >: on the bound is not beyond it");
        // The same rule against the result list's k-th distance.
        assert!(!plan.prunes(1.5, 1.5));
        assert!(plan.prunes(1.5, 1.25));
        assert!(plan.prunes(2.5, f32::INFINITY), "the initial bound holds while the list is short");
    }
}
