//! The flattened R-tree arena (layout mirrors `psb_sstree::SsTree`, with
//! min/max corner arrays replacing center/radius).

use psb_geom::{dist, PointSet};

use crate::arena::RectArena;

/// Sentinel for "no parent" (the root).
pub const NO_PARENT: u32 = u32::MAX;
/// Sentinel leaf id for internal nodes.
pub const NOT_A_LEAF: u32 = u32::MAX;
/// Sentinel rope link: "no next subtree" (the root and the rightmost spine).
pub const NO_ROPE: u32 = u32::MAX;

/// A flattened packed R-tree. Construct via [`crate::build_rtree`].
#[derive(Clone, Debug)]
pub struct RsTree {
    /// Dimensionality.
    pub dims: usize,
    /// Maximum children per node and points per leaf.
    pub degree: usize,
    /// Points, reordered so each leaf's points are contiguous.
    pub points: PointSet,
    /// Original dataset index per reordered position.
    pub point_ids: Vec<u32>,
    /// MBR low corners, node-major.
    pub mins: Vec<f32>,
    /// MBR high corners, node-major.
    pub maxs: Vec<f32>,
    /// Parent node id ([`NO_PARENT`] for the root).
    pub parent: Vec<u32>,
    /// 0 = leaf, increasing toward the root.
    pub level: Vec<u8>,
    /// Internal: first child node id. Leaf: first point position.
    pub first_child: Vec<u32>,
    /// Internal: child count. Leaf: point count.
    pub child_count: Vec<u32>,
    /// Dense left-to-right leaf number; [`NOT_A_LEAF`] for internal nodes.
    pub leaf_id: Vec<u32>,
    /// Smallest / largest leaf id under each subtree.
    pub subtree_min_leaf: Vec<u32>,
    pub subtree_max_leaf: Vec<u32>,
    /// Leaf id → node id.
    pub leaf_node_of: Vec<u32>,
    /// Root node id.
    pub root: u32,
    /// Rope (escape) link per node: right sibling when one exists, else the
    /// nearest ancestor's right sibling, else [`NO_ROPE`] — the next node in
    /// preorder after skipping this node's subtree (mirror of
    /// `psb_sstree::SsTree::rope`). Derived by [`RsTree::rebuild_arena`];
    /// empty until then.
    pub rope: Vec<u32>,
    /// Packed per-node device arena (see [`crate::arena`]): a derived cache,
    /// rebuilt after construction. `None` puts sweeps on the bounds-checked
    /// gather fallback (see [`RsTree::strip_arena`]).
    pub arena: Option<RectArena>,
}

impl RsTree {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Rebuild the packed device arena from the current node arrays. Also
    /// rederives the rope links, so every queryable tree carries them.
    pub fn rebuild_arena(&mut self) {
        self.arena = None;
        self.rebuild_ropes();
        self.arena = Some(RectArena::build(self));
    }

    /// Recompute the [`RsTree::rope`] escape links (same rule as the
    /// SS-tree's): `c + 1` for non-last children, the parent's rope for last
    /// children, [`NO_ROPE`] at the root. Top-down so each parent's rope is
    /// in place before its children consult it.
    pub fn rebuild_ropes(&mut self) {
        let nn = self.num_nodes();
        self.rope.clear();
        self.rope.resize(nn, NO_ROPE);
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            if self.is_leaf(n) {
                continue;
            }
            let kids = self.children(n);
            for c in kids.clone() {
                self.rope[c as usize] =
                    if c + 1 < kids.end { c + 1 } else { self.rope[n as usize] };
                stack.push(c);
            }
        }
    }

    /// Drop the packed arena, forcing sweeps onto the bounds-checked gather
    /// fallback — the hook `tests/layout_parity.rs` uses to hold that fallback
    /// bit-identical to the arena path. Rope links stay: they are structure,
    /// not a geometry cache.
    pub fn strip_arena(&mut self) {
        self.arena = None;
    }

    /// Total index size in bytes (sum over nodes; mirror of
    /// `psb_sstree::SsTree::total_bytes`).
    pub fn total_bytes(&self) -> u64 {
        (0..self.num_nodes() as u32)
            .map(|n| {
                if self.is_leaf(n) {
                    self.leaf_node_bytes(n)
                } else {
                    self.internal_node_bytes(n)
                }
            })
            .sum()
    }

    /// Whether node `n` is a leaf.
    #[inline]
    pub fn is_leaf(&self, n: u32) -> bool {
        self.level[n as usize] == 0
    }

    /// The MBR corners of node `n`.
    #[inline]
    pub fn mbr(&self, n: u32) -> (&[f32], &[f32]) {
        let d = self.dims;
        let i = n as usize;
        (&self.mins[i * d..(i + 1) * d], &self.maxs[i * d..(i + 1) * d])
    }

    /// Children of internal node `n`.
    #[inline]
    pub fn children(&self, n: u32) -> std::ops::Range<u32> {
        debug_assert!(!self.is_leaf(n));
        let fc = self.first_child[n as usize];
        fc..fc + self.child_count[n as usize]
    }

    /// Point positions of leaf `n`.
    #[inline]
    pub fn leaf_points(&self, n: u32) -> std::ops::Range<usize> {
        debug_assert!(self.is_leaf(n));
        let fp = self.first_child[n as usize] as usize;
        fp..fp + self.child_count[n as usize] as usize
    }

    /// Bytes fetched for internal node `n`: two corners per child plus ids.
    pub fn internal_node_bytes(&self, n: u32) -> u64 {
        let c = self.child_count[n as usize] as u64;
        let d = self.dims as u64;
        c * (2 * d * 4 + 12) + 32
    }

    /// Bytes fetched for leaf node `n`.
    pub fn leaf_node_bytes(&self, n: u32) -> u64 {
        let c = self.child_count[n as usize] as u64;
        let d = self.dims as u64;
        c * (d * 4 + 4) + 32
    }

    /// Exact kNN on the CPU (oracle): best-first over rect MINDISTs.
    pub fn knn_cpu(&self, q: &[f32], k: usize) -> Vec<(f32, u32)> {
        assert!(k >= 1);
        assert_eq!(q.len(), self.dims);
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        #[derive(PartialEq)]
        struct Item(f32, u32);
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
            }
        }
        let mut best: Vec<(f32, u32)> = Vec::with_capacity(k + 1);
        let bound = |best: &Vec<(f32, u32)>| {
            if best.len() >= k {
                best.last().map_or(f32::INFINITY, |b| b.0)
            } else {
                f32::INFINITY
            }
        };
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(Item(0.0, self.root)));
        while let Some(Reverse(Item(d, n))) = heap.pop() {
            if d >= bound(&best) {
                break;
            }
            if self.is_leaf(n) {
                for p in self.leaf_points(n) {
                    let pd = dist(q, self.points.point(p));
                    if best.len() >= k && pd >= bound(&best) {
                        continue;
                    }
                    let key = (pd, self.point_ids[p]);
                    let pos = best.partition_point(|&b| b < key);
                    best.insert(pos, key);
                    if best.len() > k {
                        best.pop();
                    }
                }
            } else {
                for c in self.children(n) {
                    let (lo, hi) = self.mbr(c);
                    let mut acc = 0f32;
                    for ((&l, &h), &x) in lo.iter().zip(hi).zip(q) {
                        let dd = if x < l {
                            l - x
                        } else if x > h {
                            x - h
                        } else {
                            0.0
                        };
                        acc += dd * dd;
                    }
                    let cd = acc.sqrt();
                    if cd < bound(&best) {
                        heap.push(Reverse(Item(cd, c)));
                    }
                }
            }
        }
        best
    }

    /// Structural validation (mirror of the SS-tree's).
    pub fn validate(&self) -> Result<(), String> {
        let nn = self.num_nodes();
        if self.root as usize >= nn {
            return Err("root out of range".into());
        }
        if self.parent[self.root as usize] != NO_PARENT {
            return Err("root has a parent".into());
        }
        let mut seen = vec![false; self.points.len()];
        let mut cursor = 0u32;
        let mut stack = vec![self.root];
        let mut visited = 0usize;
        while let Some(n) = stack.pop() {
            visited += 1;
            let ni = n as usize;
            if self.is_leaf(n) {
                if self.leaf_id[ni] != cursor {
                    return Err(format!("leaf ids out of order at node {n}"));
                }
                cursor += 1;
                if self.child_count[ni] == 0 || self.child_count[ni] as usize > self.degree {
                    return Err(format!("leaf {n} size invalid"));
                }
                let (lo, hi) = self.mbr(n);
                for p in self.leaf_points(n) {
                    if seen[p] {
                        return Err(format!("point {p} duplicated"));
                    }
                    seen[p] = true;
                    for (d, &x) in self.points.point(p).iter().enumerate() {
                        if x < lo[d] - 1e-4 || x > hi[d] + 1e-4 {
                            return Err(format!("leaf {n}: point {p} outside MBR"));
                        }
                    }
                }
            } else {
                let kids = self.children(n);
                if kids.is_empty() || kids.len() > self.degree {
                    return Err(format!("node {n} fan-out invalid"));
                }
                let (nlo, nhi) = self.mbr(n);
                let mut min_l = u32::MAX;
                let mut max_l = 0u32;
                for c in kids.clone() {
                    if self.parent[c as usize] != n {
                        return Err(format!("child {c} parent link broken"));
                    }
                    min_l = min_l.min(self.subtree_min_leaf[c as usize]);
                    max_l = max_l.max(self.subtree_max_leaf[c as usize]);
                    let (clo, chi) = self.mbr(c);
                    for d in 0..self.dims {
                        if clo[d] < nlo[d] - 1e-4 || chi[d] > nhi[d] + 1e-4 {
                            return Err(format!("child {c} MBR pokes out of {n}"));
                        }
                    }
                }
                if min_l != self.subtree_min_leaf[ni] || max_l != self.subtree_max_leaf[ni] {
                    return Err(format!("node {n} subtree leaf range wrong"));
                }
                for c in kids.rev() {
                    stack.push(c);
                }
            }
        }
        if visited != nn {
            return Err("unreachable nodes in arena".into());
        }
        if cursor as usize != self.leaf_node_of.len() {
            return Err("leaf count mismatch".into());
        }
        if let Some(p) = seen.iter().position(|&s| !s) {
            return Err(format!("point {p} not covered"));
        }
        // Rope links are derived (empty until `rebuild_arena`); when present
        // they must match the escape rule exactly.
        if !self.rope.is_empty() {
            if self.rope.len() != nn {
                return Err(format!("rope array length {} != {nn} nodes", self.rope.len()));
            }
            if self.rope[self.root as usize] != NO_ROPE {
                return Err("root carries a rope link".into());
            }
            let mut stack = vec![self.root];
            while let Some(n) = stack.pop() {
                if self.is_leaf(n) {
                    continue;
                }
                let kids = self.children(n);
                for c in kids.clone() {
                    let want = if c + 1 < kids.end { c + 1 } else { self.rope[n as usize] };
                    if self.rope[c as usize] != want {
                        return Err(format!("node {c}: rope link broken"));
                    }
                    stack.push(c);
                }
            }
        }
        Ok(())
    }
}
