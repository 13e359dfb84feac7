//! The flattened SS-tree arena.
//!
//! Layout decisions mirror the paper's GPU implementation (§V-A: "we store the
//! bounding spheres of child nodes as the structure of array (SOA) ... so that
//! memory coalescing can be naturally employed"):
//!
//! * node metadata and spheres live in parallel arrays indexed by node id;
//! * the children of every internal node are **contiguous**, so fetching a node's
//!   child spheres is one coalesced streak of global memory;
//! * leaves own **contiguous runs of the (reordered) point array** and are
//!   numbered densely left-to-right — `leaf id + 1` *is* the right sibling,
//!   giving PSB its linear leaf scan;
//! * every node records the min/max leaf id of its subtree, which PSB uses to
//!   skip already-visited subtrees without a stack.

use psb_geom::{PointSet, SphereRef};

use crate::arena::SphereArena;
use crate::error::StructuralError;

/// Sentinel for "no parent" (the root).
pub const NO_PARENT: u32 = u32::MAX;
/// Sentinel leaf id for internal nodes.
pub const NOT_A_LEAF: u32 = u32::MAX;
/// Sentinel rope link: "no next subtree" (the root and every node on the
/// rightmost root-to-leaf spine).
pub const NO_ROPE: u32 = u32::MAX;

/// A flattened SS-tree. Construct via [`crate::build`] or [`crate::topdown`].
#[derive(Clone, Debug)]
pub struct SsTree {
    /// Dimensionality of the indexed space.
    pub dims: usize,
    /// Maximum children per internal node and points per leaf.
    pub degree: usize,
    /// Points, reordered so each leaf's points are contiguous.
    pub points: PointSet,
    /// Original dataset index of each (reordered) point position.
    pub point_ids: Vec<u32>,
    /// Node bounding-sphere centers, node-major (`node * dims ..`).
    pub centers: Vec<f32>,
    /// Node bounding-sphere radii.
    pub radii: Vec<f32>,
    /// Parent node id ([`NO_PARENT`] for the root).
    pub parent: Vec<u32>,
    /// Node level: 0 = leaf, increasing toward the root.
    pub level: Vec<u8>,
    /// Internal: first child node id. Leaf: first point position.
    pub first_child: Vec<u32>,
    /// Internal: number of children. Leaf: number of points.
    pub child_count: Vec<u32>,
    /// Dense left-to-right leaf number; [`NOT_A_LEAF`] for internal nodes.
    pub leaf_id: Vec<u32>,
    /// Smallest leaf id under this subtree.
    pub subtree_min_leaf: Vec<u32>,
    /// Largest leaf id under this subtree.
    pub subtree_max_leaf: Vec<u32>,
    /// Leaf id → node id (the sibling chain: leaf `l`'s right sibling is
    /// `leaf_node_of[l + 1]`).
    pub leaf_node_of: Vec<u32>,
    /// Root node id.
    pub root: u32,
    /// Rope (escape) link per node: the next node in depth-first preorder
    /// *after skipping this node's entire subtree* — the right sibling when
    /// one exists, else the nearest ancestor's right sibling, else
    /// [`NO_ROPE`]. Stack-free traversals follow it instead of backtracking
    /// through parent links. Derived alongside the arena by
    /// [`SsTree::rebuild_arena`]; empty until then.
    pub rope: Vec<u32>,
    /// Packed per-node device arena (see [`crate::arena`]): a derived cache of
    /// the node geometry above, rebuilt after construction/load. `None` puts
    /// sweeps on the bounds-checked gather fallback (see [`SsTree::strip_arena`]).
    pub arena: Option<SphereArena>,
}

impl SsTree {
    /// Number of nodes in the arena.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.radii.len()
    }

    /// Number of leaves.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.leaf_node_of.len()
    }

    /// Tree height (root level + 1); a single-leaf tree has height 1.
    pub fn height(&self) -> usize {
        self.level[self.root as usize] as usize + 1
    }

    /// Whether node `n` is a leaf.
    #[inline]
    pub fn is_leaf(&self, n: u32) -> bool {
        self.level[n as usize] == 0
    }

    /// The bounding-sphere center of node `n`.
    #[inline]
    pub fn center(&self, n: u32) -> &[f32] {
        let d = self.dims;
        &self.centers[n as usize * d..(n as usize + 1) * d]
    }

    /// The bounding-sphere radius of node `n`.
    #[inline]
    pub fn radius(&self, n: u32) -> f32 {
        self.radii[n as usize]
    }

    /// The bounding sphere of node `n`, borrowed straight from node-major
    /// storage — no allocation (use [`SphereRef::to_sphere`] if you need an
    /// owned copy).
    #[inline]
    pub fn sphere(&self, n: u32) -> SphereRef<'_> {
        SphereRef::new(self.center(n), self.radius(n))
    }

    /// Rebuild the packed device arena from the current node arrays. Call
    /// after any structural mutation (construction and load do it for you).
    /// Also rederives the rope links: every path that yields a queryable tree
    /// funnels through here, so the links can never go stale separately from
    /// the arena.
    pub fn rebuild_arena(&mut self) {
        self.arena = None;
        self.rebuild_ropes();
        self.arena = Some(SphereArena::build(self));
    }

    /// Recompute the [`SsTree::rope`] escape links from the parent/child
    /// structure: `rope(c)` is `c + 1` for every non-last child (children are
    /// contiguous), the parent's rope for each last child, and [`NO_ROPE`] at
    /// the root. Top-down from the root so each parent's rope exists before
    /// its children consult it.
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

    /// Children of internal node `n` as a node-id range.
    #[inline]
    pub fn children(&self, n: u32) -> std::ops::Range<u32> {
        debug_assert!(!self.is_leaf(n));
        let fc = self.first_child[n as usize];
        fc..fc + self.child_count[n as usize]
    }

    /// Point positions (into `self.points`) of leaf node `n`.
    #[inline]
    pub fn leaf_points(&self, n: u32) -> std::ops::Range<usize> {
        debug_assert!(self.is_leaf(n));
        let fp = self.first_child[n as usize] as usize;
        fp..fp + self.child_count[n as usize] as usize
    }

    /// Bytes a GPU kernel reads when it fetches internal node `n`: the SoA
    /// child-sphere block (centers + radii) plus per-child ids (child pointer,
    /// subtree leaf range) and a fixed header.
    pub fn internal_node_bytes(&self, n: u32) -> u64 {
        let c = self.child_count[n as usize] as u64;
        let d = self.dims as u64;
        c * (d * 4 + 4 + 12) + 32
    }

    /// Bytes read when fetching leaf node `n`: coordinates plus point ids plus a
    /// fixed header.
    pub fn leaf_node_bytes(&self, n: u32) -> u64 {
        let c = self.child_count[n as usize] as u64;
        let d = self.dims as u64;
        c * (d * 4 + 4) + 32
    }

    /// Bytes for whichever kind node `n` is.
    pub fn node_bytes(&self, n: u32) -> u64 {
        if self.is_leaf(n) {
            self.leaf_node_bytes(n)
        } else {
            self.internal_node_bytes(n)
        }
    }

    /// Total index size in bytes (sum over nodes; the paper's index-memory figure).
    pub fn total_bytes(&self) -> u64 {
        (0..self.num_nodes() as u32).map(|n| self.node_bytes(n)).sum()
    }

    /// Average leaf utilization in `[0, 1]` (bottom-up construction yields 1.0
    /// except in the final partial leaf; top-down substantially less).
    pub fn leaf_utilization(&self) -> f64 {
        let filled: u64 =
            self.leaf_node_of.iter().map(|&n| self.child_count[n as usize] as u64).sum();
        filled as f64 / (self.num_leaves() as u64 * self.degree as u64) as f64
    }

    /// Exhaustive structural check; returns the first violated invariant as a
    /// typed [`StructuralError`].
    ///
    /// The verifier is deliberately *defensive*: it only indexes an array
    /// after proving the index is in range, does all range arithmetic in
    /// `u64`, and caps its traversal at the arena size — so it terminates with
    /// a typed error on arbitrarily corrupted field values (a bit-flipped
    /// persisted file, a fuzzer-mutated arena) rather than panicking or
    /// looping. Run after construction, after [`crate::persist::load`], and
    /// after every dynamic rebuild.
    // Containment checks are written as negated `<=` on purpose: a NaN
    // distance (corrupt point payload) must count as a violation. The point
    // loop indexes `seen_points` and the point arena by the same untrusted
    // index, which the range-loop lint cannot see.
    #[allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
    pub fn validate(&self) -> Result<(), StructuralError> {
        let nn = self.num_nodes();
        for (array, len) in [
            ("parent", self.parent.len()),
            ("level", self.level.len()),
            ("first_child", self.first_child.len()),
            ("child_count", self.child_count.len()),
            ("leaf_id", self.leaf_id.len()),
            ("subtree_min_leaf", self.subtree_min_leaf.len()),
            ("subtree_max_leaf", self.subtree_max_leaf.len()),
        ] {
            if len != nn {
                return Err(StructuralError::ArrayLength { array, len, nodes: nn });
            }
        }
        if self.centers.len() != nn * self.dims {
            return Err(StructuralError::ArrayLength {
                array: "centers",
                len: self.centers.len(),
                nodes: nn,
            });
        }
        if self.root as usize >= nn {
            return Err(StructuralError::RootOutOfRange { root: self.root, nodes: nn });
        }
        if self.parent[self.root as usize] != NO_PARENT {
            return Err(StructuralError::RootHasParent { root: self.root });
        }

        let mut seen_points = vec![false; self.points.len()];
        let mut leaf_cursor = 0u32;
        // Depth-first from the root, checking every structural invariant.
        let mut stack = vec![self.root];
        let mut visited_nodes = 0usize;
        while let Some(n) = stack.pop() {
            visited_nodes += 1;
            // Cycle guard: corrupted links can revisit nodes forever; no valid
            // traversal visits more nodes than the arena holds.
            if visited_nodes > nn {
                return Err(StructuralError::TraversalOverrun { nodes: nn });
            }
            let ni = n as usize;
            if !self.radii[ni].is_finite()
                || self.radii[ni] < 0.0
                || self.center(n).iter().any(|c| !c.is_finite())
            {
                return Err(StructuralError::NonFiniteGeometry { node: n });
            }
            if self.subtree_min_leaf[ni] > self.subtree_max_leaf[ni] {
                return Err(StructuralError::EmptySubtreeRange { node: n });
            }
            if self.is_leaf(n) {
                let lid = self.leaf_id[ni];
                if lid == NOT_A_LEAF || lid as usize >= self.num_leaves() {
                    return Err(StructuralError::LeafIdInvalid { node: n, leaf_id: lid });
                }
                if self.subtree_min_leaf[ni] != lid || self.subtree_max_leaf[ni] != lid {
                    return Err(StructuralError::LeafRangeNotSelf { node: n });
                }
                if self.leaf_node_of[lid as usize] != n {
                    return Err(StructuralError::LeafChainBroken { node: n, leaf_id: lid });
                }
                let count = self.child_count[ni];
                if count == 0 {
                    return Err(StructuralError::NoChildren { node: n });
                }
                if count as usize > self.degree {
                    return Err(StructuralError::DegreeOverflow {
                        node: n,
                        count,
                        degree: self.degree,
                    });
                }
                let start = self.first_child[ni] as u64;
                let end = start + count as u64;
                if end > self.points.len() as u64 {
                    return Err(StructuralError::PointRangeOutOfRange {
                        node: n,
                        target: end,
                        points: self.points.len(),
                    });
                }
                for p in start as usize..end as usize {
                    if seen_points[p] {
                        return Err(StructuralError::DuplicatePoint { point: p });
                    }
                    seen_points[p] = true;
                    let pd = psb_geom::dist(self.points.point(p), self.center(n));
                    if !(pd <= self.radius(n) * (1.0 + 1e-4) + 1e-4) {
                        return Err(StructuralError::PointOutsideSphere { node: n, point: p });
                    }
                }
                if lid != leaf_cursor {
                    return Err(StructuralError::LeafIdsNotSequential {
                        node: n,
                        got: lid,
                        expected: leaf_cursor,
                    });
                }
                leaf_cursor += 1;
            } else {
                let count = self.child_count[ni];
                if count == 0 {
                    return Err(StructuralError::NoChildren { node: n });
                }
                if count as usize > self.degree {
                    return Err(StructuralError::DegreeOverflow {
                        node: n,
                        count,
                        degree: self.degree,
                    });
                }
                let start = self.first_child[ni] as u64;
                let end = start + count as u64;
                if end > nn as u64 {
                    return Err(StructuralError::ChildOutOfRange {
                        node: n,
                        target: end,
                        nodes: nn,
                    });
                }
                let mut min_l = u32::MAX;
                let mut max_l = 0u32;
                for c in start as u32..end as u32 {
                    let ci = c as usize;
                    if self.parent[ci] != n {
                        return Err(StructuralError::ParentLinkBroken {
                            child: c,
                            expected_parent: n,
                            actual_parent: self.parent[ci],
                        });
                    }
                    if self.level[ci] as u32 + 1 != self.level[ni] as u32 {
                        return Err(StructuralError::LevelMismatch { child: c, parent: n });
                    }
                    min_l = min_l.min(self.subtree_min_leaf[ci]);
                    max_l = max_l.max(self.subtree_max_leaf[ci]);
                    // Parent sphere must contain child sphere. Written as a
                    // negated `<=` so a NaN gap (corrupt geometry) fails too.
                    let gap = psb_geom::dist(self.center(c), self.center(n)) + self.radius(c);
                    if !(gap <= self.radius(n) * (1.0 + 1e-4) + 1e-4) {
                        return Err(StructuralError::SphereNotContained { node: n, child: c });
                    }
                }
                if min_l != self.subtree_min_leaf[ni] || max_l != self.subtree_max_leaf[ni] {
                    return Err(StructuralError::SubtreeRangeWrong { node: n });
                }
                // Push children right-to-left so leaves pop left-to-right.
                for c in (start as u32..end as u32).rev() {
                    stack.push(c);
                }
            }
        }
        if visited_nodes != nn {
            return Err(StructuralError::UnreachableNodes { nodes: nn, visited: visited_nodes });
        }
        if leaf_cursor as usize != self.num_leaves() {
            return Err(StructuralError::LeafCountMismatch {
                counted: leaf_cursor as usize,
                expected: self.num_leaves(),
            });
        }
        if let Some(p) = seen_points.iter().position(|&s| !s) {
            return Err(StructuralError::OrphanPoint { point: p });
        }
        // Rope links are derived state (empty until `rebuild_arena`); when
        // present they must match the escape rule exactly — a wrong link sends
        // a stack-free traversal into a subtree it already covered or past one
        // it never visited.
        if !self.rope.is_empty() {
            if self.rope.len() != nn {
                return Err(StructuralError::ArrayLength {
                    array: "rope",
                    len: self.rope.len(),
                    nodes: nn,
                });
            }
            if self.rope[self.root as usize] != NO_ROPE {
                return Err(StructuralError::RopeBroken { node: self.root });
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
                        return Err(StructuralError::RopeBroken { node: c });
                    }
                    stack.push(c);
                }
            }
        }
        Ok(())
    }
}
