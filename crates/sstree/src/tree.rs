//! The flattened n-ary tree under both bounding-volume families.
//!
//! Layout decisions mirror the paper's GPU implementation (§V-A: "we store the
//! bounding spheres of child nodes as the structure of array (SOA) ... so that
//! memory coalescing can be naturally employed"):
//!
//! * node metadata and volumes live in parallel arrays indexed by node id;
//! * the children of every internal node are **contiguous**, so fetching a node's
//!   child volumes is one coalesced streak of global memory;
//! * leaves own **contiguous runs of the (reordered) point array** and are
//!   numbered densely left-to-right — `leaf id + 1` *is* the right sibling,
//!   giving PSB its linear leaf scan;
//! * every node records the min/max leaf id of its subtree, which PSB uses to
//!   skip already-visited subtrees without a stack.
//!
//! None of that depends on what a node's region *is*: the shape lives in the
//! [`Volumes`] parameter and nowhere else, so the accessors, the rope links,
//! the packed arena, the verifier and the materializer below exist once.

use psb_geom::{PointSet, SphereRef};

use crate::arena::NodeArena;
use crate::error::StructuralError;
use crate::volumes::{Spheres, Volumes};

/// Sentinel for "no parent" (the root).
pub(crate) const NO_PARENT: u32 = u32::MAX;
/// Sentinel leaf id for internal nodes.
pub(crate) const NOT_A_LEAF: u32 = u32::MAX;
/// Sentinel rope link: "no next subtree" (the root and every node on the
/// rightmost root-to-leaf spine).
pub const NO_ROPE: u32 = u32::MAX;

/// A flattened n-ary tree over bounding volumes `V`. Builders hand their
/// level plan to [`FlatTree::materialize`]; the only other producer is
/// [`crate::persist::load`], which validates the same way before it returns.
#[derive(Clone, Debug)]
pub struct FlatTree<V> {
    /// Dimensionality of the indexed space.
    pub dims: usize,
    /// Maximum children per internal node and points per leaf.
    pub degree: usize,
    /// Points, reordered so each leaf's points are contiguous.
    pub points: PointSet,
    /// Original dataset index of each (reordered) point position.
    pub point_ids: Vec<u32>,
    /// Node bounding volumes, node-major.
    pub volumes: V,
    /// Parent node id (`u32::MAX` for the root).
    pub parent: Vec<u32>,
    /// Node level: 0 = leaf, increasing toward the root.
    pub level: Vec<u8>,
    /// Internal: first child node id. Leaf: first point position.
    pub first_child: Vec<u32>,
    /// Internal: number of children. Leaf: number of points.
    pub child_count: Vec<u32>,
    /// Dense left-to-right leaf number; `u32::MAX` for internal nodes.
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
    /// [`FlatTree::rebuild_arena`]; empty until then.
    pub rope: Vec<u32>,
    /// Packed per-node device arena (see [`crate::arena`]): a derived cache of
    /// the node geometry above, rebuilt after construction/load. `None` puts
    /// sweeps on the bounds-checked gather fallback (see [`FlatTree::strip_arena`]).
    pub arena: Option<NodeArena>,
}

/// The SS-tree: a [`FlatTree`] over bounding [`Spheres`]. Construct via
/// [`crate::build()`] or [`crate::build_topdown`].
pub type SsTree = FlatTree<Spheres>;

impl SsTree {
    /// The bounding sphere of node `n`, borrowed straight from node-major
    /// storage — no allocation (use [`SphereRef::to_sphere`] if you need an
    /// owned copy).
    #[inline]
    pub fn sphere(&self, n: u32) -> SphereRef<'_> {
        SphereRef::new(self.volumes.center(self.dims, n as usize), self.volumes.radii[n as usize])
    }
}

/// `len` children dealt out `degree` at a time, the last node taking the rest
/// — one packed level's child counts.
pub fn chunk_counts(len: usize, degree: usize) -> Vec<u32> {
    (0..len).step_by(degree).map(|at| degree.min(len - at) as u32).collect()
}

impl<V: Volumes> FlatTree<V> {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
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

    /// Children of internal node `n` as a node-id range.
    #[inline]
    pub fn children(&self, n: u32) -> std::ops::Range<u32> {
        debug_assert!(!self.is_leaf(n));
        let fc = self.first_child[n as usize];
        // Saturating: a corrupt link near `u32::MAX` must come out as a range
        // the kernels' bounds check rejects — not a debug-build overflow
        // panic, and not a release-build wrap to an empty range.
        fc..fc.saturating_add(self.child_count[n as usize])
    }

    /// Point positions (into `self.points`) of leaf node `n`.
    #[inline]
    pub fn leaf_points(&self, n: u32) -> std::ops::Range<usize> {
        debug_assert!(self.is_leaf(n));
        let fp = self.first_child[n as usize] as usize;
        fp..fp + self.child_count[n as usize] as usize
    }

    /// Parent of `n` (`u32::MAX` for the root).
    pub fn parent(&self, n: u32) -> u32 {
        self.parent[n as usize]
    }

    /// Dense left-to-right leaf number of leaf `n`.
    pub fn leaf_id(&self, n: u32) -> u32 {
        self.leaf_id[n as usize]
    }

    /// Node id of leaf number `l`: `leaf_node_of(l + 1)` is leaf `l`'s right
    /// sibling.
    pub fn leaf_node_of(&self, l: u32) -> u32 {
        self.leaf_node_of[l as usize]
    }

    /// Largest leaf id under `n`'s subtree.
    pub fn subtree_max_leaf(&self, n: u32) -> u32 {
        self.subtree_max_leaf[n as usize]
    }

    /// Rope (escape) link of node `n`, as the `rope` field defines it:
    /// [`NO_ROPE`] for the root and the rightmost spine.
    pub fn rope(&self, n: u32) -> u32 {
        // Every construction/load path derives ropes in `rebuild_arena`; an
        // empty array means a hand-assembled tree that skipped it — an API
        // misuse, not device corruption, so it asserts rather than erroring.
        assert!(!self.rope.is_empty(), "rope links missing: call rebuild_arena() first");
        self.rope[n as usize]
    }

    /// Depth of node `n` below the root (root = 0): the per-level visit
    /// histogram's key when a stack-free traversal arrives at a node without
    /// having tracked a descent counter.
    pub fn node_depth(&self, n: u32) -> u32 {
        (self.level[self.root as usize] - self.level[n as usize]) as u32
    }

    /// Rebuild the packed device arena from the current node arrays. Call
    /// after any structural mutation (construction and load do it for you).
    /// Also rederives the rope links: every path that yields a queryable tree
    /// funnels through here, so the links can never go stale separately from
    /// the arena.
    pub fn rebuild_arena(&mut self) {
        self.arena = None;
        self.rebuild_ropes();
        self.arena = Some(NodeArena::build(self));
    }

    /// Recompute the `rope` escape links from the parent/child
    /// structure: `rope(c)` is `c + 1` for every non-last child (children are
    /// contiguous), the parent's rope for each last child, and [`NO_ROPE`] at
    /// the root. Top-down from the root so each parent's rope exists before
    /// its children consult it.
    pub(crate) fn rebuild_ropes(&mut self) {
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

    /// Bytes per child entry of the modelled device block: the volume's
    /// lanes, the child pointer and the subtree leaf range.
    pub fn child_entry_bytes(&self) -> u64 {
        V::lanes(self.dims) as u64 * 4 + 12
    }

    /// Bytes per point entry: coordinates plus the point id.
    pub fn point_entry_bytes(&self) -> u64 {
        self.dims as u64 * 4 + 4
    }

    /// Bytes a GPU kernel reads when it fetches internal node `n`: the SoA
    /// child-volume block plus per-child ids and a fixed header.
    pub fn internal_node_bytes(&self, n: u32) -> u64 {
        self.child_count[n as usize] as u64 * self.child_entry_bytes() + 32
    }

    /// Bytes read when fetching leaf node `n`: coordinates plus point ids plus a
    /// fixed header.
    pub fn leaf_node_bytes(&self, n: u32) -> u64 {
        self.child_count[n as usize] as u64 * self.point_entry_bytes() + 32
    }

    /// Bytes for whichever kind node `n` is.
    pub(crate) fn node_bytes(&self, n: u32) -> u64 {
        if self.is_leaf(n) {
            self.leaf_node_bytes(n)
        } else {
            self.internal_node_bytes(n)
        }
    }

    /// Total modeled device-resident footprint of the index in bytes: every
    /// node's fetched representation (internal child-volume blocks plus leaf
    /// point blocks — the arena *and* the reordered points it packs). The
    /// paper's index-memory comparison number, reported by `inspect` and as
    /// the repo benchmark's `index_bytes_per_point`.
    pub fn index_bytes(&self) -> u64 {
        (0..self.num_nodes() as u32).map(|n| self.node_bytes(n)).sum()
    }

    /// Average leaf utilization in `[0, 1]` (bottom-up construction yields 1.0
    /// except in the final partial leaf; top-down substantially less).
    pub fn leaf_utilization(&self) -> f64 {
        let filled: u64 =
            self.leaf_node_of.iter().map(|&n| self.child_count[n as usize] as u64).sum();
        filled as f64 / (self.num_leaves() as u64 * self.degree as u64) as f64
    }

    /// Flattens a per-level plan into the arena representation — the one
    /// funnel every builder (bottom-up, top-down, dynamic rebuild, packed
    /// R-tree) ends in. `counts[0]` holds each leaf's point count along
    /// `point_order` (the leaves' points, leaf after leaf); `counts[l]` each
    /// level-`l` node's child count, its children being the next that many
    /// nodes of level `l - 1`; the last level is the root alone. `volumes`
    /// holds one volume per node in arena order: root level first, leaves
    /// last, each level in its own order — which is what makes every parent's
    /// children contiguous.
    ///
    /// Runs the structural verifier before deriving ropes and packing the
    /// arena, so a construction bug can never hand an invalid tree to the
    /// query engines: it panics instead.
    pub fn materialize(
        points: &PointSet,
        degree: usize,
        counts: &[Vec<u32>],
        point_order: Vec<u32>,
        volumes: V,
    ) -> Self {
        let total_nodes: usize = counts.iter().map(Vec::len).sum();
        // Arena offset of each level, indexed like `counts` (0 = leaves).
        let mut base = vec![0u32; counts.len()];
        let mut acc = 0u32;
        for (slot, level) in base.iter_mut().zip(counts).rev() {
            *slot = acc;
            acc += level.len() as u32;
        }

        let mut parent = vec![NO_PARENT; total_nodes];
        let mut level = vec![0u8; total_nodes];
        let mut first_child = vec![0u32; total_nodes];
        let mut child_count = vec![0u32; total_nodes];
        let mut leaf_id = vec![NOT_A_LEAF; total_nodes];
        let mut subtree_min_leaf = vec![0u32; total_nodes];
        let mut subtree_max_leaf = vec![0u32; total_nodes];
        let mut leaf_node_of = vec![0u32; counts[0].len()];

        // Bottom-up, so a parent finds its children's leaf ranges in place.
        // A node's children (a leaf's points) are the next `count` entries of
        // the level below (of the point order).
        for (li, level_counts) in counts.iter().enumerate() {
            let mut cursor = if li == 0 { 0 } else { base[li - 1] };
            for (j, &count) in level_counts.iter().enumerate() {
                let node = base[li] as usize + j;
                level[node] = li as u8;
                first_child[node] = cursor;
                child_count[node] = count;
                if li == 0 {
                    leaf_node_of[j] = node as u32;
                    leaf_id[node] = j as u32;
                    subtree_min_leaf[node] = j as u32;
                    subtree_max_leaf[node] = j as u32;
                } else {
                    let kids = cursor as usize..(cursor + count) as usize;
                    parent[kids.clone()].fill(node as u32);
                    // An (impossible) empty group gets min > max, which the
                    // verifier below rejects as an empty range.
                    subtree_min_leaf[node] =
                        subtree_min_leaf[kids.clone()].iter().copied().min().unwrap_or(u32::MAX);
                    subtree_max_leaf[node] =
                        subtree_max_leaf[kids].iter().copied().max().unwrap_or(0);
                }
                cursor += count;
            }
        }

        let mut tree = FlatTree {
            dims: points.dims(),
            degree,
            points: points.gather(&point_order),
            point_ids: point_order,
            volumes,
            parent,
            level,
            first_child,
            child_count,
            leaf_id,
            subtree_min_leaf,
            subtree_max_leaf,
            leaf_node_of,
            root: 0,
            rope: Vec::new(),
            arena: None,
        };
        if let Err(e) = tree.validate() {
            panic!("construction produced a structurally invalid tree: {e}");
        }
        // Only a verified tree gets the packed device arena.
        tree.rebuild_arena();
        tree
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
    // The point loop indexes `seen_points` and the point arena by the same
    // untrusted index, which the range-loop lint cannot see.
    #[allow(clippy::needless_range_loop)]
    pub fn validate(&self) -> Result<(), StructuralError> {
        let nn = self.num_nodes();
        // Lengths first: everything below (and every accessor the kernels
        // use) indexes each per-node array with any id under `nn`.
        let per_node = [
            ("level", self.level.len(), 1),
            ("first_child", self.first_child.len(), 1),
            ("child_count", self.child_count.len(), 1),
            ("leaf_id", self.leaf_id.len(), 1),
            ("subtree_min_leaf", self.subtree_min_leaf.len(), 1),
            ("subtree_max_leaf", self.subtree_max_leaf.len(), 1),
        ];
        for (array, len, lanes) in per_node.into_iter().chain(self.volumes.arrays(self.dims)) {
            if len != nn * lanes {
                return Err(StructuralError::ArrayLength { array, len, nodes: nn });
            }
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
            if !self.volumes.finite(self.dims, ni) {
                return Err(StructuralError::NonFiniteGeometry { node: n });
            }
            if self.subtree_min_leaf[ni] > self.subtree_max_leaf[ni] {
                return Err(StructuralError::EmptySubtreeRange { node: n });
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
                if end > self.points.len() as u64 {
                    return Err(StructuralError::PointRangeOutOfRange {
                        node: n,
                        target: end,
                        points: self.points.len(),
                    });
                }
                for p in start as usize..end as usize {
                    if std::mem::replace(&mut seen_points[p], true) {
                        return Err(StructuralError::DuplicatePoint { point: p });
                    }
                    if !self.volumes.contains_point(self.dims, ni, self.points.point(p)) {
                        return Err(StructuralError::PointOutsideVolume { node: n, point: p });
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
                    if !self.volumes.contains_child(self.dims, ni, ci) {
                        return Err(StructuralError::VolumeNotContained { node: n, child: c });
                    }
                }
                if min_l != self.subtree_min_leaf[ni] || max_l != self.subtree_max_leaf[ni] {
                    return Err(StructuralError::SubtreeRangeWrong { node: n });
                }
                // Push children right-to-left so leaves pop left-to-right.
                stack.extend((start as u32..end as u32).rev());
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
