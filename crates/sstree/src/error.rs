//! Typed structural errors for the tree verifier.
//!
//! [`FlatTree::validate`](crate::FlatTree::validate) walks every link the GPU
//! kernels will later follow and reports the *first* violated invariant as a
//! [`StructuralError`]. Each variant names the node (or point) at fault so a
//! corrupted persisted index or a buggy construction can be diagnosed without
//! re-running under a debugger.

use std::fmt;

/// The first structural invariant a [`FlatTree`](crate::FlatTree) violates.
///
/// The verifier is defensive: it bounds-checks every link *before* following
/// it and caps its own traversal, so it terminates with a typed error on any
/// byte-level corruption — it never panics or loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StructuralError {
    /// A per-node array's length disagrees with the node count.
    ArrayLength { array: &'static str, len: usize, nodes: usize },
    /// The root id is outside the node arena.
    RootOutOfRange { root: u32, nodes: usize },
    /// The root has a parent link.
    RootHasParent { root: u32 },
    /// A child id (or the end of a child range) points outside the arena.
    ChildOutOfRange { node: u32, target: u64, nodes: usize },
    /// An internal node claims zero children.
    NoChildren { node: u32 },
    /// A node holds more children/points than the tree degree allows.
    DegreeOverflow { node: u32, count: u32, degree: usize },
    /// A child's parent link does not point back at the node that owns it.
    ParentLinkBroken { child: u32, expected_parent: u32, actual_parent: u32 },
    /// A child's level is not exactly one below its parent's.
    LevelMismatch { child: u32, parent: u32 },
    /// `subtree_min_leaf > subtree_max_leaf` — an empty subtree leaf range.
    EmptySubtreeRange { node: u32 },
    /// A node's subtree leaf range disagrees with the union of its children's.
    SubtreeRangeWrong { node: u32 },
    /// A leaf carries the `NOT_A_LEAF` sentinel, or its id exceeds the count.
    LeafIdInvalid { node: u32, leaf_id: u32 },
    /// A leaf's subtree range is not exactly its own leaf id.
    LeafRangeNotSelf { node: u32 },
    /// `leaf_node_of[leaf_id]` does not point back at the leaf.
    LeafChainBroken { node: u32, leaf_id: u32 },
    /// Leaf ids do not run dense left-to-right in traversal order.
    LeafIdsNotSequential { node: u32, got: u32, expected: u32 },
    /// Fewer (or more) leaves were numbered than `leaf_node_of` holds.
    LeafCountMismatch { counted: usize, expected: usize },
    /// A leaf's point range escapes the point array.
    PointRangeOutOfRange { node: u32, target: u64, points: usize },
    /// A point position belongs to two leaves.
    DuplicatePoint { point: usize },
    /// A point position belongs to no leaf.
    OrphanPoint { point: usize },
    /// A point lies outside its leaf's bounding volume.
    PointOutsideVolume { node: u32, point: usize },
    /// A child's volume is not contained in its parent's.
    VolumeNotContained { node: u32, child: u32 },
    /// A volume has a NaN/infinite coordinate or is inside out (a negative
    /// radius, a low corner above the high one).
    NonFiniteGeometry { node: u32 },
    /// Some arena nodes are unreachable from the root.
    UnreachableNodes { nodes: usize, visited: usize },
    /// The traversal visited more nodes than the arena holds — the links form
    /// a cycle.
    TraversalOverrun { nodes: usize },
}

impl fmt::Display for StructuralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use StructuralError::*;
        match *self {
            ArrayLength { array, len, nodes } => {
                write!(f, "array `{array}` has length {len} but the arena holds {nodes} nodes")
            }
            RootOutOfRange { root, nodes } => {
                write!(f, "root {root} is outside the {nodes}-node arena")
            }
            RootHasParent { root } => write!(f, "root {root} has a parent link"),
            ChildOutOfRange { node, target, nodes } => {
                write!(f, "node {node}: child range reaches {target} in a {nodes}-node arena")
            }
            NoChildren { node } => write!(f, "internal node {node} has no children"),
            DegreeOverflow { node, count, degree } => {
                write!(f, "node {node} holds {count} entries, degree is {degree}")
            }
            ParentLinkBroken { child, expected_parent, actual_parent } => write!(
                f,
                "child {child} points at parent {actual_parent}, expected {expected_parent}"
            ),
            LevelMismatch { child, parent } => {
                write!(f, "child {child} level is not one below parent {parent}")
            }
            EmptySubtreeRange { node } => write!(f, "node {node}: empty subtree leaf range"),
            SubtreeRangeWrong { node } => {
                write!(f, "node {node}: subtree leaf range disagrees with its children")
            }
            LeafIdInvalid { node, leaf_id } => {
                write!(f, "leaf {node} has invalid leaf id {leaf_id}")
            }
            LeafRangeNotSelf { node } => {
                write!(f, "leaf {node}: subtree range is not its own leaf id")
            }
            LeafChainBroken { node, leaf_id } => {
                write!(f, "leaf_node_of[{leaf_id}] does not point back at leaf {node}")
            }
            LeafIdsNotSequential { node, got, expected } => {
                write!(f, "leaf {node} has id {got}, expected {expected} (not left-to-right)")
            }
            LeafCountMismatch { counted, expected } => {
                write!(f, "numbered {counted} leaves, leaf_node_of holds {expected}")
            }
            PointRangeOutOfRange { node, target, points } => {
                write!(f, "leaf {node}: point range reaches {target} of {points} points")
            }
            DuplicatePoint { point } => write!(f, "point {point} appears in two leaves"),
            OrphanPoint { point } => write!(f, "point {point} is in no leaf"),
            PointOutsideVolume { node, point } => {
                write!(f, "leaf {node}: point {point} lies outside the bounding volume")
            }
            VolumeNotContained { node, child } => {
                write!(f, "node {node}: child {child}'s volume pokes out of the parent's")
            }
            NonFiniteGeometry { node } => {
                write!(f, "node {node} has a non-finite or inside-out bounding volume")
            }
            UnreachableNodes { nodes, visited } => {
                write!(f, "arena holds {nodes} nodes but only {visited} are reachable from root")
            }
            TraversalOverrun { nodes } => {
                write!(f, "traversal exceeded the {nodes}-node arena: links form a cycle")
            }
        }
    }
}

impl std::error::Error for StructuralError {}
