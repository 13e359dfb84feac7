//! SS-tree: the n-ary bounding-sphere index the paper traverses on the GPU.
//!
//! An SS-tree (White & Jain, ICDE 1996) is a balanced n-ary tree whose node
//! regions are bounding spheres. This crate provides:
//!
//! * [`SsTree`] — a flattened, GPU-layout-faithful arena: per-node sphere arrays
//!   (SoA), contiguous children, parent links, a dense left-to-right leaf
//!   numbering with `subtreeMinLeafId` / `subtreeMaxLeafId` ranges, and a
//!   leaf-level sibling chain. These are exactly the auxiliary structures
//!   Algorithm 1 (PSB) requires for stackless traversal.
//! * [`mod@build`] — parallel bottom-up construction (paper §IV): leaf packing by
//!   Hilbert-curve order or by k-means clustering, 100 % leaf utilization, and
//!   hierarchical bounding spheres via the parallel Ritter algorithm.
//! * [`topdown`] — the classic top-down insert/split construction, kept as the
//!   comparison point for node utilization and sphere quality.
//! * [`search`] — exact CPU searches (recursive branch-and-bound and best-first)
//!   used as correctness oracles for the GPU kernels.

pub mod arena;
pub mod build;
pub mod error;
pub mod persist;
pub mod search;
pub mod topdown;
pub mod tree;
pub mod volumes;

pub use arena::{NodeArena, RowIds};
pub use build::{build, BuildMethod};
pub use error::StructuralError;
pub use persist::{load as load_index, save as save_index, LoadError};
pub use search::{knn_best_first, knn_branch_and_bound, linear_knn, Neighbor};
pub use topdown::build_topdown;
pub use tree::{FlatTree, SsTree};
pub use volumes::{dist_cost, Spheres, SweepScratch, Volumes};
