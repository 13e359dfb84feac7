//! Multi-dimensional geometry substrate for the PSB kNN reproduction.
//!
//! This crate provides every geometric primitive the paper's systems depend on:
//!
//! * [`PointSet`] — a dense, cache-friendly store of `f32` points in `d` dimensions.
//! * [`Sphere`] / [`Rect`] — bounding volumes with the `MINDIST` / `MAXDIST` metrics
//!   used by branch-and-bound and PSB traversals (SS-tree spheres, SR-tree
//!   sphere-and-rectangle regions).
//! * [`ritter`] — Ritter's approximate minimum enclosing sphere, in the
//!   sequential form and the paper's parallel form (Algorithm 2), generalized to
//!   enclose child *spheres* as well as raw points (needed for bottom-up
//!   internal-node construction).
//! * [`mod@welzl`] — an exact minimum enclosing ball (move-to-front Welzl)
//!   used as a test oracle for Ritter's 5–20 % slack claim.
//! * [`hilbert`] — a d-dimensional Hilbert space-filling curve (Skilling's transpose
//!   algorithm) producing totally ordered 256-bit keys for bottom-up leaf packing.
//! * [`mod@kmeans`] — a deterministic parallel Lloyd's k-means used by the alternative
//!   bottom-up construction.
//!
//! All floating-point work that affects *structure* (construction) is done carefully
//! enough to be deterministic under any host thread count; see the module docs.

pub mod dist;
pub mod hilbert;
pub mod kmeans;
pub mod layout;
mod matrix;
pub mod point;
pub mod rect;
pub mod rectkernel;
pub mod ritter;
pub mod simd;
pub mod sphere;
pub mod welzl;

pub use dist::{dist, plane_gap, plane_in_range, sq_dist, sq_dist_d, DistKernel, DistLanes};
pub use hilbert::{hilbert_key, hilbert_keys, hilbert_sort, hilbert_sort_into, HilbertKey};
pub use kmeans::{kmeans, KMeansParams, KMeansResult};
pub use layout::AlignedF32;
pub use point::{Neighbor, PointSet};
pub use rect::Rect;
pub use rectkernel::{rect_eval, RectKernel, RectRowsOut};
pub use ritter::{ritter_points, ritter_spheres, RitterMode};
pub use simd::sq_dist_simd;
pub use sphere::{Sphere, SphereRef};
pub use welzl::welzl;
