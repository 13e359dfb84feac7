//! Workload generators for the PSB evaluation.
//!
//! The paper evaluates on (a) synthetic mixtures of Gaussian clusters with varying
//! cluster counts, standard deviations and dimensionality (§V-A/B), and (b) the
//! NOAA Integrated Surface Database — ~20 000 weather stations reporting sensor
//! values tagged with latitude/longitude (§V-F). The real ISD files are not
//! available offline, so [`noaa`] generates a synthetic equivalent that preserves
//! what matters to an index: heavy geographic clustering of a large report stream
//! around a fixed set of station locations (see
//! DESIGN.md "The paper and what stands in for its hardware").
//!
//! Everything is seeded and deterministic.

pub mod csv;
mod gaussian;
pub mod io;
pub mod noaa;
mod normal;
pub mod queries;
pub mod skewed;
pub mod uniform;

pub use gaussian::ClusteredSpec;
pub use noaa::NoaaSpec;
pub use queries::sample_queries;
pub use skewed::SkewedQuerySpec;
pub use uniform::UniformSpec;

/// Side length of the synthetic coordinate space. The paper sweeps cluster
/// standard deviations from 10 to 10 240 and observes near-uniform behaviour at
/// the top of that range, which implies a coordinate space a handful of sigmas
/// wide — 65 536 fits that reading.
pub(crate) const SPACE: f32 = 65_536.0;
