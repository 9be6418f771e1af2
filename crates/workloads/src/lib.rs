//! Synthetic workload generators for the PIT reproduction.
//!
//! The paper evaluates on real datasets (GLUE, IMDB, Multi-XScience,
//! Multi-News, Alpaca, Arxiv, the Lakh MIDI dataset). Those datasets enter
//! the experiments only through their *shape statistics* — sequence-length
//! distributions, routing histograms, activation densities — so this crate
//! substitutes seeded samplers with matching statistics.
//! Per-dataset parameters are documented on each [`datasets::DatasetSpec`].

pub mod batching;
pub mod datasets;
pub mod patterns;

pub use batching::{padding_waste, Batch};
pub use datasets::DatasetSpec;
pub use patterns::{ArrivalTrace, DecodeSpec, DecodeTrace, SharedPrefixSpec};
