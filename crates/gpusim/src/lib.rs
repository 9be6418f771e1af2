//! Analytical GPU performance model for the PIT reproduction.
//!
//! The paper evaluates on NVIDIA A100-80GB and V100-32GB GPUs. Those are not
//! available here, so this crate provides the substitution described in
//! `DESIGN.md` §2: a deterministic, analytical model of a tile-based GPU
//! that charges
//!
//! 1. **compute time** per dense tile from a roofline over the device's peak
//!    FLOP rate, degraded by a tile-shape efficiency factor (small tiles
//!    under-utilise an SM — this is the "GPU-efficient tile" effect that
//!    Figure 1 and Figure 3a of the paper are built on);
//! 2. **memory time** per tile from the bytes the tile stages through shared
//!    memory at the device's HBM bandwidth;
//! 3. **wave scheduling**: thread blocks execute in waves of `num_sms`
//!    concurrent tiles;
//! 4. **fixed overheads**: kernel launches, host↔device synchronisation and
//!    atomic-contention costs, all of which matter for the conversion
//!    overhead experiments (Figures 3b, 18, 19).
//!
//! Every constant is either a published device specification or a documented
//! structural choice (see [`cost`]); nothing is fitted per-experiment.
//!
//! The crate also provides [`MemoryTracker`] (peak-footprint accounting with
//! out-of-memory detection, for the paper's GPU-memory plots).

pub mod cost;
pub mod device;
pub mod memory;
pub mod stats;

pub use cost::CostModel;
pub use device::DeviceSpec;
pub use memory::MemoryTracker;
pub use stats::KernelStats;
