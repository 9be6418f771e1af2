//! GPU-memory footprint accounting.
//!
//! The paper's evaluation reports peak GPU memory for every end-to-end model
//! (Figures 8b, 9–15) and shows several baselines running out of memory
//! (Tutel/DeepSpeed at 256 experts; PyTorch-S/DeepSpeed on 4k-token
//! Longformer). [`MemoryTracker`] reproduces that accounting: models
//! register allocations and frees, and the tracker records the peak and
//! whether the device capacity was ever exceeded.

use crate::device::DeviceSpec;

/// Identifier of one live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId(usize);

/// Tracks simulated GPU memory allocations against a device's capacity.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    capacity: usize,
    current: usize,
    peak: usize,
    next_id: usize,
    live: Vec<(AllocId, usize)>,
    oom: bool,
}

impl MemoryTracker {
    /// Creates a tracker for the given device.
    pub fn new(device: &DeviceSpec) -> Self {
        Self::with_capacity(device.global_mem_bytes)
    }

    /// Creates a tracker with an explicit capacity in bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        MemoryTracker {
            capacity,
            current: 0,
            peak: 0,
            next_id: 0,
            live: Vec::new(),
            oom: false,
        }
    }

    /// Registers an allocation of `bytes`; returns its id.
    ///
    /// Exceeding capacity does not abort the simulation — it latches the
    /// [`MemoryTracker::oom`] flag so experiments can report "OOM" exactly
    /// like the paper's figures do.
    pub fn alloc(&mut self, bytes: usize) -> AllocId {
        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.current += bytes;
        self.peak = self.peak.max(self.current);
        if self.current > self.capacity {
            self.oom = true;
        }
        self.live.push((id, bytes));
        id
    }

    /// Releases a previous allocation. Unknown ids are ignored (double-free
    /// in a *simulation* is a modelling bug, not a safety issue, and the
    /// figures are peak-based).
    pub fn free(&mut self, id: AllocId) {
        if let Some(pos) = self.live.iter().position(|(i, _)| *i == id) {
            let (_, bytes) = self.live.swap_remove(pos);
            self.current -= bytes;
        }
    }

    /// Currently-allocated bytes.
    pub fn current_bytes(&self) -> usize {
        self.current
    }

    /// Peak allocated bytes seen so far.
    pub fn peak_bytes(&self) -> usize {
        self.peak
    }

    /// Peak in GiB, as plotted by the paper.
    pub fn peak_gib(&self) -> f64 {
        self.peak as f64 / (1u64 << 30) as f64
    }

    /// Whether any allocation exceeded device capacity.
    pub fn oom(&self) -> bool {
        self.oom
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut t = MemoryTracker::with_capacity(1000);
        let a = t.alloc(400);
        let b = t.alloc(300);
        t.free(a);
        assert_eq!(t.current_bytes(), 300);
        assert_eq!(t.peak_bytes(), 700);
        t.free(b);
        assert_eq!(t.current_bytes(), 0);
        assert_eq!(t.peak_bytes(), 700);
    }

    #[test]
    fn oom_latches() {
        let mut t = MemoryTracker::with_capacity(100);
        let a = t.alloc(200);
        t.free(a);
        assert!(t.oom());
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn double_free_is_ignored() {
        let mut t = MemoryTracker::with_capacity(1000);
        let a = t.alloc(100);
        t.free(a);
        t.free(a);
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn device_capacity_used() {
        let t = MemoryTracker::new(&DeviceSpec::v100_32gb());
        assert_eq!(t.capacity(), 32 * (1 << 30));
    }
}
