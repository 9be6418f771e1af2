//! Host time at a reference speed.
//!
//! Shared hosts change speed under the benchmark: on the machines this was
//! tuned on, other tenants slowed every computation by about 1.4× for
//! seconds to minutes at a time, so raw wall times of one seed spread by
//! more than 20% between runs. The timed loops therefore run a fixed probe
//! computation — the harness's own code, independent of the program —
//! beside the calls, and rescale each call's wall time by how fast the
//! probe ran around it:
//!
//! `ref_time = wall_time × PROBE_REF_MS / probe_ms`
//!
//! A change to the program moves its calls and not the probe, so it moves
//! the rescaled times one for one; a slower host moves both and cancels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Milliseconds the probe takes at the reference speed: rescaled times
/// read as wall times on a host where the probe runs this fast.
pub const PROBE_REF_MS: f64 = 4.0;

/// Elements the probe sorts.
const PROBE_ELEMS: usize = 40_000;

/// Passes of the probe's record loop.
const PROBE_PASSES: usize = 20;

/// One run of the probe, in milliseconds. It has two halves, because
/// neither alone slows down exactly as the program does: sorting and an
/// ordered map (memory-bound work), and a record loop shaped like a
/// simulator step — short labels formatted, a cost minimised over a few
/// candidates, records pushed and then scanned by suffix (allocation- and
/// branch-bound work).
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut v: Vec<u64> = (0..PROBE_ELEMS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut map = BTreeMap::new();
    for (i, &k) in v.iter().enumerate().step_by(8) {
        map.insert(k >> 40, i);
    }
    black_box((&v, map.len()));

    const OPS: [&str; 12] = [
        "qkv",
        "scores",
        "softmax",
        "context",
        "out",
        "attn_ln",
        "fc1",
        "act",
        "fc2",
        "ffn_ln",
        "residual",
        "kv_append",
    ];
    let mut total = 0.0f64;
    for pass in 0..PROBE_PASSES {
        let mut records: Vec<(String, f64)> = Vec::new();
        for layer in 0..24usize {
            for (o, op) in OPS.iter().enumerate() {
                let (m, k, n) = (64 + pass, 2048usize, 2048 + 8 * o);
                let best = (1..15usize)
                    .map(|t| {
                        let tiles = (m.div_ceil(8 * t) * n.div_ceil(16 * t)) as f64;
                        tiles * (k as f64 / (4 * t) as f64).ln_1p() * 1e-9
                            + (t as f64).sqrt() * 1e-7
                    })
                    .fold(f64::MAX, f64::min);
                records.push((format!("l{layer}.{op}"), best));
            }
        }
        total += records
            .iter()
            .map(|(label, s)| {
                if label.ends_with(".scores") {
                    2.0 * s
                } else {
                    *s
                }
            })
            .sum::<f64>();
    }
    black_box(total);
    start.elapsed().as_secs_f64() * 1e3
}

/// Probes taken at slice boundaries of a timed loop. A call made in slice
/// `i` is rescaled by the mean of the probes that open and close it.
pub struct RefClock {
    probes: Vec<f64>,
    last: Instant,
    every_s: f64,
}

impl RefClock {
    /// Starts a clock that probes at most every `every_s` seconds.
    pub fn new(every_s: f64) -> Self {
        // Warm the probe's code and allocator paths first.
        probe_ms();
        RefClock {
            probes: vec![probe_ms()],
            last: Instant::now(),
            every_s,
        }
    }

    /// Probes when a slice is due; returns the slice the next call is in.
    pub fn slice(&mut self) -> usize {
        if self.last.elapsed().as_secs_f64() >= self.every_s {
            self.probes.push(probe_ms());
            self.last = Instant::now();
        }
        self.probes.len() - 1
    }

    /// Closes the last slice.
    pub fn finish(&mut self) {
        self.probes.push(probe_ms());
    }

    /// Factor turning a wall time measured in `slice` into reference time.
    pub fn scale(&self, slice: usize) -> f64 {
        let open = self.probes[slice];
        let close = self.probes.get(slice + 1).copied().unwrap_or(open);
        PROBE_REF_MS / (0.5 * (open + close))
    }

    /// The median probe time, in milliseconds.
    pub fn median_probe_ms(&self) -> f64 {
        crate::stats::median(&self.probes)
    }
}
