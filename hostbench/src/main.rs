//! Host-time benchmark of the PIT reproduction.
//!
//! One process runs one workload. It builds the workload's inputs from
//! `--seed`, calls the public API back to back from one thread, times each
//! call from outside with the host clock, checks every output (modelled
//! numbers are checked, never scored), and prints one JSON result line.
//! With `--trace 1` it instead splits host time by layer, from spans it
//! records around its own calls into each crate. See `README.md`.
//!
//! ```bash
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload decode_steady --seed 1 --seconds 20 --trace 0
//! ```

mod decode;
mod ops;
mod refclock;
mod spans;
mod stats;

use refclock::RefClock;
use stats::{median, percentile, ratio};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The seed whose outputs are recorded under `golden/`: runs with it also
/// compare every modelled output against the recorded bytes.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Fewest timed calls a run makes, so that `call_ms_p90` has at least ten
/// samples beyond it even on a slow host.
pub const MIN_CALLS: usize = 110;

/// Worker threads `Pit`'s detector is built with (it defaults to 4): two,
/// or fewer on a host with fewer cores, so the process never runs more
/// threads than `nproc`.
pub fn detect_threads() -> usize {
    2.min(nproc())
}

const WORKLOADS: [&str; 3] = ["decode_steady", "decode_pressure", "pit_ops"];

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rewrite the recorded default-seed outputs instead of measuring.
    pub record: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: operations attempted and failed, and its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn usage() -> String {
    format!(
        "usage: pit_hostbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--record]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(args)
}

/// Host threads available, as the OS reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether the timed loop should stop: the time is up and the tail
/// percentile has enough samples, or a hard cap keeps the run well inside
/// its time limit.
pub fn loop_done(begin: Instant, calls: usize, seconds: f64) -> bool {
    let elapsed = begin.elapsed().as_secs_f64();
    (elapsed >= seconds && calls >= MIN_CALLS) || elapsed >= 2.0 * seconds
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// How often the timed loops probe the host's speed.
pub const PROBE_EVERY_S: f64 = 0.1;

/// One timed call: its wall time, the reference-clock slice it ran in,
/// and the work it did (0 when it failed).
pub struct CallTime {
    pub wall_s: f64,
    pub slice: usize,
    pub work: f64,
}

/// The end-to-end metrics of a timed run. Call times are rescaled to the
/// reference host speed (see `refclock`); set-up time and memory are
/// reported as measured.
pub fn end_to_end(setup_s: &[f64], calls: &[CallTime], clock: &RefClock) -> Vec<Metric> {
    println!(
        "# probe_ms_median={:.4} (reference {} ms)",
        clock.median_probe_ms(),
        refclock::PROBE_REF_MS
    );
    let ref_ms: Vec<f64> = calls
        .iter()
        .map(|c| c.wall_s * 1e3 * clock.scale(c.slice))
        .collect();
    let (work, ref_s) = calls
        .iter()
        .zip(&ref_ms)
        .filter(|(c, _)| c.work > 0.0)
        .fold((0.0, 0.0), |(w, t), (c, ms)| (w + c.work, t + ms / 1e3));
    vec![
        Metric {
            name: "setup_s",
            value: median(setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MiB",
        },
        Metric {
            name: "work_per_s",
            value: ratio(work, ref_s),
            unit: "1/ref_s",
        },
        Metric {
            name: "call_ms_p50",
            value: median(&ref_ms),
            unit: "ref_ms",
        },
        Metric {
            name: "call_ms_p90",
            value: percentile(&ref_ms, 0.9),
            unit: "ref_ms",
        },
    ]
}

/// Every per-layer metric; a layer the workload does not call reads 0.
#[derive(Default)]
pub struct LayerNumbers {
    pub step_price_us_p50: f64,
    pub step_price_us_p99: f64,
    pub best_dense_tile_ns_p50: f64,
    pub serve_steps: f64,
    pub serve_residual_us_per_step: f64,
    pub kv_op_ns_p50: f64,
    pub kv_op_ns_p99: f64,
    pub kv_preemptions: f64,
    pub kv_recompute_waste: f64,
    pub prefix_match_us_p50: f64,
    pub prefix_hit_rate: f64,
    pub swap_pages_moved: f64,
    pub swap_fallback_frac: f64,
    pub trace_events: f64,
    pub trace_overhead_us_per_step: f64,
    pub core_detect_us_p50: f64,
    pub core_select_us_p50: f64,
    pub core_kernel_us_p50: f64,
    pub core_jit_hit_rate: f64,
    pub core_coverage_waste: f64,
    pub tensor_dense_ref_us_p50: f64,
    pub core_host_vs_dense: f64,
    pub bench_trace_overhead_pct: f64,
}

/// The per-layer result metrics, in `BENCHMARK.json` order.
pub fn layer_metrics(n: LayerNumbers) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("models.step_price_us_p50", n.step_price_us_p50, "us"),
        m("models.step_price_us_p99", n.step_price_us_p99, "us"),
        m(
            "kernels.best_dense_tile_ns_p50",
            n.best_dense_tile_ns_p50,
            "ns",
        ),
        m("serve.steps", n.serve_steps, "count"),
        m(
            "serve.residual_us_per_step",
            n.serve_residual_us_per_step,
            "us",
        ),
        m("kv.op_ns_p50", n.kv_op_ns_p50, "ns"),
        m("kv.op_ns_p99", n.kv_op_ns_p99, "ns"),
        m("kv.preemptions", n.kv_preemptions, "count"),
        m("kv.recompute_waste", n.kv_recompute_waste, "ratio"),
        m("prefix.match_us_p50", n.prefix_match_us_p50, "us"),
        m("prefix.hit_rate", n.prefix_hit_rate, "ratio"),
        m("swap.pages_moved", n.swap_pages_moved, "count"),
        m("swap.fallback_frac", n.swap_fallback_frac, "ratio"),
        m("trace.events", n.trace_events, "count"),
        m(
            "trace.overhead_us_per_step",
            n.trace_overhead_us_per_step,
            "us",
        ),
        m("core.detect_us_p50", n.core_detect_us_p50, "us"),
        m("core.select_us_p50", n.core_select_us_p50, "us"),
        m("core.kernel_us_p50", n.core_kernel_us_p50, "us"),
        m("core.jit_hit_rate", n.core_jit_hit_rate, "ratio"),
        m("core.coverage_waste", n.core_coverage_waste, "ratio"),
        m("tensor.dense_ref_us_p50", n.tensor_dense_ref_us_p50, "us"),
        m("core.host_vs_dense", n.core_host_vs_dense, "ratio"),
        m("bench.trace_overhead_pct", n.bench_trace_overhead_pct, "%"),
    ]
}

static PANICS: AtomicU64 = AtomicU64::new(0);

/// A panicking call is counted as failed by the caller; print only the
/// first few messages so a broken build cannot flood the log.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|info| {
        if PANICS.fetch_add(1, Ordering::Relaxed) < 3 {
            eprintln!("hostbench: call panicked: {info}");
        }
    }));
}

/// Reports a failed check on stderr (first few per run only).
pub fn note_failure(what: &str) {
    static NOTES: AtomicU64 = AtomicU64::new(0);
    if NOTES.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("hostbench: check failed: {what}");
    }
}

/// Where the traced run writes its spans: under the build directory, so
/// the checkout's ignored build output holds everything a run leaves.
pub fn span_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("hostbench/target"));
    target.join("hostbench-spans")
}

fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pit_hostbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    println!(
        "# pit_hostbench workload={} seed={} seconds={} trace={} nproc={} detect_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        detect_threads()
    );
    quiet_panics();
    let outcome = match args.workload.as_str() {
        "decode_steady" => decode::run(decode::Kind::Steady, &args),
        "decode_pressure" => decode::run(decode::Kind::Pressure, &args),
        _ => ops::run(&args),
    };
    println!("{}", result_line(&outcome));
}
