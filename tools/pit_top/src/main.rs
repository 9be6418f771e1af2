//! `pit_top`: a live terminal dashboard over a `pit_trace` scrape
//! endpoint.
//!
//! Polls `GET /metrics`, `/series` and `/slo` on a
//! [`pit_trace::ScrapeServer`] (std `TcpStream`, no HTTP client crate)
//! and redraws a compact dashboard each interval: token throughput,
//! TTFT/ITL/e2e percentiles, per-window p95 sparklines, the top wait
//! and blame causes, and any firing SLO/drift alarms. Table rendering
//! is shared with `trace_explain`.
//!
//! ```text
//! pit_top <host:port | http://host:port> [--once] [--frames N] [--interval-ms N]
//! ```
//!
//! `--once` draws a single frame without clearing the screen (CI and
//! scripting); `--frames N` exits after N redraws; the default interval
//! is 1000 ms.

use pit_trace::{parse_exposition, Exposition, JsonValue, MetricKind};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;
use trace_explain::{summary_count, summary_quantile, Align, CauseSeconds, Table};

const IO_TIMEOUT: Duration = Duration::from_millis(2000);
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Normalizes the target argument to `host:port`.
fn parse_target(arg: &str) -> Result<String, String> {
    let hostport = arg
        .strip_prefix("http://")
        .unwrap_or(arg)
        .trim_end_matches('/');
    if hostport.starts_with(':') {
        return Ok(format!("127.0.0.1{hostport}"));
    }
    if !hostport.contains(':') {
        return Err(format!("target '{arg}' has no port (want host:port)"));
    }
    Ok(hostport.to_string())
}

/// One `GET path` against the scrape endpoint; returns the body of a
/// 200 response.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed response (no header/body split)".to_string())?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("{path}: {status}"));
    }
    Ok(body.to_string())
}

/// The dashboard's view of one `/metrics` scrape.
#[derive(Default, Clone)]
struct Snapshot {
    /// Every counter family's total over its samples, by name.
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    /// `(family, count, p50, p95, p99)` rows, milliseconds.
    summaries: Vec<(String, f64, f64, f64, f64)>,
    /// Ranked `(cause, seconds)` from `pit_hub_wait_seconds_total{cause=...}`.
    waits: Vec<(String, f64)>,
    /// Ranked `(cause, seconds)` from `pit_blame_*_seconds_total`.
    blame: Vec<(String, f64)>,
}

fn snapshot_from(expo: &Exposition) -> Snapshot {
    let CauseSeconds { blame, waits } = CauseSeconds::read(expo);
    let mut snap = Snapshot {
        waits,
        blame,
        ..Snapshot::default()
    };
    for fam in expo.families() {
        match fam.kind {
            MetricKind::Counter => {
                let total: f64 = fam.samples.iter().map(|s| s.value).sum();
                snap.counters.insert(fam.name.clone(), total);
            }
            MetricKind::Gauge => {
                if let Some(s) = fam.samples.first() {
                    snap.gauges.insert(fam.name.clone(), s.value);
                }
            }
            MetricKind::Summary => {
                let ms =
                    |quantile: &str| summary_quantile(fam, quantile).map_or(f64::NAN, |s| s * 1e3);
                let count = summary_count(fam).unwrap_or(0.0);
                snap.summaries
                    .push((fam.name.clone(), count, ms("0.5"), ms("0.95"), ms("0.99")));
            }
        }
    }
    snap
}

/// Scales `values` into a `▁▂▃▄▅▆▇█` strip (max-normalized).
fn sparkline(values: &[f64]) -> String {
    let max = values.iter().copied().fold(0.0_f64, f64::max);
    if values.is_empty() || max <= 0.0 {
        return String::new();
    }
    values
        .iter()
        .map(|&v| {
            let i = ((v / max) * (SPARK.len() - 1) as f64).round() as usize;
            SPARK[i.min(SPARK.len() - 1)]
        })
        .collect()
}

/// Pulls each window's `{key}` from the `/series` body.
fn series_values(series: &JsonValue, key: &str) -> Vec<f64> {
    let Some(obj) = series.as_object() else {
        return Vec::new();
    };
    let Some(windows) = obj
        .iter()
        .find(|(k, _)| k == "windows")
        .and_then(|(_, v)| v.as_array())
    else {
        return Vec::new();
    };
    windows
        .iter()
        .filter_map(|w| {
            let o = w.as_object()?;
            o.iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_f64())
        })
        .collect()
}

/// Flattens the `/slo` body's drift alarms into display lines.
fn alarm_lines(slo: &JsonValue) -> Vec<String> {
    let Some(obj) = slo.as_object() else {
        return Vec::new();
    };
    let Some(drift) = obj
        .iter()
        .find(|(k, _)| k == "drift")
        .and_then(|(_, v)| v.as_array())
    else {
        return Vec::new();
    };
    drift
        .iter()
        .filter_map(|a| {
            let o = a.as_object()?;
            let get_s = |k: &str| {
                o.iter()
                    .find(|(key, _)| key == k)
                    .and_then(|(_, v)| v.as_str())
                    .unwrap_or("?")
                    .to_string()
            };
            let get_f = |k: &str| {
                o.iter()
                    .find(|(key, _)| key == k)
                    .and_then(|(_, v)| v.as_f64())
                    .unwrap_or(f64::NAN)
            };
            Some(format!(
                "{} {} q{:.2}: baseline {:.4} -> observed {:.4} ({:+.1}%)",
                get_s("kind"),
                get_s("metric"),
                get_f("quantile"),
                get_f("baseline"),
                get_f("observed"),
                100.0 * get_f("rel_change"),
            ))
        })
        .collect()
}

/// Token throughput between two scrapes: Δtokens / Δhub-clock, falling
/// back to whole-run totals when the clock has not advanced. Tokens are
/// decode tokens, or prompt tokens for a run that decoded nothing (the
/// prefill-only threaded runtime).
fn throughput(prev: Option<&Snapshot>, cur: &Snapshot) -> f64 {
    let tokens = |s: &Snapshot| {
        let counter = |k: &str| s.counters.get(k).copied().unwrap_or(0.0);
        let decoded = counter("pit_hub_decode_tokens_total");
        if decoded > 0.0 {
            decoded
        } else {
            counter("pit_hub_prefill_chunk_tokens_total")
        }
    };
    let clock = |s: &Snapshot| {
        s.gauges
            .get("pit_hub_clock_seconds")
            .copied()
            .unwrap_or(0.0)
    };
    if let Some(p) = prev {
        let dt = clock(cur) - clock(p);
        if dt > 1e-9 {
            return (tokens(cur) - tokens(p)) / dt;
        }
    }
    let t = clock(cur);
    if t > 1e-9 {
        tokens(cur) / t
    } else {
        0.0
    }
}

/// Renders one full dashboard frame.
fn render_frame(
    target: &str,
    prev: Option<&Snapshot>,
    cur: &Snapshot,
    series: &JsonValue,
    slo: &JsonValue,
) -> String {
    let mut out = String::new();
    let g = |k: &str| cur.gauges.get(k).copied().unwrap_or(f64::NAN);
    let c = |k: &str| cur.counters.get(k).copied().unwrap_or(0.0);
    out.push_str(&format!(
        "pit_top — {target}   clock {:.2}s   run {}\n",
        g("pit_hub_clock_seconds"),
        if g("pit_hub_run_complete") >= 1.0 {
            "complete"
        } else {
            "in flight"
        },
    ));
    out.push_str(&format!(
        "throughput {:.0} tok/s   kv occupancy {:.0}% (peak {:.0}%)   queue depth {:.0}\n",
        throughput(prev, cur),
        100.0 * g("pit_hub_kv_occupancy"),
        100.0 * g("pit_hub_kv_occupancy_peak"),
        g("pit_hub_admission_queue_depth").max(0.0),
    ));
    out.push_str(&format!(
        "admitted {:.0}   finished {:.0}   rejected {:.0}   preemptions {:.0}   steps {:.0}\n",
        c("pit_hub_admitted_total"),
        c("pit_hub_finished_total"),
        c("pit_hub_rejected_total"),
        c("pit_hub_preemptions_total"),
        c("pit_hub_steps_total"),
    ));
    if g("pit_hub_ttft_attainment").is_finite() {
        out.push_str(&format!(
            "slo: ttft attainment {:.1}%   itl attainment {:.1}%   worst-window burn {:.2}\n",
            100.0 * g("pit_hub_ttft_attainment"),
            100.0 * g("pit_hub_itl_attainment"),
            g("pit_hub_worst_window_burn_rate"),
        ));
    }

    if !cur.summaries.is_empty() {
        let mut t = Table::new(&[
            ("latency", Align::Left),
            ("count", Align::Right),
            ("p50_ms", Align::Right),
            ("p95_ms", Align::Right),
            ("p99_ms", Align::Right),
        ]);
        for (name, count, p50, p95, p99) in &cur.summaries {
            t.row(vec![
                name.clone(),
                format!("{count:.0}"),
                format!("{p50:.2}"),
                format!("{p95:.2}"),
                format!("{p99:.2}"),
            ]);
        }
        out.push('\n');
        out.push_str(&t.render("  "));
    }

    for (label, key) in [("ttft p95", "ttft_p95_s"), ("itl p95", "itl_p95_s")] {
        let strip = sparkline(&series_values(series, key));
        if !strip.is_empty() {
            out.push_str(&format!("  {label:<9} {strip}\n"));
        }
    }

    for (label, pool) in [("top waits", &cur.waits), ("top blame", &cur.blame)] {
        if pool.is_empty() {
            continue;
        }
        let total: f64 = pool.iter().map(|(_, s)| s).sum();
        let mut t = Table::new(&[
            ("cause", Align::Left),
            ("seconds", Align::Right),
            ("share", Align::Right),
        ]);
        for (cause, s) in pool.iter().take(5) {
            let share = if total > 0.0 {
                format!("{:.1}%", 100.0 * s / total)
            } else {
                "-".to_string()
            };
            t.row(vec![cause.clone(), format!("{s:.4}"), share]);
        }
        out.push_str(&format!("\n  {label}:\n"));
        out.push_str(&t.render("    "));
    }

    let alarms = alarm_lines(slo);
    out.push('\n');
    if alarms.is_empty() {
        out.push_str("  alarms: none firing\n");
    } else {
        out.push_str(&format!("  alarms firing ({}):\n", alarms.len()));
        for a in &alarms {
            out.push_str(&format!("    ! {a}\n"));
        }
    }
    out
}

fn run(target: &str, frames: usize, interval: Duration, clear: bool) -> Result<(), String> {
    let mut prev: Option<Snapshot> = None;
    for frame in 0..frames {
        let metrics = http_get(target, "/metrics")?;
        let expo = parse_exposition(&metrics).map_err(|e| format!("/metrics: {e}"))?;
        let series =
            JsonValue::parse(&http_get(target, "/series")?).map_err(|e| format!("/series: {e}"))?;
        let slo = JsonValue::parse(&http_get(target, "/slo")?).map_err(|e| format!("/slo: {e}"))?;
        let cur = snapshot_from(&expo);
        if clear {
            // Clear screen and home the cursor between redraws.
            print!("\x1b[2J\x1b[H");
        }
        print!(
            "{}",
            render_frame(target, prev.as_ref(), &cur, &series, &slo)
        );
        std::io::stdout()
            .flush()
            .map_err(|e| format!("stdout: {e}"))?;
        prev = Some(cur);
        if frame + 1 < frames {
            std::thread::sleep(interval);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target = None;
    let mut frames = usize::MAX;
    let mut interval = Duration::from_millis(1000);
    let mut clear = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--once" => {
                frames = 1;
                clear = false;
            }
            "--frames" => {
                i += 1;
                frames = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--frames wants a number");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--interval-ms" => {
                i += 1;
                interval = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(ms) => Duration::from_millis(ms),
                    None => {
                        eprintln!("--interval-ms wants a number");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(target) = target else {
        eprintln!(
            "usage: pit_top <host:port | http://host:port> [--once] [--frames N] [--interval-ms N]"
        );
        return ExitCode::FAILURE;
    };
    let target = match parse_target(&target) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&target, frames, interval, clear) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pit_top: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_trace::{HubConfig, MetricsHub, ScrapeServer, TraceEvent};
    use std::sync::Arc;

    #[test]
    fn parse_target_normalizes() {
        assert_eq!(parse_target("http://1.2.3.4:9/").unwrap(), "1.2.3.4:9");
        assert_eq!(parse_target(":9100").unwrap(), "127.0.0.1:9100");
        assert_eq!(parse_target("h:1").unwrap(), "h:1");
        assert!(parse_target("no-port").is_err());
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert_eq!(s.chars().next_back(), Some('█'));
        assert_eq!(s.chars().next(), Some('▁'));
    }

    #[test]
    fn dashboard_renders_from_live_endpoint() {
        let hub = Arc::new(MetricsHub::new(HubConfig::default()));
        hub.on_record(0.05, 7, &TraceEvent::Admitted { arrival_s: 0.0 });
        hub.on_record(0.20, 7, &TraceEvent::FirstToken);
        hub.on_record(
            0.25,
            pit_trace::DEVICE_LANE,
            &TraceEvent::Step {
                prefill_rows: 64,
                decode_slots: 8,
                gpu_s: 0.2,
            },
        );
        hub.on_record(0.30, 7, &TraceEvent::Finished);
        let server = ScrapeServer::bind(hub, "127.0.0.1:0").expect("bind");
        let target = server.local_addr().to_string();

        let metrics = http_get(&target, "/metrics").expect("metrics");
        let expo = parse_exposition(&metrics).expect("parses");
        let cur = snapshot_from(&expo);
        let series =
            JsonValue::parse(&http_get(&target, "/series").expect("series")).expect("json");
        let slo = JsonValue::parse(&http_get(&target, "/slo").expect("slo")).expect("json");
        let frame = render_frame(&target, None, &cur, &series, &slo);
        assert!(frame.contains("throughput"), "{frame}");
        assert!(frame.contains("finished 1"), "{frame}");
        assert!(frame.contains("pit_hub_ttft_seconds"), "{frame}");
        assert!(frame.contains("alarms"), "{frame}");
        server.shutdown();
    }
}
