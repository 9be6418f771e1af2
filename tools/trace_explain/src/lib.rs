//! Explains where a serving run's time went.
//!
//! The library behind the `trace_explain` binary, also reused by
//! `pit_top` for its table rendering and its exposition readers
//! ([`CauseSeconds`], [`summary_quantile`], [`summary_count`]). Three
//! input shapes are understood:
//!
//! - Chrome `TRACE_*.json` exports (top-level JSON array) — per-request
//!   cause seconds are re-derived from the rendered gap segments, the
//!   same exact-tiling discipline as `pit_trace::blame`;
//! - `BENCH_*.json` reports (top-level object) — every embedded `blame`
//!   summary is printed as a cause table straight from the report;
//! - `METRICS_*.prom` Prometheus text expositions (as written by the
//!   examples and served by `pit_trace::ScrapeServer` at `/metrics`) —
//!   latency summaries and the `pit_blame_*` / `pit_hub_wait_*` cause
//!   counters are printed as ranked tables via [`pit_trace::parse_exposition`].

use pit_trace::{parse_exposition, Exposition, JsonValue, MetricFamily, MetricKind};
use std::collections::BTreeMap;

/// The latency percentiles each table reports, highest last.
pub const PERCENTILES: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 1.00];

/// Column alignment inside a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    Left,
    Right,
}

/// A minimal fixed-width text table: headers, alignment per column,
/// rows of strings. Widths are computed from the content, so the same
/// renderer serves `trace_explain`'s cause tables and `pit_top`'s live
/// dashboard panes.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with one `(header, alignment)` pair per column.
    pub fn new(columns: &[(&str, Align)]) -> Self {
        Table {
            headers: columns.iter().map(|(h, _)| h.to_string()).collect(),
            aligns: columns.iter().map(|&(_, a)| a).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; missing cells render empty, extras are dropped.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table, prefixing every line with `indent`.
    pub fn render(&self, indent: &str) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(cols).enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let empty = String::new();
        let line = |cells: &[String], out: &mut String| {
            out.push_str(indent);
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).unwrap_or(&empty);
                let pad = width.saturating_sub(cell.chars().count());
                if i > 0 {
                    out.push_str("  ");
                }
                match self.aligns[i] {
                    Align::Left => {
                        out.push_str(cell);
                        // No trailing pad on the last column.
                        if i + 1 < cols {
                            out.extend(std::iter::repeat_n(' ', pad));
                        }
                    }
                    Align::Right => {
                        out.extend(std::iter::repeat_n(' ', pad));
                        out.push_str(cell);
                    }
                }
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

fn field<'a>(obj: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// One sequence lane reconstructed from a Chrome trace: per-cause
/// seconds (gap segments) summing exactly to its end-to-end span.
#[derive(Default)]
struct Lane {
    by_cause: BTreeMap<String, f64>,
}

impl Lane {
    fn e2e_s(&self) -> f64 {
        self.by_cause.values().sum()
    }
}

/// Nearest-rank quantile of an ascending-sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Prints one percentile × top-cause table from per-request cause maps.
/// Each row aggregates the requests at or above that percentile's
/// latency — the population whose tail the row explains.
fn print_cause_table(label: &str, lanes: &[Lane]) {
    let mut e2es: Vec<f64> = lanes.iter().map(Lane::e2e_s).collect();
    e2es.sort_by(f64::total_cmp);
    println!("  {label} ({} requests):", lanes.len());
    println!(
        "    {:<6} {:>10}  {:<24} {:>6}  {:<24} {:>6}",
        "pct", "e2e_ms", "top cause", "share", "runner-up", "share"
    );
    for &q in &PERCENTILES {
        let cut = quantile(&e2es, q);
        let mut tail: BTreeMap<&str, f64> = BTreeMap::new();
        let mut total = 0.0;
        for lane in lanes.iter().filter(|l| l.e2e_s() >= cut) {
            for (cause, &s) in &lane.by_cause {
                *tail.entry(cause.as_str()).or_default() += s;
                total += s;
            }
        }
        // Deterministic order: seconds descending, then name.
        let mut ranked: Vec<(&str, f64)> = tail.into_iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        let share = |s: f64| {
            if total > 0.0 {
                format!("{:>5.1}%", 100.0 * s / total)
            } else {
                "    -".to_string()
            }
        };
        let top = ranked.first().copied().unwrap_or(("-", 0.0));
        let second = ranked.get(1).copied().unwrap_or(("-", 0.0));
        let pct = if q >= 1.0 {
            "max".to_string()
        } else {
            format!("p{:.0}", q * 100.0)
        };
        println!(
            "    {:<6} {:>10.2}  {:<24} {:>6}  {:<24} {:>6}",
            pct,
            cut * 1e3,
            top.0,
            share(top.1),
            second.0,
            share(second.1),
        );
    }
}

/// Explains a Chrome `TRACE_*.json` array: rebuilds each sequence
/// lane's per-cause seconds from its gap segments (pid 1, tids past the
/// fixed device/link lanes; exemplar lanes on other pids are the same
/// requests re-rendered, so they are skipped).
fn explain_trace(path: &str, events: &[JsonValue]) -> Result<(), String> {
    const TID_SEQ_BASE: f64 = 3.0;
    let mut lanes: BTreeMap<u64, Lane> = BTreeMap::new();
    let mut steps = 0usize;
    let mut device_s = 0.0_f64;
    for ev in events {
        let obj = ev.as_object().ok_or("event is not an object")?;
        let ph = field(obj, "ph").and_then(JsonValue::as_str).unwrap_or("");
        if ph != "X" {
            continue;
        }
        let pid = field(obj, "pid").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let tid = field(obj, "tid").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let name = field(obj, "name").and_then(JsonValue::as_str).unwrap_or("");
        let dur_s = field(obj, "dur").and_then(JsonValue::as_f64).unwrap_or(0.0) / 1e6;
        if pid != 1.0 {
            continue;
        }
        if tid == 0.0 && name == "step" {
            steps += 1;
            device_s += dur_s;
            continue;
        }
        if tid < TID_SEQ_BASE {
            continue; // link lanes: transfers, not request wait time
        }
        *lanes
            .entry(tid as u64)
            .or_default()
            .by_cause
            .entry(name.to_string())
            .or_default() += dur_s;
    }
    if lanes.is_empty() {
        return Err("no sequence-lane segments found".to_string());
    }
    println!(
        "{path}: {} requests, {steps} device steps ({:.1} ms busy)",
        lanes.len(),
        device_s * 1e3
    );
    let lanes: Vec<Lane> = lanes.into_values().collect();
    print_cause_table("e2e by percentile", &lanes);
    Ok(())
}

/// Recursively collects every `blame` summary object in a report,
/// remembering the dotted path it sits at.
fn find_blame<'a>(
    prefix: &str,
    v: &'a JsonValue,
    out: &mut Vec<(String, &'a [(String, JsonValue)])>,
) {
    if let Some(obj) = v.as_object() {
        for (k, child) in obj {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            if k == "blame" {
                if let Some(b) = child.as_object() {
                    if field(b, "causes").is_some() {
                        out.push((path.clone(), b));
                    }
                }
            }
            find_blame(&path, child, out);
        }
    } else if let Some(arr) = v.as_array() {
        for (i, child) in arr.iter().enumerate() {
            find_blame(&format!("{prefix}[{i}]"), child, out);
        }
    }
}

/// Explains a `BENCH_*.json` report: prints each embedded blame
/// summary's cause table (shares and sketch percentiles straight from
/// the report — no re-derivation).
fn explain_report(path: &str, root: &JsonValue) -> Result<(), String> {
    let mut blames = Vec::new();
    find_blame("", root, &mut blames);
    if blames.is_empty() {
        return Err("no blame summaries found (run with tracing enabled)".to_string());
    }
    println!(
        "{path}: {} blame summar{}",
        blames.len(),
        if blames.len() == 1 { "y" } else { "ies" }
    );
    for (at, b) in blames {
        let requests = field(b, "requests")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let e2e_total = field(b, "e2e_total_s")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        println!(
            "  {at}: {requests:.0} finished, {:.1} ms total end-to-end",
            e2e_total * 1e3
        );
        println!(
            "    {:<24} {:>6} {:>6}  {:>10} {:>10} {:>10}",
            "cause", "e2e%", "ttft%", "p50_ms", "p95_ms", "p99_ms"
        );
        let causes = field(b, "causes")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[]);
        for c in causes {
            let Some(c) = c.as_object() else { continue };
            let get = |k: &str| field(c, k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            println!(
                "    {:<24} {:>5.1}% {:>5.1}%  {:>10.2} {:>10.2} {:>10.2}",
                field(c, "cause").and_then(JsonValue::as_str).unwrap_or("?"),
                100.0 * get("e2e_share"),
                100.0 * get("ttft_share"),
                get("p50_s") * 1e3,
                get("p95_s") * 1e3,
                get("p99_s") * 1e3,
            );
        }
    }
    Ok(())
}

/// Strips a known cause-counter wrapping from a family name:
/// `pit_blame_decode_execute_seconds_total` → `decode_execute`.
fn blame_cause_name(family: &str) -> Option<&str> {
    family
        .strip_prefix("pit_blame_")?
        .strip_suffix("_seconds_total")
}

/// The cause seconds an exposition's counters carry, in the two
/// conventions the workspace writes them in. Each pool is ranked by
/// seconds descending, then by name, the order every cause table prints.
#[derive(Debug, Default)]
pub struct CauseSeconds {
    /// `(cause, seconds)` per `pit_blame_<cause>_seconds_total` family,
    /// summed over its samples.
    pub blame: Vec<(String, f64)>,
    /// `(cause, seconds)` per sample of `pit_hub_wait_seconds_total`,
    /// named by its `cause` label (`?` when it has none).
    pub waits: Vec<(String, f64)>,
}

impl CauseSeconds {
    /// Reads both pools from `expo`'s counter families.
    pub fn read(expo: &Exposition) -> Self {
        let mut causes = CauseSeconds::default();
        for fam in expo.families() {
            if fam.kind != MetricKind::Counter {
                continue;
            }
            if let Some(cause) = blame_cause_name(&fam.name) {
                let total: f64 = fam.samples.iter().map(|s| s.value).sum();
                causes.blame.push((cause.to_string(), total));
            } else if fam.name == "pit_hub_wait_seconds_total" {
                for s in &fam.samples {
                    let cause = s
                        .labels
                        .iter()
                        .find(|(k, _)| k == "cause")
                        .map_or("?", |(_, v)| v.as_str());
                    causes.waits.push((cause.to_string(), s.value));
                }
            }
        }
        for pool in [&mut causes.blame, &mut causes.waits] {
            pool.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        causes
    }
}

/// A summary family's `{quantile="<quantile>"}` sample, as written
/// (seconds for the latency summaries).
pub fn summary_quantile(fam: &MetricFamily, quantile: &str) -> Option<f64> {
    fam.samples
        .iter()
        .find(|s| {
            s.suffix.is_empty()
                && s.labels
                    .iter()
                    .any(|(k, v)| k == "quantile" && v == quantile)
        })
        .map(|s| s.value)
}

/// A summary family's `_count` sample.
pub fn summary_count(fam: &MetricFamily) -> Option<f64> {
    fam.samples
        .iter()
        .find(|s| s.suffix == "_count")
        .map(|s| s.value)
}

/// Explains a Prometheus text exposition (`METRICS_*.prom` file or a
/// `/metrics` scrape body): latency summaries as percentile rows, then
/// the blame-cause and wait-cause counters ranked by seconds.
fn explain_exposition(path: &str, text: &str) -> Result<(), String> {
    let expo = parse_exposition(text)?;
    println!("{path}: {} metric families", expo.families().len());

    let mut latency = Table::new(&[
        ("summary", Align::Left),
        ("count", Align::Right),
        ("p50_ms", Align::Right),
        ("p90_ms", Align::Right),
        ("p95_ms", Align::Right),
        ("p99_ms", Align::Right),
    ]);
    let summaries = expo
        .families()
        .iter()
        .filter(|f| f.kind == MetricKind::Summary);
    for fam in summaries {
        let ms = |quantile: &str| {
            summary_quantile(fam, quantile)
                .map_or_else(|| "-".to_string(), |s| format!("{:.2}", s * 1e3))
        };
        let count = summary_count(fam).map_or_else(|| "-".to_string(), |c| format!("{c:.0}"));
        latency.row(vec![
            fam.name.clone(),
            count,
            ms("0.5"),
            ms("0.9"),
            ms("0.95"),
            ms("0.99"),
        ]);
    }

    if !latency.is_empty() {
        println!("  latency summaries:");
        print!("{}", latency.render("    "));
    }
    let causes = CauseSeconds::read(&expo);
    for (label, pool) in [
        ("blame summary", causes.blame),
        ("wait causes", causes.waits),
    ] {
        if pool.is_empty() {
            continue;
        }
        let total: f64 = pool.iter().map(|(_, s)| s).sum();
        let mut t = Table::new(&[
            ("cause", Align::Left),
            ("seconds", Align::Right),
            ("share", Align::Right),
        ]);
        for (cause, s) in &pool {
            let share = if total > 0.0 {
                format!("{:.1}%", 100.0 * s / total)
            } else {
                "-".to_string()
            };
            t.row(vec![cause.clone(), format!("{s:.4}"), share]);
        }
        println!("  {label} ({} causes, top cause first):", pool.len());
        print!("{}", t.render("    "));
    }
    if latency.is_empty() {
        // Counter-only expositions still explain something; an empty
        // exposition does not.
        if expo.families().is_empty() {
            return Err("exposition carries no families".to_string());
        }
    }
    Ok(())
}

/// Explains one file, dispatching on its content: JSON array → Chrome
/// trace, JSON object → report, otherwise a Prometheus exposition.
pub fn explain(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    match JsonValue::parse(&text) {
        Ok(root) => match root.as_array() {
            Some(events) => explain_trace(path, events),
            None => explain_report(path, &root),
        },
        Err(json_err) => explain_exposition(path, &text).map_err(|expo_err| {
            format!("neither JSON ({json_err}) nor Prometheus exposition ({expo_err})")
        }),
    }
}

/// Validates one file without printing tables: JSON must parse, or the
/// content must round-trip through [`pit_trace::parse_exposition`].
/// Prints a one-line `<path>: ok (...)` verdict on success — the CI
/// smoke job points this at live scrape payloads.
pub fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    match JsonValue::parse(&text) {
        Ok(root) => {
            let shape = if root.as_array().is_some() {
                "json array"
            } else {
                "json"
            };
            println!("{path}: ok ({shape})");
            Ok(())
        }
        Err(json_err) => match parse_exposition(&text) {
            Ok(expo) => {
                if expo.render() != text {
                    return Err("exposition does not round-trip through the parser".to_string());
                }
                println!(
                    "{path}: ok (exposition, {} families)",
                    expo.families().len()
                );
                Ok(())
            }
            Err(expo_err) => Err(format!(
                "neither JSON ({json_err}) nor Prometheus exposition ({expo_err})"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&[("name", Align::Left), ("value", Align::Right)]);
        t.row(vec!["a-long-name".to_string(), "1.5".to_string()]);
        t.row(vec!["b".to_string(), "42".to_string()]);
        let s = t.render("  ");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("  name"));
        assert!(lines[1].ends_with("1.5"));
        assert!(lines[2].ends_with(" 42"));
        // Right-aligned column: all lines end at the same width.
        let w: Vec<usize> = lines.iter().map(|l| l.chars().count()).collect();
        assert_eq!(w[0], w[1]);
        assert_eq!(w[1], w[2]);
    }

    #[test]
    fn exposition_text_is_explained() {
        let mut e = pit_trace::Exposition::new();
        e.counter("pit_blame_decode_execute_seconds_total", "h", 3.5);
        e.counter("pit_blame_queue_behind_admission_seconds_total", "h", 1.5);
        let mut sk = pit_trace::LatencySketch::new();
        for i in 1..=100 {
            sk.record(i as f64 / 1000.0);
        }
        e.summary("pit_ttft_seconds", "h", &sk, &[0.5, 0.9, 0.95, 0.99]);
        let dir = std::env::temp_dir().join("trace_explain_test_prom");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("METRICS_t.prom");
        std::fs::write(&path, e.render()).expect("write");
        let p = path.to_str().expect("utf8 path");
        explain(p).expect("explains exposition");
        check(p).expect("checks exposition");
    }

    #[test]
    fn exposition_readers_rank_causes_and_read_summaries() {
        let mut e = Exposition::new();
        e.counter("pit_blame_queue_behind_admission_seconds_total", "h", 1.5);
        e.counter("pit_blame_decode_execute_seconds_total", "h", 3.5);
        e.counter("pit_blame_kv_pool_full_seconds_total", "h", 1.5);
        let wait = |cause: &str, value| pit_trace::Sample {
            suffix: String::new(),
            labels: vec![("cause".to_string(), cause.to_string())],
            value,
        };
        let waits = vec![wait("kv_pool", 0.5), wait("max_live", 2.0)];
        e.family(
            "pit_hub_wait_seconds_total",
            "h",
            MetricKind::Counter,
            waits,
        );
        let mut sk = pit_trace::LatencySketch::new();
        for i in 1..=100 {
            sk.record(i as f64 / 1000.0);
        }
        e.summary("pit_ttft_seconds", "h", &sk, &[0.5]);
        let owned = |pairs: &[(&str, f64)]| -> Vec<(String, f64)> {
            pairs.iter().map(|&(c, s)| (c.to_string(), s)).collect()
        };
        let causes = CauseSeconds::read(&e);
        assert_eq!(
            causes.blame,
            owned(&[
                ("decode_execute", 3.5),
                ("kv_pool_full", 1.5),
                ("queue_behind_admission", 1.5)
            ])
        );
        assert_eq!(causes.waits, owned(&[("max_live", 2.0), ("kv_pool", 0.5)]));
        let ttft = &e.families()[e.families().len() - 1];
        assert_eq!(summary_count(ttft), Some(100.0));
        assert!(summary_quantile(ttft, "0.5").is_some_and(|s| (s - 0.05).abs() < 0.002));
        assert_eq!(summary_quantile(ttft, "0.9"), None);
    }

    #[test]
    fn check_rejects_garbage() {
        let dir = std::env::temp_dir().join("trace_explain_test_bad");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("garbage.txt");
        std::fs::write(&path, "not json\nnot exposition either {{{").expect("write");
        assert!(check(path.to_str().expect("utf8 path")).is_err());
    }
}
