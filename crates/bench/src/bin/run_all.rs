//! Runs the figure/table regenerators and writes each result under
//! `results/`.
//!
//! `run_all` runs every regenerator; `run_all NAME…` (e.g. `run_all fig08
//! fig19`) runs only the named ones. An unknown name exits non-zero,
//! before anything runs, and lists the valid names.
use std::fs;
use std::path::Path;
use std::process::ExitCode;

/// A named figure/table regenerator returning its rendered text.
type Regenerator = (&'static str, fn() -> String);

const ALL: &[Regenerator] = &[
    ("fig03a", pit_bench::figures::fig03a),
    ("fig03b", pit_bench::figures::fig03b),
    ("fig08", pit_bench::figures::fig08),
    ("fig09", pit_bench::figures::fig09),
    ("fig10", pit_bench::figures::fig10),
    ("fig11", pit_bench::figures::fig11),
    ("fig12", pit_bench::figures::fig12),
    ("fig13", pit_bench::figures::fig13),
    ("fig14", pit_bench::figures::fig14),
    ("fig15", pit_bench::figures::fig15),
    ("fig16", pit_bench::figures::fig16),
    ("fig17", pit_bench::figures::fig17),
    ("fig18", pit_bench::figures::fig18),
    ("fig19", pit_bench::figures::fig19),
    ("fig20", pit_bench::figures::fig20),
    ("table3", pit_bench::figures::table3),
    ("detector_wallclock", pit_bench::figures::detector_wallclock),
];

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut selected: Vec<&Regenerator> = Vec::new();
    for name in &names {
        match ALL.iter().find(|(n, _)| n == name) {
            Some(r) => selected.push(r),
            None => {
                let valid: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
                eprintln!(
                    "run_all: unknown regenerator `{name}`; valid names: {}",
                    valid.join(" ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if names.is_empty() {
        selected = ALL.iter().collect();
    }

    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results dir");
    for (name, f) in selected {
        let rendered = f();
        println!("{rendered}");
        fs::write(out_dir.join(format!("{name}.txt")), &rendered).expect("write result");
        eprintln!("wrote results/{name}.txt");
    }
    ExitCode::SUCCESS
}
