//! Benchmark harness: one regenerator per paper figure/table.
//!
//! Every function in [`figures`] recomputes the rows/series of one figure
//! or table from the paper's evaluation (§5) and renders them as a text
//! table. The `run_all` binary runs them and writes each under
//! `results/`: all of them, or only those it is given by name
//! (`cargo run --release -p pit_bench --bin run_all -- fig08`).
//!
//! Absolute numbers come from the analytical device model (`pit_gpusim`)
//! — the reproduction targets the *shape* of each result: orderings,
//! rough factors and crossover locations. The committed output of every
//! modelled figure is in `bench/baselines/figures/`.

pub mod figures;
pub mod table;

pub use table::Table;
