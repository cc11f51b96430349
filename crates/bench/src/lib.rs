//! Experiment library for the VEDLIoT reproduction.
//!
//! Every figure and quantitative claim of the paper maps to one function
//! in [`experiments`] (see DESIGN.md §3 for the index). The `harness`
//! binary prints them as tables and, through [`gate`], holds the
//! checked-in `BENCH_*.json` snapshots to their rules; the Criterion
//! benches in `benches/` measure the substrates themselves;
//! EXPERIMENTS.md records paper-vs-measured values produced by
//! `harness all`.

pub mod experiments;
pub mod gate;
pub mod table;
