//! The figure/table regeneration harness and the BENCH gate.
//!
//! ```text
//! cargo run --release -p vedliot-bench --bin harness -- <experiment>
//! cargo run --release -p vedliot-bench --bin harness -- gate <baseline.json> <fresh.json>
//! ```
//!
//! The experiment names are the entries of `experiments::BY_NAME`
//! (DESIGN.md §3), or `all`. A single experiment that carries a snapshot
//! also writes it as JSON to `BENCH_OUT`, or to its checked-in
//! `BENCH_pr*.json` name in the current directory; `all` writes none.
//! `gate` holds a fresh snapshot to its baseline by the rules in
//! `gate::RULES` and exits non-zero if any check fails.

use std::process::exit;
use vedliot_bench::experiments::{self, Experiment, BY_NAME};
use vedliot_bench::gate;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("all", String::as_str);
    let run = match name {
        "gate" => return gate(&args[1..]),
        "all" => experiments::all,
        _ => match BY_NAME.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => *run,
            None => usage(&format!("unknown experiment '{name}'")),
        },
    };
    let experiments = run();
    if let [Experiment {
        snapshot: Some((file, export)),
        ..
    }] = experiments.as_slice()
    {
        let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| (*file).into());
        std::fs::write(&path, export.to_json()).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            exit(1);
        });
        eprintln!("wrote {} snapshot to {path}", export.subsystem);
    }
    for experiment in experiments {
        println!("{experiment}");
    }
}

fn gate(paths: &[String]) {
    let [baseline, fresh] = paths else {
        usage("gate takes exactly two paths")
    };
    let read = |path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            exit(2);
        })
    };
    match gate::gate(&read(baseline), &read(fresh)) {
        Ok(report) => print!("{report}"),
        Err(report) => {
            eprintln!("{}", report.trim_end());
            eprintln!("ERROR: {fresh} failed the gate against {baseline}");
            exit(1);
        }
    }
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = BY_NAME.iter().map(|(name, _)| *name).collect();
    eprintln!("{problem}");
    eprintln!(
        "choose one of: {} all, or gate <baseline.json> <fresh.json>",
        names.join(" ")
    );
    exit(2);
}
