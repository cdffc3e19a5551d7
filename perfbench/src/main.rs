//! The repository benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit_sampled --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Generates the workload's inputs from `--seed`, drives the public API of
//! the workspace crates, checks every output, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`), each with
//! its unit. The traced run also writes its spans and layer self-time
//! table under `.bench_out/`. See `perfbench/README.md`.

mod fit;
mod input;
mod layers;
mod report;
mod serve;

use std::path::Path;
use std::time::Instant;

use report::{cpu_ticks, steal_pct, RunResult, Spans, END_TO_END, PER_LAYER};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The workloads: `BENCHMARK.json` lists the first two. fit_full and
/// serve_impute are the contrasts the traced run compares them with: the
/// paper's dense fit, and reads without writes.
const WORKLOADS: &[&str] = &["fit_sampled", "serve_append", "fit_full", "serve_impute"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {}", WORKLOADS.join(", ")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Write the traced run's spans and layer table under `.bench_out/`.
pub fn write_trace(args: &Args, spans: &Spans, layers: &str) {
    eprint!("{layers}");
    let dir = Path::new(".bench_out");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans.to_jsonl()))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.txt")), layers));
    if let Err(e) = written {
        eprintln!("could not write the trace under {}: {e}", dir.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let ticks = cpu_ticks();
    let mut out = RunResult::default();
    match args.workload.as_str() {
        "fit_full" => fit::run(
            &fit::FitWorkload {
                config: fit::full_config(),
                input: input::adult,
                nominal_unit_s: 3.75,
            },
            &args,
            &mut out,
        ),
        "fit_sampled" => fit::run(
            &fit::FitWorkload {
                config: fit::sampled_config(),
                input: input::large,
                nominal_unit_s: 5.0,
            },
            &args,
            &mut out,
        ),
        serving => {
            let work = Path::new(".bench_work").join(format!("{serving}-{}", std::process::id()));
            std::fs::create_dir_all(&work).expect("create the work directory");
            let w = serve::ServeWorkload {
                appends: serving == "serve_append",
            };
            serve::run(&w, &args, &work, &mut out);
            let _ = std::fs::remove_dir_all(&work);
        }
    }
    let steal = steal_pct(ticks, cpu_ticks());
    out.set("env.steal_pct", steal);
    eprintln!("env.steal_pct = {steal:.3}");
    eprintln!(
        "{} seed {}: {} operations, {} failed, {:.1} s",
        args.workload,
        args.seed,
        out.attempted,
        out.failed,
        started.elapsed().as_secs_f64()
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", out.json_line(table));
}
