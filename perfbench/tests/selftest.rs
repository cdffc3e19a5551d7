//! Self-test of the benchmark: determinism per seed, output checks on a
//! second seed, and the metric names `BENCHMARK.json` lists. Runs every
//! workload briefly, one after another, from the repository root:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use grimp_obs::json::{self, Json};

/// Short runs keep the self-test to a few minutes; the checks do not
/// depend on run length.
const SECONDS: &str = "3";
const SEED: &str = "11";
const OTHER_SEED: &str = "12";

/// Counts that must repeat exactly across runs with the same seed.
const EXACT_COUNTS: &[&str] = &[
    "graph.nodes",
    "graph.edges",
    "graph.sampled_edges",
    "tensor.allocs_after_epoch1",
    "core.checkpoint_bytes",
    "core.append.finetune_epochs",
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
}

fn benchmark() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(bench: &Json, key: &str) -> Vec<String> {
    bench
        .get(key)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// Run one workload and return its result line, checked for shape.
fn run(workload: &str, seed: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_grimp-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", seed])
        .args(["--seconds", SECONDS, "--trace", trace])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {last}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}: {last}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn every_workload_is_deterministic_checked_and_named_as_listed() {
    let bench = benchmark();
    let end_to_end = names(&bench, "end_to_end");
    let per_layer = names(&bench, "per_layer");
    for workload in names(&bench, "workloads") {
        let a = run(&workload, SEED, "0");
        let b = run(&workload, SEED, "0");
        assert_eq!(metric_names(&a), end_to_end, "{workload}: end-to-end names");
        for m in ["accuracy", "rmse"] {
            assert_eq!(
                metric(&a, m).to_bits(),
                metric(&b, m).to_bits(),
                "{workload}: {m} differs between two runs of seed {SEED}"
            );
        }

        let ta = run(&workload, SEED, "1");
        let tb = run(&workload, SEED, "1");
        assert_eq!(metric_names(&ta), per_layer, "{workload}: per-layer names");
        for m in EXACT_COUNTS {
            assert_eq!(
                metric(&ta, m),
                metric(&tb, m),
                "{workload}: {m} differs between two traced runs of seed {SEED}"
            );
        }

        // `run` asserts every output check passed on the other seed too.
        run(&workload, OTHER_SEED, "0");
    }
}
