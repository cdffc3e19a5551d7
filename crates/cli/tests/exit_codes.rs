//! Integration tests for the CLI exit-code contract, driving the real
//! `grimp` binary: configuration errors exit 2, malformed input data 3,
//! IO failures 4 — each with a single-line `error: …` message on stderr
//! and nothing error-shaped on stdout.

use std::process::Command;

fn grimp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_grimp"))
        .args(args)
        .output()
        .expect("grimp binary runs")
}

fn tmpfile(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("grimp-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn stderr_line(out: &std::process::Output) -> String {
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert_eq!(
        stderr.lines().count(),
        1,
        "stderr must be a single line, got: {stderr:?}"
    );
    stderr.trim_end().to_string()
}

#[test]
fn unknown_command_is_a_config_error() {
    let out = grimp(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.starts_with("error: "), "{line}");
    assert!(line.contains("unknown command"), "{line}");
}

#[test]
fn bad_flag_combination_is_a_config_error() {
    let dirty = tmpfile("resume-only.csv", "a,b\nx,1\ny,\n");
    let out = grimp(&["impute", dirty.to_str().unwrap(), "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_line(&out).contains("--resume requires --checkpoint-dir"),
        "wrong message"
    );
}

#[test]
fn malformed_csv_is_a_data_error() {
    let dup = tmpfile("dup-headers.csv", "a,a\n1,2\n");
    let out = grimp(&["stats", dup.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let line = stderr_line(&out);
    assert!(line.starts_with("error: "), "{line}");
    assert!(line.contains("duplicate column name"), "{line}");
}

#[test]
fn ragged_csv_is_a_data_error() {
    let ragged = tmpfile("ragged.csv", "a,b\n1\n");
    let out = grimp(&["stats", ragged.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    assert!(stderr_line(&out).contains("fields"), "wrong message");
}

#[test]
fn missing_input_file_is_an_io_error() {
    let out = grimp(&["stats", "/nonexistent/never/nope.csv"]);
    assert_eq!(out.status.code(), Some(4));
    let line = stderr_line(&out);
    assert!(line.starts_with("error: "), "{line}");
    assert!(line.contains("nope.csv"), "{line}");
}

#[test]
fn unwritable_output_path_is_an_io_error() {
    let out = grimp(&["generate", "MM", "-o", "/nonexistent/never/out.csv"]);
    assert_eq!(out.status.code(), Some(4));
    assert!(stderr_line(&out).starts_with("error: "));
}

#[test]
fn corrupt_rate_outside_zero_one_is_a_config_error() {
    let clean = tmpfile("corrupt-rate.csv", "a,b\nx,1\ny,2\n");
    for rate in ["1.5", "NaN", "-0.1"] {
        let out = grimp(&["corrupt", clean.to_str().unwrap(), "--rate", rate]);
        assert_eq!(out.status.code(), Some(2), "--rate {rate}: {out:?}");
        let line = stderr_line(&out);
        assert!(line.starts_with("error: "), "{line}");
        assert!(
            line.contains("--rate must be a fraction in [0, 1]"),
            "{line}"
        );
    }
}

#[test]
fn zero_deadline_is_a_config_error() {
    let dirty = tmpfile("zero-deadline.csv", "a,b\nx,1\ny,\n");
    let out = grimp(&[
        "impute",
        dirty.to_str().unwrap(),
        "--algo",
        "grimp",
        "--deadline",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let line = stderr_line(&out);
    assert!(line.starts_with("error: "), "{line}");
    assert!(
        line.contains("--deadline must be finite and positive"),
        "{line}"
    );
}

#[test]
fn zero_memory_budget_is_a_config_error() {
    let dirty = tmpfile("zero-budget.csv", "a,b\nx,1\ny,\n");
    let out = grimp(&[
        "impute",
        dirty.to_str().unwrap(),
        "--algo",
        "grimp",
        "--memory-budget-mb",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let line = stderr_line(&out);
    assert!(line.starts_with("error: "), "{line}");
    assert!(
        line.contains("--memory-budget-mb must be at least 1"),
        "{line}"
    );
}

#[test]
fn deadline_hit_is_a_distinct_success_code() {
    let dirty = tmpfile("deadline.csv", "a,b\nx,1\ny,\nx,\nz,3\nx,1\ny,2\n");
    let out_path = dirty.with_file_name("deadline-out.csv");
    let out = grimp(&[
        "impute",
        dirty.to_str().unwrap(),
        "--algo",
        "grimp",
        "--deadline",
        "1e-9",
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    assert!(out.stderr.is_empty(), "a governed stop is not an error");
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(stdout.contains("deadline hit at epoch"), "{stdout}");
    // The imputation is complete despite the early stop.
    let written = std::fs::read_to_string(&out_path).unwrap();
    assert!(!written.lines().any(|l| l.split(',').any(str::is_empty)));
}

#[test]
fn held_checkpoint_lock_is_a_busy_error() {
    let dirty = tmpfile("locked.csv", "a,b\nx,1\ny,\n");
    let dir = std::env::temp_dir().join(format!("grimp-exit-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // The lock must name a *live* process — this very test — because a
    // stale lock from a dead PID is reclaimed instead of erroring.
    let live_pid = std::process::id().to_string();
    std::fs::write(dir.join("grimp.lock"), &live_pid).unwrap();
    let out = grimp(&[
        "impute",
        dirty.to_str().unwrap(),
        "--algo",
        "grimp",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(7), "{out:?}");
    let line = stderr_line(&out);
    assert!(line.starts_with("error: "), "{line}");
    assert!(line.contains("locked by another run"), "{line}");
    assert!(line.contains(&live_pid), "owner pid surfaced: {line}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(target_os = "linux")]
#[test]
fn stale_lock_from_a_dead_process_is_reclaimed_by_the_cli() {
    let dirty = tmpfile("stale-locked.csv", "a,b\nx,1\ny,\nx,1\ny,2\n");
    let dir = std::env::temp_dir().join(format!("grimp-exit-stale-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // u32::MAX exceeds the kernel's pid_max, so the recorded holder is
    // provably dead and the run must reclaim the lock and succeed.
    std::fs::write(dir.join("grimp.lock"), u32::MAX.to_string()).unwrap();
    let out = grimp(&[
        "impute",
        dirty.to_str().unwrap(),
        "--algo",
        "grimp",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        !dir.join("grimp.lock").exists(),
        "reclaimed lock released after the run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_batch_rows_is_a_config_error() {
    let dirty = tmpfile("zero-batch.csv", "a,b\nx,1\ny,\n");
    let out = grimp(&[
        "impute",
        dirty.to_str().unwrap(),
        "--algo",
        "grimp",
        "--batch-rows",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let line = stderr_line(&out);
    assert!(line.starts_with("error: "), "{line}");
    assert!(line.contains("batch"), "{line}");
}

#[test]
fn zero_fanout_is_a_config_error() {
    let dirty = tmpfile("zero-fanout.csv", "a,b\nx,1\ny,\n");
    let out = grimp(&[
        "impute",
        dirty.to_str().unwrap(),
        "--algo",
        "grimp",
        "--fanout",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let line = stderr_line(&out);
    assert!(line.starts_with("error: "), "{line}");
    assert!(line.contains("fanout"), "{line}");
}

#[test]
fn sampler_combined_with_resume_is_a_config_error() {
    let dirty = tmpfile("sampler-resume.csv", "a,b\nx,1\ny,\n");
    let dir = std::env::temp_dir().join(format!("grimp-exit-sampler-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = grimp(&[
        "impute",
        dirty.to_str().unwrap(),
        "--algo",
        "grimp",
        "--batch-rows",
        "64",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let line = stderr_line(&out);
    assert!(line.starts_with("error: "), "{line}");
    assert!(line.contains("--resume"), "{line}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampler_flags_are_rejected_for_non_grimp_algorithms() {
    let dirty = tmpfile("sampler-knn.csv", "a,b\nx,1\ny,\n");
    let out = grimp(&[
        "impute",
        dirty.to_str().unwrap(),
        "--algo",
        "knn",
        "--batch-rows",
        "64",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        stderr_line(&out).contains("only supported by the grimp variants"),
        "wrong message"
    );
}

#[test]
fn serve_rejects_sampler_flags_at_startup() {
    let train = tmpfile("serve-sampler.csv", "a,b\nx,1\ny,2\n");
    let dir = std::env::temp_dir().join(format!("grimp-exit-serve-smpl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for flag in ["--batch-rows", "--fanout"] {
        let out = grimp(&[
            "serve",
            train.to_str().unwrap(),
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            flag,
            "64",
        ]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let line = stderr_line(&out);
        assert!(line.starts_with("error: "), "{line}");
        assert!(line.contains("training-time option"), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn success_leaves_stderr_empty() {
    let clean = tmpfile("ok.csv", "a,b\nx,1\ny,2\nx,1\n");
    let out = grimp(&["stats", clean.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty(), "stderr not empty");
}
