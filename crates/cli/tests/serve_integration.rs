//! Integration tests for `grimp serve`, driving the real binary over real
//! sockets: a fitted checkpoint is served over HTTP, overload and socket
//! faults get their contracted statuses, checkpoint rotation hot-reloads,
//! and SIGTERM/SIGINT drain the server onto the right exit codes.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use grimp::{GrimpConfig, Pipeline, TaskKind};
use grimp_graph::FeatureSource;
use grimp_serve::client;

/// Fit a small model into a fresh temp dir; returns the training CSV path
/// and the checkpoint directory the server will watch.
fn fit_checkpoint(name: &str, seed: u64) -> (PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!("grimp-serve-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let csv = "city,country\nParis,France\nRome,Italy\nParis,\nRome,\nParis,France\nMadrid,Spain\nMadrid,\nRome,Italy\n";
    let train_csv = root.join("train.csv");
    std::fs::write(&train_csv, csv).unwrap();
    let ckpt_dir = root.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    fit_into(&train_csv, &ckpt_dir, seed);
    (train_csv, ckpt_dir)
}

/// One quick in-process fit writing `grimp.ckpt` into `dir`.
fn fit_into(train_csv: &Path, dir: &Path, seed: u64) {
    let table =
        grimp_table::csv::read_csv_str(&std::fs::read_to_string(train_csv).unwrap()).unwrap();
    let config = GrimpConfig {
        seed,
        max_epochs: 3,
        patience: 3,
        checkpoint_dir: Some(dir.to_path_buf()),
        ..GrimpConfig::fast()
    };
    Pipeline::new(config).unwrap().fit(&table).unwrap();
}

/// A running `grimp serve` child with its bound address parsed from the
/// announcement line.
struct ServeChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServeChild {
    fn spawn(
        train_csv: &PathBuf,
        ckpt_dir: &PathBuf,
        extra: &[&str],
        env: &[(&str, &str)],
    ) -> ServeChild {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_grimp"));
        cmd.arg("serve")
            .arg(train_csv)
            .arg("--checkpoint-dir")
            .arg(ckpt_dir)
            .args(["--addr", "127.0.0.1:0", "--reload-poll-ms", "50"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("grimp serve spawns");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .strip_prefix("grimp serve listening on ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .split_whitespace()
            .next()
            .unwrap()
            .to_string();
        ServeChild {
            child,
            stdout,
            addr,
        }
    }

    /// Send `sig` (e.g. "TERM"), then collect the exit code and the rest
    /// of stdout.
    fn stop(mut self, sig: &str) -> (i32, String) {
        let pid = self.child.id().to_string();
        Command::new("kill")
            .args([format!("-{sig}"), pid])
            .status()
            .unwrap();
        let mut rest = String::new();
        let mut line = String::new();
        while self.stdout.read_line(&mut line).unwrap_or(0) > 0 {
            rest.push_str(&line);
            line.clear();
        }
        let status = self.child.wait().unwrap();
        (status.code().unwrap_or(-1), rest)
    }
}

/// Poll `f` until it returns true or the deadline passes.
fn wait_for(deadline: Duration, mut f: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

/// A running `grimp serve --supervise` tree. Unlike [`ServeChild`], the
/// supervisor interleaves its own `grimp supervise: …` lines with the
/// child's echoed output, so callers scan for what they need.
struct Supervised {
    child: Child,
    stdout: BufReader<ChildStdout>,
    log: String,
}

impl Supervised {
    fn spawn(
        train_csv: &PathBuf,
        ckpt_dir: &PathBuf,
        extra: &[&str],
        env: &[(&str, &str)],
    ) -> Supervised {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_grimp"));
        cmd.arg("serve")
            .arg(train_csv)
            .arg("--checkpoint-dir")
            .arg(ckpt_dir)
            .args(["--addr", "127.0.0.1:0", "--reload-poll-ms", "50"])
            .args(["--supervise", "--backoff-base-ms", "50"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("grimp serve --supervise spawns");
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Supervised {
            child,
            stdout,
            log: String::new(),
        }
    }

    /// Read (and record) lines until one starts with `prefix`; returns the
    /// remainder of that line. Panics with the log so far on EOF.
    fn scan_for(&mut self, prefix: &str) -> String {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.stdout.read_line(&mut line).unwrap_or(0);
            assert!(
                n > 0,
                "stdout closed while scanning for {prefix:?}; log so far:\n{}",
                self.log
            );
            self.log.push_str(&line);
            if let Some(rest) = line.strip_prefix(prefix) {
                return rest.trim().to_string();
            }
        }
    }

    /// The serve child's pid, from the next supervisor spawn line.
    fn next_child_pid(&mut self) -> i32 {
        let rest = self.scan_for("grimp supervise: child pid ");
        rest.split_whitespace()
            .next()
            .unwrap()
            .parse()
            .expect("pid parses")
    }

    /// The bound address from the next readiness announcement.
    fn next_addr(&mut self) -> String {
        let rest = self.scan_for("grimp serve listening on ");
        rest.split_whitespace().next().unwrap().to_string()
    }

    /// Send `sig` to the *supervisor*, drain stdout, and collect the exit
    /// code plus the full log.
    fn stop(mut self, sig: &str) -> (i32, String) {
        kill(self.child.id() as i32, sig);
        let mut line = String::new();
        while self.stdout.read_line(&mut line).unwrap_or(0) > 0 {
            self.log.push_str(&line);
            line.clear();
        }
        let status = self.child.wait().unwrap();
        (status.code().unwrap_or(-1), self.log)
    }
}

fn kill(pid: i32, sig: &str) {
    Command::new("kill")
        .args([format!("-{sig}"), pid.to_string()])
        .status()
        .unwrap();
}

#[test]
fn supervised_sigterm_drains_the_child_and_exits_0() {
    let (train_csv, ckpt_dir) = fit_checkpoint("sup-term", 11);
    let mut sup = Supervised::spawn(&train_csv, &ckpt_dir, &[], &[]);
    let _pid = sup.next_child_pid();
    let addr = sup.next_addr();

    let resp = client::impute(&addr, "city,country\nParis,\n").unwrap();
    assert_eq!(resp.status, 200, "{resp:?}");

    let (code, log) = sup.stop("TERM");
    assert_eq!(
        code, 0,
        "TERM through the supervisor is a clean stop:\n{log}"
    );
    assert!(log.contains("drained clean"), "child drain echoed:\n{log}");
    assert!(log.contains("child drained"), "supervisor verdict:\n{log}");
}

#[test]
fn supervised_respawn_after_kill9_then_crash_loop_breaker_exits_8() {
    let (train_csv, ckpt_dir) = fit_checkpoint("sup-loop", 12);
    let mut sup = Supervised::spawn(&train_csv, &ckpt_dir, &["--restart-limit", "2"], &[]);

    // First life, then two respawns: each SIGKILLed child is replaced and
    // the replacement actually serves.
    for round in 0..3 {
        let pid = sup.next_child_pid();
        let addr = sup.next_addr();
        let healthy = wait_for(
            Duration::from_secs(10),
            || matches!(client::request(&addr, "GET", "/readyz", b""), Ok(r) if r.status == 200),
        );
        assert!(healthy, "life {round} never became ready:\n{}", sup.log);
        kill(pid, "KILL");
    }

    // The third kill is the third crash inside the window: limit 2 trips
    // the breaker instead of a fourth respawn.
    let mut line = String::new();
    while sup.stdout.read_line(&mut line).unwrap_or(0) > 0 {
        sup.log.push_str(&line);
        line.clear();
    }
    let status = sup.child.wait().unwrap();
    assert_eq!(
        status.code(),
        Some(8),
        "crash-loop breaker has its own exit code:\n{}",
        sup.log
    );
    assert!(
        sup.log.contains("respawn 1/2") && sup.log.contains("respawn 2/2"),
        "both respawns announced:\n{}",
        sup.log
    );
}

#[test]
fn supervised_second_sigterm_escalates_to_143() {
    let (train_csv, ckpt_dir) = fit_checkpoint("sup-esc", 13);
    let mut sup = Supervised::spawn(
        &train_csv,
        &ckpt_dir,
        &["--workers", "1", "--read-timeout-ms", "8000"],
        &[],
    );
    let _pid = sup.next_child_pid();
    let addr = sup.next_addr();

    // Wedge the only worker with a half-sent request so the drain cannot
    // finish before the second signal lands.
    use std::io::Write as _;
    let mut held = std::net::TcpStream::connect(&addr).unwrap();
    held.write_all(b"POST /impute HTTP/1.1\r\nContent-Length: 500\r\n\r\nstuck")
        .unwrap();
    held.flush().unwrap();
    std::thread::sleep(Duration::from_millis(300));

    kill(sup.child.id() as i32, "TERM");
    std::thread::sleep(Duration::from_millis(300));
    let (code, log) = sup.stop("TERM");
    assert_eq!(code, 143, "second TERM hard-exits 143:\n{log}");
}

#[test]
fn supervised_crashpoint_kill_between_wal_publish_and_response_is_idempotent() {
    let (train_csv, ckpt_dir) = fit_checkpoint("sup-cp", 14);
    // Arm a one-shot abort after the append's outcome is journaled but
    // before the served generation swaps — the classic "applied but never
    // acknowledged" crash. The arm file is consumed by the abort, so the
    // respawned child (same environment) runs clean.
    let arm = ckpt_dir.with_file_name("arm");
    std::fs::write(&arm, b"armed").unwrap();
    let mut sup = Supervised::spawn(
        &train_csv,
        &ckpt_dir,
        &["--workers", "1", "--restart-limit", "3"],
        &[(
            "GRIMP_CRASHPOINT",
            &format!("generation-swap@{}", arm.display()),
        )],
    );
    let _pid = sup.next_child_pid();
    let addr = sup.next_addr();
    let delta = b"city,country\nParis,\n,Italy\n";
    let headers: &[(&str, &str)] = &[("Idempotency-Key", "sup-cp-1")];

    // The armed append dies without a response.
    let first = client::request_with_headers(&addr, "POST", "/append", headers, delta);
    assert!(
        first.is_err(),
        "the abort must cut the connection: {first:?}"
    );

    // Supervisor respawns; the same key converges to exactly one
    // application of the rows, answered from the idempotency journal.
    let addr2 = sup.next_addr();
    assert!(!arm.exists(), "the crashpoint consumed its arm file");
    let ready = wait_for(
        Duration::from_secs(20),
        || matches!(client::request(&addr2, "GET", "/readyz", b""), Ok(r) if r.status == 200),
    );
    assert!(ready, "respawned server is ready:\n{}", sup.log);
    let replay = client::request_with_headers(&addr2, "POST", "/append", headers, delta).unwrap();
    assert_eq!(
        replay.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&replay.body)
    );
    assert_eq!(replay.header("Idempotency-Replay"), Some("true"));
    let grown = grimp_table::csv::read_csv_str(std::str::from_utf8(&replay.body).unwrap()).unwrap();
    assert_eq!(grown.n_rows(), 10, "8 base + 2 delta, applied exactly once");
    assert_eq!(grown.n_missing(), 0);

    let (code, log) = sup.stop("TERM");
    assert_eq!(code, 0, "{log}");
}

#[test]
fn serves_http_imputation_and_drains_clean_on_sigterm() {
    let (train_csv, ckpt_dir) = fit_checkpoint("sigterm", 3);
    let trace = ckpt_dir.with_file_name("trace.jsonl");
    let server = ServeChild::spawn(
        &train_csv,
        &ckpt_dir,
        &["--workers", "2", "--trace-out", trace.to_str().unwrap()],
        &[],
    );

    let resp = client::impute(&server.addr, "city,country\nParis,\nMadrid,\n").unwrap();
    assert_eq!(resp.status, 200, "{resp:?}");
    let body = String::from_utf8(resp.body).unwrap();
    let imputed = grimp_table::csv::read_csv_str(&body).unwrap();
    assert_eq!(imputed.n_missing(), 0, "response CSV fully imputed: {body}");

    let health = client::request(&server.addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    let stats = client::request(&server.addr, "GET", "/stats", b"").unwrap();
    assert_eq!(stats.status, 200);
    // Both 200s so far (impute + healthz) count as served.
    let stats_body = String::from_utf8(stats.body).unwrap();
    assert!(stats_body.contains("\"served\":2"), "{stats_body}");

    let (code, rest) = server.stop("TERM");
    assert_eq!(code, 0, "SIGTERM drain is a success: {rest}");
    assert!(rest.contains("drained clean"), "{rest}");

    // The request-scoped trace is parseable JSONL with no torn lines.
    let replay = grimp_obs::read_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    assert!(!replay.events.is_empty(), "trace recorded events");
    assert_eq!(replay.torn_lines, 0, "no torn trace lines");
    let names: Vec<&str> = replay.events.iter().map(|e| e.name).collect();
    for expected in ["request", "request_outcome", "drain_begin", "drain_end"] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
}

/// Byte-for-byte equality of two CSVs, printing both on a mismatch.
fn assert_same_csv(got: &[u8], want: &[u8], what: &str) {
    assert!(
        got == want,
        "{what} disagree:\n{}\nvs\n{}",
        String::from_utf8_lossy(got),
        String::from_utf8_lossy(want)
    );
}

/// The CLI, `grimp serve` and `Pipeline` give one answer for the same
/// evidence. For each grimp variant, `grimp impute` of the training table
/// (which writes the checkpoint), the server's `/impute` of that table
/// (restored from the checkpoint, with the same flags), and an in-process
/// `Pipeline::fit` + `impute` over the documented struct-literal config
/// produce the same CSV bytes.
#[test]
fn cli_serve_and_pipeline_impute_the_training_table_identically() {
    const SEED: u64 = 3;
    let csv = "city,country,pop\nParis,France,2.1\nRome,Italy,2.8\nParis,,2.1\nRome,,\n\
               Paris,France,\nMadrid,Spain,3.3\nMadrid,,3.3\n,Italy,2.8\n";
    let table = grimp_table::csv::read_csv_str(csv).unwrap();
    let variants = [
        ("grimp", GrimpConfig::fast()),
        (
            "grimp-e",
            GrimpConfig {
                features: FeatureSource::Embdi,
                ..GrimpConfig::fast()
            },
        ),
        (
            "grimp-linear",
            GrimpConfig {
                task_kind: TaskKind::Linear,
                ..GrimpConfig::fast()
            },
        ),
    ];
    for (algo, preset) in variants {
        let root = std::env::temp_dir().join(format!(
            "grimp-serve-it-agree-{algo}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let train_csv = root.join("train.csv");
        std::fs::write(&train_csv, csv).unwrap();
        let ckpt_dir = root.join("ckpt");
        let cli_csv = root.join("cli.csv");
        let seed = SEED.to_string();
        let flags = ["--algo", algo, "--seed", seed.as_str()];

        let out = Command::new(env!("CARGO_BIN_EXE_grimp"))
            .arg("impute")
            .arg(&train_csv)
            .args(flags)
            .arg("--checkpoint-dir")
            .arg(&ckpt_dir)
            .arg("-o")
            .arg(&cli_csv)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{algo}: {out:?}");
        let cli = std::fs::read(&cli_csv).unwrap();

        let server = ServeChild::spawn(&train_csv, &ckpt_dir, &flags, &[]);
        let resp = client::impute(&server.addr, csv).unwrap();
        let (code, rest) = server.stop("TERM");
        assert_eq!(code, 0, "{algo}: {rest}");
        assert_eq!(resp.status, 200, "{algo}: {resp:?}");
        assert_same_csv(&resp.body, &cli, &format!("{algo}: serve vs impute"));

        let config = GrimpConfig {
            seed: SEED,
            ..preset
        };
        let fitted = Pipeline::new(config).unwrap().fit(&table).unwrap();
        let imputed = fitted.impute(&table).unwrap();
        assert_eq!(imputed.n_missing(), 0, "{algo}");
        let bytes = grimp_table::csv::to_csv_bytes(&imputed);
        assert_same_csv(&bytes, &cli, &format!("{algo}: Pipeline vs impute"));
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn sigint_drains_and_exits_130() {
    let (train_csv, ckpt_dir) = fit_checkpoint("sigint", 4);
    let server = ServeChild::spawn(&train_csv, &ckpt_dir, &[], &[]);
    assert_eq!(
        client::request(&server.addr, "GET", "/healthz", b"")
            .unwrap()
            .status,
        200
    );
    let (code, _) = server.stop("INT");
    assert_eq!(code, 130, "SIGINT keeps the interrupted-run exit code");
}

#[test]
fn injected_socket_fault_via_env_yields_408_and_the_server_survives() {
    let (train_csv, ckpt_dir) = fit_checkpoint("fault-env", 5);
    let server = ServeChild::spawn(
        &train_csv,
        &ckpt_dir,
        &[],
        &[("GRIMP_FAULT_SOCKET", "stalled:1")],
    );
    // A body bigger than one socket read so the stall hits mid-request.
    let mut big = String::from("city,country\n");
    while big.len() <= 8 * 1024 {
        big.push_str("Paris,\n");
    }
    let resp = client::impute(&server.addr, &big).unwrap();
    assert_eq!(resp.status, 408, "stalled body times out: {resp:?}");
    // Connection 1 is past the fault budget: the server still works.
    let resp = client::impute(&server.addr, "city,country\nRome,\n").unwrap();
    assert_eq!(resp.status, 200, "{resp:?}");
    let (code, _) = server.stop("TERM");
    assert_eq!(code, 0);
}

#[test]
fn checkpoint_rotation_hot_reloads_the_model() {
    let (train_csv, ckpt_dir) = fit_checkpoint("reload", 6);
    let server = ServeChild::spawn(&train_csv, &ckpt_dir, &[], &[]);
    assert_eq!(
        client::impute(&server.addr, "city,country\nParis,\n")
            .unwrap()
            .status,
        200
    );
    // Rotate the checkpoint under the running server (a different seed
    // changes the weights, so the bytes differ and the watcher swaps).
    fit_into(&train_csv, &ckpt_dir, 7);
    let reloaded = wait_for(Duration::from_secs(20), || {
        let stats = client::request(&server.addr, "GET", "/stats", b"").unwrap();
        let body = String::from_utf8(stats.body).unwrap();
        !body.contains("\"reloads\":0")
    });
    assert!(reloaded, "watcher observed the rotated checkpoint");
    // Requests keep working on the new generation.
    assert_eq!(
        client::impute(&server.addr, "city,country\nMadrid,\n")
            .unwrap()
            .status,
        200
    );
    let (code, rest) = server.stop("TERM");
    assert_eq!(code, 0);
    assert!(
        !rest.contains("reloads 0"),
        "summary counts the reload: {rest}"
    );
}

#[test]
fn serve_flag_validation_exits_2() {
    let (train_csv, ckpt_dir) = fit_checkpoint("flags", 8);
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_grimp"))
            .args(args)
            .output()
            .unwrap()
    };
    let train = train_csv.to_str().unwrap();
    let ckpt = ckpt_dir.to_str().unwrap();

    let out = run(&["serve", train]);
    assert_eq!(out.status.code(), Some(2), "--checkpoint-dir is required");

    let out = run(&[
        "serve",
        train,
        "--checkpoint-dir",
        ckpt,
        "--fault-socket",
        "bogus",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("torn-request|disconnect|malformed|stalled"));

    let out = run(&[
        "serve",
        train,
        "--checkpoint-dir",
        ckpt,
        "--memory-budget-mb",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    let out = run(&[
        "serve",
        train,
        "--checkpoint-dir",
        ckpt,
        "--request-deadline",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn serving_an_empty_checkpoint_dir_is_a_startup_io_error() {
    let (train_csv, ckpt_dir) = fit_checkpoint("no-ckpt", 9);
    let empty = ckpt_dir.with_file_name("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_grimp"))
        .args([
            "serve",
            train_csv.to_str().unwrap(),
            "--checkpoint-dir",
            empty.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("grimp.ckpt"),
        "names the missing file: {stderr}"
    );
}
