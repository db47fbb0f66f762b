//! Small runs of every workload: each must pass its own output checks and
//! emit exactly the metrics `BENCHMARK.json` names, and runs at one seed
//! must print one digest, whatever `REVEIL_THREADS` is.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_reveil-benchmark");

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

/// Every `"name": "..."` value in `text`, in order.
fn names(text: &str) -> Vec<String> {
    text.split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

/// `(workloads, end-to-end metrics, per-layer metrics)` of BENCHMARK.json.
fn declared() -> (Vec<String>, Vec<String>, Vec<String>) {
    let json = benchmark_json();
    let (head, per_layer) = json.split_once("\"per_layer\"").expect("per_layer section");
    let (workloads, end_to_end) = head
        .split_once("\"end_to_end\"")
        .expect("end_to_end section");
    (names(workloads), names(end_to_end), names(per_layer))
}

/// The binary, started from the repository root as the benchmark command
/// is (Fig. 2 writes its overlays relative to the working directory).
fn command() -> Command {
    let mut cmd = Command::new(BIN);
    cmd.current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    cmd
}

fn run(workload: &str, seed: u64, trace: bool, threads: Option<&str>) -> Output {
    let mut cmd = command();
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "0",
    ])
    .args(["--trace", if trace { "1" } else { "0" }, "--small"]);
    match threads {
        Some(n) => cmd.env("REVEIL_THREADS", n),
        None => cmd.env_remove("REVEIL_THREADS"),
    };
    cmd.output().expect("benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Metric names of the result line, in order, after checking its shape.
fn result_metrics(out: &Output) -> Vec<String> {
    assert!(out.status.success(), "exit {:?}", out.status);
    let text = stdout(out);
    let line = text.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":") && line.contains(",\"failed\":0,"),
        "checks failed: {line}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = line.split_once("\"metrics\":{").expect("metrics object").1;
    metrics
        .split("},\"")
        .map(|entry| {
            entry
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
                .to_string()
        })
        .collect()
}

fn digest(out: &Output) -> String {
    stdout(out)
        .lines()
        .find_map(|l| l.strip_prefix("[digest] "))
        .expect("a digest line")
        .to_string()
}

#[test]
fn every_workload_emits_every_named_metric() {
    let (workloads, end_to_end, per_layer) = declared();
    assert_eq!(workloads, ["suite-smoke", "single-quick", "audit-quick"]);
    for workload in &workloads {
        assert_eq!(
            result_metrics(&run(workload, 7, false, None)),
            end_to_end,
            "{workload}"
        );
        assert_eq!(
            result_metrics(&run(workload, 7, true, None)),
            per_layer,
            "{workload} traced"
        );
    }
}

#[test]
fn digest_repeats_across_runs_and_thread_counts() {
    for workload in ["suite-smoke", "single-quick", "audit-quick"] {
        let first = digest(&run(workload, 11, false, None));
        assert_eq!(
            first,
            digest(&run(workload, 11, false, None)),
            "{workload}: rerun"
        );
        assert_eq!(
            first,
            digest(&run(workload, 11, false, Some("1"))),
            "{workload}: 1 thread"
        );
        assert_ne!(
            first,
            digest(&run(workload, 12, false, None)),
            "{workload}: seed ignored"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "audit-quick",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &["--workload", "audit-quick", "--seed", "1"][..],
    ] {
        let out = command().args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stdout(&out).is_empty(), "{args:?} printed a result");
    }
}
