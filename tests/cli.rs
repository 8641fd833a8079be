//! CLI contract tests for the `tensortee` binary: exit codes and output
//! shape for the `run` partial-failure paths and flag validation.
//!
//! Exit-code convention: 0 = success, 1 = runtime failure (some requested
//! artifact did not run, or stdout or the trace file could not be
//! written), 2 = usage error (bad flags/arguments).

use std::process::{Command, Output};

fn tensortee(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tensortee"))
        .args(args)
        .output()
        .expect("spawn tensortee")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no exit code (signal?)")
}

#[test]
fn unknown_id_mid_list_runs_known_and_exits_one() {
    // The known artifact still runs, its JSON is well-formed, and the
    // process signals the partial failure with exit 1 (not the usage
    // error 2 — the command line itself was fine).
    let out = tensortee(&["run", "tab2", "bogus", "--fast", "--json"]);
    assert_eq!(code(&out), 1, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        tensortee::json::is_well_formed(stdout.trim()),
        "stdout not well-formed JSON: {stdout}"
    );
    assert!(stdout.contains("\"id\":\"tab2\""), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown artifact \"bogus\""), "{stderr}");
    assert!(stderr.contains("known ids:"), "{stderr}");
}

#[test]
fn entirely_unknown_selection_runs_nothing_and_exits_one() {
    let out = tensortee(&["run", "nope1", "nope2", "--json"]);
    assert_eq!(code(&out), 1, "{out:?}");
    assert!(out.stdout.is_empty(), "ran something for unknown ids");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.matches("unknown artifact").count(), 2, "{stderr}");
}

#[test]
fn known_selection_exits_zero_with_a_json_array() {
    let out = tensortee(&["run", "tab2", "sec65", "--fast", "--json"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "{stdout}"
    );
    assert!(tensortee::json::is_well_formed(trimmed), "{stdout}");
}

#[test]
fn zero_flag_values_are_usage_errors() {
    for args in [
        &["run", "--all", "--points", "0"][..],
        &["explore", "train", "--threads", "0"][..],
        &["explore", "train", "--points", "0"][..],
    ] {
        let out = tensortee(args);
        assert_eq!(code(&out), 2, "{args:?} -> {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("must be at least 1"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} produced output");
    }
}

#[test]
fn unknown_scenario_lists_the_valid_ones_and_exits_two() {
    for args in [&["explore", "bogus"][..], &["explore"][..]] {
        let out = tensortee(args);
        assert_eq!(code(&out), 2, "{args:?} -> {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} produced output");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("train|cluster|serve|des|fleet"),
            "{args:?} stderr must list the valid scenarios: {stderr}"
        );
    }
    let out = tensortee(&["explore", "bogus"]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown scenario \"bogus\""), "{stderr}");
}

#[test]
fn missing_command_is_a_usage_error() {
    let out = tensortee(&[]);
    assert_eq!(code(&out), 2, "{out:?}");
    let out = tensortee(&["frobnicate"]);
    assert_eq!(code(&out), 2, "{out:?}");
}

#[test]
fn quiet_silences_stderr_but_not_the_payload() {
    let loud = tensortee(&["run", "tab2", "--fast", "--json"]);
    let quiet = tensortee(&["run", "tab2", "--fast", "--json", "--quiet"]);
    assert_eq!(code(&loud), 0, "{loud:?}");
    assert_eq!(code(&quiet), 0, "{quiet:?}");
    assert!(
        quiet.stderr.is_empty(),
        "--quiet left stderr chatter: {}",
        String::from_utf8_lossy(&quiet.stderr)
    );
    // The payload contract is unchanged: identical stdout, well-formed.
    assert_eq!(loud.stdout, quiet.stdout, "--quiet changed stdout");
    let stdout = String::from_utf8(quiet.stdout).unwrap();
    assert!(
        tensortee::json::is_well_formed(stdout.trim()),
        "stdout not well-formed JSON: {stdout}"
    );
}

#[test]
fn quiet_still_reports_partial_failures_on_stderr() {
    // Diagnostics are not chatter: unknown-id errors survive --quiet.
    let out = tensortee(&["run", "bogus", "--fast", "--json", "--quiet"]);
    assert_eq!(code(&out), 1, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown artifact \"bogus\""), "{stderr}");
}

#[test]
fn trace_subcommand_writes_a_well_formed_trace() {
    let dir = std::env::temp_dir().join(format!("tt_cli_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tab2.json");
    let out = tensortee(&["trace", "tab2", "--fast", "--out", path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{out:?}");
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    assert!(
        tensortee::json::is_well_formed(trace.trim()),
        "trace not well-formed JSON: {trace}"
    );
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explore_trace_records_the_sweep_memo_counters() {
    let dir = std::env::temp_dir().join(format!("tt_cli_explore_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("explore.json");
    let args = ["explore", "train", "--points", "8", "--fast", "--json"];
    let plain = tensortee(&args);
    let mut traced_args = args.to_vec();
    traced_args.extend(["--trace", "--out", path.to_str().unwrap()]);
    let traced = tensortee(&traced_args);
    assert_eq!(code(&traced), 0, "{traced:?}");
    assert_eq!(plain.stdout, traced.stdout, "--trace perturbed the reports");
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    let misses = trace
        .split("\"memo.adam_misses\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse::<u64>().ok());
    assert!(
        misses.is_some_and(|n| n > 0),
        "no memo.adam_misses counter: {trace}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_of_unknown_artifact_is_a_runtime_failure_not_usage() {
    let out = tensortee(&["trace", "bogus"]);
    assert_eq!(code(&out), 1, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown artifact \"bogus\""), "{stderr}");
    assert!(stderr.contains("known ids:"), "{stderr}");
}

#[test]
fn trace_requires_exactly_one_artifact_id() {
    for args in [&["trace"][..], &["trace", "tab2", "sec65"][..]] {
        let out = tensortee(args);
        assert_eq!(code(&out), 2, "{args:?} -> {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} produced output");
    }
}

#[test]
fn tracing_does_not_change_run_output() {
    // The observability acceptance bar: a traced run's report bytes are
    // identical to an untraced run's.
    let dir = std::env::temp_dir().join(format!("tt_cli_traced_run_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let plain = tensortee(&["run", "des_parity", "--fast", "--json"]);
    let traced = tensortee(&[
        "run",
        "des_parity",
        "--fast",
        "--json",
        "--trace",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code(&plain), 0, "{plain:?}");
    assert_eq!(code(&traced), 0, "{traced:?}");
    assert_eq!(plain.stdout, traced.stdout, "--trace perturbed the report");
    assert!(path.exists(), "--trace did not write the trace file");
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(target_os = "linux")]
#[test]
fn a_failed_stdout_write_exits_one_without_a_panic() {
    // `/dev/full` refuses every write with ENOSPC, as a full disk or a
    // closed pipe would.
    for args in [
        &["list"][..],
        &["run", "tab2", "--fast", "--json"][..],
        &["--help"][..],
    ] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let out = Command::new(env!("CARGO_BIN_EXE_tensortee"))
            .args(args)
            .stdout(full)
            .output()
            .expect("spawn tensortee");
        assert_eq!(code(&out), 1, "{args:?} -> {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("failed to write to stdout"),
            "{args:?}: {stderr}"
        );
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_failed_stderr_write_keeps_the_exit_code() {
    // A diagnostic or progress line that cannot be written is dropped:
    // the exit code is the one a writable stderr would give.
    let dir = std::env::temp_dir().join(format!("tt_cli_full_stderr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    for (args, want) in [
        (&["run", "bogus"][..], 1),
        (&["bogus"][..], 2),
        (
            &[
                "run",
                "tab2",
                "--fast",
                "--trace",
                "--out",
                trace.to_str().unwrap(),
            ][..],
            0,
        ),
    ] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let out = Command::new(env!("CARGO_BIN_EXE_tensortee"))
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(full)
            .output()
            .expect("spawn tensortee");
        assert_eq!(code(&out), want, "{args:?} -> {out:?}");
    }
    let written = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(written.contains("\"traceEvents\""), "{written}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flag_is_not_a_value_for_out() {
    // A flag after `--out` is not a file name. Run in a fresh directory,
    // where a stray `--json` file would show.
    let dir = std::env::temp_dir().join(format!("tt_cli_out_flag_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tensortee"))
        .args(["run", "tab2", "--fast", "--trace", "--out", "--json"])
        .current_dir(&dir)
        .output()
        .expect("spawn tensortee");
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(out.stdout.is_empty(), "ran despite the usage error");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--out needs a value"), "{stderr}");
    assert!(!dir.join("--json").exists(), "wrote a file named --json");
    std::fs::remove_dir_all(&dir).ok();
}
