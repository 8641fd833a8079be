//! `tensortee` — the CLI driver for the paper-artifact registry.
//!
//! ```sh
//! tensortee list                         # all registered artifacts
//! tensortee run fig16                    # one artifact, markdown
//! tensortee run fig16 fig21 --json      # several artifacts, JSON array
//! tensortee run --all --fast --json     # whole registry, reduced context
//! tensortee explore train --points 64   # design-space sweep: frontier + tornado
//! ```
//!
//! `--fast` swaps the full paper-fidelity [`RunContext`] for the reduced
//! one (coarser simulation scale, GPT/GPT2-M model pair, thinned sweeps);
//! `--json` switches from markdown to the machine-readable report shape
//! documented in EXPERIMENTS.md. Every run is deterministic: the same
//! invocation produces byte-identical output — including `explore`,
//! whose `--threads` knob changes wall-clock but never a byte of output.

use std::fmt::Display;
use std::io::Write;
use std::process::ExitCode;
use tee_sim::probe::SharedProbe;
use tensortee::artifact::{find, registry, Artifact, RunContext};
use tensortee::explore::Scenario;
use tensortee::json::Json;
use tensortee::obs::chrome_trace;
use tensortee::report::{Report, Table};

/// The explore scenarios as a `train|cluster|serve|...` list, derived
/// from [`Scenario::all`] so the CLI text never drifts from the
/// registered scenarios.
fn scenario_list() -> String {
    Scenario::all().map(|s| s.label()).join("|")
}

/// The usage text (a function so the scenario list stays derived).
fn usage() -> String {
    format!(
        "usage: tensortee <command>

commands:
  list                          list registered artifacts
  run <id>... [flags]           run specific artifacts
  run --all [flags]             run the whole registry
  explore <{scenarios}> [flags]
                                sweep the scenario's hardware/security design
                                space: Pareto frontier + tornado sensitivity
  trace <id> [--out FILE]       run one artifact with a recording probe and
                                write a Chrome/Perfetto trace-event JSON
                                (default trace_<id>.json; load it at
                                ui.perfetto.dev or chrome://tracing)

flags:
  --json         emit machine-readable JSON instead of markdown
  --fast         reduced context: coarser sim scale, fewer models/sweep points
  --quiet        suppress stderr progress chatter (stdout is unaffected)
  --trace        run/explore: also record a probe trace and write it to
                 --out (default trace.json); reports are byte-identical
                 with and without it. An explore trace holds only the
                 sweep's memo.* counters (none for serve, fleet and
                 attack, which price nothing through the memo)
  --out <FILE>   where trace output is written
  --seed <u64>   seed for stochastic artifacts and sampling plans (default 42)
  --threads <N>  explorer worker threads (wall-clock only; output is
                 byte-identical for any N; default 4)
  --points <N>   explorer point budget (default 96, 32 under --fast)",
        scenarios = scenario_list()
    )
}

/// The flags shared by `run`, `explore` and `trace`, plus the positional
/// args.
struct Args {
    json: bool,
    fast: bool,
    all: bool,
    quiet: bool,
    trace: bool,
    out: Option<String>,
    seed: Option<u64>,
    threads: Option<u32>,
    points: Option<u32>,
    positional: Vec<String>,
}

impl Args {
    /// Parses flags and positionals; `Err` carries the message to print.
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            json: false,
            fast: false,
            all: false,
            quiet: false,
            trace: false,
            out: None,
            seed: None,
            threads: None,
            points: None,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--json" => out.json = true,
                "--fast" => out.fast = true,
                "--all" => out.all = true,
                "--quiet" => out.quiet = true,
                "--trace" => out.trace = true,
                "--out" => out.out = Some(parse_value(arg, it.next())?),
                "--seed" => out.seed = Some(parse_value(arg, it.next())?),
                "--threads" => out.threads = Some(parse_value(arg, it.next())?),
                "--points" => out.points = Some(parse_value(arg, it.next())?),
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag {flag:?}"));
                }
                positional => out.positional.push(positional.to_string()),
            }
        }
        // Zero is never a meaningful count for these: an empty sweep or a
        // zero-thread scope. Reject at parse time instead of silently
        // clamping.
        for (flag, value) in [("--threads", out.threads), ("--points", out.points)] {
            if value == Some(0) {
                return Err(format!("{flag} must be at least 1"));
            }
        }
        Ok(out)
    }

    /// The [`RunContext`] these flags select.
    fn context(&self) -> RunContext {
        let mut ctx = if self.fast {
            RunContext::fast()
        } else {
            RunContext::full()
        };
        if let Some(seed) = self.seed {
            ctx = ctx.with_seed(seed);
        }
        if let Some(threads) = self.threads {
            ctx = ctx.with_worker_threads(threads);
        }
        if let Some(points) = self.points {
            ctx = ctx.with_explore_points(points);
        }
        ctx
    }
}

/// Parses a flag value, reporting the flag name on failure. A value that
/// is itself a flag (`--out --json`) counts as missing.
fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} got an invalid value {value:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list().err().unwrap_or(ExitCode::SUCCESS),
        Some("run") => run(&args[1..]),
        Some("explore") => explore(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("--help" | "-h" | "help") => print(usage()).err().unwrap_or(ExitCode::SUCCESS),
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

/// Prints `message`, the usage, and returns the CLI error code.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n\n{}", usage());
    ExitCode::from(2)
}

/// Writes `text` and a newline to stdout. A failed write (a full disk, a
/// closed pipe) is a runtime failure, reported in one line on stderr.
fn print(text: impl Display) -> Result<(), ExitCode> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{text}")
        .and_then(|()| out.flush())
        .map_err(|e| {
            eprintln!("failed to write to stdout: {e}");
            ExitCode::FAILURE
        })
}

/// Renders `reports` the way both subcommands do: markdown per report, or
/// one JSON object (single report) / array (several).
fn emit(reports: &[Report], json: bool) -> Result<(), ExitCode> {
    if json {
        let out = if reports.len() == 1 {
            reports[0].to_json()
        } else {
            Json::Array(reports.iter().map(|r| r.to_json()).collect())
        };
        print(out)
    } else {
        reports.iter().try_for_each(|r| print(r.to_markdown()))
    }
}

/// `tensortee list`: one row per registered artifact.
fn list() -> Result<(), ExitCode> {
    let mut table = Table::new(["id", "paper anchor", "title", "claim reproduced"]);
    for a in registry() {
        table.row([a.id, a.paper_anchor, a.title, a.claim]);
    }
    print(table.to_markdown())?;
    print(format_args!(
        "{} artifacts; run one with `tensortee run <id>` (add --json / --fast), or sweep the \
         design space with `tensortee explore <{}>`.",
        registry().len(),
        scenario_list()
    ))
}

/// `tensortee run ...`: resolve the artifact selection, run, print.
///
/// Unknown ids are diagnosed on stderr but do not abort the rest of the
/// selection: the known artifacts still run and emit (well-formed JSON
/// under `--json`), and the process exits 1 so scripts notice the
/// partial failure. An entirely-unknown selection runs nothing.
fn run(raw: &[String]) -> ExitCode {
    let args = match Args::parse(raw) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    let mut unknown: Vec<&String> = Vec::new();
    let selection: Vec<Artifact> = if args.all {
        if !args.positional.is_empty() {
            return usage_error("--all and explicit ids are mutually exclusive");
        }
        registry().to_vec()
    } else if args.positional.is_empty() {
        return usage_error("run needs artifact ids or --all");
    } else {
        let mut picked = Vec::new();
        for id in &args.positional {
            match find(id) {
                Some(a) => picked.push(a),
                None => unknown.push(id),
            }
        }
        if !unknown.is_empty() {
            let known: Vec<&str> = registry().iter().map(|a| a.id).collect();
            for id in &unknown {
                eprintln!("unknown artifact {id:?}; known ids: {}", known.join(", "));
            }
        }
        picked
    };

    let probe = if args.trace {
        SharedProbe::recording()
    } else {
        SharedProbe::Null
    };
    let ctx = args.context().with_probe(probe.clone());
    let mut printed = Ok(());
    if !selection.is_empty() {
        let reports: Vec<Report> = selection
            .iter()
            .map(|a| {
                if !args.json && !args.quiet {
                    eprintln!("running {} ({}) ...", a.id, a.paper_anchor);
                }
                a.run(&ctx)
            })
            .collect();
        printed = emit(&reports, args.json);
    }
    if args.trace {
        let path = args.out.clone().unwrap_or_else(|| "trace.json".to_string());
        if let Err(code) = write_trace(&probe, &path, args.quiet) {
            return code;
        }
    }
    match printed {
        Err(code) => code,
        Ok(()) if unknown.is_empty() => ExitCode::SUCCESS,
        Ok(()) => ExitCode::FAILURE,
    }
}

/// Exports `probe`'s recording as Chrome trace-event JSON at `path`.
fn write_trace(probe: &SharedProbe, path: &str, quiet: bool) -> Result<(), ExitCode> {
    let snap = probe.snapshot().expect("trace paths install a recorder");
    let json = chrome_trace(&snap);
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => {
            if !quiet {
                eprintln!(
                    "wrote {path} ({} events, {} counters); load it at ui.perfetto.dev",
                    snap.events().len(),
                    snap.metrics().iter().count()
                );
            }
            Ok(())
        }
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `tensortee trace <id> [--out FILE]`: run one artifact under a
/// recording probe and write the Chrome/Perfetto trace-event JSON.
/// Unknown ids exit 1 (the command line was fine; the id was not).
fn trace_cmd(raw: &[String]) -> ExitCode {
    let args = match Args::parse(raw) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    let [id] = args.positional.as_slice() else {
        return usage_error("trace needs exactly one artifact id");
    };
    let Some(artifact) = find(id) else {
        let known: Vec<&str> = registry().iter().map(|a| a.id).collect();
        eprintln!("unknown artifact {id:?}; known ids: {}", known.join(", "));
        return ExitCode::FAILURE;
    };
    let probe = SharedProbe::recording();
    let ctx = args.context().with_probe(probe.clone());
    if !args.quiet {
        eprintln!("tracing {} ({}) ...", artifact.id, artifact.paper_anchor);
    }
    let _report = artifact.run(&ctx);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("trace_{id}.json"));
    match write_trace(&probe, &path, args.quiet) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// `tensortee explore <scenario> ...`: sweep the scenario's design space
/// and print the Pareto-frontier and sensitivity reports.
fn explore(raw: &[String]) -> ExitCode {
    let args = match Args::parse(raw) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    let [scenario_arg] = args.positional.as_slice() else {
        return usage_error(&format!(
            "explore needs exactly one scenario: {}",
            scenario_list()
        ));
    };
    let Some(scenario) = Scenario::parse(scenario_arg) else {
        return usage_error(&format!(
            "unknown scenario {scenario_arg:?}; known: {}",
            scenario_list()
        ));
    };
    let probe = if args.trace {
        SharedProbe::recording()
    } else {
        SharedProbe::Null
    };
    let ctx = args.context().with_probe(probe.clone());
    if !args.json && !args.quiet {
        eprintln!(
            "exploring the {} space: {} points, {} worker threads, seed {} ...",
            scenario.label(),
            ctx.explore_points,
            ctx.worker_threads,
            ctx.seed
        );
    }
    let printed = emit(&tensortee::explore::explore(scenario, &ctx), args.json);
    if args.trace {
        let path = args.out.clone().unwrap_or_else(|| "trace.json".to_string());
        if let Err(code) = write_trace(&probe, &path, args.quiet) {
            return code;
        }
    }
    printed.err().unwrap_or(ExitCode::SUCCESS)
}
