//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--scale tiny]`
//!
//! Runs from the repository root (its scratch databases go under
//! `.bench_data/` there and are removed afterwards). Prints host facts
//! and human-readable lines, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero
//! when any output check failed.

use perfbench::{host, run, Config, Outcome, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <fig11|serve_live|serve_vod|cluster_scan|all> --seed <n> --seconds <s> --trace <0|1> [--scale tiny]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return usage(&format!("unexpected argument {flag}"));
        };
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        opts.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| opts.get(k).map(String::as_str);
    let workloads: Vec<Workload> = match get("workload") {
        Some("all") => Workload::ALL.to_vec(),
        Some(name) => match Workload::parse(name) {
            Some(w) => vec![w],
            None => return usage(&format!("unknown workload {name}")),
        },
        None => return usage("--workload is required"),
    };
    let Some(seed) = get("seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed must be a whole number");
    };
    let Some(seconds) = get("seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage("--seconds must be a positive number");
    };
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return usage(&format!("--trace must be 0 or 1, not {other}")),
    };
    let scale = match get("scale").unwrap_or("full") {
        "full" => Scale::Full,
        "tiny" => Scale::Tiny,
        other => return usage(&format!("--scale must be full or tiny, not {other}")),
    };

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let (pool, tiles, decode) = host::budgets_mb();
    println!(
        "host: nproc {}, {}, commit {}, budgets: pool {pool} MiB, tile cache {tiles} MiB, shared decode {decode} MiB",
        host::nproc(),
        host::rustc_version(),
        host::git_commit(&cwd)
    );
    let env = host::lightdb_env();
    if !env.is_empty() {
        println!("host: LightDB environment: {}", env.join(" "));
    }

    let mut all = Outcome::default();
    for workload in &workloads {
        let cfg = Config {
            workload: *workload,
            seed,
            seconds,
            trace,
            scale,
            dir: cwd.join(".bench_data").join(format!(
                "{}-{}",
                workload.name(),
                std::process::id()
            )),
        };
        let outcome = match run(&cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        for line in &outcome.notes {
            println!("{}: {line}", workload.name());
        }
        for line in &outcome.failures {
            println!("{}: FAILED: {line}", workload.name());
        }
        for (name, value, unit) in &outcome.metrics {
            println!("{}: {name} = {value} {unit}", workload.name());
        }
        all.attempted += outcome.attempted.max(1);
        all.failed += outcome.failed;
        all.failures.extend(
            outcome
                .failures
                .iter()
                .map(|f| format!("{}: {f}", workload.name())),
        );
        let prefix = if workloads.len() > 1 {
            format!("{}.", workload.name())
        } else {
            String::new()
        };
        all.metrics.extend(
            outcome
                .metrics
                .into_iter()
                .map(|(n, v, u)| (format!("{prefix}{n}"), v, u)),
        );
    }
    let _ = std::fs::remove_dir(cwd.join(".bench_data"));
    println!("{}", all.to_json());
    if all.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
