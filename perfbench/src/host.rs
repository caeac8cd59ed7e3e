//! Facts about the host and build recorded with every run, and the
//! process's peak memory.

use std::path::Path;
use std::process::Command;

/// Cores the benchmark sizes its client threads and cluster workers
/// by.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn command_line(program: &str, args: &[&str], envs: &[(&str, &str)]) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    // `output` waits for the child to exit.
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"], &[]).unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark runs in, or `unknown`
/// (an exported tree is not a git repository). Git is not allowed to
/// look above the working directory.
pub fn git_commit(cwd: &Path) -> String {
    let ceiling = cwd
        .parent()
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    command_line(
        "git",
        &["rev-parse", "--short=12", "HEAD"],
        &[("GIT_CEILING_DIRECTORIES", &ceiling)],
    )
    .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process so far, in MiB, from
/// `/proc/self/status` (`VmHWM`). `None` where procfs is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The cache budgets a freshly opened engine uses, in MiB: the
/// buffer pool, the encoded-tile cache and the shared-decode cache
/// (after any `LIGHTDB_*_MB` override in the environment).
pub fn budgets_mb() -> (f64, f64, f64) {
    let mb = |bytes: usize| bytes as f64 / (1u64 << 20) as f64;
    let knob = |name: &str, default: usize| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(mb(default))
    };
    (
        mb(lightdb::DEFAULT_POOL_BYTES),
        knob("LIGHTDB_TILE_CACHE_MB", lightdb::DEFAULT_TILE_CACHE_BYTES),
        knob(
            "LIGHTDB_SHARED_DECODE_MB",
            lightdb::DEFAULT_SHARED_DECODE_BYTES,
        ),
    )
}

/// `LIGHTDB_*` variables set in the environment (they change engine
/// behaviour, so a run records them).
pub fn lightdb_env() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("LIGHTDB_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    vars.sort();
    vars
}
