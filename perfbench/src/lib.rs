//! A layered benchmark for LightDB.
//!
//! Four workloads, each chosen to stress different layers (see
//! `README.md` for why each is in the set and what each per-layer row
//! should move):
//!
//! * `fig11` — the paper's predictive-tiling and AR queries, codec and
//!   frame-operator bound, each STOREing a new version through the WAL;
//! * `serve_live` — a live event: thousands of viewers on one title,
//!   almost every tile request a tile-cache hit;
//! * `serve_vod` — on demand: Zipf-popular titles whose encoded bytes
//!   overflow the buffer pool and tile cache, so both evict;
//! * `cluster_scan` — a coordinator over in-process workers running a
//!   scan→encode plan, RPC and reassembly bound.
//!
//! A run sets the workload up several times (the median is `setup_s`),
//! then drives it in a closed loop for a fixed time with tracing off
//! and reports end-to-end metrics, or — with tracing on — reports the
//! per-layer rows instead. Outputs are checked in the same run.

pub mod host;
pub mod rng;
pub mod stats;
pub mod trace;

mod cluster;
mod fig11;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trace::{Breakdown, Tracer};

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig11,
    ServeLive,
    ServeVod,
    ClusterScan,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig11,
        Workload::ServeLive,
        Workload::ServeVod,
        Workload::ClusterScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11 => "fig11",
            Workload::ServeLive => "serve_live",
            Workload::ServeVod => "serve_vod",
            Workload::ClusterScan => "cluster_scan",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `Full` is what the benchmark measures; `Tiny` shrinks
/// every input so the smoke tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Report per-layer rows (traced run) instead of end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for the run's databases; removed afterwards.
    pub dir: PathBuf,
}

impl Config {
    /// How many times set-up is repeated (its median is `setup_s`).
    fn setup_reps(&self) -> usize {
        match self.scale {
            Scale::Full => 3,
            Scale::Tiny => 1,
        }
    }

    /// Client threads: one per core, whatever `LIGHTDB_THREADS` says.
    fn clients(&self) -> usize {
        host::nproc()
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
/// `(name, unit)`.
/// Tail percentiles are per-layer rows (`tail.*`), not end-to-end
/// metrics: on a shared 2-core host they moved by a quarter to a third
/// between runs, more than any bound a regression gate can use.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
];

/// Per-layer rows, reported by every workload with tracing on (zero
/// where the workload never enters the layer). `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("tail.p90_us", "us"),
    ("tail.p99_us", "us"),
    ("trace.wall_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
    ("self_ms.optimizer", "ms"),
    ("self_ms.engine", "ms"),
    ("self_ms.storage", "ms"),
    ("self_ms.codec", "ms"),
    ("self_ms.exec", "ms"),
    ("self_ms.cluster", "ms"),
    ("self_ms.bench", "ms"),
    ("app.tiling_fps", "frames/s"),
    ("app.ar_fps", "frames/s"),
    ("storage.media_read_us", "us"),
    ("storage.media_reads", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_loads", "count"),
    ("storage.pool_evictions", "count"),
    ("storage.catalog_read_us", "us"),
    ("storage.store_ms", "ms"),
    ("codec.gop_parse_us", "us"),
    ("codec.extract_tile_us", "us"),
    ("codec.decode_us_per_frame", "us"),
    ("codec.encode_us_per_frame", "us"),
    ("codec.stitch_us", "us"),
    ("codec.decode_calls", "count"),
    ("codec.encode_calls", "count"),
    ("exec.partition_ms", "ms"),
    ("exec.discretize_ms", "ms"),
    ("exec.map_ms", "ms"),
    ("exec.union_ms", "ms"),
    ("exec.op.DECODE.busy_ms", "ms"),
    ("exec.op.DECODE.wall_ms", "ms"),
    ("exec.op.ENCODE.busy_ms", "ms"),
    ("exec.op.ENCODE.wall_ms", "ms"),
    ("exec.op.PARTITION.busy_ms", "ms"),
    ("exec.op.PARTITION.wall_ms", "ms"),
    ("exec.op.TILEUNION.busy_ms", "ms"),
    ("exec.op.TILEUNION.wall_ms", "ms"),
    ("exec.op.STORE.busy_ms", "ms"),
    ("exec.op.STORE.wall_ms", "ms"),
    ("exec.op.DISCRETIZE.busy_ms", "ms"),
    ("exec.op.DISCRETIZE.wall_ms", "ms"),
    ("exec.op.MAP.busy_ms", "ms"),
    ("exec.op.MAP.wall_ms", "ms"),
    ("exec.op.UNION.busy_ms", "ms"),
    ("exec.op.UNION.wall_ms", "ms"),
    ("exec.shared_decode_hit_ratio", "ratio"),
    ("exec.tilecache_hit_ratio", "ratio"),
    ("exec.tilecache_coalesced", "count"),
    ("exec.tilecache_evictions", "count"),
    ("exec.tilecache_hit_us", "us"),
    ("optimizer.plan_us", "us"),
    ("engine.execute_self_ms", "ms"),
    ("engine.serve_self_us", "us"),
    ("cluster.connect_us", "us"),
    ("cluster.rpc_rtt_us", "us"),
    ("cluster.frame_codec_us", "us"),
    ("cluster.fragment_exec_ms", "ms"),
    ("cluster.reassemble_ms", "ms"),
    ("cluster.single_node_ms", "ms"),
    ("cluster.coordinator_self_ms", "ms"),
    ("cluster.retries", "count"),
    ("cluster.failovers", "count"),
    ("cluster.query_vs_single_node", "ratio"),
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured loop, plus output checks.
    pub attempted: u64,
    /// Failed operations plus failed output checks.
    pub failed: u64,
    /// One line per failed check (printed before the result).
    pub failures: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload end to end and removes its scratch directory.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.dir.exists() {
        std::fs::remove_dir_all(&cfg.dir)
            .map_err(|e| format!("clear {}: {e}", cfg.dir.display()))?;
    }
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("create {}: {e}", cfg.dir.display()))?;
    let result = match cfg.workload {
        Workload::Fig11 => fig11::run(cfg),
        Workload::ServeLive => serve::run(cfg, serve::Mode::Live),
        Workload::ServeVod => serve::run(cfg, serve::Mode::Vod),
        Workload::ClusterScan => cluster::run(cfg),
    };
    let cleanup = std::fs::remove_dir_all(&cfg.dir);
    let mut outcome = result?;
    if let Err(e) = cleanup {
        outcome.notes.push(format!(
            "warning: could not remove {}: {e}",
            cfg.dir.display()
        ));
    }
    for (name, value, _) in &mut outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        // Print an exact zero as 0.0, never -0.0.
        *value += 0.0;
    }
    Ok(outcome)
}

/// Repeats `setup` `cfg.setup_reps()` times in fresh directories and
/// keeps the last state. Returns it with every repetition's seconds.
fn repeated_setup<S>(
    cfg: &Config,
    mut setup: impl FnMut(&std::path::Path) -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let reps = cfg.setup_reps();
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        let dir = cfg.dir.join(format!("setup{rep}"));
        let started = Instant::now();
        let state = setup(&dir)?;
        times.push(started.elapsed().as_secs_f64());
        if rep + 1 < reps {
            drop(state);
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        } else {
            kept = Some(state);
        }
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Per-client state of a closed loop.
#[derive(Debug)]
struct Client {
    tracer: Tracer,
    /// When the loop started.
    started: Instant,
    /// Latency of each completed operation, in microseconds.
    latencies_us: Vec<f64>,
    /// When each of those operations completed, in seconds since
    /// `started`.
    done_s: Vec<f64>,
    failed: u64,
    failures: Vec<String>,
}

impl Client {
    /// Records one completed operation that took `us` microseconds.
    fn record(&mut self, us: f64) {
        self.latencies_us.push(us);
        self.done_s.push(self.started.elapsed().as_secs_f64());
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// What a closed loop measured.
#[derive(Debug)]
struct LoopResult {
    /// The loop's planned length and its actual wall time (the last
    /// operations finish after the deadline).
    duration_s: f64,
    wall_s: f64,
    clients: Vec<Client>,
    /// Peak resident memory of the program, in MiB: the process peak
    /// over set-up and the loop, less the loop's own sample buffers.
    peak_rss_mb: f64,
}

impl LoopResult {
    fn ops(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.latencies_us.len() as u64)
            .sum()
    }

    fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    fn sorted_latencies(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .clients
            .iter()
            .flat_map(|c| c.latencies_us.iter().copied())
            .collect();
        stats::sort(&mut all);
        all
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s
    }

    /// Splits the loop into `k` equal time segments by completion
    /// time: each segment's ops per second and sorted latencies.
    /// Operations that finish after the deadline count in the last
    /// segment, which is stretched to the wall time.
    fn segments(&self, k: usize) -> Vec<(f64, Vec<f64>)> {
        let k = k.max(1);
        let len = self.duration_s / k as f64;
        let mut segs: Vec<Vec<f64>> = vec![Vec::new(); k];
        for c in &self.clients {
            for (&us, &t) in c.latencies_us.iter().zip(&c.done_s) {
                segs[((t / len) as usize).min(k - 1)].push(us);
            }
        }
        segs.into_iter()
            .enumerate()
            .map(|(i, mut lat)| {
                let secs = if i + 1 == k {
                    self.wall_s - len * (k - 1) as f64
                } else {
                    len
                };
                stats::sort(&mut lat);
                (lat.len() as f64 / secs, lat)
            })
            .collect()
    }

    fn breakdown(&self) -> Breakdown {
        let tracers: Vec<Tracer> = self.clients.iter().map(|c| c.tracer.clone()).collect();
        Breakdown::new(&tracers, self.wall_s * 1e3)
    }
}

/// Latency samples reserved per client up front, so the buffers grow
/// without reallocating: only the pages written become resident, and
/// their size is known exactly.
const SAMPLE_RESERVE: usize = 1 << 23;

/// Drives `op(i, client)` from `clients` threads in a closed loop for
/// `duration`: each client issues its next operation only when the
/// previous one returned. `i` counts operations across clients from
/// `first`, so the sequence of inputs is fixed by the seed whatever
/// the interleaving. The loop ends only after a whole number of
/// rounds of `round` operations, so a workload that cycles through a
/// fixed mix of inputs measures every input equally often.
fn closed_loop(
    clients: usize,
    duration: Duration,
    round: u64,
    trace: bool,
    first: u64,
    op: &(dyn Fn(u64, &mut Client) + Sync),
) -> LoopResult {
    let next = &AtomicU64::new(first);
    let before_mb = host::peak_rss_mb().unwrap_or(0.0);
    let started = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client {
                        tracer: Tracer::new(trace),
                        started,
                        latencies_us: Vec::with_capacity(SAMPLE_RESERVE),
                        done_s: Vec::with_capacity(SAMPLE_RESERVE),
                        failed: 0,
                        failures: Vec::new(),
                    };
                    loop {
                        let issued = next.load(Ordering::Relaxed) - first;
                        if started.elapsed() >= duration && issued.is_multiple_of(round.max(1)) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        op(i, &mut client);
                    }
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let sample_bytes: usize = clients
        .iter()
        .map(|c| c.latencies_us.len() * 2 * std::mem::size_of::<f64>())
        .sum();
    let after_mb = host::peak_rss_mb().unwrap_or(0.0);
    LoopResult {
        duration_s: duration.as_secs_f64(),
        wall_s,
        clients,
        peak_rss_mb: before_mb.max(after_mb - sample_bytes as f64 / (1u64 << 20) as f64),
    }
}

/// Fills the end-to-end metrics every workload reports. With
/// `segments > 1` the loop is cut into that many equal time segments
/// and `ops_per_s` and `p50_us` are the medians of the segments'
/// values, so a burst of interference from outside the process moves
/// one segment, not the result.
fn end_to_end(out: &mut Outcome, setup_s: &[f64], lp: &LoopResult, segments: usize) {
    let lat = lp.sorted_latencies();
    if lat.is_empty() {
        out.failures
            .push("no operation completed in the measured loop".into());
        return;
    }
    let p50 = stats::percentile(&lat, 50.0);
    for p in [
        p50,
        stats::percentile(&lat, 90.0),
        stats::percentile(&lat, 99.0),
    ] {
        out.notes.push(format!(
            "p{}: {:.3} us from {} samples, {} beyond it",
            p.p, p.value, p.samples, p.beyond
        ));
    }
    let (ops_per_s, p50_us) = if segments > 1 {
        let segs: Vec<(f64, Vec<f64>)> = lp
            .segments(segments)
            .into_iter()
            .filter(|(_, l)| !l.is_empty())
            .collect();
        let rates: Vec<f64> = segs.iter().map(|(r, _)| *r).collect();
        let p50s: Vec<f64> = segs
            .iter()
            .map(|(_, l)| stats::percentile(l, 50.0).value)
            .collect();
        out.notes.push(format!(
            "segments (ops/s, p50 us, samples): {}",
            segs.iter()
                .zip(&p50s)
                .map(|((r, l), p50)| format!("({r:.1}, {p50:.3}, {})", l.len()))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        (stats::median(&rates), stats::median(&p50s))
    } else {
        (lp.ops_per_s(), p50.value)
    };
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    out.notes.push(format!(
        "set-up seconds per repetition: {}",
        setups.join(", ")
    ));
    let values = [stats::median(setup_s), lp.peak_rss_mb, ops_per_s, p50_us];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        out.metrics
            .push((name.to_string(), value, unit.to_string()));
    }
}

/// Fills the per-layer rows from `rows` (names must come from
/// [`PER_LAYER`]; rows not given read 0) plus the trace breakdown.
fn per_layer(
    out: &mut Outcome,
    mut rows: BTreeMap<&'static str, f64>,
    traced: &LoopResult,
    untraced: &LoopResult,
) {
    let lat = untraced.sorted_latencies();
    if !lat.is_empty() {
        rows.insert("tail.p90_us", stats::percentile(&lat, 90.0).value);
        rows.insert("tail.p99_us", stats::percentile(&lat, 99.0).value);
    }
    let bd = traced.breakdown();
    rows.insert("trace.wall_ms", bd.wall_ms);
    rows.insert("unattributed_ms", bd.unattributed_ms);
    for (layer, ms) in &bd.layers_ms {
        let name = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("self_ms.") == Some(layer))
            .expect("every coarse layer has a self_ms row")
            .0;
        rows.insert(name, *ms);
    }
    // Slowdown of the traced loop against the untraced one, per op.
    rows.insert(
        "trace_overhead_frac",
        untraced.ops_per_s() / traced.ops_per_s().max(f64::MIN_POSITIVE) - 1.0,
    );
    for name in rows.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "row {name} is not in PER_LAYER"
        );
    }
    out.notes.push(format!(
        "trace: wall {:.1} ms = {} + unattributed {:.1} ms (closure error {:.2e} ms)",
        bd.wall_ms,
        bd.layers_ms
            .iter()
            .map(|(l, ms)| format!("{l} {ms:.1}"))
            .collect::<Vec<_>>()
            .join(" + "),
        bd.unattributed_ms,
        bd.closure_error_ms()
    ));
    for (name, unit) in PER_LAYER {
        out.metrics.push((
            name.to_string(),
            rows.get(name).copied().unwrap_or(0.0),
            unit.to_string(),
        ));
    }
}

/// Splits the measured time between an untraced and a traced loop
/// when tracing is on.
fn phase_seconds(cfg: &Config) -> Duration {
    let s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    Duration::from_secs_f64(s.max(0.05))
}

/// Folds a loop's failures and counts into the outcome.
fn account(out: &mut Outcome, lp: &LoopResult) {
    out.attempted += lp.ops() + lp.failed();
    out.failed += lp.failed();
    for c in &lp.clients {
        out.failures.extend(c.failures.iter().cloned());
    }
}

/// FNV-1a 64 of `bytes` (output digests).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Median wall time of `reps` calls of `f`, in microseconds.
fn probe_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metrics.push(("p50_us".into(), 1.25, "us".into()));
        let json = out.to_json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_us\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
        out.failures.push("digest mismatch".into());
        assert!(out.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_metrics_the_code_reports() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
