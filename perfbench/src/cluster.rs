//! `cluster_scan`: a coordinator over one in-process worker per core
//! (at most the 8 fragments), holding 8 GOP-aligned fragments of a
//! 192-frame video with replication 2. One client runs the Scan→Encode
//! passthrough plan in a closed loop; every result must be
//! byte-identical to the same plan on one engine holding the whole
//! video. The frames are small, so the work is connecting, RPC framing
//! with its CRC, and reassembly, not the codec.

use crate::{probe_us, Client, Config, Outcome, Scale};
use lightdb::codec::{CodecKind, VideoStream};
use lightdb::core::algebra::LogicalPlan;
use lightdb::exec::metrics::counters;
use lightdb::prelude::*;
use lightdb_cluster::coordinator::Fragment;
use lightdb_cluster::net::{decode_frame, encode_frame, Conn, FrameParse};
use lightdb_cluster::{fixture, worker, Coordinator, CoordinatorConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const FRAGMENTS: usize = 8;

/// About forty queries per second: five segments of a few hundred
/// queries each.
const SEGMENTS: usize = 5;

fn frames(scale: Scale) -> usize {
    match scale {
        Scale::Full => 192,
        // One GOP per fragment.
        Scale::Tiny => FRAGMENTS * fixture::GOP_LENGTH,
    }
}

fn workers() -> usize {
    crate::host::nproc().clamp(1, FRAGMENTS)
}

fn query() -> VrqlExpr {
    scan("vid") >> Encode::with(CodecKind::H264Sim)
}

/// The plan with its scan bound to one fragment.
fn fragment_plan(fragment: &str) -> LogicalPlan {
    (scan(fragment) >> Encode::with(CodecKind::H264Sim))
        .plan()
        .clone()
}

fn encoded_bytes(out: QueryOutput) -> Result<Vec<u8>, String> {
    match out {
        QueryOutput::Encoded(streams) if streams.len() == 1 => Ok(streams[0].to_bytes()),
        other => Err(format!("expected one encoded stream, got {other:?}")),
    }
}

// Field order is drop order: the coordinator stops its heartbeat
// before the workers are killed.
struct State {
    coord: Coordinator,
    handles: Vec<worker::WorkerHandle>,
    single: LightDb,
    baseline: Vec<u8>,
    dirs: Vec<PathBuf>,
    fragments: Vec<Fragment>,
}

fn setup(dir: &Path, scale: Scale) -> Result<State, String> {
    let dirs: Vec<PathBuf> = (0..workers()).map(|i| dir.join(format!("w{i}"))).collect();
    let fragments = fixture::ingest_cluster(&dirs, "vid", frames(scale), FRAGMENTS, 2)
        .map_err(|e| e.to_string())?;
    let single_dir = dir.join("single");
    fixture::ingest_baseline(&single_dir, "vid", frames(scale)).map_err(|e| e.to_string())?;
    let single = LightDb::open(&single_dir).map_err(|e| e.to_string())?;
    let baseline = encoded_bytes(
        single
            .execute_plan_with_ctx(query().plan(), QueryCtx::unbounded())
            .map_err(|e| e.to_string())?,
    )?;
    let handles = dirs
        .iter()
        .map(|d| worker::spawn(d))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let coord = Coordinator::new(
        handles.iter().map(|h| h.addr()).collect(),
        fragments.clone(),
        CoordinatorConfig::from_env(),
    );
    let state = State {
        coord,
        handles,
        single,
        baseline,
        dirs,
        fragments,
    };
    for _ in 0..20 {
        let out = state
            .coord
            .execute(query().plan(), ReadPolicy::Fail, &QueryCtx::unbounded());
        if encoded_bytes(out.map_err(|e| e.to_string())?)? != state.baseline {
            return Err("warm-up result differs from single-node".into());
        }
    }
    Ok(state)
}

/// The client's pause before query `i`: seeded, uniform below
/// `MAX_THINK`. Each query opens a fresh connection per fragment and
/// the workers poll for connections every 5 ms, so back-to-back
/// queries would (a) arrive in step with that poll, making latency a
/// staircase of 5 ms steps that a small slowdown jumps up a whole
/// step, and (b) leave so many sockets in TIME_WAIT that consecutive
/// runs slow each other down as ephemeral ports run short. Random
/// pauses decorrelate arrivals from the poll and keep a run's
/// connections to a few thousand.
fn think_time(seed: u64, i: u64) -> Duration {
    MAX_THINK.mul_f64(crate::rng::unit(crate::rng::hash(seed, &[8, i])))
}

const MAX_THINK: Duration = Duration::from_millis(30);

fn run_loop(cfg: &Config, state: &State, traced: bool, first: u64) -> crate::LoopResult {
    let plan = query().plan().clone();
    let ctx = QueryCtx::unbounded();
    let op = |i: u64, client: &mut Client| {
        let t = &mut client.tracer;
        t.enter("bench.think");
        std::thread::sleep(think_time(cfg.seed, i));
        t.exit();
        t.enter("cluster.query");
        let started = Instant::now();
        let result = state.coord.execute(&plan, ReadPolicy::Fail, &ctx);
        let us = started.elapsed().as_secs_f64() * 1e6;
        t.exit();
        let out = match result {
            Ok(o) => o,
            Err(e) => return client.fail(format!("distributed query: {e}")),
        };
        client.record(us);
        let same = client.tracer.span("bench.check", || {
            encoded_bytes(out).map(|b| b == state.baseline)
        });
        match same {
            Ok(true) => {}
            Ok(false) => {
                client.fail("distributed result is not byte-identical to single-node".into())
            }
            Err(e) => client.fail(e),
        }
    };
    // One client: the loop measures a single query stream.
    crate::closed_loop(1, crate::phase_seconds(cfg), 1, traced, first, &op)
}

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let (state, setup_s) = crate::repeated_setup(cfg, |dir| setup(dir, cfg.scale))?;
    let mut out = Outcome::default();
    out.notes.push(format!(
        "{} workers, {FRAGMENTS} fragments of {} frames, replication 2",
        state.handles.len(),
        frames(cfg.scale)
    ));
    let untraced = run_loop(cfg, &state, false, 0);
    crate::account(&mut out, &untraced);
    if !cfg.trace {
        crate::end_to_end(&mut out, &setup_s, &untraced, SEGMENTS);
        return Ok(out);
    }

    let m = state.coord.metrics();
    let before = (
        m.counter(counters::CLUSTER_RPC_RETRIES),
        m.counter(counters::CLUSTER_FAILOVERS),
    );
    let mut traced = run_loop(cfg, &state, true, untraced.ops() + untraced.failed());
    crate::account(&mut out, &traced);
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    rows.insert(
        "cluster.retries",
        (m.counter(counters::CLUSTER_RPC_RETRIES) - before.0) as f64,
    );
    rows.insert(
        "cluster.failovers",
        (m.counter(counters::CLUSTER_FAILOVERS) - before.1) as f64,
    );

    // Probes that need the live workers.
    let addr = state.handles[0].addr();
    let connect_us = probe_us(100, || {
        std::hint::black_box(Conn::connect(addr, "probe", Duration::from_secs(2)).is_ok());
    });
    let rtt_us = probe_us(100, || {
        std::hint::black_box(state.coord.worker_stats(0).is_ok());
    });
    let single_ms = probe_us(20, || {
        std::hint::black_box(
            state
                .single
                .execute_plan_with_ctx(query().plan(), QueryCtx::unbounded())
                .is_ok(),
        );
    }) / 1e3;
    let session = state.single.session();
    rows.insert(
        "optimizer.plan_us",
        probe_us(200, || {
            std::hint::black_box(session.prepare(&query()).is_ok());
        }),
    );
    rows.insert(
        "storage.catalog_read_us",
        probe_us(200, || {
            std::hint::black_box(state.single.catalog().read("vid", None).is_ok());
        }),
    );

    // Stop the workers, then run each fragment's plan through a local
    // engine on a data directory that holds it.
    let State {
        coord,
        handles,
        dirs,
        fragments,
        ..
    } = state;
    drop(coord);
    drop(handles);
    let mut engines: HashMap<usize, LightDb> = HashMap::new();
    let mut parts = Vec::with_capacity(fragments.len());
    let mut exec_ms = Vec::new();
    for f in &fragments {
        let holder = f.holders[0];
        if let std::collections::hash_map::Entry::Vacant(e) = engines.entry(holder) {
            e.insert(LightDb::open(&dirs[holder]).map_err(|e| e.to_string())?);
        }
        let db = &engines[&holder];
        let session = db.session();
        let plan = fragment_plan(&f.name);
        let mut bytes = Vec::new();
        exec_ms.push(
            probe_us(3, || {
                if let Ok(out) = session.execute_plan_with_ctx(&plan, QueryCtx::unbounded()) {
                    bytes = encoded_bytes(out).unwrap_or_default();
                }
            }) / 1e3,
        );
        parts.push(bytes);
    }
    let fragment_exec_ms = crate::stats::median(&exec_ms);
    let payload = parts
        .iter()
        .max_by_key(|p| p.len())
        .cloned()
        .unwrap_or_default();
    let frame_codec_us = probe_us(50, || {
        let frame = encode_frame(7, &payload);
        std::hint::black_box(matches!(decode_frame(&frame), FrameParse::Complete { .. }));
    });
    let reassemble_ms = probe_us(20, || {
        let streams: Vec<VideoStream> = parts
            .iter()
            .filter_map(|p| VideoStream::from_bytes(p).ok())
            .collect();
        let refs: Vec<&VideoStream> = streams.iter().collect();
        std::hint::black_box(VideoStream::concat(&refs).is_ok());
    }) / 1e3;

    // Inside each query the fragments' RPCs run in parallel: their
    // round trips overlap, so one is on the critical path, while the
    // framing and the remote executions share the cores. Reassembly is
    // serial. What this model leaves of the query is the coordinator's
    // own time.
    let lanes = FRAGMENTS.min(crate::host::nproc()) as f64;
    let per_query_ns = [
        (
            "cluster.rpc",
            rtt_us * 1e3 + FRAGMENTS as f64 * frame_codec_us * 1e3 / lanes,
        ),
        (
            "cluster.fragment_exec",
            FRAGMENTS as f64 * fragment_exec_ms * 1e6 / lanes,
        ),
        ("cluster.reassemble", reassemble_ms * 1e6),
    ];
    let client = &mut traced.clients[0];
    let queries = client.tracer.calls("cluster.query") as f64;
    for (layer, ns) in per_query_ns {
        client.tracer.shift("cluster.query", layer, ns * queries);
    }
    let coordinator_self_ms = client.tracer.self_ns("cluster.query") / queries.max(1.0) / 1e6;
    let p50_ms = {
        let lat = untraced.sorted_latencies();
        if lat.is_empty() {
            0.0
        } else {
            crate::stats::percentile(&lat, 50.0).value / 1e3
        }
    };
    rows.insert("cluster.connect_us", connect_us);
    rows.insert("cluster.rpc_rtt_us", rtt_us);
    rows.insert("cluster.frame_codec_us", frame_codec_us);
    rows.insert("cluster.fragment_exec_ms", fragment_exec_ms);
    rows.insert("cluster.reassemble_ms", reassemble_ms);
    rows.insert("cluster.single_node_ms", single_ms);
    rows.insert("cluster.coordinator_self_ms", coordinator_self_ms);
    rows.insert(
        "cluster.query_vs_single_node",
        p50_ms / single_ms.max(f64::MIN_POSITIVE),
    );
    crate::per_layer(&mut out, rows, &traced, &untraced);
    Ok(out)
}
