//! `fig11`: the paper's predictive-tiling and AR queries (Fig. 11) in a
//! closed loop with one client, round-robin over the three 360°
//! datasets. Every query STOREs a new version through the WAL, so
//! catalog, STORE and WAL commits run beside the scans.
//!
//! Each dataset decodes to about 34 MiB of 4:2:0 frames, three times
//! over the 32 MiB shared-decode budget together, so the cyclic scan
//! decodes on every query instead of reading a cache.

use crate::trace::Tracer;
use crate::{fnv1a, probe_us, Client, Config, Outcome, Scale};
use lightdb::codec::encoder::encode_tile_opts;
use lightdb::codec::{CodecKind, Decoder, EncodedGop, VideoStream};
use lightdb::exec::frameops::GPU_SEARCH_RANGE;
use lightdb::exec::Metrics;
use lightdb::prelude::*;
use lightdb_apps::detect::DetectUdf;
use lightdb_apps::predictor::is_important;
use lightdb_datasets::{install, Dataset, DatasetSpec};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A query takes about a second, too few per segment for segment
/// medians: the whole loop is one segment.
const SEGMENTS: usize = 1;

/// The two query shapes of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind {
    Tiling,
    Ar,
}

struct Sizes {
    spec: DatasetSpec,
    grid: (usize, usize),
    detect: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        // The paper's mini scale: 512×256, 30 fps, 6 s per dataset.
        Scale::Full => Sizes {
            spec: DatasetSpec {
                width: 512,
                height: 256,
                fps: 30,
                seconds: 6,
                qp: 22,
            },
            grid: (4, 4),
            detect: 128,
        },
        Scale::Tiny => Sizes {
            spec: DatasetSpec {
                width: 128,
                height: 64,
                fps: 4,
                seconds: 2,
                qp: 22,
            },
            grid: (2, 2),
            detect: 32,
        },
    }
}

/// The predictive-tiling and AR queries as the paper states them (the
/// same VRQL as `lightdb_apps::workloads::lightdb_q`), with the
/// planning and execution steps left to the caller so each is timed.
fn query(kind: Kind, input: &str, output: &str, sz: &Sizes) -> VrqlExpr {
    match kind {
        Kind::Tiling => {
            let (cols, rows) = sz.grid;
            scan(input)
                >> Partition::along(Dimension::T, 1.0)
                    .and(Dimension::Theta, 2.0 * std::f64::consts::PI / cols as f64)
                    .and(Dimension::Phi, std::f64::consts::PI / rows as f64)
                >> Subquery::new("adaptive-quality", move |partition, tile| {
                    let quality = if is_important(partition, cols, rows) {
                        Quality::Medium
                    } else {
                        Quality::Low
                    };
                    tile >> Encode::quality(CodecKind::HevcSim, quality)
                })
                >> Store::named(output)
        }
        Kind::Ar => {
            let source = scan(input);
            let lowres = source.clone() >> Discretize::angular(sz.detect, sz.detect);
            let boxes = lowres >> Map::udf(Arc::new(DetectUdf));
            union(vec![source, boxes], MergeFunction::Last) >> Store::named(output)
        }
    }
}

fn output_name(dataset: Dataset, kind: Kind) -> String {
    let k = match kind {
        Kind::Tiling => "tiled",
        Kind::Ar => "ar",
    };
    format!("{}_{k}_out", dataset.name())
}

/// Queries in one cycle of the loop: tiling and AR on each dataset.
/// The loop runs whole cycles, so the six queries, which differ in
/// cost, are equally represented in every run.
const ROUND: u64 = 6;

/// The `i`-th query of the loop: a seeded phase into the cycle
/// tiling/AR × timelapse/venice/coaster.
fn nth(seed: u64, i: u64) -> (Dataset, Kind) {
    let j = i + seed % ROUND;
    let dataset = Dataset::ALL[((j / 2) % 3) as usize];
    let kind = if j.is_multiple_of(2) {
        Kind::Tiling
    } else {
        Kind::Ar
    };
    (dataset, kind)
}

/// Which layer an engine operator's span belongs to.
fn layer_of(op: &str) -> &'static str {
    match op {
        "DECODE" => "codec.decode",
        "ENCODE" => "codec.encode",
        "TILEUNION" => "codec.stitch",
        "STORE" => "storage.store",
        "PARTITION" => "exec.partition",
        "DISCRETIZE" => "exec.discretize",
        "MAP" => "exec.map",
        "UNION" => "exec.union",
        _ => "exec.other",
    }
}

/// Per-operator (busy, wall) in nanoseconds.
fn op_times(m: &Metrics) -> HashMap<&'static str, (f64, f64)> {
    m.report_wall()
        .into_iter()
        .map(|(op, busy, wall, _)| (op, (busy.as_nanos() as f64, wall.as_nanos() as f64)))
        .collect()
}

struct State {
    db: LightDb,
}

fn setup(dir: &Path, sz: &Sizes) -> Result<State, String> {
    let db = LightDb::open(dir).map_err(|e| e.to_string())?;
    // The datasets are generated and ingested side by side.
    let db_ref = &db;
    std::thread::scope(|scope| {
        let installs: Vec<_> = Dataset::ALL
            .map(|d| {
                scope.spawn(move || {
                    install(db_ref, d, &sz.spec).map_err(|e| format!("install {}: {e}", d.name()))
                })
            })
            .into_iter()
            .collect();
        installs
            .into_iter()
            .try_for_each(|h| h.join().expect("install thread panicked").map(|_| ()))
    })?;
    // Warm-up: one query of each shape before timing.
    let session = db.session();
    for kind in [Kind::Tiling, Kind::Ar] {
        let q = query(
            kind,
            Dataset::ALL[0].name(),
            &output_name(Dataset::ALL[0], kind),
            sz,
        );
        session.execute(&q).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(State { db })
}

/// Reads back a stored output: its media digest and frame count.
fn stored_digest(db: &LightDb, name: &str, tracer: &mut Tracer) -> Result<(u64, u64), String> {
    tracer.enter("storage.catalog_read");
    let stored = db.catalog().read(name, None);
    tracer.exit();
    let stored = stored.map_err(|e| e.to_string())?;
    tracer.span("bench.check", || {
        let track = stored
            .metadata
            .tracks
            .first()
            .ok_or("output has no track")?;
        let bytes =
            std::fs::read(stored.media().path_of(&track.media_path)).map_err(|e| e.to_string())?;
        Ok((fnv1a(&bytes), track.frame_count()))
    })
}

/// What the loops record, by (dataset, kind): the first output digest,
/// which every repeat must match, and each query's seconds.
#[derive(Debug, Default)]
struct Record {
    digests: Mutex<HashMap<(usize, Kind), u64>>,
    seconds: Mutex<BTreeMap<(usize, Kind), Vec<f64>>>,
}

fn run_loop(
    cfg: &Config,
    db: &LightDb,
    session: &Session,
    sz: &Sizes,
    trace: bool,
    first: u64,
    record: &Record,
) -> crate::LoopResult {
    let frames = sz.spec.frame_count() as u64;
    let op = |i: u64, client: &mut Client| {
        let (dataset, kind) = nth(cfg.seed, i);
        let out = output_name(dataset, kind);
        let q = query(kind, dataset.name(), &out, sz);
        let t = &mut client.tracer;
        let started = Instant::now();
        t.enter("optimizer.plan");
        let stmt = session.prepare(&q);
        t.exit();
        let stmt = match stmt {
            Ok(s) => s,
            Err(e) => return client.fail(format!("prepare {out}: {e}")),
        };
        t.enter("engine.execute");
        let before = t.is_on().then(|| op_times(session.metrics()));
        let result = session.execute_prepared(&stmt);
        if let Some(before) = before {
            for (op, (_, wall)) in op_times(session.metrics()) {
                let prior = before.get(op).map_or(0.0, |b| b.1);
                t.attribute(layer_of(op), wall - prior);
            }
        }
        t.exit();
        let secs = started.elapsed().as_secs_f64();
        if let Err(e) = result {
            return client.fail(format!("{out}: {e}"));
        }
        client.record(secs * 1e6);
        match stored_digest(db, &out, &mut client.tracer) {
            Ok((digest, n)) => {
                let key = (dataset as usize, kind);
                let want = *record
                    .digests
                    .lock()
                    .expect("digest map")
                    .entry(key)
                    .or_insert(digest);
                if want != digest {
                    client.fail(format!(
                        "{out}: output digest {digest:016x} differs from {want:016x}"
                    ));
                } else if n != frames {
                    client.fail(format!("{out}: {n} output frames, input has {frames}"));
                }
            }
            Err(e) => client.fail(format!("{out}: read back: {e}")),
        }
        record
            .seconds
            .lock()
            .expect("seconds")
            .entry((dataset as usize, kind))
            .or_default()
            .push(secs);
    };
    crate::closed_loop(1, crate::phase_seconds(cfg), ROUND, trace, first, &op)
}

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let sz = sizes(cfg.scale);
    let (state, setup_s) = crate::repeated_setup(cfg, |dir| setup(dir, &sz))?;
    let db = &state.db;
    let session = db.session();
    let mut out = Outcome::default();
    let record = Record::default();
    let untraced = run_loop(cfg, db, &session, &sz, false, 0, &record);
    crate::account(&mut out, &untraced);
    let frames = sz.spec.frame_count() as f64;
    let fps = |kind| {
        let totals = record.seconds.lock().expect("seconds");
        let secs: Vec<f64> = totals
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        let total: f64 = secs.iter().sum();
        if total > 0.0 {
            frames * secs.len() as f64 / total
        } else {
            0.0
        }
    };
    for ((d, kind), secs) in record.seconds.lock().expect("seconds").iter() {
        out.notes.push(format!(
            "{} {kind:?}: {} queries, median {:.1} ms",
            Dataset::ALL[*d].name(),
            secs.len(),
            crate::stats::median(secs) * 1e3
        ));
    }
    let (tiling_fps, ar_fps) = (fps(Kind::Tiling), fps(Kind::Ar));
    out.notes.push(format!(
        "{} queries, tiling_fps {tiling_fps:.2}, ar_fps {ar_fps:.2}, parallelism {}",
        untraced.ops(),
        session.config().parallelism.threads()
    ));
    if !cfg.trace {
        crate::end_to_end(&mut out, &setup_s, &untraced, SEGMENTS);
        return Ok(out);
    }

    let m = session.metrics();
    let ops_before = op_times(m);
    let counters_before: HashMap<_, _> = m.counters().into_iter().collect();
    let counts_before = (m.count("DECODE"), m.count("ENCODE"));
    let next = untraced.ops() + untraced.failed();
    let traced = run_loop(cfg, db, &session, &sz, true, next, &record);
    crate::account(&mut out, &traced);

    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    rows.insert("app.tiling_fps", tiling_fps);
    rows.insert("app.ar_fps", ar_fps);
    let queries = traced.ops().max(1) as f64;
    let kinds: Vec<Kind> = (next..next + traced.ops())
        .map(|i| nth(cfg.seed, i).1)
        .collect();
    let per_kind = |kind| kinds.iter().filter(|&&k| k == kind).count().max(1) as f64;
    let ops_after = op_times(m);
    let delta = |op: &str| {
        let a = ops_after.get(op).copied().unwrap_or((0.0, 0.0));
        let b = ops_before.get(op).copied().unwrap_or((0.0, 0.0));
        ((a.0 - b.0) / 1e6, (a.1 - b.1) / 1e6)
    };
    for (op, busy_row, wall_row) in [
        ("DECODE", "exec.op.DECODE.busy_ms", "exec.op.DECODE.wall_ms"),
        ("ENCODE", "exec.op.ENCODE.busy_ms", "exec.op.ENCODE.wall_ms"),
        (
            "PARTITION",
            "exec.op.PARTITION.busy_ms",
            "exec.op.PARTITION.wall_ms",
        ),
        (
            "TILEUNION",
            "exec.op.TILEUNION.busy_ms",
            "exec.op.TILEUNION.wall_ms",
        ),
        ("STORE", "exec.op.STORE.busy_ms", "exec.op.STORE.wall_ms"),
        (
            "DISCRETIZE",
            "exec.op.DISCRETIZE.busy_ms",
            "exec.op.DISCRETIZE.wall_ms",
        ),
        ("MAP", "exec.op.MAP.busy_ms", "exec.op.MAP.wall_ms"),
        ("UNION", "exec.op.UNION.busy_ms", "exec.op.UNION.wall_ms"),
    ] {
        let (busy, wall) = delta(op);
        rows.insert(busy_row, busy / queries);
        rows.insert(wall_row, wall / queries);
    }
    // Frame operators, per query of the shape that runs them.
    rows.insert(
        "exec.partition_ms",
        delta("PARTITION").0 / per_kind(Kind::Tiling),
    );
    rows.insert(
        "exec.discretize_ms",
        delta("DISCRETIZE").0 / per_kind(Kind::Ar),
    );
    rows.insert("exec.map_ms", delta("MAP").0 / per_kind(Kind::Ar));
    rows.insert("exec.union_ms", delta("UNION").0 / per_kind(Kind::Ar));
    rows.insert(
        "codec.decode_calls",
        (m.count("DECODE") - counts_before.0) as f64,
    );
    rows.insert(
        "codec.encode_calls",
        (m.count("ENCODE") - counts_before.1) as f64,
    );
    let counter = |name: &str| m.counter(name) - counters_before.get(name).copied().unwrap_or(0);
    let (hits, decodes) = (counter("shared_scan.hits"), counter("shared_scan.decodes"));
    rows.insert(
        "exec.shared_decode_hit_ratio",
        crate::stats::ratio(hits, hits + decodes),
    );
    let tracer = &traced.clients[0].tracer;
    let per_call = |name: &str| tracer.self_ns(name) / tracer.calls(name).max(1) as f64;
    rows.insert("optimizer.plan_us", per_call("optimizer.plan") / 1e3);
    rows.insert("engine.execute_self_ms", per_call("engine.execute") / 1e6);
    probes(db, &sz, &mut rows)?;
    crate::per_layer(&mut out, rows, &traced, &untraced);
    Ok(out)
}

/// Times the layers' public functions on the workload's own data.
fn probes(db: &LightDb, sz: &Sizes, rows: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let dataset = Dataset::ALL[0].name();
    let read = |name: &str| -> Result<VideoStream, String> {
        let stored = db.catalog().read(name, None).map_err(|e| e.to_string())?;
        let track = stored.metadata.tracks.first().ok_or("no track")?;
        stored
            .media()
            .read_stream(&track.media_path)
            .map_err(|e| e.to_string())
    };
    rows.insert(
        "storage.catalog_read_us",
        probe_us(200, || {
            std::hint::black_box(db.catalog().read(dataset, None).is_ok());
        }),
    );

    // Decode: every GOP of one dataset, per frame.
    let input = read(dataset)?;
    let decoder = Decoder::new();
    let started = Instant::now();
    let mut frames = Vec::new();
    for gop in &input.gops {
        frames.extend(
            decoder
                .decode_gop(&input.header, gop)
                .map_err(|e| e.to_string())?,
        );
    }
    rows.insert(
        "codec.decode_us_per_frame",
        started.elapsed().as_secs_f64() * 1e6 / frames.len().max(1) as f64,
    );

    // Encode: one GOP of frames, each predicted from the previous
    // reconstruction, at each of the tiling query's QPs and with the
    // motion-search range the executor's simulated GPU uses.
    let gop_frames = &frames[..(sz.spec.fps as usize).min(frames.len())];
    let mut per_frame = Vec::new();
    for quality in [Quality::Medium, Quality::Low] {
        let us = probe_us(1, || {
            let mut reference: Option<Frame> = None;
            for f in gop_frames {
                let (payload, recon) = encode_tile_opts(
                    f,
                    reference.as_ref(),
                    quality.qp(),
                    CodecKind::HevcSim,
                    GPU_SEARCH_RANGE,
                );
                std::hint::black_box(payload);
                reference = Some(recon);
            }
        });
        per_frame.push(us / gop_frames.len().max(1) as f64);
    }
    rows.insert("codec.encode_us_per_frame", crate::stats::mean(&per_frame));

    // TILEUNION: stitch the tiles of one tiled output GOP.
    let tiled = read(&output_name(Dataset::ALL[0], Kind::Tiling))?;
    let gop_bytes = tiled
        .gops
        .first()
        .ok_or("tiled output has no GOP")?
        .to_bytes();
    let gop = EncodedGop::from_bytes(&gop_bytes).map_err(|e| e.to_string())?;
    let tiles: Vec<EncodedGop> = (0..tiled.header.grid.tile_count())
        .map(|t| gop.extract_tile(t))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    rows.insert(
        "codec.stitch_us",
        probe_us(50, || {
            std::hint::black_box(EncodedGop::stitch_tiles(&tiles).is_ok());
        }),
    );

    // STORE of a query output: mux + media write + WAL commit.
    let ms = probe_us(5, || {
        std::hint::black_box(
            lightdb::ingest::store_stream(
                db,
                "probe_store",
                tiled.clone(),
                Point3::ORIGIN,
                lightdb::geom::projection::ProjectionKind::Equirectangular,
            )
            .is_ok(),
        );
    }) / 1e3;
    rows.insert("storage.store_ms", ms);
    Ok(())
}
