//! `serve_live` and `serve_vod`: viewers pulling tiles through
//! `TileServer::serve` (HQ focus tile plus LQ neighbour ring, prefetch
//! on), from one client thread per core in a closed loop.
//!
//! * Live: about 4096 hot-spot viewers in sync on the same second of
//!   one title. The working set is a few MiB, far inside the 64 MiB
//!   tile cache, so nearly every request is a tile-cache hit or joins
//!   an in-flight extraction; decode, encode and RPC do no work.
//! * On demand: a catalog of titles (one encoded HQ/LQ pair stored
//!   under many names, so set-up stays short), picked from a seeded
//!   Zipf distribution and started at seeded offsets. The titles hold
//!   at least 2× the 64 MiB buffer pool and the 64 MiB tile cache, so
//!   misses go through the pool, the media read with its per-GOP CRC,
//!   GOP parse and `extract_tile`, and both caches evict.

use crate::rng::{hash, permutation, unit, Zipf};
use crate::{probe_us, Client, Config, Outcome, Scale};
use lightdb::codec::{CodecKind, EncodedGop, Encoder, EncoderConfig, TileGrid, VideoStream};
use lightdb::container::TrackRole;
use lightdb::exec::tilecache::TileKey;
use lightdb::prelude::*;
use lightdb::tileserver::{Orientation, TileServer, TileServerConfig};
use lightdb_datasets::{frame, Dataset, DatasetSpec};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Live,
    Vod,
}

#[derive(Debug, Clone, Copy)]
struct Sizes {
    spec: DatasetSpec,
    grid: TileGrid,
    /// Titles stored (1 for live).
    titles: usize,
    /// Concurrent viewers (live) or viewer slots (on demand).
    viewers: u64,
    /// Serves issued before timing starts.
    warmup: u64,
}

const MIB: usize = 1 << 20;

/// Thousands of serves per second: ten segments of thousands each.
const SEGMENTS: usize = 10;

/// Encoded bytes the on-demand catalog must reach: twice the 64 MiB
/// buffer pool and tile cache, with headroom.
const VOD_CATALOG_BYTES: usize = 160 * MIB;

fn sizes(mode: Mode, scale: Scale) -> Sizes {
    let grid = TileGrid { cols: 4, rows: 4 };
    let spec = |width, height, fps, seconds| DatasetSpec {
        width,
        height,
        fps,
        seconds,
        qp: 22,
    };
    match (mode, scale) {
        (Mode::Live, Scale::Full) => Sizes {
            spec: spec(256, 128, 4, 6),
            grid,
            titles: 1,
            viewers: 4096,
            warmup: 4096 * 6,
        },
        // `titles` is recomputed from the encoded pair's size.
        (Mode::Vod, Scale::Full) => Sizes {
            spec: spec(512, 256, 8, 8),
            grid,
            titles: 0,
            viewers: 512,
            warmup: 14_000,
        },
        (Mode::Live, Scale::Tiny) => Sizes {
            spec: spec(256, 128, 4, 2),
            grid,
            titles: 1,
            viewers: 64,
            warmup: 128,
        },
        (Mode::Vod, Scale::Tiny) => Sizes {
            spec: spec(256, 128, 4, 2),
            grid,
            titles: 3,
            viewers: 8,
            warmup: 64,
        },
    }
}

/// One tile request of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Request {
    pub title: usize,
    pub viewer: u64,
    pub second: u64,
    pub tile: usize,
}

/// Where viewers look: a Zipf-ranked hot set of tiles per (title,
/// second), shared by every viewer, so attention overlaps as it does
/// around the action of a real scene. The action is near the horizon:
/// the hottest ranks are the tiles of the equatorial rows (every one
/// with a full neighbour ring), the coldest the polar rows, each band
/// in a seeded order per (title, second). So the seed moves the hot
/// set but not how much a serve costs.
fn hot_tile(
    seed: u64,
    title: usize,
    second: u64,
    viewer: u64,
    grid: TileGrid,
    zipf: &Zipf,
) -> usize {
    let rank = zipf.rank(unit(hash(seed, &[1, title as u64, second, viewer])));
    let pole_rows = grid.rows / 4;
    let band: Vec<usize> = (pole_rows..grid.rows - pole_rows).collect();
    let poles: Vec<usize> = (0..grid.rows).filter(|r| !band.contains(r)).collect();
    let (rows, r) = if rank < band.len() * grid.cols {
        (&band, rank)
    } else {
        (&poles, rank - band.len() * grid.cols)
    };
    let n = rows.len() * grid.cols;
    let offset = hash(seed, &[2, title as u64, second]) as usize % n;
    // An odd stride permutes a power-of-two count.
    let stride = if n.is_power_of_two() {
        (hash(seed, &[3, title as u64, second]) as usize % n) | 1
    } else {
        1
    };
    let k = (offset + r * stride) % n;
    rows[k / grid.cols] * grid.cols + k % grid.cols
}

/// The trace: request `i` is a pure function of the seed.
#[derive(Debug)]
pub(crate) struct Trace {
    mode: Mode,
    seed: u64,
    viewers: u64,
    seconds: u64,
    grid: TileGrid,
    tile_zipf: Zipf,
    title_zipf: Zipf,
    /// Popularity rank → title.
    title_of_rank: Vec<usize>,
}

impl Trace {
    pub(crate) fn new(
        mode: Mode,
        seed: u64,
        viewers: u64,
        seconds: u64,
        grid: TileGrid,
        titles: usize,
    ) -> Trace {
        Trace {
            mode,
            seed,
            viewers,
            seconds,
            grid,
            tile_zipf: Zipf::new(grid.tile_count(), 1.0),
            title_zipf: Zipf::new(titles, 1.0),
            title_of_rank: permutation(seed ^ 0x7469_746c_6573, titles),
        }
    }

    pub(crate) fn request(&self, i: u64) -> Request {
        let slot = i % self.viewers;
        let step = i / self.viewers;
        match self.mode {
            // Everyone on the same second, advancing together.
            Mode::Live => {
                let second = step % self.seconds;
                Request {
                    title: 0,
                    viewer: slot,
                    second,
                    tile: hot_tile(self.seed, 0, second, slot, self.grid, &self.tile_zipf),
                }
            }
            // Each slot watches one title for its length from a seeded
            // start second, then picks the next title. A seeded phase
            // per slot staggers the switches, so titles change at a
            // steady rate rather than all at once.
            Mode::Vod => {
                let pos = step + hash(self.seed, &[7, slot]) % self.seconds;
                let session = pos / self.seconds;
                let rank = self
                    .title_zipf
                    .rank(unit(hash(self.seed, &[4, slot, session])));
                let title = self.title_of_rank[rank];
                let start = hash(self.seed, &[5, slot, session]) % self.seconds;
                let second = (start + pos % self.seconds) % self.seconds;
                Request {
                    title,
                    viewer: slot,
                    second,
                    tile: hot_tile(self.seed, title, second, slot, self.grid, &self.tile_zipf),
                }
            }
        }
    }
}

fn title_name(t: usize) -> String {
    format!("title{t}")
}

/// Encodes the HQ/LQ pair once: `(hq, lq)`.
fn encode_pair(sz: &Sizes) -> Result<(VideoStream, VideoStream), String> {
    let frames: Vec<_> = (0..sz.spec.frame_count())
        .map(|i| frame(Dataset::Venice, &sz.spec, i))
        .collect();
    let encode = |quality: Quality| {
        Encoder::new(EncoderConfig {
            codec: CodecKind::HevcSim,
            qp: quality.qp(),
            grid: sz.grid,
            gop_length: sz.spec.fps as usize,
            fps: sz.spec.fps,
        })
        .and_then(|e| e.encode(&frames))
        .map_err(|e| e.to_string())
    };
    Ok((encode(Quality::High)?, encode(Quality::Low)?))
}

struct State {
    db: LightDb,
    session: Session,
    servers: Vec<TileServer>,
    sz: Sizes,
    pair_bytes: usize,
}

fn setup(dir: &Path, mode: Mode, scale: Scale, seed: u64, clients: usize) -> Result<State, String> {
    let mut sz = sizes(mode, scale);
    let db = LightDb::open(dir).map_err(|e| e.to_string())?;
    let (hq, lq) = encode_pair(&sz)?;
    let pair_bytes = hq.to_bytes().len() + lq.to_bytes().len();
    if mode == Mode::Vod && scale == Scale::Full {
        sz.titles = VOD_CATALOG_BYTES.div_ceil(pair_bytes).max(2);
    }
    let store = |name: String, stream: &VideoStream| {
        lightdb::ingest::store_stream(
            &db,
            &name,
            stream.clone(),
            Point3::ORIGIN,
            lightdb::geom::projection::ProjectionKind::Equirectangular,
        )
        .map_err(|e| format!("store {name}: {e}"))
    };
    // One storing thread per core; the WAL groups their commits.
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let stores: Vec<_> = (0..crate::host::nproc())
            .map(|_| {
                scope.spawn(|| loop {
                    let t = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if t >= sz.titles {
                        return Ok::<(), String>(());
                    }
                    store(title_name(t), &hq)?;
                    store(format!("{}_lq", title_name(t)), &lq)?;
                })
            })
            .collect();
        stores
            .into_iter()
            .try_for_each(|h| h.join().expect("store thread panicked"))
    })?;
    let session = db.session();
    let servers = (0..sz.titles)
        .map(|t| {
            let lq_name = format!("{}_lq", title_name(t));
            session
                .tile_server(&title_name(t), Some(&lq_name), TileServerConfig::default())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let state = State {
        db,
        session,
        servers,
        sz,
        pair_bytes,
    };
    // Warm the caches with the head of the trace, from as many threads
    // as the measured loop uses; timing starts where the warm-up
    // stopped.
    let warm = trace_of(&state, mode, seed);
    let next = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= sz.warmup {
                        return Ok::<(), String>(());
                    }
                    let r = warm.request(i);
                    let server = &state.servers[r.title];
                    server
                        .serve(
                            r.viewer,
                            r.second,
                            Orientation::tile_center(r.tile, sz.grid),
                        )
                        .map_err(|e| format!("warm-up serve: {e}"))?;
                    server.prefetch(r.viewer);
                })
            })
            .collect();
        threads
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread panicked"))
    })?;
    Ok(state)
}

fn trace_of(state: &State, mode: Mode, seed: u64) -> Trace {
    let seconds = state.servers[0].duration_seconds();
    Trace::new(
        mode,
        seed,
        state.sz.viewers,
        seconds,
        state.sz.grid,
        state.sz.titles,
    )
}

/// A served tile kept for the byte-identity audit.
#[derive(Debug)]
struct Sample {
    title: usize,
    second: u64,
    tile: usize,
    hq: bool,
    bytes: Arc<Vec<u8>>,
}

/// One serve in `AUDIT_EVERY` is audited.
const AUDIT_EVERY: u64 = 509;

fn run_loop(
    cfg: &Config,
    state: &State,
    trace: &Trace,
    traced: bool,
    first: u64,
    samples: &Mutex<Vec<Sample>>,
) -> crate::LoopResult {
    let grid = state.sz.grid;
    let op = |i: u64, client: &mut Client| {
        let r = trace.request(i);
        let server = &state.servers[r.title];
        client.tracer.enter("engine.serve");
        let started = Instant::now();
        let result = server.serve(r.viewer, r.second, Orientation::tile_center(r.tile, grid));
        let us = started.elapsed().as_secs_f64() * 1e6;
        client.tracer.exit();
        let view = match result {
            Ok(v) => v,
            Err(e) => return client.fail(format!("serve {r:?}: {e}")),
        };
        client.record(us);
        client.tracer.enter("bench.check");
        let intact = view.focus == r.tile
            && !view.primary.bytes.is_empty()
            && view.neighbors.iter().all(|n| !n.bytes.is_empty());
        if hash(cfg.seed, &[6, i]).is_multiple_of(AUDIT_EVERY) {
            let mut kept = samples.lock().expect("samples");
            kept.push(Sample {
                title: r.title,
                second: r.second,
                tile: view.focus,
                hq: true,
                bytes: view.primary.bytes.clone(),
            });
            if let Some(n) = view.neighbors.first() {
                kept.push(Sample {
                    title: r.title,
                    second: r.second,
                    tile: n.tile,
                    hq: false,
                    bytes: n.bytes.clone(),
                });
            }
        }
        client.tracer.exit();
        client.tracer.enter("engine.prefetch");
        let warmed = server.prefetch(r.viewer) as u64;
        client.tracer.exit();
        if !intact {
            client.fail(format!("serve {r:?}: wrong focus tile or empty payload"));
        }
        client
            .tracer
            .count("lookups.serve", 1 + view.neighbors.len() as u64);
        client.tracer.count("lookups.prefetch", warmed);
    };
    crate::closed_loop(
        cfg.clients(),
        crate::phase_seconds(cfg),
        1,
        traced,
        first,
        &op,
    )
}

/// Re-reads every sampled tile straight from storage and compares it
/// with what was served. Returns `(checked, mismatches)`.
fn audit(state: &State, samples: &[Sample]) -> Result<(u64, Vec<String>), String> {
    let mut bad = Vec::new();
    for s in samples {
        let name = if s.hq {
            title_name(s.title)
        } else {
            format!("{}_lq", title_name(s.title))
        };
        let stored = state
            .db
            .catalog()
            .read(&name, None)
            .map_err(|e| e.to_string())?;
        let track = stored
            .metadata
            .tracks
            .iter()
            .find(|t| t.role == TrackRole::Video)
            .ok_or("no video track")?;
        let frame = s.second * u64::from(state.sz.spec.fps);
        let entry = track
            .gop_index
            .iter()
            .find(|e| frame >= e.start_frame && frame < e.start_frame + e.frame_count)
            .ok_or("second past the end of the title")?;
        let bytes = stored
            .media()
            .read_gop_bytes(&track.media_path, entry)
            .map_err(|e| e.to_string())?;
        let direct = EncodedGop::from_bytes(&bytes)
            .and_then(|g| g.extract_tile(s.tile))
            .map_err(|e| e.to_string())?
            .to_bytes();
        if direct != *s.bytes {
            bad.push(format!(
                "{name} second {} tile {}: served bytes differ from extract_tile",
                s.second, s.tile
            ));
        }
    }
    Ok((samples.len() as u64, bad))
}

pub(crate) fn run(cfg: &Config, mode: Mode) -> Result<Outcome, String> {
    let (state, setup_s) = crate::repeated_setup(cfg, |dir| {
        setup(dir, mode, cfg.scale, cfg.seed, cfg.clients())
    })?;
    let trace = trace_of(&state, mode, cfg.seed);
    let mut out = Outcome::default();
    let clients = cfg.clients();
    let samples = Mutex::new(Vec::new());
    let pool = state.db.pool();
    let cache = state.db.tile_cache().cloned();
    out.notes.push(format!(
        "{} titles, {:.1} MiB encoded ({:.2} MiB per HQ/LQ pair), {} viewers, {clients} clients",
        state.sz.titles,
        (state.pair_bytes * state.sz.titles) as f64 / MIB as f64,
        state.pair_bytes as f64 / MIB as f64,
        state.sz.viewers
    ));

    let untraced = run_loop(cfg, &state, &trace, false, state.sz.warmup, &samples);
    crate::account(&mut out, &untraced);
    let mut traced_loop = None;
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    if cfg.trace {
        let m = state.session.metrics();
        let counts_before = (m.count("DECODE"), m.count("ENCODE"));
        let pool_before = pool.stats();
        let cache_before = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let next = state.sz.warmup + untraced.ops() + untraced.failed();
        let mut traced = run_loop(cfg, &state, &trace, true, next, &samples);
        crate::account(&mut out, &traced);
        let p = pool.stats();
        let c = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let (hits, misses, coalesced) = (
            c.hits - cache_before.hits,
            c.misses - cache_before.misses,
            c.coalesced - cache_before.coalesced,
        );
        let loads = p.loads - pool_before.loads;
        rows.insert("storage.media_reads", loads as f64);
        rows.insert("storage.pool_loads", loads as f64);
        rows.insert(
            "storage.pool_evictions",
            (p.evictions - pool_before.evictions) as f64,
        );
        rows.insert(
            "storage.pool_hit_ratio",
            crate::stats::ratio(
                p.hits - pool_before.hits,
                p.hits - pool_before.hits + p.misses - pool_before.misses,
            ),
        );
        rows.insert(
            "exec.tilecache_hit_ratio",
            crate::stats::ratio(hits + coalesced, hits + misses + coalesced),
        );
        rows.insert("exec.tilecache_coalesced", coalesced as f64);
        rows.insert(
            "exec.tilecache_evictions",
            (c.evictions - cache_before.evictions) as f64,
        );
        rows.insert(
            "codec.decode_calls",
            (m.count("DECODE") - counts_before.0) as f64,
        );
        rows.insert(
            "codec.encode_calls",
            (m.count("ENCODE") - counts_before.1) as f64,
        );

        let unit = probes(&state, &mut rows)?;
        // Work inside serve and prefetch that the bench cannot wrap:
        // engine counts times probed unit costs, split between the two
        // calls by their share of tile lookups and between clients by
        // their share of lookups.
        let lookups = |c: &Client| {
            (
                c.tracer.calls("lookups.serve"),
                c.tracer.calls("lookups.prefetch"),
            )
        };
        let total: u64 = traced
            .clients
            .iter()
            .map(|c| lookups(c).0 + lookups(c).1)
            .sum::<u64>()
            .max(1);
        let work = [
            ("exec.tilecache", (hits + coalesced) as f64 * unit.hit_us),
            (
                "codec.parse_extract",
                misses as f64 * (unit.parse_us + unit.extract_us),
            ),
            ("storage.media_read", loads as f64 * unit.read_us),
        ];
        for client in traced.clients.iter_mut() {
            let (serve, prefetch) = lookups(client);
            for (layer, us) in work {
                client.tracer.shift(
                    "engine.serve",
                    layer,
                    us * 1e3 * serve as f64 / total as f64,
                );
                client.tracer.shift(
                    "engine.prefetch",
                    layer,
                    us * 1e3 * prefetch as f64 / total as f64,
                );
            }
        }
        let serve_self: f64 = traced
            .clients
            .iter()
            .map(|c| c.tracer.self_ns("engine.serve"))
            .sum();
        let serves: u64 = traced
            .clients
            .iter()
            .map(|c| c.tracer.calls("engine.serve"))
            .sum();
        rows.insert(
            "engine.serve_self_us",
            serve_self / serves.max(1) as f64 / 1e3,
        );
        traced_loop = Some(traced);
    }

    // Byte-identity audit of the sampled tiles.
    let samples = samples.into_inner().expect("samples");
    let (checked, bad) = audit(&state, &samples)?;
    out.attempted += checked;
    out.failed += bad.len() as u64;
    out.failures.extend(bad);
    out.notes.push(format!(
        "byte-identity audit: {checked} served tiles re-extracted"
    ));
    if checked == 0 && cfg.scale == Scale::Full {
        out.failures.push("the audit sampled no tiles".into());
    }

    match traced_loop {
        None => crate::end_to_end(&mut out, &setup_s, &untraced, SEGMENTS),
        Some(traced) => crate::per_layer(&mut out, rows, &traced, &untraced),
    }
    Ok(out)
}

struct UnitCosts {
    read_us: f64,
    parse_us: f64,
    extract_us: f64,
    hit_us: f64,
}

/// Times the serve path's layers one public call at a time on the
/// first title's data.
fn probes(state: &State, rows: &mut BTreeMap<&'static str, f64>) -> Result<UnitCosts, String> {
    let name = title_name(0);
    let stored = state
        .db
        .catalog()
        .read(&name, None)
        .map_err(|e| e.to_string())?;
    let track_idx = stored
        .metadata
        .tracks
        .iter()
        .position(|t| t.role == TrackRole::Video)
        .ok_or("no video track")?;
    let track = &stored.metadata.tracks[track_idx];
    let media = stored.media();
    let entries = &track.gop_index;
    let mut k = 0usize;
    let read_us = probe_us(3 * entries.len(), || {
        let e = &entries[k % entries.len()];
        k += 1;
        std::hint::black_box(media.read_gop_bytes(&track.media_path, e).is_ok());
    });
    let bytes = media
        .read_gop_bytes(&track.media_path, &entries[0])
        .map_err(|e| e.to_string())?;
    let parse_us = probe_us(50, || {
        std::hint::black_box(EncodedGop::from_bytes(&bytes).is_ok());
    });
    let gop = EncodedGop::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let tiles = state.sz.grid.tile_count();
    let mut t = 0usize;
    // The server caches `extract_tile(..).to_bytes()`, so time both.
    let extract_us = probe_us(4 * tiles, || {
        std::hint::black_box(gop.extract_tile(t % tiles).map(|g| g.to_bytes()).is_ok());
        t += 1;
    });
    let mut hit_us = 0.0;
    if let Some(cache) = state.db.tile_cache() {
        let key = TileKey {
            tlf: Arc::from(name.as_str()),
            version: stored.version,
            track: track_idx,
            gop: entries[0].start_frame,
            tile: 0,
            quality: Quality::High,
        };
        let extract = || {
            gop.extract_tile(0)
                .map(|g| g.to_bytes())
                .map_err(lightdb::exec::ExecError::from)
        };
        let metrics = lightdb::exec::Metrics::new();
        cache
            .get_or_extract(&key, &metrics, &|| false, &extract)
            .map_err(|e| e.to_string())?;
        hit_us = probe_us(1000, || {
            std::hint::black_box(
                cache
                    .get_or_extract(&key, &metrics, &|| false, &extract)
                    .is_ok(),
            );
        });
    }
    rows.insert("storage.media_read_us", read_us);
    rows.insert("codec.gop_parse_us", parse_us);
    rows.insert("codec.extract_tile_us", extract_us);
    rows.insert("exec.tilecache_hit_us", hit_us);
    Ok(UnitCosts {
        read_us,
        parse_us,
        extract_us,
        hit_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRID: TileGrid = TileGrid { cols: 4, rows: 4 };

    #[test]
    fn the_hottest_tiles_are_equatorial() {
        let zipf = Zipf::new(16, 1.0);
        let mut equatorial = 0;
        for viewer in 0..10_000 {
            let tile = hot_tile(5, 0, 3, viewer, GRID, &zipf);
            assert!(tile < 16);
            equatorial += usize::from((4..12).contains(&tile));
        }
        // Ranks 0..8 of Zipf(1.0) over 16 carry 80 % of the mass.
        assert!((7_600..8_400).contains(&equatorial), "{equatorial}");
    }

    #[test]
    fn same_seed_gives_the_same_trace() {
        for mode in [Mode::Live, Mode::Vod] {
            let a = Trace::new(mode, 11, 64, 6, GRID, 40);
            let b = Trace::new(mode, 11, 64, 6, GRID, 40);
            let c = Trace::new(mode, 12, 64, 6, GRID, 40);
            let reqs = |t: &Trace| (0..5000).map(|i| t.request(i)).collect::<Vec<_>>();
            assert_eq!(reqs(&a), reqs(&b));
            assert_ne!(reqs(&a), reqs(&c));
        }
    }

    #[test]
    fn live_viewers_share_a_second_and_vod_spreads_titles() {
        let live = Trace::new(Mode::Live, 3, 64, 6, GRID, 1);
        for i in 0..64 {
            assert_eq!(live.request(i).second, 0);
            assert_eq!(live.request(64 + i).second, 1);
        }
        let vod = Trace::new(Mode::Vod, 3, 64, 6, GRID, 40);
        let mut per_title = vec![0usize; 40];
        for i in 0..64 * 6 * 50 {
            let r = vod.request(i);
            assert!(r.second < 6 && r.tile < 16);
            per_title[r.title] += 1;
        }
        let mut sorted = per_title.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf: the most popular title draws far more than the median.
        assert!(sorted[0] > 4 * sorted[20], "{sorted:?}");
        assert!(per_title.iter().filter(|&&n| n > 0).count() > 20);
    }
}
