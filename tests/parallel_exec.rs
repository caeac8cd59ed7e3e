//! Parallel-execution integration tests: determinism across thread
//! counts, the engine-level knob, wall-vs-busy metrics under overlap,
//! and buffer-pool accounting invariants under concurrent scans.

use lightdb::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lightdb-par-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn seed(db: &LightDb, name: &str, gops: usize, gop_length: usize) {
    let frames: Vec<Frame> = (0..gops * gop_length)
        .map(|i| {
            let mut f = Frame::new(64, 32);
            for y in 0..32 {
                for x in 0..64 {
                    f.set(x, y, Yuv::new(((x * 5 + y * 3 + i * 11) % 256) as u8, 128, 128));
                }
            }
            f
        })
        .collect();
    lightdb::ingest::store_frames(
        db,
        name,
        &frames,
        &lightdb::ingest::IngestConfig {
            fps: gop_length as u32,
            gop_length,
            ..Default::default()
        },
    )
    .unwrap();
}

/// The same plan, executed at 1/2/4/8 threads, produces byte-identical
/// encoded output — the parallel layer's ordering guarantee.
#[test]
fn query_output_is_identical_across_thread_counts() {
    let root = temp_root("determinism");
    let mut db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 6, 4);
    let q = scan("vid") >> Map::builtin(BuiltinMap::Sharpen) >> Encode::with(CodecKind::HevcSim);
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for threads in [1usize, 2, 4, 8] {
        db.set_parallelism(Parallelism::new(threads));
        let QueryOutput::Encoded(streams) = db.execute(&q).unwrap() else { panic!() };
        let bytes: Vec<Vec<u8>> = streams.iter().map(|s| s.to_bytes()).collect();
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(r, &bytes, "{threads}-thread output diverged from serial"),
        }
    }
    let _ = fs::remove_dir_all(&root);
}

/// Media bytes of every track of a stored TLF's latest version.
type Media = Vec<Vec<u8>>;

fn stored_media(db: &LightDb, name: &str) -> Media {
    let stored = db.catalog().read(name, None).unwrap();
    stored
        .metadata
        .tracks
        .iter()
        .map(|t| fs::read(stored.media().path_of(&t.media_path)).unwrap())
        .collect()
}

/// The Fig. 11 applications store byte-identical media at 1/2/4/8
/// threads: predictive tiling (PARTITION → SUBQUERY of per-tile
/// adaptive ENCODE → STORE) fans each partition's body out on the
/// pool, and AR (UNION LAST of the source and DISCRETIZE → detector
/// boxes → STORE) composites its output frames in parallel.
#[test]
fn fig11_subquery_and_union_store_identical_media_across_thread_counts() {
    use lightdb_apps::workloads::lightdb_q;
    use lightdb_datasets::{install, Dataset, DatasetSpec};
    let root = temp_root("fig11");
    let mut db = LightDb::open(&root).unwrap();
    let spec = DatasetSpec { width: 128, height: 64, fps: 4, seconds: 2, qp: 22 };
    for dataset in Dataset::ALL {
        install(&db, dataset, &spec).unwrap();
        let input = dataset.name();
        let mut reference: Option<(Media, Media)> = None;
        for threads in [1usize, 2, 4, 8] {
            db.set_parallelism(Parallelism::new(threads));
            let tiled = lightdb_q::tiling(&db, input, "tiled", 4, 4).unwrap();
            let ar = lightdb_q::ar(&db, input, "ar", 32).unwrap();
            assert_eq!((tiled.frames, ar.frames), (spec.frame_count(), spec.frame_count()));
            let media = (stored_media(&db, "tiled"), stored_media(&db, "ar"));
            match &reference {
                None => reference = Some(media),
                Some(r) => {
                    assert!(r.0 == media.0, "{input}: {threads}-thread tiling output diverged");
                    assert!(r.1 == media.1, "{input}: {threads}-thread AR output diverged");
                }
            }
        }
    }
    let _ = fs::remove_dir_all(&root);
}

/// Decoded (frame) outputs are identical too, including multi-part
/// plans that go through PARTITION.
#[test]
fn decoded_output_is_identical_across_thread_counts() {
    let root = temp_root("decdet");
    let mut db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 4, 4);
    let q = scan("vid") >> Map::builtin(BuiltinMap::Blur);
    db.set_parallelism(Parallelism::SERIAL);
    let QueryOutput::Frames(serial) = db.execute(&q).unwrap() else { panic!() };
    db.set_parallelism(Parallelism::new(8));
    let QueryOutput::Frames(parallel) = db.execute(&q).unwrap() else { panic!() };
    assert_eq!(serial.len(), parallel.len());
    for ((va, fa), (vb, fb)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(va, vb);
        assert_eq!(fa, fb);
    }
    let _ = fs::remove_dir_all(&root);
}

/// The engine surfaces the knob and honours `LIGHTDB_THREADS` as the
/// default; an explicit setter wins.
#[test]
fn engine_parallelism_knob_roundtrips() {
    let root = temp_root("knob");
    let mut db = LightDb::open(&root).unwrap();
    assert_eq!(db.parallelism().threads(), Parallelism::from_env().threads());
    db.set_parallelism(Parallelism::new(3));
    assert_eq!(db.parallelism().threads(), 3);
    db.set_parallelism(Parallelism::SERIAL);
    assert!(db.parallelism().is_serial());
    let _ = fs::remove_dir_all(&root);
}

/// STORE through the parallel auto-encode path: the stored TLF decodes
/// to the same frames regardless of thread count.
#[test]
fn parallel_store_matches_serial_store() {
    let root = temp_root("store");
    let mut db = LightDb::open(&root).unwrap();
    seed(&db, "src", 4, 4);
    db.set_parallelism(Parallelism::SERIAL);
    db.execute(&(scan("src") >> Map::builtin(BuiltinMap::Grayscale) >> Store::named("s1")))
        .unwrap();
    db.set_parallelism(Parallelism::new(8));
    db.execute(&(scan("src") >> Map::builtin(BuiltinMap::Grayscale) >> Store::named("s2")))
        .unwrap();
    let a = db.execute(&scan("s1")).unwrap().into_frame_parts().unwrap();
    let b = db.execute(&scan("s2")).unwrap().into_frame_parts().unwrap();
    assert_eq!(a, b, "parallel auto-encode at STORE changed the stored bytes");
    let _ = fs::remove_dir_all(&root);
}

/// Under parallel execution, per-operator wall time is bounded by busy
/// time (spans overlap, they don't sum) and both are recorded.
#[test]
fn metrics_distinguish_wall_from_busy() {
    let root = temp_root("walls");
    let mut db = LightDb::open(&root).unwrap();
    seed(&db, "vid", 8, 4);
    db.set_parallelism(Parallelism::new(8));
    let q = scan("vid") >> Map::builtin(BuiltinMap::Blur) >> Encode::with(CodecKind::HevcSim);
    db.execute(&q).unwrap();
    let m = db.metrics();
    for op in ["DECODE", "ENCODE", "MAP"] {
        let (busy, wall) = (m.total(op), m.wall(op));
        assert!(m.count(op) >= 8, "{op} ran once per GOP");
        assert!(busy > std::time::Duration::ZERO);
        assert!(wall > std::time::Duration::ZERO);
        // The union of spans can never exceed the sum of spans (allow
        // a tiny epsilon for the instants straddling the lock).
        assert!(
            wall <= busy + std::time::Duration::from_millis(5),
            "{op}: wall {wall:?} exceeds busy {busy:?}"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

/// Concurrent scans through one shared buffer pool keep the
/// byte-accounting invariant: `stats.bytes` equals the sum of resident
/// entry lengths and stays within capacity.
#[test]
fn pool_accounting_invariant_under_concurrent_scans() {
    let root = temp_root("poolinv");
    let db = Arc::new({
        let db = LightDb::open(&root).unwrap();
        seed(&db, "vid", 6, 2);
        db
    });
    std::thread::scope(|s| {
        for _ in 0..4 {
            let db = db.clone();
            s.spawn(move || {
                for _ in 0..5 {
                    let out = db.execute(&scan("vid")).unwrap();
                    assert_eq!(out.frame_count(), 12);
                }
            });
        }
    });
    let stats = db.pool().stats();
    assert_eq!(
        stats.bytes,
        db.pool().resident_bytes(),
        "pool byte accounting diverged from residency under concurrency"
    );
    assert!(stats.hits + stats.misses >= 6 * 4 * 5_u64);
    assert!(stats.loads <= stats.misses, "single-flight: loads never exceed misses");
    let _ = fs::remove_dir_all(&root);
}
