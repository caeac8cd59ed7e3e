//! Tiny-scale run of every workload, untraced and traced: each must
//! pass its own output checks and report exactly the contract's
//! metrics in the result line.

use perfbench::{run, Config, Scale, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{}-{trace}", workload.name()));
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.4,
        trace,
        scale: Scale::Tiny,
        dir: dir.clone(),
    };
    let out = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(out.correct(), "{}: {:?}", workload.name(), out.failures);
    assert!(out.attempted >= 1);
    assert!(!dir.exists(), "the scratch directory must be removed");

    let expected: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(names, expected, "{}", workload.name());

    let json = out.to_json();
    assert!(json.starts_with(&format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{",
        out.attempted
    )));
    assert!(json.ends_with("}}"));
    assert!(!json.contains('\n'), "the result is one line");
    for (name, value, unit) in &out.metrics {
        assert!(value.is_finite(), "{name}");
        assert!(
            json.contains(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )),
            "{name}"
        );
    }
    if !trace {
        for (name, value, _) in &out.metrics {
            assert!(
                *value > 0.0,
                "{}: end-to-end {name} is {value}",
                workload.name()
            );
        }
    } else {
        let get = |n: &str| {
            out.metrics
                .iter()
                .find(|(m, _, _)| m == n)
                .map(|(_, v, _)| *v)
                .unwrap_or(f64::NAN)
        };
        let layers: f64 = PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("self_ms."))
            .map(|(n, _)| get(n))
            .sum();
        let residue = get("trace.wall_ms") - layers - get("unattributed_ms");
        assert!(
            residue.abs() < 1e-6,
            "{}: layers + unattributed != wall ({residue})",
            workload.name()
        );
    }
}

#[test]
fn fig11_smoke() {
    smoke(Workload::Fig11, false);
    smoke(Workload::Fig11, true);
}

#[test]
fn serve_live_smoke() {
    smoke(Workload::ServeLive, false);
    smoke(Workload::ServeLive, true);
}

#[test]
fn serve_vod_smoke() {
    smoke(Workload::ServeVod, false);
    smoke(Workload::ServeVod, true);
}

#[test]
fn cluster_scan_smoke() {
    smoke(Workload::ClusterScan, false);
    smoke(Workload::ClusterScan, true);
}
