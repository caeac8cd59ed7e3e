//! The benchmark's own spans.
//!
//! A [`Tracer`] belongs to one client thread. The workload opens a
//! span around each call it makes into a LightDB crate, and reports
//! time measured elsewhere (the engine's per-operator spans, or a
//! count times a probed unit cost) as a child of the open span with
//! [`Tracer::attribute`]. A span's self time is its duration minus
//! its children's, so over one client's timeline
//!
//! ```text
//! sum(self time of every layer) + unattributed = wall
//! ```
//!
//! where `unattributed` is the time the client spent outside any
//! span. An attributed child longer than its parent leaves the parent
//! a negative self time rather than being clipped, so the identity
//! holds exactly and over-attribution stays visible.
//!
//! Layer names are `<layer>.<what>`; the part before the first dot
//! (`optimizer`, `engine`, `storage`, `codec`, `exec`, `cluster`,
//! `bench`) is the coarse layer the self-time rows are grouped by.

use std::collections::BTreeMap;
use std::time::Instant;

/// Coarse layers, in report order.
pub const LAYERS: [&str; 7] = [
    "optimizer",
    "engine",
    "storage",
    "codec",
    "exec",
    "cluster",
    "bench",
];

#[derive(Debug, Clone)]
struct Open {
    name: &'static str,
    start_ns: f64,
    children_ns: f64,
}

/// Span recorder for one client thread. Disabled tracers record
/// nothing and never read the clock.
#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    self_ns: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            self_ns: BTreeMap::new(),
            calls: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }

    /// Opens a span named `name` (nested under the open span, if any).
    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let t = self.now_ns();
            self.open_at(name, t);
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.on {
            let t = self.now_ns();
            self.close_at(t);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Books `ns` of work measured elsewhere as a child of the open
    /// span: it counts as `name`'s self time and is subtracted from
    /// the parent's.
    pub fn attribute(&mut self, name: &'static str, ns: f64) {
        if !self.on {
            return;
        }
        *self.self_ns.entry(name).or_default() += ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += ns;
        }
    }

    /// Moves `ns` of `from`'s self time to `to`: work estimated after
    /// the fact (a count times a probed unit cost) that ran inside
    /// `from`'s spans.
    pub fn shift(&mut self, from: &'static str, to: &'static str, ns: f64) {
        if !self.on {
            return;
        }
        *self.self_ns.entry(from).or_default() -= ns;
        *self.self_ns.entry(to).or_default() += ns;
    }

    fn open_at(&mut self, name: &'static str, t_ns: f64) {
        self.stack.push(Open {
            name,
            start_ns: t_ns,
            children_ns: 0.0,
        });
    }

    fn close_at(&mut self, t_ns: f64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = t_ns - open.start_ns;
        *self.self_ns.entry(open.name).or_default() += dur - open.children_ns;
        *self.calls.entry(open.name).or_default() += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
    }

    /// Total self time of span `name`, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0.0)
    }

    /// How many times span `name` closed.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Adds `n` to the event count `name` (counted like span calls).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.calls.entry(name).or_default() += n;
        }
    }
}

/// One workload's traced timeline, averaged over its clients: self
/// time per coarse layer and the residue, all in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    pub wall_ms: f64,
    pub layers_ms: Vec<(&'static str, f64)>,
    pub unattributed_ms: f64,
}

fn coarse(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Breakdown {
    /// Averages the clients' self times per coarse layer over
    /// `tracers` (one per client, each alive for `wall_ms`), leaving
    /// the rest of the wall as the residue.
    pub fn new(tracers: &[Tracer], wall_ms: f64) -> Breakdown {
        assert!(!tracers.is_empty(), "a breakdown needs at least one client");
        let clients = tracers.len() as f64;
        let layers_ms: Vec<(&'static str, f64)> = LAYERS
            .iter()
            .map(|&layer| {
                let ns: f64 = tracers
                    .iter()
                    .flat_map(|t| t.self_ns.iter())
                    .filter(|(name, _)| coarse(name) == layer)
                    .map(|(_, ns)| ns)
                    .sum();
                (layer, ns / 1e6 / clients)
            })
            .collect();
        for t in tracers {
            for name in t.self_ns.keys() {
                assert!(
                    LAYERS.contains(&coarse(name)),
                    "span {name} names no known layer"
                );
            }
        }
        let attributed: f64 = layers_ms.iter().map(|(_, ms)| ms).sum();
        Breakdown {
            wall_ms,
            layers_ms,
            unattributed_ms: wall_ms - attributed,
        }
    }

    /// `sum(layers) + unattributed - wall`, which is zero up to
    /// floating-point rounding.
    pub fn closure_error_ms(&self) -> f64 {
        self.layers_ms.iter().map(|(_, ms)| ms).sum::<f64>() + self.unattributed_ms - self.wall_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_attributions() {
        let mut t = Tracer::new(true);
        t.open_at("engine.execute", 0.0);
        t.open_at("optimizer.plan", 10.0);
        t.close_at(30.0); // 20 ns of planning
        t.attribute("codec.encode", 50.0);
        t.close_at(100.0);
        assert_eq!(t.self_ns("optimizer.plan"), 20.0);
        assert_eq!(t.self_ns("codec.encode"), 50.0);
        assert_eq!(t.self_ns("engine.execute"), 30.0);
        assert_eq!(t.calls("engine.execute"), 1);
    }

    #[test]
    fn layers_plus_residue_equal_wall() {
        let mut a = Tracer::new(true);
        a.open_at("engine.serve", 0.0);
        a.attribute("exec.tilecache", 2e6);
        a.close_at(5e6);
        a.open_at("bench.check", 6e6);
        a.close_at(7e6);
        let mut b = Tracer::new(true);
        b.open_at("engine.serve", 0.0);
        b.close_at(3e6);
        let bd = Breakdown::new(&[a, b], 10.0);
        let get = |l: &str| bd.layers_ms.iter().find(|(n, _)| *n == l).unwrap().1;
        // Client a: engine 3 ms self, exec 2 ms, bench 1 ms; client b:
        // engine 3 ms. Averaged over the two clients:
        assert_eq!(get("engine"), 3.0);
        assert_eq!(get("exec"), 1.0);
        assert_eq!(get("bench"), 0.5);
        assert_eq!(get("codec"), 0.0);
        assert_eq!(bd.unattributed_ms, 10.0 - 4.5);
        assert!(bd.closure_error_ms().abs() < 1e-12);
    }

    #[test]
    fn over_attribution_goes_negative_instead_of_clipping() {
        let mut t = Tracer::new(true);
        t.open_at("cluster.query", 0.0);
        t.attribute("cluster.rpc", 8e6);
        t.close_at(5e6);
        let bd = Breakdown::new(&[t], 6.0);
        let cluster = bd
            .layers_ms
            .iter()
            .find(|(n, _)| *n == "cluster")
            .unwrap()
            .1;
        assert_eq!(cluster, 5.0);
        assert_eq!(bd.unattributed_ms, 1.0);
    }

    #[test]
    fn shifting_moves_time_between_layers_without_changing_the_sum() {
        let mut t = Tracer::new(true);
        t.open_at("engine.serve", 0.0);
        t.close_at(10.0);
        t.shift("engine.serve", "storage.media_read", 4.0);
        assert_eq!(t.self_ns("engine.serve"), 6.0);
        assert_eq!(t.self_ns("storage.media_read"), 4.0);
        let bd = Breakdown::new(&[t], 10.0 / 1e6);
        assert!(bd.unattributed_ms.abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("engine.execute");
        t.attribute("codec.encode", 5.0);
        t.exit();
        assert_eq!(t.self_ns("engine.execute"), 0.0);
        assert_eq!(t.self_ns("codec.encode"), 0.0);
    }
}
