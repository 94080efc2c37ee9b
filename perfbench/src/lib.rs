//! The dtaint benchmark: full-image scan latency (`scan-large`) and
//! batch fleet throughput (`fleet-cold`, `fleet-rescan`), with a
//! separate traced pass that times each layer from outside. See
//! `README.md` in this directory for the workloads, the metrics and the
//! layer → end-to-end map; `src/main.rs` is the command.

pub mod alloc;
pub mod compose;
pub mod inputs;
pub mod oracle;
pub mod trace;

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`; the
/// `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("scan_s", "s"), ("images_per_s", "1/s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`; the
/// `per_layer` list of `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("fwimage.extract_s", "s"),
    ("cfg.lift_s", "s"),
    ("cfg.callgraph_s", "s"),
    ("cfg.blocks", "count"),
    ("cfg.peak_mb", "MiB"),
    ("symex.busy_s", "s"),
    ("symex.blocks_executed", "count"),
    ("symex.paths_explored", "count"),
    ("symex.retried", "count"),
    ("symex.pool_nodes", "count"),
    ("symex.peak_mb", "MiB"),
    ("dataflow.busy_s", "s"),
    ("dataflow.alias_s", "s"),
    ("dataflow.indirect_s", "s"),
    ("dataflow.propagate_s", "s"),
    ("dataflow.fuel_spent", "count"),
    ("dataflow.resolved_indirect", "count"),
    ("dataflow.pool_nodes", "count"),
    ("dataflow.peak_mb", "MiB"),
    ("detect.busy_s", "s"),
    ("detect.sink_sites", "count"),
    ("detect.findings", "count"),
    ("detect.reached_ratio", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.load_s", "s"),
    ("cache.entries", "count"),
    ("store.snapshot_s", "s"),
    ("store.snapshot_mb", "MiB"),
    ("store.snapshots", "count"),
    ("image.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

#[global_allocator]
static GLOBAL: alloc::LayerAlloc = alloc::LayerAlloc;

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest of the p50/p75/p90/p95/p99/p99.9 percentiles that has at
/// least ten samples above it, as `(label, value)` by nearest rank;
/// `None` when `xs` holds fewer than twenty samples.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95), ("p90", 0.9), ("p75", 0.75), ("p50", 0.5)]
        .into_iter()
        .find_map(|(label, q)| {
            let rank = ((q * n as f64).ceil() as usize).max(1);
            (n >= rank + 10).then(|| (label, v[rank - 1]))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(("p90", 90.0)));
        assert_eq!(tail(&xs[..20]), Some(("p50", 10.0)));
        assert_eq!(tail(&xs[..19]), None);
    }
}
