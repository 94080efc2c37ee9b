//! The traced composition reports exactly what `Dtaint::analyze` does:
//! the same findings, hence the same fingerprints, on a small profile
//! and on the first image of every workload — cold, and for
//! `fleet-rescan` warm from the base release's cache entries.
//!
//! The centaurus case scans 14,035 functions twice; run these with
//! `cargo test --release`.

use dtaint_core::{CacheRef, Dtaint, DtaintConfig, Finding, SummaryCache};
use dtaint_fwgen::{build_firmware, table2_profiles};
use dtaint_perfbench::compose::traced_scan;
use dtaint_perfbench::inputs::{fleet, fleet_releases, large_image};
use dtaint_perfbench::oracle::{fingerprints, single_binary};
use dtaint_perfbench::trace::Tracer;
use std::sync::Arc;

fn analyze(bin: &dtaint_fwbin::Binary, threads: usize, cache: Option<CacheRef>) -> Vec<Finding> {
    let config = DtaintConfig { threads, cache, ..Default::default() };
    Dtaint::with_config(config).analyze(bin, "bin").expect("generated image scans").findings
}

fn assert_same(composed: &[Finding], pipeline: &[Finding]) {
    assert_eq!(fingerprints(composed), fingerprints(pipeline));
    assert_eq!(composed, pipeline);
    assert!(!pipeline.is_empty(), "the image has planted flows");
}

#[test]
fn small_profile_matches_the_pipeline() {
    let mut p = table2_profiles().remove(1);
    p.total_functions = 120;
    let bin = build_firmware(&p).binary;
    let composed = traced_scan(&bin, 1, None, &mut Tracer::default());
    assert_same(&composed.findings, &analyze(&bin, 1, None));
    assert!(composed.counts.sink_sites >= composed.counts.reached_sites);
}

#[test]
fn scan_large_first_image_matches_the_pipeline() {
    let (_, bin) = single_binary(&large_image(0).bytes).expect("image unpacks");
    let composed = traced_scan(&bin, 2, None, &mut Tracer::default());
    assert_same(&composed.findings, &analyze(&bin, 2, None));
}

#[test]
fn fleet_cold_first_image_matches_the_pipeline() {
    let (name, bin) = single_binary(&fleet(0, 1)[0].bytes).expect("image unpacks");
    let cache = Arc::new(SummaryCache::new());
    let cref = CacheRef::new(cache.clone(), &name);
    let composed = traced_scan(&bin, 1, Some(&cref), &mut Tracer::default());
    assert_same(&composed.findings, &analyze(&bin, 1, None));
    // What the composition stored serves the pipeline's next scan.
    let warm = analyze(&bin, 1, Some(CacheRef::new(cache.clone(), &name)));
    assert_eq!(warm, composed.findings);
    let st = cache.scan_stats(&name);
    assert_eq!((st.sym_misses, st.ddg_misses), (0, 0), "warm re-scan missed");
}

#[test]
fn fleet_rescan_first_image_matches_the_pipeline_warm() {
    let (base, updated) = fleet_releases(0, 1).remove(0);
    let (name, base_bin) = single_binary(&base.bytes).expect("base unpacks");
    let (_, bin) = single_binary(&updated.bytes).expect("release unpacks");
    let cache = Arc::new(SummaryCache::new());
    analyze(&base_bin, 1, Some(CacheRef::new(cache.clone(), &name)));
    let cref = CacheRef::new(cache.clone(), &name);
    let composed = traced_scan(&bin, 1, Some(&cref), &mut Tracer::default());
    assert_same(&composed.findings, &analyze(&bin, 1, None));
    let st = cache.scan_stats(&name);
    assert!(st.sym_hits > 0 && st.ddg_hits > 0, "the re-scan used the cache: {st:?}");
    assert!(st.sym_misses > 0, "the edited functions missed");
}
