//! The warm path that skips lifting: a function whose symex summary and
//! CFG digest are both cached is served without being lifted. Every
//! check here holds the skip to the same contract as the rest of the
//! cache — a warm scan is `PartialEq`-equal to a cold one — and covers
//! the fallbacks: damaged digests, summary-only stores, lift failures,
//! fail-fast, and symbols that overlap.

use dtaint_core::{AnalysisReport, CacheRef, Dtaint, DtaintConfig, FunctionOutcome, SummaryCache};
use dtaint_dataflow::cache::{env_digest, sym_salt, symbol_content_hash, Level};
use dtaint_fwbin::Binary;
use dtaint_fwgen::{build_firmware, corrupt_binary, table2_profiles, BinFault};
use dtaint_symex::SymexConfig;
use std::sync::Arc;

/// One Table II profile with the function count capped, so the
/// debug-mode suite stays fast.
fn capped(index: usize, cap: usize) -> Binary {
    let mut p = table2_profiles().remove(index);
    p.total_functions = p.total_functions.min(cap);
    build_firmware(&p).binary
}

fn config(threads: usize, cache: Option<&Arc<SummaryCache>>) -> DtaintConfig {
    let cache = cache.map(|c| CacheRef::new(c.clone(), "img"));
    DtaintConfig { threads, cache, ..Default::default() }
}

fn scan(bin: &Binary, threads: usize, cache: Option<&Arc<SummaryCache>>) -> AnalysisReport {
    Dtaint::with_config(config(threads, cache))
        .analyze(bin, "img")
        .unwrap()
        .with_zeroed_wall_clock()
}

/// The symex key (which also keys the digest) of the function `name`.
fn key_of(bin: &Binary, name: &str) -> u64 {
    let salt = sym_salt(env_digest(bin), &SymexConfig::default());
    symbol_content_hash(salt, bin, bin.function(name).unwrap()).unwrap()
}

/// A copy of `bin` with the little-endian word at `addr` replaced.
fn with_word(bin: &Binary, addr: u32, word: u32) -> Binary {
    let mut sections = bin.sections.clone();
    let s = sections.iter_mut().find(|s| s.contains(addr)).unwrap();
    let at = (addr - s.addr) as usize;
    s.data[at..at + 4].copy_from_slice(&word.to_le_bytes());
    Binary::new(bin.arch, bin.entry, sections, bin.symbols().to_vec(), bin.imports.clone())
}

#[test]
fn warm_rescan_lifts_nothing_and_equals_cold() {
    let bin = capped(1, 80);
    let cold = scan(&bin, 1, None);
    for threads in [1, 2, 8] {
        let cache = Arc::new(SummaryCache::new());
        assert_eq!(scan(&bin, threads, Some(&cache)), cold, "populating scan at {threads}");
        assert_eq!(cache.scan_stats("img").cfg_hits, 0, "a cold scan serves no digest");
        let entries = cache.totals().entries;
        let warm = scan(&bin, threads, Some(&cache));
        assert_eq!(warm, cold, "warm scan diverged at {threads} threads");
        let st = cache.scan_stats("img");
        assert_eq!(st.cfg_hits, cold.functions as u64, "every function skips its lift");
        assert_eq!((st.sym_hits, st.sym_misses), (cold.functions as u64, 0));
        assert_eq!(st.ddg_misses, 0);
        assert_eq!(st.stores, 0, "a fully warm scan stores nothing");
        assert_eq!(cache.totals().entries, entries);
    }
}

#[test]
fn damaged_digest_records_fall_back_to_lifting() {
    let bin = capped(1, 80);
    let cold = scan(&bin, 1, None);
    let cache = Arc::new(SummaryCache::new());
    scan(&bin, 1, Some(&cache));
    // Three digests of functions with calls: one truncated, one whose
    // address is not the symbol's, one with a trailing byte.
    let names: Vec<String> = bin
        .functions()
        .iter()
        .map(|s| s.name.clone())
        .filter(|n| {
            let blob = cache.lookup_blob(Level::Cfg, key_of(&bin, n)).unwrap();
            blob.len() > 16
        })
        .take(3)
        .collect();
    assert_eq!(names.len(), 3);
    let keys: Vec<u64> = names.iter().map(|n| key_of(&bin, n)).collect();
    let good: Vec<Vec<u8>> =
        keys.iter().map(|&k| cache.lookup_blob(Level::Cfg, k).unwrap()).collect();
    let truncated = good[0][..good[0].len() - 1].to_vec();
    let mut moved = good[1].clone();
    let addr = u32::from_le_bytes(moved[..4].try_into().unwrap());
    moved[..4].copy_from_slice(&(addr + 4).to_le_bytes());
    let mut trailing = good[2].clone();
    trailing.push(0);
    for threads in [1, 2] {
        for (&k, bad) in keys.iter().zip([&truncated, &moved, &trailing]) {
            cache.store(Level::Cfg, "tamper", k, bad.clone());
        }
        let warm = scan(&bin, threads, Some(&cache));
        assert_eq!(warm, cold, "a damaged digest changed the report at {threads} threads");
        let st = cache.scan_stats("img");
        assert_eq!(st.sym_misses, 0, "the summaries still hit");
        assert_eq!(st.cfg_hits + 3, cold.functions as u64, "only the damaged ones are lifted");
        for (&k, g) in keys.iter().zip(&good) {
            assert_eq!(cache.lookup_blob(Level::Cfg, k).as_ref(), Some(g), "re-stored whole");
        }
    }
}

#[test]
fn summary_only_store_is_fully_warm_and_gains_digests() {
    let bin = capped(2, 80);
    let cold = scan(&bin, 1, None);
    let primed = Arc::new(SummaryCache::new());
    scan(&bin, 1, Some(&primed));
    // The legacy DTC1 layout holds only the two summary levels: the
    // store a scanner without digests leaves behind.
    let (loaded, _) = SummaryCache::from_bytes(&primed.encode_dtc1());
    let cache = Arc::new(loaded);
    let summaries = cache.totals().entries;
    for threads in [2, 1] {
        let warm = scan(&bin, threads, Some(&cache));
        assert_eq!(warm, cold, "summary-only warm scan diverged at {threads} threads");
        let st = cache.scan_stats("img");
        assert_eq!((st.sym_misses, st.ddg_misses), (0, 0), "every summary still hits");
        if threads == 2 {
            assert_eq!(st.cfg_hits, 0, "no digest to serve yet");
            assert_eq!(st.stores, 0, "digests are not summary stores");
            assert_eq!(cache.totals().entries, summaries + cold.functions, "one digest each");
        } else {
            assert_eq!(st.cfg_hits, cold.functions as u64, "the gained digests serve");
        }
    }
    assert_eq!(cache.to_bytes(), primed.to_bytes(), "the same store as a digest-era scan");
}

#[test]
fn lift_failures_stay_lift_failed_and_never_get_a_digest() {
    let bin = corrupt_binary(&capped(1, 80), &BinFault::GarbageOpcodes { index: 1, seed: 7 });
    let cold = scan(&bin, 1, None);
    let failed: Vec<&str> = cold
        .skipped_functions
        .iter()
        .filter(|r| r.outcome == FunctionOutcome::LiftFailed)
        .map(|r| r.name.as_str())
        .collect();
    assert!(!failed.is_empty(), "the garbage function must fail to lift");
    let cache = Arc::new(SummaryCache::new());
    scan(&bin, 1, Some(&cache));
    for threads in [1, 2] {
        let warm = scan(&bin, threads, Some(&cache));
        assert_eq!(warm, cold, "warm scan of a damaged image diverged at {threads} threads");
        assert_eq!(cache.scan_stats("img").cfg_hits, cold.functions as u64);
        for name in &failed {
            assert!(cache.lookup_blob(Level::Cfg, key_of(&bin, name)).is_none(), "{name}");
            assert!(cache.lookup_blob(Level::Symex, key_of(&bin, name)).is_none(), "{name}");
        }
    }
}

#[test]
fn fail_fast_returns_the_first_lift_failure_when_warm() {
    let once = corrupt_binary(&capped(1, 80), &BinFault::GarbageOpcodes { index: 9, seed: 3 });
    let bin = corrupt_binary(&once, &BinFault::GarbageOpcodes { index: 2, seed: 7 });
    let fail_fast = |threads, cache| DtaintConfig { fail_fast: true, ..config(threads, cache) };
    let cold = Dtaint::with_config(fail_fast(1, None)).analyze(&bin, "img").unwrap_err();
    let cache = Arc::new(SummaryCache::new());
    let kept = scan(&bin, 1, Some(&cache));
    assert_eq!(kept.functions_skipped, 2, "both garbage functions fail to lift");
    // Records are in address order: the first one is what fail-fast returns.
    assert_eq!(cold.to_string(), kept.skipped_functions[0].detail);
    for threads in [1, 2, 8] {
        let warm =
            Dtaint::with_config(fail_fast(threads, Some(&cache))).analyze(&bin, "img").unwrap_err();
        assert_eq!(warm.to_string(), cold.to_string(), "at {threads} threads");
    }
}

/// `--corrupt overlapping-symbols` extends the first function over the
/// start of the second. An edit to the second past the end of the first
/// must change the second's keys, so the warm scan misses on it and
/// equals a cold scan of the edited image.
#[test]
fn edit_past_an_overlap_misses_the_edited_symbol() {
    let bin = corrupt_binary(&capped(0, 60), &BinFault::OverlappingSymbols);
    let funcs = bin.functions();
    let (a, b) = (funcs[0], funcs[1]);
    assert!(b.addr < a.addr + a.size && a.addr + a.size < b.addr + 0x10);
    let name = b.name.clone();
    // A nop over one of the second function's words: it still lifts,
    // but its flows change.
    let edited = with_word(&bin, b.addr + 0x10, 0);
    let cold = scan(&edited, 1, None);
    assert_ne!(cold.findings, scan(&bin, 1, None).findings, "the edit must matter");
    let cache = Arc::new(SummaryCache::new());
    scan(&bin, 1, Some(&cache));
    let warm = scan(&edited, 1, Some(&cache));
    assert_eq!(warm, cold, "a stale cache entry served the edited function");
    let st = cache.scan_stats("img");
    assert!(st.sym_miss_fns.contains(&name), "symex misses: {:?}", st.sym_miss_fns);
    assert!(st.ddg_miss_fns.contains(&name), "ddg misses: {:?}", st.ddg_miss_fns);
    assert_eq!(st.cfg_hits + 1, cold.functions as u64, "only the edited function is lifted");
}
