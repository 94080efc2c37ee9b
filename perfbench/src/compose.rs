//! The traced composition: one binary through cfg → callgraph → symex →
//! dataflow → detect by calling each layer's public functions, with a
//! span (and, for the heavy layers, a heap peak) around every call.
//!
//! It mirrors `Dtaint::analyze` (`crates/core/src/pipeline.rs`) in the
//! default keep-going configuration, including the fuel-exhaustion
//! retry and the symex-level cache probe, so that its findings are the
//! pipeline's; `tests/fidelity.rs` holds it to that. Two deliberate
//! differences:
//!
//! * Symex runs sequentially. The pipeline's worker split is private,
//!   so a traced `threads = 2` scan spends more time in symex than the
//!   untraced one; the traced-vs-untraced overhead includes that.
//! * Alias recognition and indirect-call resolution run inside
//!   `build_dataflow`, which exposes no per-stage boundary. They are
//!   replayed beforehand on clones of the same inputs, each in its own
//!   span (`dataflow.alias`, `dataflow.indirect`), and propagate time
//!   is derived as `dataflow` minus those two. The replays are extra
//!   work that only the traced pass does, as are the copies they run
//!   on (`trace.replay_copy`); [`Composed::replay_s`] reports all of it
//!   so the overhead can exclude it.

use crate::trace::Tracer;
use dtaint_cfg::{build_function_cfg, CallGraph, FunctionCfg};
use dtaint_core::report::dedup_findings;
use dtaint_core::taint::{detect_audit, site_rank, BoundsMode};
use dtaint_core::{default_sources, DtaintConfig, Finding};
use dtaint_dataflow::cache::{env_digest, function_content_hash, sym_salt, Level};
use dtaint_dataflow::sse::GlobalMap;
use dtaint_dataflow::{alias_pass, build_dataflow, resolve_indirect_calls, CacheRef};
use dtaint_fwbin::Binary;
use dtaint_symex::{analyze_function, canonical_encode, ExprPool, FuncSummary, SummaryDecoder};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Logical counters and sizes of one composed scan.
#[derive(Debug, Default)]
pub struct Counts {
    /// Basic blocks over all CFGs.
    pub cfg_blocks: u64,
    /// Blocks executed by symex (cache hits execute none).
    pub blocks_executed: u64,
    /// Paths explored by symex (cache hits explore none).
    pub paths_explored: u64,
    /// Functions retried degraded after fuel exhaustion.
    pub retried: u64,
    /// Expression-pool nodes after symex.
    pub symex_pool_nodes: u64,
    /// Data-flow fuel spent over the functions propagated (not cache hits).
    pub fuel_spent: u64,
    /// Indirect calls resolved by layout similarity.
    pub resolved_indirect: u64,
    /// Expression-pool nodes after the data-flow stage.
    pub dataflow_pool_nodes: u64,
    /// Distinct sink sites the detector judged.
    pub sink_sites: u64,
    /// Sink sites reported or judged sanitised.
    pub reached_sites: u64,
}

/// Result of one composed scan.
#[derive(Debug)]
pub struct Composed {
    /// Findings, deduplicated and ordered as `Dtaint::analyze` reports them.
    pub findings: Vec<Finding>,
    /// Logical counters.
    pub counts: Counts,
    /// Seconds spent in the alias and indirect replays and their copies.
    pub replay_s: f64,
}

/// Composes one scan of `bin` at `threads` data-flow threads, optionally
/// against an incremental cache, recording spans into `tr`.
pub fn traced_scan(
    bin: &Binary,
    threads: usize,
    cache: Option<&CacheRef>,
    tr: &mut Tracer,
) -> Composed {
    let config = DtaintConfig::default();
    let mut counts = Counts::default();
    if let Some(cref) = cache {
        cref.cache.begin_scan(&cref.scan);
    }
    // Entry addresses whose summaries must not enter the cache: lift
    // failures and degraded symex results.
    let mut uncacheable: BTreeSet<u32> = BTreeSet::new();

    let cfgs: Vec<FunctionCfg> = tr.leaf("cfg.lift", true, || {
        let mut cfgs = Vec::new();
        for s in bin.functions() {
            match build_function_cfg(bin, s) {
                Ok(c) => cfgs.push(c),
                Err(_) => {
                    uncacheable.insert(s.addr);
                }
            }
        }
        cfgs
    });
    counts.cfg_blocks = cfgs.iter().map(|c| c.block_count() as u64).sum();
    let mut callgraph = tr.leaf("cfg.callgraph", true, || CallGraph::build(bin, &cfgs));

    let (summaries, pool) = tr.leaf("symex", true, || {
        let salt = cache.map(|_| sym_salt(env_digest(bin), &config.symex));
        let mut pool = ExprPool::new();
        let mut summaries = Vec::with_capacity(cfgs.len());
        for c in &cfgs {
            let key = salt.and_then(|salt| {
                let sym = bin.function_at(c.addr)?;
                let bytes = bin.bytes_at(sym.addr, sym.size)?;
                Some(function_content_hash(salt, c.addr, &c.name, &bytes))
            });
            if let (Some(cref), Some(k)) = (cache, key) {
                if let Some(s) = probe(cref, k, &mut pool) {
                    cref.cache.note_hit(Level::Symex, &cref.scan, s.addr, k);
                    summaries.push(s);
                    continue;
                }
            }
            let (s, retried) = symex_one(bin, c, &mut pool, &config);
            counts.retried += u64::from(retried);
            counts.blocks_executed += u64::from(s.blocks_executed);
            counts.paths_explored += u64::from(s.paths_explored);
            if let Some(cref) = cache {
                cref.cache.note_miss(Level::Symex, &cref.scan, &s.name, s.addr, key);
                if let Some(k) = key {
                    if !s.degraded && !s.fuel_exhausted {
                        if let Some(blob) = canonical_encode(&pool, &s) {
                            cref.cache.store(Level::Symex, &cref.scan, k, blob);
                        }
                    }
                }
            }
            if s.degraded {
                uncacheable.insert(s.addr);
            }
            summaries.push(s);
        }
        (summaries, pool)
    });
    counts.symex_pool_nodes = pool.len() as u64;

    let mut df_config = config.dataflow.clone();
    df_config.threads = threads.clamp(1, cfgs.len().max(1));
    df_config.cache = cache.map(|cref| CacheRef {
        cache: cref.cache.clone(),
        scan: cref.scan.clone(),
        uncacheable: Arc::new(cref.uncacheable.iter().copied().chain(uncacheable).collect()),
    });

    let replay_start = tr.cursor();
    let (mut replay_pool, mut replay) = tr.leaf("trace.replay_copy", false, || {
        let by_addr: BTreeMap<u32, FuncSummary> =
            summaries.iter().map(|s| (s.addr, s.clone())).collect();
        (pool.clone(), by_addr)
    });
    tr.leaf("dataflow.alias", false, || {
        let globals = GlobalMap::build(bin);
        for s in replay.values_mut().filter(|s| !s.degraded) {
            alias_pass(s, &mut replay_pool, &df_config.alias, &|c| globals.base_of(c));
        }
    });
    tr.leaf("dataflow.indirect", false, || {
        let owned: Vec<FuncSummary> = replay.values().cloned().collect();
        resolve_indirect_calls(bin, &owned, &replay_pool)
    });
    tr.leaf("trace.replay_copy", false, || drop((replay, replay_pool)));
    let replay_s: f64 = tr.tally(replay_start).values().map(|(s, _)| s).sum();

    let df = tr.leaf("dataflow", true, || {
        build_dataflow(bin, &mut callgraph, summaries, pool, &df_config)
    });
    // Cache hits carry the fuel their cold run spent; count only the
    // functions this scan propagated.
    let ddg_misses = cache.map(|cref| cref.cache.scan_stats(&cref.scan).ddg_miss_fns);
    counts.fuel_spent = df
        .finals
        .values()
        .filter(|f| ddg_misses.as_ref().is_none_or(|m| m.contains(&f.summary.name)))
        .map(|f| f.fuel_used)
        .sum();
    counts.resolved_indirect = df.resolved_indirect.len() as u64;
    counts.dataflow_pool_nodes = df.pool.len() as u64;

    let (findings, site_outcomes) = tr.leaf("detect", true, || {
        let fn_names: HashMap<u32, String> =
            cfgs.iter().map(|c| (c.addr, c.name.clone())).collect();
        let mut outcome =
            detect_audit(&df, Some(bin), &default_sources(), &fn_names, BoundsMode::Paper, false);
        dedup_findings(&mut outcome.findings);
        (outcome.findings, outcome.site_outcomes)
    });
    // Sink sites as the report's coverage table counts them: every
    // observed site, at the best rank any observer judged it.
    let mut best: BTreeMap<(String, u32), u8> = df
        .finals
        .values()
        .flat_map(|f| f.sinks.iter())
        .map(|s| ((s.kind.name().to_owned(), s.sink_ins), site_rank::UNREACHED))
        .collect();
    for (key, rank) in site_outcomes {
        let e = best.entry(key).or_insert(rank);
        *e = (*e).max(rank);
    }
    counts.sink_sites = best.len() as u64;
    counts.reached_sites =
        best.values().filter(|&&r| r == site_rank::REPORTED || r == site_rank::SANITIZED).count()
            as u64;
    Composed { findings, counts, replay_s }
}

/// Rehydrates a cached local summary, rolling the pool back on a
/// malformed blob (the pipeline's symex-level probe).
fn probe(cref: &CacheRef, key: u64, pool: &mut ExprPool) -> Option<FuncSummary> {
    let blob = cref.cache.lookup_blob(Level::Symex, key)?;
    let mark = pool.mark();
    let s = (|| {
        let mut dec = SummaryDecoder::new(&blob, pool, &mut |_, _| None)?;
        let s = dec.summary()?;
        dec.at_end().then_some(s)
    })();
    if s.is_none() {
        pool.rollback(mark);
    }
    s
}

/// Symex for one function, retried once degraded when it runs out of
/// fuel (the pipeline's policy). Returns the summary and whether it was
/// retried.
fn symex_one(
    bin: &Binary,
    cfg: &FunctionCfg,
    pool: &mut ExprPool,
    config: &DtaintConfig,
) -> (FuncSummary, bool) {
    let mark = pool.mark();
    let s = analyze_function(bin, cfg, pool, &config.symex);
    if !s.fuel_exhausted {
        return (s, false);
    }
    pool.rollback(mark);
    let mut s = analyze_function(bin, cfg, pool, &config.symex.degraded());
    s.degraded = true;
    (s, true)
}
