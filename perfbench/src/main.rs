//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <scan-large|fleet-cold|fleet-rescan> --seed N --seconds S --trace 0|1`
//!
//! Sets up the workload's inputs from the seed, then runs closed-loop
//! passes (each waits for the previous one) for `S` seconds and checks
//! every scan against the oracle. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it splits the `S` seconds
//! between untraced and traced passes and reports the per-layer
//! metrics. Human-readable lines go first; the last line of
//! standard output is one JSON object.

use dtaint_core::{CacheRef, Dtaint, DtaintConfig, SummaryCache};
use dtaint_perfbench::compose::{traced_scan, Counts};
use dtaint_perfbench::inputs::{self, Image};
use dtaint_perfbench::oracle::{single_binary, Expected};
use dtaint_perfbench::trace::Tracer;
use dtaint_perfbench::{median, tail, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Intra-image threads on `scan-large` (the host's two cores).
const LARGE_THREADS: usize = 2;
/// `batch` worker flags on the fleet workloads.
const BATCH_FLAGS: [&str; 4] = ["--jobs", "2", "--threads", "1"];
const MIB: f64 = (1u64 << 20) as f64;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ScanLarge,
    FleetCold,
    FleetRescan,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = match get("--workload")? {
        "scan-large" => Workload::ScanLarge,
        "fleet-cold" => Workload::FleetCold,
        "fleet-rescan" => Workload::FleetRescan,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let seed = get("--seed")?.parse().map_err(|_| "--seed expects an integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds expects a number")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace expects 0 or 1".into()),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// The run's scratch directory inside the benchmark's own directory;
/// removed when the run ends, on success or error.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn io<T>(what: &Path, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{}: {e}", what.display()))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    io(to, std::fs::create_dir_all(to))?;
    for entry in io(from, std::fs::read_dir(from))? {
        let entry = io(from, entry)?;
        let dest = to.join(entry.file_name());
        if io(&entry.path(), entry.file_type())?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            io(&dest, std::fs::copy(entry.path(), &dest))?;
        }
    }
    Ok(())
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        io(dir, std::fs::remove_dir_all(dir))?;
    }
    io(dir, std::fs::create_dir_all(dir))
}

/// Runs `dtaint batch` in-process: `--jobs 2 --threads 1`, cache on.
fn batch(corpus: &Path, store: &Path, chrome: Option<&Path>) -> Result<i32, String> {
    let mut args: Vec<String> = vec!["--quiet".into(), "batch".into()];
    args.push(corpus.display().to_string());
    args.push("--store".into());
    args.push(store.display().to_string());
    args.extend(BATCH_FLAGS.iter().map(|s| s.to_string()));
    if let Some(c) = chrome {
        args.push("--trace-chrome".into());
        args.push(c.display().to_string());
    }
    dtaint_cli::run(&args, &mut std::io::sink())
}

/// Everything set-up produces for the measured passes.
struct Prepared {
    /// Images the passes scan, in batch (name) order.
    images: Vec<Image>,
    /// Known answer per image name.
    expected: BTreeMap<String, Expected>,
    /// Directory of `.fwi` files the fleet passes scan.
    corpus: PathBuf,
    /// The store every `fleet-rescan` pass copies.
    primed: Option<PathBuf>,
}

fn write_corpus(dir: &Path, images: &[Image]) -> Result<(), String> {
    fresh_dir(dir)?;
    for img in images {
        let p = dir.join(format!("{}.fwi", img.name));
        io(&p, std::fs::write(&p, &img.bytes))?;
    }
    Ok(())
}

fn setup(w: Workload, seed: u64, dir: &Path) -> Result<Prepared, String> {
    fresh_dir(dir)?;
    let corpus = dir.join("corpus");
    let (images, primed) = match w {
        Workload::ScanLarge => (vec![inputs::large_image(seed)], None),
        Workload::FleetCold => {
            let images = inputs::fleet(seed, inputs::FLEET_IMAGES);
            write_corpus(&corpus, &images)?;
            (images, None)
        }
        Workload::FleetRescan => {
            let (base, updated): (Vec<Image>, Vec<Image>) =
                inputs::fleet_releases(seed, inputs::FLEET_IMAGES).into_iter().unzip();
            write_corpus(&dir.join("base"), &base)?;
            write_corpus(&corpus, &updated)?;
            let primed = dir.join("primed");
            match batch(&dir.join("base"), &primed, None)? {
                0 => {}
                code => return Err(format!("priming batch exited {code}")),
            }
            (updated, Some(primed))
        }
    };
    let expected = images
        .iter()
        .map(|img| Ok((img.name.clone(), Expected::reference(img)?)))
        .collect::<Result<BTreeMap<_, _>, String>>()?;
    Ok(Prepared { images, expected, corpus, primed })
}

/// Tally of the untraced passes.
#[derive(Default)]
struct Untraced {
    /// Seconds per scan (`scan-large`) or per image inside `batch`.
    scan_s: Vec<f64>,
    /// Images committed per second, one value per pass.
    rate: Vec<f64>,
    /// Wall seconds per pass.
    pass_s: Vec<f64>,
    /// Resident-set high-water mark per pass, MiB.
    peak_rss: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn note_failure(failed: &mut u64, what: &str, err: &str) {
    if *failed < 5 {
        eprintln!("perfbench: oracle mismatch on {what}: {err}");
    }
    *failed += 1;
}

/// One untraced pass.
fn untraced_pass(w: Workload, p: &Prepared, work: &Path, u: &mut Untraced) -> Result<(), String> {
    if w == Workload::ScanLarge {
        let img = &p.images[0];
        let t = Instant::now();
        let scanned = single_binary(&img.bytes).and_then(|(name, bin)| {
            let config = DtaintConfig { threads: LARGE_THREADS, ..Default::default() };
            Dtaint::with_config(config).analyze(&bin, &name).map_err(|e| e.to_string())
        });
        let dt = t.elapsed().as_secs_f64();
        u.attempted += 1;
        match scanned.and_then(|r| p.expected[&img.name].check_findings(&r.findings)) {
            Ok(()) => {
                u.scan_s.push(dt);
                u.rate.push(1.0 / dt);
                u.pass_s.push(dt);
            }
            Err(e) => note_failure(&mut u.failed, &img.name, &e),
        }
        return Ok(());
    }
    let store = work.join("pass-store");
    let chrome = work.join("chrome.json");
    if store.exists() {
        io(&store, std::fs::remove_dir_all(&store))?;
    }
    if let Some(primed) = &p.primed {
        copy_dir(primed, &store)?;
    }
    let t = Instant::now();
    let code = batch(&p.corpus, &store, Some(&chrome));
    let dt = t.elapsed().as_secs_f64();
    let n = p.images.len() as u64;
    u.attempted += n;
    if code != Ok(0) {
        u.failed += n;
        eprintln!("perfbench: batch returned {code:?}");
        return Ok(());
    }
    let mut ok = 0u64;
    for img in &p.images {
        let path = store.join("reports").join(format!("{}.json", img.name));
        let checked = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| p.expected[&img.name].check_report_json(&text));
        match checked {
            Ok(()) => ok += 1,
            Err(e) => note_failure(&mut u.failed, &img.name, &e),
        }
    }
    u.rate.push(ok as f64 / dt);
    u.pass_s.push(dt);
    u.scan_s.extend(image_spans(&chrome)?);
    io(&store, std::fs::remove_dir_all(&store))
}

/// Per-image worker seconds from `batch --trace-chrome`.
fn image_spans(chrome: &Path) -> Result<Vec<f64>, String> {
    let text = io(chrome, std::fs::read_to_string(chrome))?;
    let doc: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let Some(serde_json::Value::Arr(events)) = doc.get("traceEvents") else {
        return Err("chrome trace without traceEvents".into());
    };
    Ok(events
        .iter()
        .filter(|e| matches!(e.get("cat"), Some(serde_json::Value::Str(c)) if c == "image"))
        .filter_map(|e| match e.get("dur") {
            Some(serde_json::Value::Int(us)) => Some(*us as f64 / 1e6),
            _ => None,
        })
        .collect())
}

/// One traced pass; returns its per-layer values (of the `trace.*`
/// entries, only `trace.wall_s`) and counts its scans into
/// `att`/`failed`.
fn traced_pass(
    w: Workload,
    p: &Prepared,
    work: &Path,
    tr: &mut Tracer,
    pass: u64,
    att: &mut u64,
    failed: &mut u64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let from = tr.cursor();
    let mut counts = Counts::default();
    let mut replay_s = 0.0;
    let mut findings = 0u64;
    let (mut hits, mut attempts) = (0u64, 0u64);
    let mut snapshot_bytes = 0usize;
    let mut snapshots = 0u64;
    let mut max_pool = (0u64, 0u64);
    // Fleet passes start from the same store state as the untraced ones;
    // like `batch`'s wall time, the pass's starts after the store copy.
    let mut t = Instant::now();
    let cache_state = if w == Workload::ScanLarge {
        None
    } else {
        let store = work.join("trace-store");
        if store.exists() {
            io(&store, std::fs::remove_dir_all(&store))?;
        }
        match &p.primed {
            Some(primed) => copy_dir(primed, &store)?,
            None => io(&store, std::fs::create_dir_all(&store))?,
        }
        let path = io(&store, dtaint_store::StoreDir::open(&store))?.cache_path();
        t = Instant::now();
        tr.set_scan(pass << 16);
        let cache = tr.leaf("cache.load", false, || SummaryCache::load_with_report(&path).0);
        Some((Arc::new(cache), path))
    };
    for (i, img) in p.images.iter().enumerate() {
        tr.set_scan((pass << 16) | (i as u64 + 1));
        let root = tr.open("image");
        let (name, bin) = tr.leaf("fwimage.extract", false, || single_binary(&img.bytes))?;
        let threads = if w == Workload::ScanLarge { LARGE_THREADS } else { 1 };
        let label = format!("{}/{name}", img.name);
        let cref = cache_state.as_ref().map(|(c, _)| CacheRef::new(c.clone(), &label));
        let composed = traced_scan(&bin, threads, cref.as_ref(), tr);
        if let Some((cache, path)) = &cache_state {
            let written = tr.leaf("store.snapshot", false, || {
                let bytes = cache.to_bytes();
                dtaint_store::atomic_write(&dtaint_store::FaultFs::new(), path, &bytes)
                    .map(|()| bytes.len())
            });
            snapshot_bytes = io(path, written)?;
            snapshots += 1;
            let st = cache.scan_stats(&label);
            hits += st.sym_hits + st.ddg_hits;
            attempts += st.sym_hits + st.sym_misses + st.ddg_hits + st.ddg_misses;
        }
        tr.close(root);
        *att += 1;
        if let Err(e) = p.expected[&img.name].check_findings(&composed.findings) {
            note_failure(failed, &img.name, &format!("traced composition: {e}"));
        }
        replay_s += composed.replay_s;
        findings += composed.findings.len() as u64;
        let c = composed.counts;
        counts.cfg_blocks += c.cfg_blocks;
        counts.blocks_executed += c.blocks_executed;
        counts.paths_explored += c.paths_explored;
        counts.retried += c.retried;
        counts.fuel_spent += c.fuel_spent;
        counts.resolved_indirect += c.resolved_indirect;
        counts.sink_sites += c.sink_sites;
        counts.reached_sites += c.reached_sites;
        max_pool = (max_pool.0.max(c.symex_pool_nodes), max_pool.1.max(c.dataflow_pool_nodes));
    }
    let entries = cache_state.as_ref().map_or(0, |(cache, _)| cache.totals().entries);
    let wall = t.elapsed().as_secs_f64();
    let tally = tr.tally(from);
    let s = |name: &str| tally.get(name).map_or(0.0, |v| v.0);
    let mb = |name: &str| tally.get(name).map_or(0.0, |v| v.1 as f64 / MIB);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut m = BTreeMap::new();
    m.insert("fwimage.extract_s", s("fwimage.extract"));
    m.insert("cfg.lift_s", s("cfg.lift"));
    m.insert("cfg.callgraph_s", s("cfg.callgraph"));
    m.insert("cfg.blocks", counts.cfg_blocks as f64);
    m.insert("cfg.peak_mb", mb("cfg.lift").max(mb("cfg.callgraph")));
    m.insert("symex.busy_s", s("symex"));
    m.insert("symex.blocks_executed", counts.blocks_executed as f64);
    m.insert("symex.paths_explored", counts.paths_explored as f64);
    m.insert("symex.retried", counts.retried as f64);
    m.insert("symex.pool_nodes", max_pool.0 as f64);
    m.insert("symex.peak_mb", mb("symex"));
    m.insert("dataflow.busy_s", s("dataflow"));
    m.insert("dataflow.alias_s", s("dataflow.alias"));
    m.insert("dataflow.indirect_s", s("dataflow.indirect"));
    m.insert("dataflow.propagate_s", s("dataflow") - s("dataflow.alias") - s("dataflow.indirect"));
    m.insert("dataflow.fuel_spent", counts.fuel_spent as f64);
    m.insert("dataflow.resolved_indirect", counts.resolved_indirect as f64);
    m.insert("dataflow.pool_nodes", max_pool.1 as f64);
    m.insert("dataflow.peak_mb", mb("dataflow"));
    m.insert("detect.busy_s", s("detect"));
    m.insert("detect.sink_sites", counts.sink_sites as f64);
    m.insert("detect.findings", findings as f64);
    m.insert("detect.reached_ratio", ratio(counts.reached_sites, counts.sink_sites));
    m.insert("cache.hit_rate", ratio(hits, attempts));
    m.insert("cache.load_s", s("cache.load"));
    m.insert("cache.entries", entries as f64);
    m.insert("store.snapshot_s", s("store.snapshot"));
    m.insert("store.snapshot_mb", snapshot_bytes as f64 / MIB);
    m.insert("store.snapshots", snapshots as f64);
    m.insert("image.self_s", s("image"));
    // Wall time net of the alias/indirect replays, which only the
    // traced pass performs.
    m.insert("trace.wall_s", wall - replay_s);
    Ok(m)
}

/// Peak resident set (`VmHWM`) in MiB.
fn vm_hwm_mib() -> Result<f64, String> {
    let status = io(Path::new("/proc/self/status"), std::fs::read_to_string("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Resets `VmHWM` to the current resident set, so the next reading
/// covers only the pass in between. Where the kernel refuses the reset,
/// readings cover the run so far instead; that is reported once.
fn reset_hwm(warned: &mut bool) {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        if !*warned {
            eprintln!("perfbench: cannot reset VmHWM ({e}); peak_rss_mb covers the whole run");
            *warned = true;
        }
    }
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let parts: Vec<String> = values
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    let work = WorkDir(bench_dir().join(format!("tmp-{}", std::process::id())));
    fresh_dir(&work.0)?;

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..repeats {
        // Drop the previous set-up first, so each one starts alike.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(setup(w, args.seed, &work.0.join("setup"))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up");

    // With tracing, the run's seconds are split evenly between the
    // untraced passes (the overhead's base) and the traced ones.
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut u = Untraced::default();
    let mut hwm_warned = false;
    let t = Instant::now();
    while u.attempted == 0 || t.elapsed().as_secs_f64() < seconds {
        reset_hwm(&mut hwm_warned);
        untraced_pass(w, &p, &work.0, &mut u)?;
        u.peak_rss.push(vm_hwm_mib()?);
    }

    let name = match w {
        Workload::ScanLarge => "scan-large",
        Workload::FleetCold => "fleet-cold",
        Workload::FleetRescan => "fleet-rescan",
    };
    println!(
        "workload {name}, seed {}, {} image(s) per pass, {} untraced pass(es) in {:.1} s",
        args.seed,
        p.images.len(),
        u.pass_s.len(),
        t.elapsed().as_secs_f64()
    );
    let e2e = [median(&setup_s), median(&u.scan_s), median(&u.rate), median(&u.peak_rss)];
    println!("  setup_s       {:.4} s (median of {})", e2e[0], setup_s.len());
    let (lo, hi) = u.scan_s.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    println!(
        "  scan_s        {:.4} s (median of {} scans, {lo:.4} to {hi:.4})",
        e2e[1],
        u.scan_s.len()
    );
    match tail(&u.scan_s) {
        Some((label, v)) => {
            println!("  scan_s_tail   {v:.4} s ({label} of {} scans)", u.scan_s.len())
        }
        None => {
            println!("  scan_s_tail   n/a ({} scans; a tail needs at least 20)", u.scan_s.len())
        }
    }
    println!("  images_per_s  {:.4} 1/s (median of {} passes)", e2e[2], u.rate.len());
    println!("  peak_rss_mb   {:.1} MiB (median of {} passes)", e2e[3], u.peak_rss.len());
    let mut attempted = u.attempted;
    let mut failed = u.failed;

    let metrics = if args.trace {
        let mut tr = Tracer::default();
        let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
        let t = Instant::now();
        while passes.is_empty() || t.elapsed().as_secs_f64() < seconds {
            let pass = passes.len() as u64 + 1;
            passes.push(traced_pass(w, &p, &work.0, &mut tr, pass, &mut attempted, &mut failed)?);
        }
        let out = bench_dir().join("out");
        io(&out, std::fs::create_dir_all(&out))?;
        let spans = out.join(format!("spans-{name}-seed{}.json", args.seed));
        io(&spans, std::fs::write(&spans, tr.to_json()))?;
        println!(
            "  traced: {} pass(es), symex sequential (its worker split is private); spans in {}",
            passes.len(),
            spans.display()
        );
        let untraced_wall = median(&u.pass_s);
        PER_LAYER
            .iter()
            .map(|&(n, unit)| {
                let v = match n {
                    "trace.untraced_wall_s" => untraced_wall,
                    "trace.overhead_ratio" => {
                        let traced: Vec<f64> = passes.iter().map(|m| m["trace.wall_s"]).collect();
                        median(&traced) / untraced_wall
                    }
                    _ => median(&passes.iter().map(|m| m[n]).collect::<Vec<_>>()),
                };
                (n, unit, v)
            })
            .collect::<Vec<_>>()
    } else {
        END_TO_END.iter().zip(e2e).map(|(&(n, unit), v)| (n, unit, v)).collect()
    };
    if args.trace {
        for (n, unit, v) in &metrics {
            println!("  {n:<28} {v:.6} {unit}");
        }
    }
    let error_rate = failed as f64 / attempted as f64;
    println!("  error_rate    {error_rate:.4} ({failed} of {attempted} scans or images)");
    if metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        return Err("a metric is not a finite number".into());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
