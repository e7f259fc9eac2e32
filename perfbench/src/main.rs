//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! One process stands a `TurbulenceService` up behind a loopback
//! `tdb_wire::Server` and drives it with closed-loop TCP clients for the
//! measured seconds, checking every answer against a dense oracle. With
//! `--trace 1` it then replays a sample of the workload's requests layer
//! by layer (see `replay`) and reports per-layer metrics instead.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_derived --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod client;
mod load;
mod oracle;
mod procfs;
mod replay;
mod setup;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use tdb_core::{ThresholdQuery, TurbulenceService};
use tdb_kernels::DerivedField;

use crate::load::{Figures, LoopStats, MIN_P95_SAMPLES};
use crate::oracle::Oracle;
use crate::setup::{Deployment, WORK_DIR};
use crate::stats::{median, quantile, Metric};
use crate::workload::{keys, Workload, FIELDS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is one of {names:?}"))?,
        seed,
        seconds,
        trace,
    })
}

/// Warms what users of the workload find warm: pools on the in-memory
/// archives, the PDF cache on `explore_cached`. `cold_scan` runs one
/// query of each kind and then empties the pools.
fn warm_up(service: &TurbulenceService, oracle: &Oracle, workload: Workload) -> Result<(), String> {
    let spec = workload.spec();
    let err = |e: tdb_core::QueryError| format!("warm-up: {e}");
    match workload {
        Workload::ColdScan => {
            for derived in spec.derived {
                let q = ThresholdQuery::whole_timestep(FIELDS[0], *derived, 0, f64::INFINITY)
                    .without_cache();
                service.get_threshold(&q).map_err(err)?;
            }
            service.cluster().clear_buffer_pools();
        }
        Workload::WarmDerived | Workload::ExploreCached => {
            // a raw scan of every (field, timestep) pulls each atom into
            // its owner's pool, where peers' halo fetches find it too
            for t in 0..spec.timesteps {
                for field in FIELDS {
                    let q =
                        ThresholdQuery::whole_timestep(field, DerivedField::Norm, t, f64::INFINITY)
                            .without_cache();
                    service.get_threshold(&q).map_err(err)?;
                }
            }
            if workload == Workload::ExploreCached {
                for key in keys(&spec) {
                    let b = oracle.pdf_bins(&key);
                    let q =
                        ThresholdQuery::whole_timestep(key.field, key.derived, key.timestep, 0.0);
                    service
                        .get_pdf(&q, b.origin, b.width, b.nbins as usize)
                        .map_err(err)?;
                }
            }
        }
    }
    Ok(())
}

/// The tiers are defined by selectivity: checks that the oracle's
/// thresholds are the ones `threshold_for_fraction` picks, on the first
/// key of every tier.
fn check_calibration(
    service: &TurbulenceService,
    oracle: &Oracle,
    workload: Workload,
) -> Result<(), String> {
    let spec = workload.spec();
    let key = keys(&spec)[0];
    for (tier, &fraction) in spec.tiers.iter().enumerate() {
        let want = service
            .threshold_for_fraction(key.field, key.derived, key.timestep, fraction)
            .map_err(|e| format!("calibration: {e}"))?;
        let got = oracle.threshold(&key, tier);
        if want.to_bits() != got.to_bits() {
            return Err(format!(
                "calibration: tier {fraction} threshold {got} != {want}"
            ));
        }
    }
    Ok(())
}

fn end_to_end(stats: &LoopStats, q: &Figures, setup_s: f64, dep: &Deployment) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("latency_p50_ms", 1e3 * q.p50_s, "ms"),
        m("latency_p95_ms", 1e3 * q.p95_s, "ms"),
        m("throughput_qps", q.throughput_qps, "req/s"),
        m("cpu_ms_per_req", 1e3 * q.cpu_s_per_req, "ms"),
        m(
            "error_rate",
            stats.failed() as f64 / stats.attempted.max(1) as f64,
            "fraction",
        ),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mib", procfs::peak_rss_mib(), "MiB"),
        m("stored_bytes_ratio", dep.stored_bytes_ratio(), "ratio"),
    ]
}

/// Per-layer counts from the program's own metrics over the untraced run.
fn counter_metrics(stats: &LoopStats) -> Vec<Metric> {
    let d = stats.after.counters_since(&stats.before);
    let c = |name: &str| d.get(name).copied().unwrap_or(0) as f64;
    let rate = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let per_req = stats.completed().max(1) as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "storage.pool_hit_rate",
            rate(c("bufferpool.hits"), c("bufferpool.misses")),
            "fraction",
        ),
        m(
            "storage.pool_misses_per_req",
            c("bufferpool.misses") / per_req,
            "count",
        ),
        m(
            "storage.pool_evictions_per_req",
            c("bufferpool.evictions") / per_req,
            "count",
        ),
        m(
            "storage.io_bytes_per_req",
            c("io.bytes.hdd-raid5") / per_req,
            "bytes",
        ),
        m(
            "cache.semantic_hit_rate",
            rate(c("cache.semantic.hits"), c("cache.semantic.misses")),
            "fraction",
        ),
        m(
            "cache.pdf_hit_rate",
            rate(c("cache.pdf.hits"), c("cache.pdf.misses")),
            "fraction",
        ),
        m(
            "cache.inserts_per_req",
            (c("cache.semantic.inserts") + c("cache.pdf.inserts")) / per_req,
            "count",
        ),
        m(
            "cache.conflicts_per_req",
            (c("cache.semantic.conflicts") + c("cache.pdf.conflicts")) / per_req,
            "count",
        ),
    ]
}

/// Mean admission wait the server itself recorded over the run, ms.
fn server_admission_wait_ms(stats: &LoopStats) -> f64 {
    let h = |s: &tdb_obs::MetricsSnapshot| {
        s.histograms
            .get("admission.wait_s")
            .map_or((0, 0.0), |h| (h.count, h.sum_s))
    };
    let (c0, s0) = h(&stats.before);
    let (c1, s1) = h(&stats.after);
    if c1 > c0 {
        1e3 * (s1 - s0) / (c1 - c0) as f64
    } else {
        0.0
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let spec = workload.spec();
    let work = PathBuf::from(WORK_DIR);
    let tag = format!("{}-{}", workload.name(), std::process::id());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // --- set-up: build + start, several times for a steady setup_s ------
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut dep = None;
    for i in 0..reps {
        drop(dep.take()); // tear the previous one down first
        let d = Deployment::start(workload, args.seed, work.join(format!("{tag}-{i}")))?;
        setup_times.push(d.setup_s);
        dep = Some(d);
    }
    let dep = dep.ok_or("no deployment")?;
    let setup_s = median(&setup_times);
    println!("setup_s each: {setup_times:?}");

    // --- oracle, calibration, warm-up (untimed) -------------------------
    let t = std::time::Instant::now();
    let service = &dep.service;
    let oracle = Oracle::build(
        service.dataset(),
        service.cluster().config().fd_order,
        &spec,
        workload == Workload::WarmDerived,
        workload == Workload::ExploreCached,
    );
    let mut problems = Vec::new();
    if let Err(e) = oracle.self_test() {
        problems.push(format!("oracle self-test: {e}"));
    }
    if let Err(e) = check_calibration(service, &oracle, workload) {
        problems.push(e);
    }
    warm_up(service, &oracle, workload)?;
    let key0 = keys(&spec)[0];
    let tier_points: Vec<usize> = (0..spec.tiers.len())
        .map(|t| oracle.tier_points(&key0, t))
        .collect();
    println!(
        "prepared in {:.2} s: tiers {:?} -> {:?} points on {:?}",
        t.elapsed().as_secs_f64(),
        spec.tiers,
        tier_points,
        key0
    );

    // --- measured phase -------------------------------------------------
    let stats = load::run(&dep, &oracle, workload, args.seed, args.seconds);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut steal: Vec<f64> = stats.windows().iter().map(|w| w.steal_share).collect();
    steal.sort_by(f64::total_cmp);
    println!(
        "env nproc={nproc} steal_share={:.4} (per {}s window min/median/max {:.3}/{:.3}/{:.3}) loadavg={:.2},{:.2},{:.2}",
        stats.steal_share,
        load::WINDOW_S,
        quantile(&steal, 0.0),
        quantile(&steal, 0.5),
        quantile(&steal, 1.0),
        stats.loadavg[0],
        stats.loadavg[1],
        stats.loadavg[2]
    );
    println!(
        "requests attempted={} completed={} failed={} (transport={} server={} mismatch={}) in {:.3} s",
        stats.attempted,
        stats.completed(),
        stats.failed(),
        stats.transport_errors,
        stats.server_errors,
        stats.mismatches,
        stats.elapsed_s
    );
    for (label, l) in &stats.by_label {
        let mut l = l.clone();
        l.sort_by(f64::total_cmp);
        println!(
            "  {label}: n={} p50={:.3} ms p95={:.3} ms",
            l.len(),
            1e3 * quantile(&l, 0.5),
            1e3 * quantile(&l, 0.95)
        );
    }
    for f in &stats.failures {
        eprintln!("failure: {f}");
    }
    let (quiet, pooled) = (stats.quiet(), stats.pooled());
    let e2e = end_to_end(&stats, &quiet, setup_s, &dep);
    for (name, f) in [("quiet", &quiet), ("pooled", &pooled)] {
        println!(
            "{name} latency_p50_ms {} latency_p95_ms {} throughput_qps {} cpu_ms_per_req {} requests {} steal_share {:.4}",
            1e3 * f.p50_s,
            1e3 * f.p95_s,
            f.throughput_qps,
            1e3 * f.cpu_s_per_req,
            f.requests,
            f.steal_share
        );
    }
    if quiet.requests < MIN_P95_SAMPLES {
        println!(
            "warning: the quiet windows hold {} requests, fewer than 10 beyond p95",
            quiet.requests
        );
    }
    for m in &e2e {
        println!("metric {} {} {}", m.name, json_number(m.value), m.unit);
    }
    println!(
        "server admission.wait_s mean over the run: {:.4} ms",
        server_admission_wait_ms(&stats)
    );

    let mut correct = stats.failed() == 0;
    let mut attempted = stats.attempted;
    let mut failed = stats.failed();
    let metrics = if args.trace {
        let traced = replay::run(&dep, &oracle, workload, args.seed, pooled.p50_s)?;
        let spans_path = work.join(format!("spans-{}-seed{}.jsonl", workload.name(), args.seed));
        replay::write_spans(&spans_path, &traced.spans)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        println!(
            "spans: {} written to {}",
            traced.spans.len(),
            spans_path.display()
        );
        for (layer, v) in &traced.layer_ms {
            println!("self {layer} {v:.4} ms/req");
        }
        println!("self unattributed {:.4} ms/req", traced.unattributed_ms);
        let predicted = workload.predicted_layer();
        println!(
            "dominant layer: {} (predicted {}){}",
            traced.dominant,
            predicted.join(" or "),
            if predicted.contains(&traced.dominant) {
                ""
            } else {
                " -- NOT as predicted"
            }
        );
        for e in &traced.mismatch_log {
            eprintln!("replay mismatch: {e}");
        }
        // every replayed answer is checked too
        correct &= traced.mismatches == 0;
        attempted += traced.checks;
        failed += traced.mismatches;
        let mut per_layer = counter_metrics(&stats);
        per_layer.extend(traced.metrics);
        for m in &per_layer {
            println!("layer {} {} {}", m.name, json_number(m.value), m.unit);
        }
        per_layer
    } else {
        // error_rate is carried by `failed` / `attempted`
        e2e.into_iter().filter(|m| m.name != "error_rate").collect()
    };
    for p in &problems {
        eprintln!("{p}");
    }
    if !problems.is_empty() {
        correct = false;
    }
    Ok(result_line(correct, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
