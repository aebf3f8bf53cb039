//! flatbench — the flatnet benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path flatbench/Cargo.toml -- \
//!     --workload paper-70k --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Runs one named workload (`paper-4k`, `paper-70k`, `query-hot`,
//! `query-cold`), checks the program's answers, prints every metric as
//! a `name value unit` line, and ends with one JSON result line. With
//! `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, read from spans the
//! benchmark opens around its own calls and from deltas of the obs
//! counters and histograms the program already records. Exits non-zero
//! when any check fails. See `flatbench/README.md`.

mod client;
mod ledger;
mod paper;
mod query;

use ledger::{quantile, Report};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics: reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
];

/// The serve trace stages, in `obs::trace::Stage::ALL` order.
pub const STAGES: [&str; 8] = [
    "queue_wait",
    "keepalive_idle",
    "parse",
    "cache_probe",
    "propagate",
    "serialize",
    "write",
    "panic",
];

/// Per-layer metrics: reported by every traced run (`--trace 1`). A
/// layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("netgen.generate_s", "s"),
        ("core.measure_s", "s"),
        ("tracesim.campaign_s", "s"),
        ("asgraph.infer_s", "s"),
        ("asgraph.augment_s", "s"),
        ("core.reachability_s", "s"),
        ("core.unreachable_s", "s"),
        ("core.reliance_s", "s"),
        ("core.leaks_s", "s"),
        ("bgpsim.leak.sims", "count"),
        ("core.path_validation_s", "s"),
        ("core.pathlen_s", "s"),
        ("core.rankings_s", "s"),
        ("core.feeds_s", "s"),
        ("mrt.records", "count"),
        ("geo.pops_s", "s"),
        ("geo.geolocate_s", "s"),
        ("bgpsim.compile_s", "s"),
        ("bgpsim.lanes.dense_sweep_s", "s"),
        ("bgpsim.lanes.blocks", "count"),
        ("bgpsim.lanes.rounds", "count"),
        ("bgpsim.lanes.block_us_sum", "us"),
        ("bgpsim.engine.runs", "count"),
        ("bgpsim.engine.run_us_sum", "us"),
        ("bench.unattributed_s", "s"),
        ("bench.unattributed_share", "ratio"),
        ("bench.tracing_overhead_s", "s"),
        ("bench.trace_cost_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for stage in STAGES {
        out.push((format!("serve.stage.{stage}_us.p50"), "us"));
        out.push((format!("serve.stage.{stage}_us.p99"), "us"));
    }
    out.extend(
        [
            ("serve.worker_busy_s", "s"),
            ("serve.requests_per_conn", "req/conn"),
            ("serve.cache_hit_ratio", "ratio"),
            ("serve.cache_evictions", "count"),
            ("serve.reload_ms", "ms"),
            ("serve.snapshot_compile", "count"),
            ("serve.queue_rejected", "count"),
            ("serve.deadline_expired", "count"),
            ("router.hop_us.p50", "us"),
            ("router.upstream_reuse_ratio", "ratio"),
            ("router.scatter", "count"),
            ("router.shard_failures", "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out
}

/// What every workload receives from the command line.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
}

pub const WORKLOADS: [&str; 4] = ["paper-4k", "paper-70k", "query-hot", "query-cold"];

fn usage() -> String {
    format!(
        "usage: flatbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let nproc = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    Ok((workload, RunCfg { seed, seconds, trace, nproc }))
}

/// Resident set of this process, MB (`VmRSS`).
fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Samples the resident set every [`RSS_PERIOD`] from a background
/// thread for the whole run, set-up included.
struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

const RSS_PERIOD: Duration = Duration::from_millis(10);

impl RssSampler {
    fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                samples.extend(rss_mb());
                std::thread::sleep(RSS_PERIOD);
            }
            samples.extend(rss_mb());
            samples
        });
        RssSampler { stop, thread }
    }

    fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("RSS sampler panicked")
    }
}

/// The commit the checkout was made from, when it is a git work tree.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => {
            let loose = std::fs::read_to_string(format!(".git/{r}")).ok();
            let packed = || {
                std::fs::read_to_string(".git/packed-refs").ok().and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
            };
            loose.map(|s| s.trim().to_string()).or_else(packed)
        }
        None => Some(head.to_string()),
    }
}

/// FNV-1a digest of the workspace sources the benchmark builds, so a
/// result identifies the code it measured even where there is no git.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for entry in rd.flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("fnv1a:{h:016x}/{}files", files.len())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn emit(report: &Report, cfg: &RunCfg) -> bool {
    for (k, v) in &report.provenance {
        println!("# provenance {k}={v}");
    }
    for (name, ok, detail) in &report.checks {
        println!("check {name} {} {detail}", if *ok { "ok" } else { "FAIL" });
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!("attempted {} count", report.attempted);
    println!("failed {} count", report.failed);
    println!("error_rate {error_rate} ratio");
    for (name, value, unit) in &report.extra {
        println!("{name} {value} {unit}");
    }
    let chosen: Vec<(String, &str, f64)> = if cfg.trace {
        per_layer()
            .into_iter()
            .map(|(n, u)| {
                let v = report.layers.get(n.as_str()).copied().unwrap_or(0.0);
                (n, u, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u, report.e2e.get(n).copied().unwrap_or(0.0)))
            .collect()
    };
    for (n, u, v) in &chosen {
        println!("{n} {v} {u}");
    }
    let metrics: Vec<String> = chosen
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    let correct = report.all_checks_pass() && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    correct
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // The workspace logs through obs; reloads of the generated topology
    // report its known degree anomalies on every swap, so keep stderr to
    // errors.
    flatnet_obs::log::set_level(flatnet_obs::Level::Error);
    let started = Instant::now();
    let rss = RssSampler::start();
    let mut report = Report::default();
    report.provenance("workload", &workload);
    report.provenance("seed", cfg.seed);
    report.provenance("seconds", cfg.seconds);
    report.provenance("trace", u8::from(cfg.trace));
    report.provenance("nproc", cfg.nproc);
    report.provenance("cpu_features", flatnet_bgpsim::cpu_features().join(","));
    report.provenance("commit", git_commit().unwrap_or_else(|| "none (not a git checkout)".into()));
    report.provenance("source", source_digest());
    let outcome = match workload.as_str() {
        "paper-4k" => paper::run_4k(&cfg, &mut report),
        "paper-70k" => paper::run_70k(&cfg, &mut report),
        "query-hot" => query::run_hot(&cfg, &mut report),
        "query-cold" => query::run_cold(&cfg, &mut report),
        _ => unreachable!("workload names are validated in parse_args"),
    };
    if let Err(e) = outcome {
        eprintln!("flatbench: {workload} could not run: {e}");
        std::process::exit(2);
    }
    // Peak memory as the 99th percentile of the RSS samples: the level
    // the process reaches and holds, not a single allocator spike.
    let samples = rss.finish();
    report.e2e.insert("peak_rss_mb", quantile(&samples, 0.99).unwrap_or(0.0));
    report.extra.push(("rss_samples".into(), samples.len() as f64, "count"));
    report.extra.push(("rss_max_mb".into(), samples.iter().copied().fold(0.0, f64::max), "MB"));
    report.provenance("wall_s", format!("{:.3}", started.elapsed().as_secs_f64()));
    if !emit(&report, &cfg) {
        eprintln!("flatbench: {workload} failed its checks (see `check ... FAIL` lines)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{per_layer, END_TO_END, WORKLOADS};
    use flatnet_serve::json::{parse, Json};

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn entries(doc: &Json, key: &str, field: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|e| {
                let get = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                (get("name"), get(field))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = manifest();
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.into(), u.into())).collect();
        assert_eq!(entries(&doc, "end_to_end", "unit"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.into())).collect();
        assert_eq!(entries(&doc, "per_layer", "unit"), layers);
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let names: Vec<String> =
            entries(&manifest(), "workloads", "why").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, WORKLOADS);
    }
}
