//! The benchmark's own bookkeeping: operation accounting (attempted,
//! failed), the in-memory spans it records around its calls into the
//! workspace crates, the report printed at the end of a run, and the
//! helpers every workload shares (seeded inputs, repeated set-up, obs
//! deltas).

use flatnet_obs::Snapshot;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Operation accounting plus, when tracing, a span per layer call.
///
/// Every call made through [`Ledger::step`] is one operation, isolated
/// with `catch_unwind` (a panic counts as a failed operation, never as a
/// crashed benchmark) and, only when tracing, recorded as a span. Calls
/// do not nest, so every span is top-level.
pub struct Ledger {
    tracing: bool,
    /// `(layer, duration)` of every traced call, in call order.
    spans: Vec<(&'static str, Duration)>,
    /// Wall time spent inside the ledger's own tracing code.
    trace_cost: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    pub fn new(tracing: bool) -> Self {
        Ledger {
            tracing,
            spans: Vec::new(),
            trace_cost: Duration::ZERO,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Runs one layer call as an operation; `None` when it panicked.
    pub fn step<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> Option<R> {
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        if self.tracing {
            let t1 = Instant::now();
            self.spans.push((layer, t1 - t0));
            self.trace_cost += t1.elapsed();
        }
        self.attempted += 1;
        match out {
            Ok(v) => Some(v),
            Err(payload) => {
                self.failed += 1;
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".into());
                self.failures.push(format!("{layer} panicked: {msg}"));
                None
            }
        }
    }

    /// [`Ledger::step`] for a call that may return no result, which
    /// counts as a failed operation.
    pub fn step_opt<R>(&mut self, layer: &'static str, f: impl FnOnce() -> Option<R>) -> Option<R> {
        self.step_res(layer, || f().ok_or("returned no result"))
    }

    /// [`Ledger::step`] for a fallible call; an `Err` counts as a failed
    /// operation.
    pub fn step_res<R, E: std::fmt::Display>(
        &mut self,
        layer: &'static str,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Option<R> {
        match self.step(layer, f)? {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{layer} failed: {e}"));
                None
            }
        }
    }

    /// Times `f` as tracing overhead: obs snapshots and deltas taken
    /// only for the per-layer report.
    pub fn instrument<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.trace_cost += t0.elapsed();
        out
    }

    pub fn trace_cost_s(&self) -> f64 {
        self.trace_cost.as_secs_f64()
    }

    /// Call count and total seconds per layer.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (layer, d) in &self.spans {
            let e = out.entry(layer).or_default();
            e.0 += 1;
            e.1 += d.as_secs_f64();
        }
        out
    }

    /// Seconds covered by spans: the attributed part of a traced pass.
    pub fn attributed_s(&self) -> f64 {
        self.spans.iter().map(|(_, d)| d.as_secs_f64()).sum()
    }
}

/// Value at quantile `q` (0..=1) of `values`, by linear interpolation
/// between closest ranks. `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The outcome of one run: metrics by name, operation counts, checks.
#[derive(Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<String, f64>,
    /// Printed `name value unit` lines that are not bounded metrics.
    pub extra: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool, String)>,
    pub provenance: Vec<(String, String)>,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    pub fn provenance(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    pub fn all_checks_pass(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

/// splitmix64: the benchmark's seeded stream (inputs, samples).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Runs `setup` [`SETUPS`] times and keeps the last result; the median
/// duration is the run's `setup_s`.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<(T, f64), String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64, f64), String> {
    let mut times = Vec::new();
    let mut gen_times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let (value, gen_s) = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        gen_times.push(gen_s);
        if i + 1 == SETUPS {
            kept = Some(value);
        } else {
            teardown(value);
        }
    }
    let kept = kept.expect("SETUPS > 0");
    Ok((kept, median(&times), median(&gen_times)))
}

pub fn counter(d: &Snapshot, name: &str) -> f64 {
    d.counters.get(name).copied().unwrap_or(0) as f64
}

/// The kernel and engine tallies the workspace records in obs.
pub fn bgpsim_layers(d: &Snapshot, report: &mut Report) {
    report.layer("bgpsim.lanes.blocks", counter(d, "propagate.kernel_blocks"));
    report.layer("bgpsim.lanes.rounds", counter(d, "propagate.kernel_rounds"));
    let block = d.histograms.get("propagate.kernel_block_us");
    report.layer("bgpsim.lanes.block_us_sum", block.map_or(0.0, |h| h.sum_us as f64));
    let runs = d.histograms.get("propagate.run_us");
    report.layer("bgpsim.engine.runs", runs.map_or(0.0, |h| h.count() as f64));
    report.layer("bgpsim.engine.run_us_sum", runs.map_or(0.0, |h| h.sum_us as f64));
}
