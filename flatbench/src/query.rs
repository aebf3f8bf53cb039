//! The query workloads: closed-loop load from in-process clients, each
//! holding one keep-alive connection.
//!
//! * `query-hot`: a router in front of two serve shards; every answer is
//!   a cache hit on a pre-warmed origin pool.
//! * `query-cold`: one daemon, every request misses the cache by
//!   construction, with 256-origin batches, what-if leaks, and a
//!   `POST /admin/reload` at a fixed request interval.
//!
//! Latency is timed by the client. Per-layer numbers are deltas of the
//! obs counters and histograms the daemon and router record.

use crate::client::Conn;
use crate::ledger::{
    bgpsim_layers, counter, median, quantile, repeated_setup, Ledger, Report, Rng,
};
use crate::{RunCfg, STAGES};
use flatnet_asgraph::{AsGraph, AsId, NodeId, Tiers};
use flatnet_bgpsim::{reliance, NextHopDag, PropagationConfig, Simulation, TopologySnapshot};
use flatnet_core::leaks::{leak_cdf, Announce, Locking};
use flatnet_netgen::{generate, NetGenConfig, SyntheticInternet};
use flatnet_obs::Snapshot;
use flatnet_router::{HashRing, Router, RouterConfig};
use flatnet_serve::json::{fmt_f64, parse, Json};
use flatnet_serve::{ServeConfig, Server, TopologySource};
use std::net::SocketAddr;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

const ASES: usize = 4000;
/// Closed-loop client threads (one keep-alive connection each), never
/// more than the host's cores.
const MAX_CLIENTS: usize = 2;
/// Requests per `run_s` block.
const BLOCK: usize = 1000;
/// A failed request is recorded at this latency, so it misses any limit.
const FAILED_US: f64 = 1e7;
/// Sampled answers kept per client for the reference check.
const SAMPLES_PER_CLIENT: usize = 48;
const SAMPLE_EVERY: usize = 64;
const ENVELOPE: &str = "{\"schema\":\"flatnet-serve/v1\",";

/// `exclude=` flag bits, as the daemon defines them.
const EXCL_PROVIDERS: u8 = 1;
const EXCL_TIER1: u8 = 2;
const EXCL_TIER2: u8 = 4;
const HIERARCHY_FREE: u8 = EXCL_PROVIDERS | EXCL_TIER1 | EXCL_TIER2;

// query-hot.
const HOT_SHARDS: u32 = 2;
const HOT_POOL: usize = 256;
const HOT_BATCH: usize = 64;
const HOP_REPLAY: usize = 200;

// query-cold.
const COLD_WORKERS: usize = 2;
const COLD_BATCH: usize = 256;
const RELOAD_EVERY: u64 = 2000;
const LEAK_LEAKERS: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Reach,
    ReachFull,
    ReachBatch,
    Reliance,
    Leak,
    Reload,
}

#[derive(Clone, Debug)]
struct Req {
    kind: Kind,
    target: String,
    body: Option<String>,
    bits: u8,
}

fn exclude_param(bits: u8) -> String {
    let names: Vec<&str> =
        [(EXCL_PROVIDERS, "providers"), (EXCL_TIER1, "tier1"), (EXCL_TIER2, "tier2")]
            .iter()
            .filter(|(b, _)| bits & b != 0)
            .map(|(_, n)| *n)
            .collect();
    if names.is_empty() {
        String::new()
    } else {
        format!("&exclude={}", names.join(","))
    }
}

fn join(asns: &[u32]) -> String {
    asns.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
}

fn reach_req(kind: Kind, asns: &[u32], bits: u8) -> Req {
    let target = match kind {
        Kind::ReachBatch => {
            format!("/v1/reachability?origins={}{}", join(asns), exclude_param(bits))
        }
        Kind::ReachFull => {
            format!("/v1/reachability?origin={}{}&detail=full", asns[0], exclude_param(bits))
        }
        Kind::Reliance => format!("/v1/reliance?origin={}{}&top=5", asns[0], exclude_param(bits)),
        _ => format!("/v1/reachability?origin={}{}", asns[0], exclude_param(bits)),
    };
    Req { kind, target, body: None, bits }
}

fn snapshot_version(body: &str) -> Option<u64> {
    const KEY: &str = "\"snapshot_version\":";
    let rest = &body[body.find(KEY)? + KEY.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    /// `(completion time since the loop started, latency)`, seconds and
    /// microseconds, for every request, failed ones included.
    done: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    samples: Vec<(Req, String)>,
    versions: Vec<u64>,
    reloads: Vec<(f64, u64, f64)>,
    opened: u64,
}

impl ClientLog {
    /// Sends one request, timing it and accounting for its outcome: a
    /// transport error, a non-200 status, or a `/v1` body without the
    /// `flatnet-serve/v1` envelope is a failed request.
    fn send(&mut self, conn: &mut Conn, req: &Req, t0: Instant, keep: bool) -> Option<String> {
        let method = if req.body.is_some() { "POST" } else { "GET" };
        let start = Instant::now();
        let out = conn.request(method, &req.target, req.body.as_deref());
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.attempted += 1;
        let problem = match &out {
            Err(e) => Some(format!("{} {}: {e}", method, req.target)),
            Ok(r) if r.status != 200 => {
                Some(format!("{} {}: HTTP {} {}", method, req.target, r.status, r.body.trim()))
            }
            Ok(r) if req.kind != Kind::Reload && !r.body.starts_with(ENVELOPE) => {
                Some(format!("{}: body without the flatnet-serve/v1 envelope", req.target))
            }
            Ok(_) => None,
        };
        let done_s = t0.elapsed().as_secs_f64();
        if let Some(p) = problem {
            self.failed += 1;
            self.done.push((done_s, FAILED_US));
            if self.errors.len() < 5 {
                self.errors.push(p);
            }
            return None;
        }
        let body = out.expect("errors returned above").body;
        self.done.push((done_s, us));
        let version = snapshot_version(&body);
        if req.kind == Kind::Reload {
            self.reloads.push((done_s, version.unwrap_or(0), us / 1e3));
        } else if let Some(v) = version {
            self.versions.push(v);
        }
        if keep && self.samples.len() < SAMPLES_PER_CLIENT {
            self.samples.push((req.clone(), body.clone()));
        }
        Some(body)
    }
}

/// End-to-end metrics of a closed-loop pass, cut into blocks of
/// [`BLOCK`] requests in completion order. `run_s` is the median block
/// wall time and `qps` the block size over it; `latency_p50_us` and
/// `latency_p99_us` are the medians of the blocks' own percentiles (a
/// block's p99 has 10 requests beyond it). A stall of the host or a
/// reload then moves a few blocks, not the result.
fn loop_metrics(report: &mut Report, logs: &[ClientLog], elapsed_s: f64) {
    let mut done: Vec<(f64, f64)> = logs.iter().flat_map(|l| l.done.iter().copied()).collect();
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut walls, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut prev_end = 0.0;
    for block in done.chunks_exact(BLOCK) {
        let end = block[BLOCK - 1].0;
        walls.push(end - prev_end);
        prev_end = end;
        let lat: Vec<f64> = block.iter().map(|d| d.1).collect();
        p50s.extend(quantile(&lat, 0.50));
        p99s.extend(quantile(&lat, 0.99));
    }
    let lat: Vec<f64> = done.iter().map(|d| d.1).collect();
    if walls.is_empty() {
        // Fewer requests than one block: the whole loop is the block.
        walls.push(elapsed_s * BLOCK as f64 / done.len().max(1) as f64);
        p50s.extend(quantile(&lat, 0.50));
        p99s.extend(quantile(&lat, 0.99));
    }
    let run_s = median(&walls);
    report.e2e.insert("run_s", run_s);
    report.e2e.insert("qps", BLOCK as f64 / run_s.max(1e-9));
    report.e2e.insert("latency_p50_us", median(&p50s));
    report.e2e.insert("latency_p99_us", median(&p99s));
    report.extra.push(("latency_p50_all_us".into(), quantile(&lat, 0.50).unwrap_or(0.0), "us"));
    report.extra.push(("latency_p99_all_us".into(), quantile(&lat, 0.99).unwrap_or(0.0), "us"));
    report.extra.push(("latency_samples".into(), done.len() as f64, "count"));
    report.extra.push(("run_blocks".into(), walls.len() as f64, "count"));
    report.extra.push(("overall_qps".into(), done.len() as f64 / elapsed_s.max(1e-9), "1/s"));
    let opened: u64 = logs.iter().map(|l| l.opened).sum();
    report.extra.push(("client_connections_opened".into(), opened as f64, "count"));
    report.attempted = logs.iter().map(|l| l.attempted).sum();
    report.failed = logs.iter().map(|l| l.failed).sum();
    let errors: Vec<&String> = logs.iter().flat_map(|l| l.errors.iter()).collect();
    report.check(
        "requests_succeeded",
        report.failed == 0,
        format!("{} of {} failed {errors:?}", report.failed, report.attempted),
    );
}

fn cache_hit_ratio(d: &Snapshot) -> f64 {
    let hits = counter(d, "serve.cache_hit");
    hits / (hits + counter(d, "serve.cache_miss")).max(1.0)
}

/// Per-layer serve metrics from the obs delta of the timed loop.
fn serve_layers(d: &Snapshot, report: &mut Report) {
    for stage in STAGES {
        let h = d.histograms.get(&format!("serve.stage_us{{stage=\"{stage}\"}}"));
        let p = |q: f64| h.and_then(|h| h.percentile_us(q)).unwrap_or(0) as f64;
        report.layer(format!("serve.stage.{stage}_us.p50"), p(50.0));
        report.layer(format!("serve.stage.{stage}_us.p99"), p(99.0));
    }
    let busy_us: f64 = d
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("serve.worker_busy_us{"))
        .map(|(_, &v)| v as f64)
        .sum();
    report.layer("serve.worker_busy_s", busy_us / 1e6);
    report.layer(
        "serve.requests_per_conn",
        counter(d, "serve.requests") / counter(d, "serve.connections").max(1.0),
    );
    report.layer("serve.cache_hit_ratio", cache_hit_ratio(d));
    report.layer("serve.cache_evictions", counter(d, "serve.cache_evictions"));
    report.layer("serve.snapshot_compile", counter(d, "serve.snapshot_compile"));
    report.layer("serve.queue_rejected", counter(d, "serve.queue_rejected"));
    report.layer("serve.deadline_expired", counter(d, "serve.deadline_expired"));
    let reuse = counter(d, "router.upstream_reuse");
    report.layer(
        "router.upstream_reuse_ratio",
        reuse / (reuse + counter(d, "router.upstream_connects")).max(1.0),
    );
    report.layer("router.scatter", counter(d, "router.scatter"));
    report.layer("router.shard_failures", counter(d, "router.shard_failures"));
    bgpsim_layers(d, report);
}

// ------------------------------------------------------------ reference

/// Equality up to the daemon's 6-decimal rendering and summation order.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// The in-process reference: the same graph and policy the daemon
/// serves, answered by a fresh `Simulation` per query.
struct Reference<'a> {
    g: &'a AsGraph,
    tiers: &'a Tiers,
    snap: TopologySnapshot,
}

impl<'a> Reference<'a> {
    fn new(g: &'a AsGraph, tiers: &'a Tiers) -> Self {
        Reference { g, tiers, snap: TopologySnapshot::compile(g) }
    }

    fn node(&self, asn: u64) -> Result<NodeId, String> {
        self.g.index_of(AsId(asn as u32)).ok_or_else(|| format!("AS{asn} not in the graph"))
    }

    /// The daemon's exclusion mask: providers of the origin, Tier-1s,
    /// Tier-2s as selected, the origin itself never excluded.
    fn cfg(&self, node: NodeId, bits: u8) -> PropagationConfig {
        let mut mask = vec![false; self.g.len()];
        if bits & EXCL_PROVIDERS != 0 {
            for &p in self.g.providers(node) {
                mask[p.idx()] = true;
            }
        }
        if bits & EXCL_TIER1 != 0 {
            for &t in self.tiers.tier1() {
                mask[t.idx()] = true;
            }
        }
        if bits & EXCL_TIER2 != 0 {
            for &t in self.tiers.tier2() {
                mask[t.idx()] = true;
            }
        }
        mask[node.idx()] = false;
        PropagationConfig::default().with_excluded(mask)
    }

    fn check_reach(&self, entry: &Json, bits: u8, full: bool) -> Result<(), String> {
        let asn = entry.get("origin").and_then(Json::as_u64).ok_or("no origin")?;
        let node = self.node(asn)?;
        let out = Simulation::over(&self.snap).config(self.cfg(node, bits)).run(node);
        let got = entry.get("reachable").and_then(Json::as_u64).ok_or("no reachable")?;
        if got as usize != out.reachable_count() {
            return Err(format!("AS{asn}: reachable {got}, reference {}", out.reachable_count()));
        }
        if full {
            let mut want: Vec<u64> =
                out.reach_set().iter().map(|&n| self.g.asn(n).0 as u64).collect();
            want.sort_unstable();
            let have: Vec<u64> = entry
                .get("reach")
                .and_then(Json::as_array)
                .ok_or("no reach array")?
                .iter()
                .filter_map(Json::as_u64)
                .collect();
            if have != want {
                return Err(format!("AS{asn}: reach set differs from the reference"));
            }
        }
        Ok(())
    }

    fn check_reliance(&self, entry: &Json, bits: u8) -> Result<(), String> {
        let asn = entry.get("origin").and_then(Json::as_u64).ok_or("no origin")?;
        let node = self.node(asn)?;
        let cfg = self.cfg(node, bits);
        let out = Simulation::over(&self.snap).config(cfg.clone()).run(node);
        let scores = reliance(&NextHopDag::build(self.g, &cfg, &out));
        let got = entry.get("receivers").and_then(Json::as_f64).ok_or("no receivers")?;
        if !close(got, scores[node.idx()]) {
            return Err(format!("AS{asn}: receivers {got}, reference {}", scores[node.idx()]));
        }
        let mut want: Vec<(u64, f64)> = scores
            .iter()
            .enumerate()
            .filter(|&(i, &s)| s > 0.0 && i != node.idx())
            .map(|(i, &s)| (self.g.asn(NodeId(i as u32)).0 as u64, s))
            .collect();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let top = entry.get("top").and_then(Json::as_array).ok_or("no top")?;
        for (i, t) in top.iter().enumerate() {
            let a = t.get("asn").and_then(Json::as_u64).ok_or("no asn")?;
            let r = t.get("rely").and_then(Json::as_f64).ok_or("no rely")?;
            match want.get(i) {
                Some(&(wa, wr)) if wa == a && close(wr, r) => {}
                _ => {
                    return Err(format!(
                        "AS{asn}: top[{i}] = AS{a} {r}, reference {:?}",
                        want.get(i)
                    ))
                }
            }
        }
        Ok(())
    }

    fn check_leak(&self, req: &Req, data: &Json) -> Result<(), String> {
        let q = parse(req.body.as_deref().ok_or("leak without body")?)?;
        let victim = q.get("victim").and_then(Json::as_u64).ok_or("no victim")?;
        let seed = q.get("seed").and_then(Json::as_u64).ok_or("no seed")?;
        let locking = match q.get("lock").and_then(Json::as_str) {
            Some("t1") => Locking::Tier1,
            Some("t12") => Locking::Tier12,
            Some("global") => Locking::Global,
            _ => Locking::None,
        };
        let cdf = leak_cdf(
            self.g,
            self.tiers,
            AsId(victim as u32),
            Announce::ToAll,
            locking,
            LEAK_LEAKERS,
            seed,
            None,
        )
        .ok_or("victim not in the graph")?;
        let d = data.get("detour_fraction").ok_or("no detour_fraction")?;
        for (key, want) in
            [("median", cdf.median()), ("p90", cdf.percentile(90.0)), ("max", cdf.max())]
        {
            let got = d.get(key).and_then(Json::as_f64).ok_or("missing fraction")?;
            if !(0.0..=1.0).contains(&got) || fmt_f64(got) != fmt_f64(want) {
                return Err(format!("leak AS{victim}: {key} {got}, reference {want}"));
            }
        }
        Ok(())
    }

    /// Checks one sampled answer against the reference.
    fn verify(&self, req: &Req, body: &str) -> Result<(), String> {
        let doc = parse(body)?;
        let data = doc.get("data").ok_or("no data member")?;
        match req.kind {
            Kind::Reach => self.check_reach(data, req.bits, false),
            Kind::ReachFull => self.check_reach(data, req.bits, true),
            Kind::ReachBatch => {
                let results = data.get("results").and_then(Json::as_array).ok_or("no results")?;
                if results.is_empty() {
                    return Err("empty batch".into());
                }
                results.iter().try_for_each(|e| self.check_reach(e, req.bits, false))
            }
            Kind::Reliance => self.check_reliance(data, req.bits),
            Kind::Leak => self.check_leak(req, data),
            Kind::Reload => Ok(()),
        }
    }
}

/// Verifies every sampled answer, then tampers one and requires the
/// same check to reject it.
fn check_samples(report: &mut Report, reference: &Reference, logs: &[ClientLog]) {
    let samples: Vec<&(Req, String)> = logs.iter().flat_map(|l| l.samples.iter()).collect();
    let bad: Vec<String> = samples
        .iter()
        .filter_map(|(req, body)| reference.verify(req, body).err())
        .take(5)
        .collect();
    report.check(
        "answers_match_reference",
        bad.is_empty() && !samples.is_empty(),
        format!("{} sampled answers, mismatches: {bad:?}", samples.len()),
    );
    let tampered = samples.iter().find_map(|(req, body)| {
        let key = if req.kind == Kind::Reliance { "\"receivers\":" } else { "\"reachable\":" };
        let at = body.find(key)? + key.len();
        let end = at + body[at..].find(|c: char| !c.is_ascii_digit())?;
        let n: u64 = body[at..end].parse().ok()?;
        Some((req, format!("{}{}{}", &body[..at], n + 1, &body[end..])))
    });
    let caught = tampered.is_some_and(|(req, body)| reference.verify(req, &body).is_err());
    report.check("tamper_detected", caught, "an answer with a count off by one must be rejected");
}

fn clients(cfg: &RunCfg) -> usize {
    cfg.nproc.clamp(1, MAX_CLIENTS)
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut conn = Conn::new(addr);
    loop {
        match conn.request("GET", "/healthz", None) {
            Ok(r) if r.status == 200 && r.body.contains("\"status\":\"ok\"") => return Ok(()),
            _ if Instant::now() > deadline => return Err(format!("{addr} never became healthy")),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn provenance(report: &mut Report, net: &SyntheticInternet, cfg: &RunCfg, servers: &str) {
    report.provenance("ases", net.truth.len());
    report.provenance("edges", net.truth.edge_count());
    report.provenance("threads", cfg.nproc);
    report.provenance("clients", clients(cfg));
    report.provenance("connections", clients(cfg));
    report.provenance("servers", servers);
}

// -------------------------------------------------------------- query-hot

struct HotFleet {
    net: SyntheticInternet,
    tiers: Tiers,
    shards: Vec<Server>,
    router: Router,
    pool: Vec<u32>,
}

fn shutdown_hot(f: HotFleet) {
    f.router.shutdown();
    for s in f.shards {
        s.shutdown();
    }
}

fn start_hot(seed: u64, workers: usize) -> Result<(HotFleet, f64), String> {
    let t0 = Instant::now();
    let net = generate(&NetGenConfig::paper_2020(ASES, seed));
    let gen_s = t0.elapsed().as_secs_f64();
    let tiers = net.tiers_for(&net.truth);
    let mut shards = Vec::new();
    for id in 0..HOT_SHARDS {
        let s = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            shard: Some((id, HOT_SHARDS)),
            source: TopologySource::Preloaded { graph: net.truth.clone(), tiers: tiers.clone() },
            ..ServeConfig::default()
        })
        .map_err(|e| format!("shard {id}: {e}"))?;
        shards.push(s);
    }
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .map_err(|e| format!("router: {e}"))?;
    wait_healthy(router.addr())?;
    let mut rng = Rng::new(seed ^ 0x407);
    let mut pool: Vec<u32> = net.truth.asns().map(|a| a.0).collect();
    rng.shuffle(&mut pool);
    pool.truncate(HOT_POOL);
    let mut conn = Conn::new(router.addr());
    for chunk in pool.chunks(HOT_BATCH) {
        for target in [
            format!("/v1/reachability?origins={}{}", join(chunk), exclude_param(HIERARCHY_FREE)),
            format!("/v1/reliance?origins={}{}&top=5", join(chunk), exclude_param(HIERARCHY_FREE)),
        ] {
            let r = conn.request("GET", &target, None)?;
            if r.status != 200 {
                return Err(format!("warming {target}: HTTP {}", r.status));
            }
        }
    }
    conn.close();
    Ok((HotFleet { net, tiers, shards, router, pool }, gen_s))
}

/// The hot mix, one slot per request in a fixed cycle, so every block
/// of requests carries the same shares: 8/16 single reachability, 4/16
/// single reliance, 2/16 batches, 2/16 `detail=full`.
const HOT_MIX: [Kind; 16] = [
    Kind::Reach,
    Kind::Reliance,
    Kind::Reach,
    Kind::ReachBatch,
    Kind::Reach,
    Kind::ReachFull,
    Kind::Reach,
    Kind::Reliance,
    Kind::Reach,
    Kind::Reliance,
    Kind::Reach,
    Kind::ReachBatch,
    Kind::Reach,
    Kind::ReachFull,
    Kind::Reach,
    Kind::Reliance,
];

fn hot_request(slot: usize, rng: &mut Rng, pool: &[u32]) -> Req {
    let kind = HOT_MIX[slot % HOT_MIX.len()];
    let start = rng.below(pool.len());
    let n = if kind == Kind::ReachBatch { HOT_BATCH } else { 1 };
    let origins: Vec<u32> = (0..n).map(|i| pool[(start + i) % pool.len()]).collect();
    reach_req(kind, &origins, HIERARCHY_FREE)
}

/// Replays single queries through the router and straight to the owning
/// shard, alternating, from one client; the difference of the medians
/// is the router hop.
fn router_hop_us(f: &HotFleet, seed: u64) -> Result<f64, String> {
    let ring = HashRing::new(HOT_SHARDS);
    let mut routed = Conn::new(f.router.addr());
    let mut direct: Vec<Conn> = f.shards.iter().map(|s| Conn::new(s.addr())).collect();
    let mut rng = Rng::new(seed ^ 0x40b);
    let (mut via, mut straight) = (Vec::new(), Vec::new());
    for _ in 0..HOP_REPLAY {
        let origin = f.pool[rng.below(f.pool.len())];
        let req = reach_req(Kind::Reach, &[origin], HIERARCHY_FREE);
        let owner = &mut direct[ring.owner(origin) as usize];
        for (conn, out) in [(&mut routed, &mut via), (owner, &mut straight)] {
            let t = Instant::now();
            let r = conn.request("GET", &req.target, None)?;
            if r.status != 200 {
                return Err(format!("hop replay {}: HTTP {}", req.target, r.status));
            }
            out.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(median(&via) - median(&straight))
}

pub fn run_hot(cfg: &RunCfg, report: &mut Report) -> Result<(), String> {
    // Each shard gets the CLI's worker floor for spawned shards.
    let workers = cfg.nproc.max(8);
    let (fleet, setup_s, gen_s) = repeated_setup(|| start_hot(cfg.seed, workers), shutdown_hot)?;
    report.e2e.insert("setup_s", setup_s);
    report.layer("netgen.generate_s", gen_s);
    provenance(
        report,
        &fleet.net,
        cfg,
        &format!("router + {HOT_SHARDS} shards x {workers} workers"),
    );

    let mut ledger = Ledger::new(cfg.trace);
    let before = ledger.instrument(flatnet_obs::snapshot);
    let n_clients = clients(cfg);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(cfg.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_clients)
            .map(|c| {
                let fleet = &fleet;
                s.spawn(move || {
                    let mut rng = Rng::new(cfg.seed ^ (0x1000 + c as u64));
                    let mut conn = Conn::new(fleet.router.addr());
                    let mut log = ClientLog::default();
                    let mut slot = c * HOT_MIX.len() / n_clients;
                    while Instant::now() < deadline {
                        let req = hot_request(slot, &mut rng, &fleet.pool);
                        slot += 1;
                        let keep = rng.below(SAMPLE_EVERY) == 0;
                        log.send(&mut conn, &req, t0, keep);
                    }
                    log.opened = conn.opened;
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let delta = ledger.instrument(|| flatnet_obs::snapshot().delta_since(&before));
    loop_metrics(report, &logs, elapsed);

    let hit = cache_hit_ratio(&delta);
    report.check(
        "cache_hit_ratio_at_least_0.99",
        hit >= 0.99,
        format!("serve.cache_hit_ratio = {hit}"),
    );
    let scatter = counter(&delta, "router.scatter");
    report.check("router_scattered", scatter > 0.0, format!("router.scatter = {scatter}"));

    if cfg.trace {
        serve_layers(&delta, report);
        let hop = router_hop_us(&fleet, cfg.seed)?;
        report.layer("router.hop_us.p50", hop);
        report.layer("bench.tracing_overhead_s", ledger.trace_cost_s());
        report.layer("bench.trace_cost_s", ledger.trace_cost_s());
    }
    let reference = Reference::new(&fleet.net.truth, &fleet.tiers);
    check_samples(report, &reference, &logs);
    shutdown_hot(fleet);
    Ok(())
}

// ------------------------------------------------------------- query-cold

/// The cold key space: for each (exclude subset, endpoint) group a
/// seeded permutation of every origin, consumed front to back, so no
/// key repeats within one snapshot version.
struct KeySpace {
    asns: Vec<u32>,
    groups: Vec<Vec<u32>>,
    next: Vec<usize>,
}

impl KeySpace {
    fn new(asns: Vec<u32>) -> Self {
        KeySpace { asns, groups: Vec::new(), next: Vec::new() }
    }

    /// Reopens every key with fresh permutations (after a reload).
    fn reset(&mut self, seed: u64) {
        let mut rng = Rng::new(seed);
        self.groups = (0..16)
            .map(|_| {
                let mut p = self.asns.clone();
                rng.shuffle(&mut p);
                p
            })
            .collect();
        self.next = vec![0; 16];
    }

    /// Takes `n` unused origins of a reachability (`ep` 0) or reliance
    /// (`ep` 1) group, starting at `bits` and moving to the next subset
    /// when a group runs short.
    fn take(&mut self, bits: u8, ep: usize, n: usize) -> Option<(u8, Vec<u32>)> {
        for k in 0..8u8 {
            let b = (bits + k) % 8;
            let g = b as usize * 2 + ep;
            if self.next[g] + n <= self.groups[g].len() {
                let out = self.groups[g][self.next[g]..self.next[g] + n].to_vec();
                self.next[g] += n;
                return Some((b, out));
            }
        }
        None
    }
}

/// Orders reads and reloads: reads run side by side; once a reload is
/// due, new reads wait for it and it waits for the reads in flight, so no
/// request straddles a snapshot swap and keys never repeat within a
/// version.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    turns: Condvar,
}

#[derive(Default)]
struct GateState {
    issued: u64,
    in_flight: usize,
    reloading: bool,
}

enum Turn {
    Read,
    Reload(u64),
}

impl Gate {
    fn enter(&self) -> Turn {
        let mut s = self.state.lock().expect("gate lock poisoned");
        while s.reloading {
            s = self.turns.wait(s).expect("gate lock poisoned");
        }
        let i = s.issued;
        s.issued += 1;
        if i > 0 && i.is_multiple_of(RELOAD_EVERY) {
            s.reloading = true;
            while s.in_flight > 0 {
                s = self.turns.wait(s).expect("gate lock poisoned");
            }
            Turn::Reload(i)
        } else {
            s.in_flight += 1;
            Turn::Read
        }
    }

    fn leave(&self, turn: Turn) {
        let mut s = self.state.lock().expect("gate lock poisoned");
        match turn {
            Turn::Read => s.in_flight -= 1,
            Turn::Reload(_) => s.reloading = false,
        }
        self.turns.notify_all();
    }

    fn issued(&self) -> u64 {
        self.state.lock().expect("gate lock poisoned").issued
    }
}

fn start_cold(seed: u64) -> Result<((SyntheticInternet, Tiers, Server), f64), String> {
    let t0 = Instant::now();
    let net = generate(&NetGenConfig::paper_2020(ASES, seed));
    let gen_s = t0.elapsed().as_secs_f64();
    let tiers = net.tiers_for(&net.truth);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: COLD_WORKERS,
        warm: 0,
        source: TopologySource::Preloaded { graph: net.truth.clone(), tiers: tiers.clone() },
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon: {e}"))?;
    wait_healthy(server.addr())?;
    Ok(((net, tiers, server), gen_s))
}

/// Slots of the cold cycle: one what-if leak and two 256-origin batches
/// per [`COLD_CYCLE`] requests; the other slots are singles, alternating
/// reachability and reliance.
const COLD_CYCLE: usize = 64;
const COLD_LEAK_SLOT: usize = 0;
const COLD_BATCH_SLOTS: [usize; 2] = [1, 33];

/// Draws the cold request for a client's `slot`: fresh keys from the
/// key space or a leak against `victim`; `None` only if the key space is
/// spent. The `exclude` subset rotates with the slot, so every block of
/// requests carries the same mix of cheap and costly subsets (each
/// single endpoint walks all 8 every 16 slots, shifted by one each cycle
/// so the leak and batch slots take a different subset's turn; the
/// batches walk all 8 every 4 cycles); the seed picks the origins and
/// leakers.
fn cold_request(slot: usize, rng: &mut Rng, keys: &Mutex<KeySpace>, victim: u32) -> Option<Req> {
    let (cycle, slot) = (slot / COLD_CYCLE, slot % COLD_CYCLE);
    if slot == COLD_LEAK_SLOT {
        // Google announcing to all, as in Fig. 8: one configuration, so
        // the leak share is one homogeneous cost class; the leaker sample
        // varies with the seed.
        let body = format!(
            "{{\"victim\":{victim},\"leakers\":{LEAK_LEAKERS},\"seed\":{},\"lock\":\"none\"}}",
            rng.below(1_000_000)
        );
        return Some(Req {
            kind: Kind::Leak,
            target: "/v1/whatif/leak".into(),
            body: Some(body),
            bits: 0,
        });
    }
    let mut ks = keys.lock().expect("key space lock poisoned");
    if let Some(i) = COLD_BATCH_SLOTS.iter().position(|&b| b == slot) {
        let bits = ((cycle * COLD_BATCH_SLOTS.len() + i) % 8) as u8;
        let (b, batch) = ks.take(bits, 0, COLD_BATCH)?;
        return Some(reach_req(Kind::ReachBatch, &batch, b));
    }
    let ep = slot % 2;
    let (b, one) = ks.take(((slot / 2 + cycle) % 8) as u8, ep, 1)?;
    Some(reach_req(if ep == 0 { Kind::Reach } else { Kind::Reliance }, &one, b))
}

pub fn run_cold(cfg: &RunCfg, report: &mut Report) -> Result<(), String> {
    let ((net, tiers, server), setup_s, gen_s) = repeated_setup(
        || start_cold(cfg.seed),
        |(_, _, s): (SyntheticInternet, Tiers, Server)| s.shutdown(),
    )?;
    report.e2e.insert("setup_s", setup_s);
    report.layer("netgen.generate_s", gen_s);
    provenance(report, &net, cfg, &format!("1 daemon x {COLD_WORKERS} workers"));

    let mut ks = KeySpace::new(net.truth.asns().map(|a| a.0).collect());
    let victim = net.clouds[0].asn.0;
    ks.reset(cfg.seed);
    let keys = Mutex::new(ks);
    let gate = Gate::default();
    let addr = server.addr();

    let mut ledger = Ledger::new(cfg.trace);
    let before = ledger.instrument(flatnet_obs::snapshot);
    let n_clients = clients(cfg);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(cfg.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_clients)
            .map(|c| {
                let (keys, gate) = (&keys, &gate);
                s.spawn(move || {
                    let mut rng = Rng::new(cfg.seed ^ (0x2000 + c as u64));
                    let mut conn = Conn::new(addr);
                    let mut log = ClientLog::default();
                    let mut slot = c * COLD_CYCLE / n_clients;
                    while Instant::now() < deadline {
                        let turn = gate.enter();
                        if let Turn::Reload(i) = turn {
                            let req = Req {
                                kind: Kind::Reload,
                                target: "/admin/reload".into(),
                                body: Some(String::new()),
                                bits: 0,
                            };
                            let version = log
                                .send(&mut conn, &req, t0, false)
                                .and_then(|b| snapshot_version(&b));
                            keys.lock()
                                .expect("key space lock poisoned")
                                .reset(cfg.seed ^ version.unwrap_or(i));
                            gate.leave(turn);
                            continue;
                        }
                        let Some(req) = cold_request(slot, &mut rng, keys, victim) else {
                            log.attempted += 1;
                            log.failed += 1;
                            log.errors.push("cold key space exhausted".into());
                            gate.leave(turn);
                            break;
                        };
                        let keep = req.kind != Kind::Leak
                            || log.samples.iter().all(|(r, _)| r.kind != Kind::Leak);
                        log.send(&mut conn, &req, t0, keep && rng.below(SAMPLE_EVERY / 4) == 0);
                        gate.leave(turn);
                        slot += 1;
                    }
                    log.opened = conn.opened;
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let delta = ledger.instrument(|| flatnet_obs::snapshot().delta_since(&before));
    loop_metrics(report, &logs, elapsed);

    let hit = cache_hit_ratio(&delta);
    report.check(
        "cache_hit_ratio_at_most_0.01",
        hit <= 0.01,
        format!("serve.cache_hit_ratio = {hit}"),
    );
    let scheduled = gate.issued().saturating_sub(1) / RELOAD_EVERY;
    let mut reloads: Vec<(f64, u64, f64)> =
        logs.iter().flat_map(|l| l.reloads.iter().copied()).collect();
    reloads.sort_by(|a, b| a.0.total_cmp(&b.0));
    let served = counter(&delta, "serve.reloads");
    report.check(
        "reloads_as_scheduled",
        reloads.len() as u64 == scheduled && served as u64 == scheduled,
        format!("scheduled {scheduled}, answered {}, serve.reloads {served}", reloads.len()),
    );
    let versions_step = reloads.windows(2).all(|w| w[1].1 == w[0].1 + 1);
    let per_client = logs.iter().all(|l| l.versions.windows(2).all(|w| w[0] <= w[1]));
    report.check(
        "snapshot_version_monotonic",
        versions_step && per_client,
        format!("reload versions {:?}", reloads.iter().map(|r| r.1).collect::<Vec<_>>()),
    );
    let reload_ms: Vec<f64> = reloads.iter().map(|r| r.2).collect();
    report.extra.push(("reloads".into(), reloads.len() as f64, "count"));

    if cfg.trace {
        serve_layers(&delta, report);
        report.layer("serve.reload_ms", median(&reload_ms));
        report.layer("bench.tracing_overhead_s", ledger.trace_cost_s());
        report.layer("bench.trace_cost_s", ledger.trace_cost_s());
    }
    let reference = Reference::new(&net.truth, &tiers);
    check_samples(report, &reference, &logs);
    server.shutdown();
    Ok(())
}
