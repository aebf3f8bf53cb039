//! The paper workloads.
//!
//! * `paper-4k` computes what `flatnet repro all` computes at 4000 ASes,
//!   through the same public calls, in the same order, without printing.
//! * `paper-70k` runs the propagation-heavy analyses on a 70,000-AS
//!   truth graph, with no traceroute campaign.
//!
//! Each call into a workspace crate is one operation of the ledger; a
//! traced pass records a span per call and reads the sub-layers inside
//! `core::pipeline::measure_checked` from the obs spans the program
//! already records.

use crate::ledger::{
    bgpsim_layers, counter, median, quantile, repeated_setup, Ledger, Report, Rng,
};
use crate::RunCfg;
use flatnet_asgraph::astype::{refine, AsType};
use flatnet_asgraph::{AsGraph, AsId, NodeId, Tiers};
use flatnet_bgpsim::{
    propagate_legacy, LockingSemantics, PropagationConfig, Simulation, TopologySnapshot,
};
use flatnet_core::cone_compare::{cone_vs_hfr, correlation_other, summarize};
use flatnet_core::leaks::{
    average_resilience_cdf, leak_cdf, leak_cdf_with_semantics, subprefix_hijack_cdf, Announce,
    LeakCdf, Locking,
};
use flatnet_core::path_validation::validate_paths;
use flatnet_core::pathlen::path_length_profile;
use flatnet_core::pipeline::{
    measure_checked, methodology_iterations, HealthPolicy, Measured, PreflightOptions,
};
use flatnet_core::pops_exp::{continent_coverage, coverage_row, deployment_split, rdns_table};
use flatnet_core::reachability::{
    hierarchy_free_all_t, rank_by_hierarchy_free, reachability_profile, reachability_profile_t,
    ReachabilityResult,
};
use flatnet_core::reliance_exp::{
    reliance_under_hierarchy_free, reliance_under_tier1_free, tier1_free_reach_also_excluding,
    RelianceProfile,
};
use flatnet_core::report::ascii_world_map;
use flatnet_core::unreachable::{
    unreachable_breakdown, unreachable_breakdowns, UnreachableBreakdown,
};
use flatnet_geo::geolocate::{fiber_rtt_ms, geolocate};
use flatnet_geo::pops::{union_footprints, Footprint};
use flatnet_netgen::{generate, NetGenConfig, SyntheticInternet};
use flatnet_obs::Snapshot;
use flatnet_tracesim::{CampaignOptions, Methodology};
use std::hint::black_box;
use std::time::Instant;

/// Leak simulations per configuration and average-resilience pairs in
/// `paper-4k` (the `repro` defaults).
const LEAKERS_4K: usize = 200;
const AVG_4K: usize = 60;
/// Leakers per configuration in `paper-70k`.
const LEAKERS_70K: usize = 100;
/// Origins checked against the per-origin reference engine per sweep.
const REFERENCE_SAMPLE: usize = 12;
/// Attributed share of traced wall time below which a run is flagged.
const ATTRIBUTION_TARGET: f64 = 0.95;
/// Seconds of `--seconds` one pass stands for. A run makes
/// `round(seconds / pass)` passes (at least one): a fixed amount of
/// work, so a faster or slower host never changes how many passes the
/// median covers. One pass takes about 22-27 s (4k) and 6-7 s (70k) on
/// a 2-core x86-64 host with AVX2, so at 30 s a run makes one 4k pass,
/// or four 70k passes plus their checks, and lasts about 30 s.
const PASS_4K_S: f64 = 25.0;
const PASS_70K_S: f64 = 7.5;

fn span_s(d: &Snapshot, path: &str) -> f64 {
    d.spans.get(path).map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

/// Exclusion mask of one reachability level, built the way the
/// workspace's sweeps build it: the origin's providers (level ≥ 1),
/// Tier-1s (level ≥ 2) and Tier-2s (level 3), with the origin kept.
fn level_mask(g: &AsGraph, tiers: &Tiers, origin: NodeId, level: u8) -> Vec<bool> {
    let mut mask = vec![false; g.len()];
    if level >= 1 {
        for &p in g.providers(origin) {
            mask[p.idx()] = true;
        }
    }
    if level >= 2 {
        for &t in tiers.tier1() {
            mask[t.idx()] = true;
        }
    }
    if level >= 3 {
        for &t in tiers.tier2() {
            mask[t.idx()] = true;
        }
    }
    mask[origin.idx()] = false;
    mask
}

/// Reach count of the per-origin reference engine (`propagate_legacy`)
/// at one level: 0 = no exclusions, 1 = provider-free, 2 = Tier-1-free,
/// 3 = hierarchy-free.
fn reference_reach(g: &AsGraph, tiers: &Tiers, origin: NodeId, level: u8) -> usize {
    let cfg = PropagationConfig::default().with_excluded(level_mask(g, tiers, origin, level));
    propagate_legacy(g, origin, &cfg).reachable_count()
}

/// Compares sampled sweep answers to the reference engine; `claims`
/// holds `(origin, level, claimed count)`. Returns the mismatches.
fn reference_mismatches(g: &AsGraph, tiers: &Tiers, claims: &[(NodeId, u8, usize)]) -> Vec<String> {
    claims
        .iter()
        .filter_map(|&(n, level, claimed)| {
            let want = reference_reach(g, tiers, n, level);
            (want != claimed)
                .then(|| format!("AS{} level {level}: {claimed} vs {want}", g.asn(n).0))
        })
        .collect()
}

/// Checks sampled claims against the reference engine, then feeds one
/// tampered claim through the same comparison and requires it to fail.
fn check_reference(
    report: &mut Report,
    what: &str,
    g: &AsGraph,
    tiers: &Tiers,
    claims: &[(NodeId, u8, usize)],
) {
    let bad = reference_mismatches(g, tiers, claims);
    report.check(
        format!("{what}_matches_reference"),
        bad.is_empty() && !claims.is_empty(),
        format!("{} sampled origins, mismatches: {bad:?}", claims.len()),
    );
    if let Some(&(n, level, claimed)) = claims.first() {
        let caught = !reference_mismatches(g, tiers, &[(n, level, claimed + 1)]).is_empty();
        report.check(
            format!("{what}_tamper_detected"),
            caught,
            "a count off by one must be flagged",
        );
    }
}

fn sample_nodes(g: &AsGraph, rng: &mut Rng, k: usize) -> Vec<NodeId> {
    let mut all: Vec<NodeId> = g.nodes().collect();
    rng.shuffle(&mut all);
    all.truncate(k);
    all
}

fn check_breakdowns(report: &mut Report, g: &AsGraph, rows: &[UnreachableBreakdown]) {
    let bad: Vec<u32> = rows
        .iter()
        .filter(|b| b.by_type.iter().sum::<usize>() != b.total || b.total >= g.len())
        .map(|b| b.asn.0)
        .collect();
    report.check(
        "fig4_breakdowns_in_range",
        bad.is_empty() && !rows.is_empty(),
        format!("{} breakdowns, out of range: {bad:?}", rows.len()),
    );
}

fn check_reliance(report: &mut Report, g: &AsGraph, rows: &[RelianceProfile]) {
    let bad: Vec<u32> = rows
        .iter()
        .filter(|p| {
            let w = p.receivers as f64;
            p.receivers == 0
                || p.receivers > g.len()
                || p.entries.iter().any(|e| !(e.rely > 0.0 && e.rely <= w))
                || p.entries.windows(2).any(|w| w[0].rely < w[1].rely)
        })
        .map(|p| p.origin.0)
        .collect();
    report.check(
        "table2_reliance_in_range",
        bad.is_empty() && !rows.is_empty(),
        format!("{} profiles, out of range: {bad:?}", rows.len()),
    );
}

/// Every leak CDF holds the expected number of fractions, each in [0, 1].
fn check_leaks(report: &mut Report, cdfs: &[(usize, LeakCdf)]) {
    let bad = cdfs
        .iter()
        .filter(|(want, c)| {
            c.fractions.len() != *want || c.fractions.iter().any(|f| !(0.0..=1.0).contains(f))
        })
        .count();
    report.check(
        "leak_fractions_in_range",
        bad == 0 && !cdfs.is_empty(),
        format!("{} CDFs, {bad} out of range", cdfs.len()),
    );
}

fn check_no_panics(report: &mut Report, ledger: &Ledger) {
    report.check(
        "no_step_panicked",
        ledger.failed == 0,
        format!("{} of {} steps failed {:?}", ledger.failed, ledger.attempted, ledger.failures),
    );
}

/// Runs the untraced passes that fill `--seconds` at `pass_s` each (at
/// least one) and fills the end-to-end metrics. With `--trace 1` it then
/// runs one traced pass for the per-layer metrics and one more untraced
/// pass: the first pass of a process pays its warm-up, so the tracing
/// overhead is the traced pass against that warm untraced one. Returns
/// the last output and the obs delta of the untraced passes, for
/// self-checks.
fn drive<R>(
    cfg: &RunCfg,
    report: &mut Report,
    ledger: &mut Ledger,
    pass_s: f64,
    mut pass: impl FnMut(&mut Ledger) -> Option<R>,
) -> (Option<R>, Snapshot) {
    let passes = ((cfg.seconds / pass_s).round() as usize).max(1);
    let mut walls = Vec::new();
    let mut last = None;
    let before = flatnet_obs::snapshot();
    for _ in 0..passes {
        let t0 = Instant::now();
        last = pass(ledger);
        walls.push(t0.elapsed().as_secs_f64());
    }
    let untraced_delta = flatnet_obs::snapshot().delta_since(&before);
    // A paper workload's request is one whole pass: that is what its
    // user waits for. Layer calls are its operations (attempted/failed).
    let pass_us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    let run_s = median(&walls);
    report.e2e.insert("run_s", run_s);
    report.e2e.insert("qps", 1.0 / run_s.max(1e-9));
    report.e2e.insert("latency_p50_us", quantile(&pass_us, 0.50).unwrap_or(0.0));
    report.e2e.insert("latency_p99_us", quantile(&pass_us, 0.99).unwrap_or(0.0));
    report.extra.push(("latency_samples".into(), walls.len() as f64, "count"));
    if cfg.trace {
        let mut tl = Ledger::new(true);
        let before = tl.instrument(flatnet_obs::snapshot);
        let t0 = Instant::now();
        let out = pass(&mut tl);
        let wall = t0.elapsed().as_secs_f64();
        let delta = tl.instrument(|| flatnet_obs::snapshot().delta_since(&before));
        let t1 = Instant::now();
        let again = pass(ledger);
        let untraced = t1.elapsed().as_secs_f64();
        ledger.attempted += tl.attempted;
        ledger.failed += tl.failed;
        ledger.failures.append(&mut tl.failures);
        let unattributed = wall - tl.attributed_s();
        let share = unattributed / wall.max(1e-9);
        report.layer("bench.unattributed_s", unattributed);
        report.layer("bench.unattributed_share", share);
        report.layer("bench.tracing_overhead_s", wall - untraced);
        report.layer("bench.trace_cost_s", tl.trace_cost_s());
        if 1.0 - share < ATTRIBUTION_TARGET {
            eprintln!(
                "flatbench: FLAG attribution {:.1}% of traced wall is below the {:.0}% target",
                100.0 * (1.0 - share),
                100.0 * ATTRIBUTION_TARGET
            );
        }
        let totals = tl.layer_totals();
        for (layer, &(count, secs)) in &totals {
            println!("# span {layer} count={count} total_s={secs:.6}");
            report.layer(format!("{layer}_s"), secs);
        }
        let methodology = totals.get("tracesim.methodology").map_or(0.0, |t| t.1);
        report.layer("tracesim.campaign_s", span_s(&delta, "measure/campaign") + methodology);
        report.layer("asgraph.infer_s", span_s(&delta, "measure/infer"));
        report.layer("asgraph.augment_s", span_s(&delta, "measure/augment"));
        report.layer("mrt.records", counter(&delta, "parse.mrt.records_ok"));
        bgpsim_layers(&delta, report);
        last = again.or(out).or(last);
    }
    (last, untraced_delta)
}

fn finish_counts(report: &mut Report, ledger: &Ledger) {
    report.attempted = ledger.attempted;
    report.failed = ledger.failed;
    check_no_panics(report, ledger);
}

/// The leak CDFs of a pass, each with the number of fractions it must
/// hold, and the `LeakSim` scenarios behind them (`bgpsim.leak.sims`).
#[derive(Default)]
struct Leaks {
    cdfs: Vec<(usize, LeakCdf)>,
    sims: usize,
}

impl Leaks {
    /// One CDF whose fractions are one `LeakSim` scenario each.
    fn scenarios(&mut self, expected: usize, cdf: LeakCdf) {
        self.sims += cdf.fractions.len();
        self.cdfs.push((expected, cdf));
    }
}

fn leak_configs() -> [(Announce, Locking); 5] {
    [
        (Announce::ToAll, Locking::Global),
        (Announce::ToAll, Locking::Tier12),
        (Announce::ToAll, Locking::Tier1),
        (Announce::ToAll, Locking::None),
        (Announce::ToTier12AndProviders, Locking::None),
    ]
}

// ---------------------------------------------------------------- paper-4k

const ASES_4K: usize = 4000;

struct Nets4k {
    y2020: SyntheticInternet,
    y2015: SyntheticInternet,
}

/// What the `paper-4k` checks read from a pass.
struct Out4k {
    graph: AsGraph,
    tiers: Tiers,
    fig2: Vec<ReachabilityResult>,
    hfr: Vec<u32>,
    fig4: Vec<UnreachableBreakdown>,
    table2: Vec<RelianceProfile>,
    leaks: Leaks,
}

/// Leak figure: the five configurations plus the average-resilience
/// baseline for one victim (Figs. 7-9).
fn leak_figure(
    l: &mut Ledger,
    (g, tiers): (&AsGraph, &Tiers),
    victim: AsId,
    weights: Option<&[f64]>,
    seed: u64,
    leaks: &mut Leaks,
) -> Option<()> {
    for (a, lk) in leak_configs() {
        let cdf = l.step_opt("core.leaks", || {
            leak_cdf(g, tiers, victim, a, lk, LEAKERS_4K, seed, weights)
        })?;
        leaks.scenarios(LEAKERS_4K, cdf);
    }
    let avg = l.step("core.leaks", || average_resilience_cdf(g, AVG_4K, AVG_4K, seed, weights))?;
    leaks.sims += avg.fractions.len() * AVG_4K;
    leaks.cdfs.push((AVG_4K, avg));
    Some(())
}

fn cohort(net: &SyntheticInternet) -> (Vec<&Footprint>, Vec<&Footprint>) {
    let clouds = net.cloud_providers().map(|c| &net.geo.footprints[&c.asn.0]).collect();
    let transits = net
        .tier1
        .iter()
        .chain(net.tier2.iter().take(8))
        .map(|a| &net.geo.footprints[&a.0])
        .collect();
    (clouds, transits)
}

fn user_weights(net: &SyntheticInternet, g: &AsGraph) -> Vec<f64> {
    g.nodes()
        .map(|n| {
            net.truth.index_of(g.asn(n)).map(|tn| net.meta[tn.idx()].users as f64).unwrap_or(0.0)
        })
        .collect()
}

/// One `repro all` at 4000 ASes, experiment by experiment.
fn pass_4k(l: &mut Ledger, nets: &Nets4k, seed: u64) -> Option<Out4k> {
    let net = &nets.y2020;
    let net15 = &nets.y2015;
    let opts = CampaignOptions { dest_sample: 1.0, ..Default::default() };
    let pre = PreflightOptions { policy: HealthPolicy::Warn, ..Default::default() };
    let fin = Methodology::final_methodology();
    let measured = |n: &SyntheticInternet| -> Result<(Measured, Tiers), String> {
        let (m, _) = measure_checked(n, &opts, &fin, &pre).map_err(|e| e.to_string())?;
        let tiers = n.tiers_for(&m.augmented);
        Ok((m, tiers))
    };

    // peers (§4.1) and validation (§5).
    let (m20, tiers) = l.step_res("core.measure", || measured(net))?;
    let g = &m20.augmented;
    black_box(m20.peer_counts.len());
    black_box(l.step("tracesim.methodology", || methodology_iterations(net, &opts))?);

    // fig2.
    let clouds: Vec<AsId> = net.cloud_providers().map(|c| c.asn).collect();
    let focus: Vec<AsId> = clouds
        .iter()
        .copied()
        .chain(net.tier1.iter().copied())
        .chain(net.tier2.iter().copied())
        .collect();
    let fig2 = l.step("core.reachability", || reachability_profile(g, &tiers, &focus))?;

    // table1.
    let (m15, tiers15) = l.step_res("core.measure", || measured(net15))?;
    let g15 = &m15.augmented;
    let hfr15 = l.step("core.reachability", || hierarchy_free_all_t(g15, &tiers15, 0))?;
    let hfr = l.step("core.reachability", || hierarchy_free_all_t(g, &tiers, 0))?;
    l.step("core.reachability", || {
        black_box(rank_by_hierarchy_free(g15, &hfr15));
        black_box(rank_by_hierarchy_free(g, &hfr));
        black_box(rank_by_hierarchy_free(g, &hfr));
        black_box(rank_by_hierarchy_free(g15, &hfr15));
    })?;

    // fig3.
    l.step("core.rankings", || {
        let points = cone_vs_hfr(g, &tiers, &hfr, &clouds);
        let threshold = ((g.len() as f64) * 0.015).ceil() as u32;
        black_box(summarize(&points, threshold));
        black_box(correlation_other(&points));
    })?;

    // fig4.
    let type_of = |n: NodeId| {
        net.truth
            .index_of(g.asn(n))
            .map(|tn| {
                let m = &net.meta[tn.idx()];
                refine(m.class, m.users)
            })
            .unwrap_or(AsType::Enterprise)
    };
    let fig4_focus: Vec<AsId> = clouds
        .iter()
        .copied()
        .chain(net.tier1.iter().copied().take(4))
        .chain(net.tier2.iter().copied().take(4))
        .collect();
    let mut fig4 = Vec::new();
    for &asn in &fig4_focus {
        fig4.push(
            l.step_opt("core.unreachable", || unreachable_breakdown(g, &tiers, asn, type_of))?,
        );
    }

    // table2 and fig6.
    let mut table2 = Vec::new();
    for &c in &clouds {
        table2.push(l.step_opt("core.reliance", || reliance_under_hierarchy_free(g, &tiers, c))?);
    }
    for &c in &clouds {
        l.step_opt("core.reliance", || {
            reliance_under_hierarchy_free(g, &tiers, c).map(|p| black_box(p.histogram(25.0)))
        })?;
    }

    // fig7-fig10.
    let mut leaks = Leaks::default();
    for name in ["Microsoft", "Amazon", "IBM", "Facebook"] {
        let victim = net.clouds.iter().find(|c| c.spec.name == name)?.asn;
        leak_figure(l, (g, &tiers), victim, None, seed, &mut leaks)?;
    }
    let google = net.clouds[0].asn;
    leak_figure(l, (g, &tiers), google, None, seed, &mut leaks)?;
    for locking in [Locking::None, Locking::Tier12, Locking::Global] {
        // Sub-prefix hijacks run through the lane kernel, not LeakSim.
        let cdf = l.step_opt("core.leaks", || {
            subprefix_hijack_cdf(g, &tiers, google, locking, LEAKERS_4K, seed, None)
        })?;
        leaks.cdfs.push((LEAKERS_4K, cdf));
    }
    let weights = l.step("core.leaks", || user_weights(net, g))?;
    leak_figure(l, (g, &tiers), google, Some(&weights), seed, &mut leaks)?;
    for (gy, ty, ny) in [(g15, &tiers15, net15), (g, &tiers, net)] {
        let v = ny.clouds[0].asn;
        let cdf = l.step_opt("core.leaks", || {
            leak_cdf(gy, ty, v, Announce::ToAll, Locking::None, LEAKERS_4K, seed, None)
        })?;
        leaks.scenarios(LEAKERS_4K, cdf);
    }

    // fig11, fig12.
    let (cloud_fps, transit_fps) = cohort(net);
    l.step("geo.pops", || {
        black_box(deployment_split(&cloud_fps, &transit_fps));
        let grid = &net.popgrid;
        let cloud_u = union_footprints("clouds", &cloud_fps);
        let transit_u = union_footprints("transit", &transit_fps);
        let mut markers: Vec<(f64, f64, char)> = Vec::new();
        for s in transit_u.sites() {
            markers.push((s.point.lat, s.point.lon, 'T'));
        }
        for s in cloud_u.sites() {
            markers.push((
                s.point.lat,
                s.point.lon,
                if transit_u.has_city(&s.city) { 'B' } else { 'C' },
            ));
        }
        black_box(ascii_world_map(
            110,
            26,
            |lat, lon| {
                let here = flatnet_geo::GeoPoint::new(lat, lon);
                grid.cells()
                    .iter()
                    .filter(|c| flatnet_geo::haversine_km(c.center, here) < 400.0)
                    .map(|c| c.population)
                    .sum()
            },
            &markers,
        ));
    })?;
    l.step("geo.pops", || {
        let grid = &net.popgrid;
        let cloud_u = union_footprints("cloud cohort", &cloud_fps);
        let transit_u = union_footprints("transit cohort", &transit_fps);
        black_box(continent_coverage(grid, &cloud_u.points()));
        black_box(continent_coverage(grid, &transit_u.points()));
        let mut rows: Vec<_> =
            cloud_fps.iter().chain(transit_fps.iter()).map(|fp| coverage_row(grid, fp)).collect();
        rows.sort_by(|a, b| b.world[0].total_cmp(&a.world[0]));
        black_box(rows);
    })?;

    // fig13.
    for (year, gy, ny) in [("2015", g15, net15), ("2020", g, net)] {
        let users = user_weights(ny, gy);
        for cloud in ny.cloud_providers() {
            if year == "2015" && cloud.spec.name == "Microsoft" {
                continue;
            }
            black_box(l.step("core.pathlen", || path_length_profile(gy, cloud.asn, &users))?);
        }
    }

    // table3.
    let all_fps: Vec<&Footprint> = cloud_fps.iter().chain(transit_fps.iter()).copied().collect();
    black_box(l.step("geo.pops", || rdns_table(&all_fps))?);

    // appendix_a.
    let all_clouds: Vec<AsId> = net.clouds.iter().map(|c| c.asn).collect();
    black_box(l.step("core.path_validation", || {
        validate_paths(&m20.augmented, &net.addressing.resolver, &m20.campaign, &all_clouds)
    })?);

    // appendix_b.
    let t2_set: std::collections::BTreeSet<u32> = net.tier2.iter().map(|a| a.0).collect();
    for &t1 in net.tier1.iter().rev().take(2) {
        black_box(l.step("core.reachability", || reachability_profile(g, &tiers, &[t1]))?);
        let Some(rel) = l.step("core.reliance", || reliance_under_tier1_free(g, &tiers, t1))?
        else {
            continue;
        };
        let top6: Vec<AsId> = rel
            .entries
            .iter()
            .filter(|e| t2_set.contains(&e.asn.0))
            .take(6)
            .map(|e| e.asn)
            .collect();
        black_box(
            l.step("core.reliance", || tier1_free_reach_also_excluding(g, &tiers, t1, &top6))?,
        );
    }

    // appendix_d.
    for asn in net.tier1.iter().chain(net.tier2.iter().take(6)) {
        let fp = &net.geo.footprints[&asn.0];
        l.step("geo.geolocate", || {
            let candidates: Vec<(String, flatnet_geo::GeoPoint)> =
                fp.sites().iter().map(|s| (s.city.clone(), s.point)).collect();
            for site in fp.sites() {
                let hint = site.sources.contains(&flatnet_geo::pops::SiteSource::Rdns);
                black_box(geolocate(&candidates, hint.then_some(site.city.as_str()), |vp| {
                    Some(fiber_rtt_ms(*vp, site.point))
                }));
            }
        })?;
    }

    // erratum.
    for locking in [Locking::Tier1, Locking::Tier12, Locking::Global] {
        for semantics in [LockingSemantics::PreErratum, LockingSemantics::Corrected] {
            let cdf = l.step_opt("core.leaks", || {
                leak_cdf_with_semantics(
                    g,
                    &tiers,
                    google,
                    Announce::ToAll,
                    locking,
                    semantics,
                    LEAKERS_4K,
                    seed,
                    None,
                )
            })?;
            leaks.scenarios(LEAKERS_4K, cdf);
        }
    }

    // ablation_topology.
    for view in [&net.public, g, &net.truth] {
        black_box(l.step("core.reachability", || {
            let tv = net.tiers_for(view);
            reachability_profile(view, &tv, &clouds)
        })?);
    }

    // rankings.
    black_box(
        l.step("core.rankings", || flatnet_core::rankings::compare_metrics(g, &hfr, 48, seed))?,
    );

    // feeds.
    let monitors = 60.min(net.truth.len() / 10).max(8);
    let origins = (net.truth.len() / 2).max(200).min(net.truth.len());
    black_box(l.step("core.feeds", || {
        flatnet_core::feeds::run_feed_experiment(net, monitors, origins, seed)
    })?);

    Some(Out4k { graph: m20.augmented, tiers, fig2, hfr, fig4, table2, leaks })
}

pub fn run_4k(cfg: &RunCfg, report: &mut Report) -> Result<(), String> {
    let seed = cfg.seed;
    let (nets, setup_s, gen_s) = repeated_setup(
        || {
            let t0 = Instant::now();
            let y2020 = generate(&NetGenConfig::paper_2020(ASES_4K, seed));
            let y2015 = generate(&NetGenConfig::paper_2015(ASES_4K, seed));
            Ok((Nets4k { y2020, y2015 }, t0.elapsed().as_secs_f64()))
        },
        drop,
    )?;
    report.e2e.insert("setup_s", setup_s);
    report.layer("netgen.generate_s", gen_s);
    report.provenance("ases", nets.y2020.truth.len());
    report.provenance("edges", nets.y2020.truth.edge_count());
    report.provenance("ases_2015", nets.y2015.truth.len());
    report.provenance("threads", cfg.nproc);
    report.provenance("clients", 0);
    report.provenance("connections", 0);

    let mut ledger = Ledger::new(false);
    let (out, _) = drive(cfg, report, &mut ledger, PASS_4K_S, |l| pass_4k(l, &nets, seed));
    finish_counts(report, &ledger);
    let Some(out) = out else {
        report.check("pass_completed", false, "a step failed; later steps were skipped");
        return Ok(());
    };
    report.layer("bgpsim.leak.sims", out.leaks.sims as f64);

    let g = &out.graph;
    let mut rng = Rng::new(seed ^ 0x4b);
    let mut claims: Vec<(NodeId, u8, usize)> = sample_nodes(g, &mut rng, REFERENCE_SAMPLE)
        .into_iter()
        .map(|n| (n, 3, out.hfr[n.idx()] as usize))
        .collect();
    for r in out.fig2.iter().take(2) {
        let n = g.index_of(r.asn).expect("profiled ASes are in the graph");
        claims.push((n, 1, r.provider_free));
        claims.push((n, 2, r.tier1_free));
        claims.push((n, 3, r.hierarchy_free));
    }
    check_reference(report, "sweep_reach", g, &out.tiers, &claims);
    check_breakdowns(report, g, &out.fig4);
    check_reliance(report, g, &out.table2);
    check_leaks(report, &out.leaks.cdfs);
    Ok(())
}

// --------------------------------------------------------------- paper-70k

const ASES_70K: usize = 70_000;

struct Out70k {
    tiers: Tiers,
    hfr: Vec<u32>,
    dense: Vec<u32>,
    fig4: Vec<UnreachableBreakdown>,
    reliance: Vec<RelianceProfile>,
    leaks: Leaks,
}

fn pass_70k(l: &mut Ledger, net: &SyntheticInternet, seed: u64) -> Option<Out70k> {
    let g = &net.truth;
    let clouds: Vec<AsId> = net.cloud_providers().map(|c| c.asn).collect();
    let focus: Vec<AsId> = clouds
        .iter()
        .copied()
        .chain(net.tier1.iter().copied())
        .chain(net.tier2.iter().copied())
        .collect();
    let (tiers, fig2) = l.step("core.reachability", || {
        let tiers = net.tiers_for(g);
        let profile = reachability_profile_t(g, &tiers, &focus, 0);
        (tiers, profile)
    })?;
    black_box(fig2);
    let hfr = l.step("core.reachability", || hierarchy_free_all_t(g, &tiers, 0))?;
    let type_of = |n: NodeId| {
        let m = &net.meta[n.idx()];
        refine(m.class, m.users)
    };
    let fig4: Vec<UnreachableBreakdown> = l
        .step("core.unreachable", || unreachable_breakdowns(g, &tiers, &clouds, type_of, 0))?
        .into_iter()
        .collect::<Option<_>>()?;
    let mut reliance = Vec::new();
    for &c in &clouds {
        reliance.push(l.step_opt("core.reliance", || reliance_under_hierarchy_free(g, &tiers, c))?);
    }
    let google = net.clouds[0].asn;
    let mut leaks = Leaks::default();
    for (a, lk) in leak_configs() {
        let cdf = l.step_opt("core.leaks", || {
            leak_cdf(g, &tiers, google, a, lk, LEAKERS_70K, seed, None)
        })?;
        leaks.scenarios(LEAKERS_70K, cdf);
    }
    let snap = l.step("bgpsim.compile", || TopologySnapshot::compile(g))?;
    let all: Vec<NodeId> = g.nodes().collect();
    let dense = l.step("bgpsim.lanes.dense_sweep", || {
        Simulation::over(&snap).threads(0).run_sweep_reach_counts(&all)
    })?;
    Some(Out70k { tiers, hfr, dense, fig4, reliance, leaks })
}

pub fn run_70k(cfg: &RunCfg, report: &mut Report) -> Result<(), String> {
    let seed = cfg.seed;
    let (net, setup_s, gen_s) = repeated_setup(
        || {
            let t0 = Instant::now();
            let net = generate(&NetGenConfig::paper_2020(ASES_70K, seed));
            Ok((net, t0.elapsed().as_secs_f64()))
        },
        drop,
    )?;
    report.e2e.insert("setup_s", setup_s);
    report.layer("netgen.generate_s", gen_s);
    report.provenance("ases", net.truth.len());
    report.provenance("edges", net.truth.edge_count());
    report.provenance("threads", cfg.nproc);
    report.provenance("clients", 0);
    report.provenance("connections", 0);

    let mut ledger = Ledger::new(false);
    let (out, delta) = drive(cfg, report, &mut ledger, PASS_70K_S, |l| pass_70k(l, &net, seed));
    finish_counts(report, &ledger);
    let Some(out) = out else {
        report.check("pass_completed", false, "a step failed; later steps were skipped");
        return Ok(());
    };
    report.layer("bgpsim.leak.sims", out.leaks.sims as f64);
    let blocks = counter(&delta, "propagate.kernel_blocks");
    report.check("lane_kernel_used", blocks > 0.0, format!("bgpsim.lanes.blocks = {blocks}"));

    let g = &net.truth;
    let mut rng = Rng::new(seed ^ 0x70);
    let sample = sample_nodes(g, &mut rng, REFERENCE_SAMPLE);
    let claims: Vec<(NodeId, u8, usize)> = sample
        .iter()
        .take(REFERENCE_SAMPLE / 2)
        .map(|&n| (n, 3, out.hfr[n.idx()] as usize))
        .chain(
            sample.iter().skip(REFERENCE_SAMPLE / 2).map(|&n| (n, 0, out.dense[n.idx()] as usize)),
        )
        .collect();
    check_reference(report, "sweep_reach", g, &out.tiers, &claims);
    check_breakdowns(report, g, &out.fig4);
    check_reliance(report, g, &out.reliance);
    check_leaks(report, &out.leaks.cdfs);
    Ok(())
}
