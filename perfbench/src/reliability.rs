//! The reliability workload: the fleet engine, the Figure 11 Monte Carlo
//! and the differential fault campaign, each on 2 worker threads. No
//! performance-simulator layer runs here.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use synergy_campaign::runner::MEMORY_CAPACITY;
use synergy_campaign::{
    analytic_fails, finalize, run_functional, scenario_for, CampaignJob, CampaignParams,
    CampaignResult, Design, FabricConfig, FabricRun, Job, JobFabric, Scenario,
};
use synergy_crypto::gmac::Gmac;
use synergy_crypto::{CacheLine, MacKey};
use synergy_faultsim::{
    simulate, EccPolicy, FaultModel, ReliabilityResult, SimParams, HOURS_PER_YEAR, SHARD_DEVICES,
};
use synergy_fleet::{FleetJob, FleetParams, FleetResult, FLEET_DESIGNS, SHARD_DIMMS};

use crate::reference::Reference;
use crate::util::{fnv64, median, ns_since, print_manifest};
use crate::{Args, Checks, Outcome};

const THREADS: usize = 2;
const FLEET_DIMMS: u64 = 20_000_000;
const FIG11_DEVICES: u64 = 20_000_000;
const FIG11_POLICIES: [EccPolicy; 5] = [
    EccPolicy::None,
    EccPolicy::Secded,
    EccPolicy::Chipkill,
    EccPolicy::Ivec,
    EccPolicy::Synergy,
];
const INJECTIONS: u64 = 60_000;
/// Campaign injections of the set-up smoke run.
const SMOKE_INJECTIONS: u64 = 600;
/// Untraced passes made even when `--seconds` is already spent.
const MIN_PASSES: usize = 3;
/// Figure 11's SECDED/Synergy failure-probability ratio.
const PAPER_FIG11_RATIO: f64 = 185.0;
/// Traced-run replay sizes (single-threaded).
const REPLAY_DEVICES: u64 = 1_000_000;
const REPLAY_INJECTIONS: u64 = 12_000;
const REPLAY_LINE_TAGS: u64 = 200_000;

/// The three phases' inputs.
struct Inputs {
    fleet: FleetParams,
    fig11: SimParams,
    model: FaultModel,
    campaign: CampaignParams,
}

/// Builds the phase inputs, then runs each phase on one shard's worth of
/// work: constructors, worker start-up and lazy first-call work finish
/// before timing, and show in `setup_s`.
fn setup(args: &Args) -> Inputs {
    let fleet = FleetParams {
        dimms: FLEET_DIMMS,
        threads: THREADS,
        ..Default::default()
    };
    let fleet = FleetParams {
        seed: args.derive_seed(fleet.seed),
        ..fleet
    };
    let fig11 = SimParams {
        devices: FIG11_DEVICES,
        threads: THREADS,
        ..Default::default()
    };
    let fig11 = SimParams {
        seed: args.derive_seed(fig11.seed),
        ..fig11
    };
    let campaign = CampaignParams {
        injections: INJECTIONS,
        threads: THREADS,
        ..Default::default()
    };
    let campaign = CampaignParams {
        seed: args.derive_seed(campaign.seed),
        ..campaign
    };
    let inputs = Inputs {
        fleet,
        fig11,
        model: FaultModel::sridharan(),
        campaign,
    };
    let smoke = Inputs {
        fleet: FleetParams {
            dimms: SHARD_DIMMS,
            ..inputs.fleet.clone()
        },
        fig11: SimParams {
            devices: SHARD_DEVICES,
            ..inputs.fig11.clone()
        },
        model: inputs.model.clone(),
        campaign: CampaignParams {
            injections: SMOKE_INJECTIONS,
            ..inputs.campaign.clone()
        },
    };
    std::hint::black_box(pass(&smoke, None));
    inputs
}

/// Seeds, threads and scale values for the manifest.
fn manifest(inputs: &Inputs) -> Vec<(&'static str, String)> {
    vec![
        ("threads", THREADS.to_string()),
        ("fleet_dimms", FLEET_DIMMS.to_string()),
        ("fleet_seed", format!("{:#x}", inputs.fleet.seed)),
        ("fig11_devices", FIG11_DEVICES.to_string()),
        ("fig11_policies", FIG11_POLICIES.map(|p| p.name()).join(" ")),
        ("fig11_seed", format!("{:#x}", inputs.fig11.seed)),
        ("injections", INJECTIONS.to_string()),
        ("campaign_seed", format!("{:#x}", inputs.campaign.seed)),
    ]
}

fn fabric() -> FabricConfig {
    FabricConfig {
        threads: THREADS,
        ..Default::default()
    }
}

/// A job whose `run_shard` calls are timed: the fabric's own time is the
/// rest of its wall time.
struct Timed<J> {
    inner: J,
    shard_ns: AtomicU64,
}

impl<J: Job> Timed<J> {
    fn new(inner: J) -> Self {
        Self {
            inner,
            shard_ns: AtomicU64::new(0),
        }
    }
}

impl<J: Job> Job for Timed<J> {
    type Agg = J::Agg;

    fn items(&self) -> u64 {
        self.inner.items()
    }

    fn shard_items(&self) -> u64 {
        self.inner.shard_items()
    }

    fn run_shard(&self, start: u64, count: u64) -> J::Agg {
        let t = Instant::now();
        let agg = self.inner.run_shard(start, count);
        self.shard_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        agg
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }
}

/// One pass's results.
struct Results {
    fleet: FleetResult,
    fig11: Vec<ReliabilityResult>,
    campaign: CampaignResult,
}

impl Results {
    /// Every result statistic as text (all are deterministic for a seed
    /// at any thread count).
    fn stats(&self) -> String {
        let c = &self.campaign;
        format!(
            "{:?} {:?} {:?} {:?} {} {:?}",
            self.fleet.aggregate,
            self.fig11,
            c.matrix,
            c.analytic_failures,
            c.mismatch_count,
            c.mac_computations
        )
    }

    fn fig11(&self, policy: EccPolicy) -> &ReliabilityResult {
        let i = FIG11_POLICIES
            .iter()
            .position(|&p| p == policy)
            .expect("fig11 policy");
        &self.fig11[i]
    }
}

/// Host seconds of each phase: fleet, fig11, campaign.
type PhaseTimes = [f64; 3];

fn run_fig11(inputs: &Inputs) -> Vec<ReliabilityResult> {
    FIG11_POLICIES
        .iter()
        .map(|&p| simulate(p, &inputs.model, &inputs.fig11))
        .collect()
}

/// Runs the three phases and returns their host seconds and their ratios
/// to the reference kernel, which then runs after every phase (zeros
/// without one).
fn pass(
    inputs: &Inputs,
    mut reference: Option<&mut Reference>,
) -> (Results, PhaseTimes, PhaseTimes) {
    let mut ratios = [0.0; 3];
    let mut ratio = |phase: usize, secs: f64| {
        if let Some(r) = reference.as_deref_mut() {
            ratios[phase] = r.ratio_after(secs);
        }
    };
    let t = Instant::now();
    let fleet = synergy_fleet::run_with_fabric(&inputs.fleet, fabric()).expect("fresh fleet run");
    let t_fleet = t.elapsed().as_secs_f64();
    ratio(0, t_fleet);
    let t = Instant::now();
    let fig11 = run_fig11(inputs);
    let t_fig11 = t.elapsed().as_secs_f64();
    ratio(1, t_fig11);
    let t = Instant::now();
    let campaign =
        synergy_campaign::run_with_fabric(&inputs.campaign, fabric()).expect("fresh campaign");
    let t_campaign = t.elapsed().as_secs_f64();
    ratio(2, t_campaign);
    (
        Results {
            fleet,
            fig11,
            campaign,
        },
        [t_fleet, t_fig11, t_campaign],
        ratios,
    )
}

fn fig11_ratio_err(r: &Results) -> f64 {
    let ratio = r.fig11(EccPolicy::Secded).failure_probability
        / r.fig11(EccPolicy::Synergy).failure_probability;
    (ratio - PAPER_FIG11_RATIO).abs() / PAPER_FIG11_RATIO
}

fn check_results(inputs: &Inputs, r: &Results, checks: &mut Checks) {
    let c = &r.campaign;
    checks.check(
        c.mismatch_count == 0,
        format!(
            "campaign: {} functional-vs-analytic mismatches",
            c.mismatch_count
        ),
    );
    let p = |policy| r.fig11(policy).failure_probability;
    checks.check(
        p(EccPolicy::Synergy) < p(EccPolicy::Chipkill)
            && p(EccPolicy::Chipkill) < p(EccPolicy::Secded),
        format!(
            "fig11 orders Synergy {} < Chipkill {} < SECDED {}",
            p(EccPolicy::Synergy),
            p(EccPolicy::Chipkill),
            p(EccPolicy::Secded)
        ),
    );
    // The fleet's fault incidence against 1 − e^−λ, within a ±4σ binomial
    // interval (as `tests/fleet_resume.rs` pins it).
    let hours = inputs.fleet.years * HOURS_PER_YEAR;
    for design in FLEET_DESIGNS {
        let report = r.fleet.report(design);
        let lambda = design.domain_chips() as f64 * inputs.fleet.model.total_fit() * 1e-9 * hours;
        let expected = 1.0 - (-lambda).exp();
        let tol = 4.0 * (expected * (1.0 - expected) / report.dimms as f64).sqrt();
        checks.check(
            (report.fault_incidence - expected).abs() < tol,
            format!(
                "fleet {design}: fault incidence {} vs 1-e^-λ {expected} ± {tol}",
                report.fault_incidence
            ),
        );
    }
}

fn report(inputs: &Inputs, r: &Results, t: &PhaseTimes, passes: usize) {
    println!(
        "{passes} passes; per-phase median host seconds: fleet {} fig11 {} campaign {}",
        t[0], t[1], t[2]
    );
    println!("lifetimes_per_s = {} 1/s", lifetimes(inputs) / t[0]);
    println!("mc_devices_per_s = {} 1/s", devices(inputs) / t[1]);
    println!(
        "injections_per_s = {} 1/s",
        inputs.campaign.injections as f64 / t[2]
    );
    println!(
        "fig11_ratio_err = {} ratio (SECDED/Synergy {:.1}, paper {PAPER_FIG11_RATIO})",
        fig11_ratio_err(r),
        r.fig11(EccPolicy::Secded).failure_probability
            / r.fig11(EccPolicy::Synergy).failure_probability
    );
}

fn lifetimes(inputs: &Inputs) -> f64 {
    (inputs.fleet.dimms * FLEET_DESIGNS.len() as u64) as f64
}

fn devices(inputs: &Inputs) -> f64 {
    (inputs.fig11.devices * FIG11_POLICIES.len() as u64) as f64
}

/// Runs the workload: untraced passes for `--trace 0`, the instrumented
/// run for `--trace 1`. Every untraced pass sets its inputs up afresh, so
/// `setup_s` samples the whole run; the first set-up counts from process
/// start.
pub fn measure(args: &Args, process_start: Instant, checks: &mut Checks) -> Outcome {
    let mut inputs = setup(args);
    let mut setup_times = vec![process_start.elapsed().as_secs_f64()];
    print_manifest(args, &manifest(&inputs));
    if args.trace {
        return traced(&inputs, setup_times[0], args, checks);
    }
    let mut reference = Reference::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut times: [Vec<f64>; 3] = Default::default();
    let mut ratios: [Vec<f64>; 3] = Default::default();
    let mut ref_times = vec![reference.last()];
    let mut first: Option<(Results, String)> = None;
    let mut passes = 0;
    while passes < MIN_PASSES || Instant::now() < deadline {
        if passes > 0 {
            let t = Instant::now();
            inputs = setup(args);
            setup_times.push(t.elapsed().as_secs_f64());
        }
        let (r, t, q) = pass(&inputs, Some(&mut reference));
        ref_times.push(reference.last());
        for (i, (secs, ratio)) in t.into_iter().zip(q).enumerate() {
            times[i].push(secs);
            ratios[i].push(ratio);
        }
        match &first {
            None => {
                check_results(&inputs, &r, checks);
                let stats = r.stats();
                first = Some((r, stats));
            }
            Some((_, stats)) => {
                checks.check(
                    r.stats() == *stats,
                    format!("pass {passes} repeats pass 0 exactly"),
                );
            }
        }
        passes += 1;
    }
    let (r, stats) = first.expect("at least one pass");
    let medians = times.map(|mut t| median(&mut t));
    report(&inputs, &r, &medians, passes);
    Outcome {
        pass_s: medians.iter().sum(),
        pass_vs_ref: ratios.map(|mut r| median(&mut r)).iter().sum(),
        ref_s: median(&mut ref_times),
        setup_s: median(&mut setup_times),
        layers: BTreeMap::new(),
        digest: fnv64(&stats),
    }
}

/// Nanoseconds per item of `f` over `items`.
fn ns_per<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for item in items {
        f(item);
    }
    ns_since(t) / items.len().max(1) as f64
}

/// Runs `job` on the fabric with its shards timed: the run, its wall
/// seconds and the seconds spent inside `Job::run_shard`.
fn timed_fabric<J: Job>(job: J) -> (FabricRun<J::Agg>, f64, f64) {
    let fabric = JobFabric::new(Timed::new(job), fabric());
    let t = Instant::now();
    let run = fabric.run();
    let wall = t.elapsed().as_secs_f64();
    (
        run,
        wall,
        fabric.job().shard_ns.load(Ordering::Relaxed) as f64 / 1e9,
    )
}

/// The traced run: plain passes alternate with shard-timed fleet and
/// campaign runs until `--seconds` is spent (at least once each), then
/// each layer's public API is replayed single-threaded on the workload's
/// own inputs.
fn traced(inputs: &Inputs, setup_s: f64, args: &Args, checks: &mut Checks) -> Outcome {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut plain: [Vec<f64>; 3] = Default::default();
    // Fleet, campaign: wall seconds of the shard-timed run, and the share
    // of their worker time spent outside `run_shard`.
    let mut timed_wall: [Vec<f64>; 2] = Default::default();
    let mut fabric_share: [Vec<f64>; 2] = Default::default();
    let mut shard_s: [Vec<f64>; 2] = Default::default();
    let mut first: Option<(Results, String)> = None;
    let mut reps = 0;
    while reps == 0 || Instant::now() < deadline {
        let (r, t, _) = pass(inputs, None);
        for (samples, secs) in plain.iter_mut().zip(t) {
            samples.push(secs);
        }
        let (fleet, fleet_wall, fleet_shards) = timed_fabric(FleetJob::new(&inputs.fleet));
        let (campaign, campaign_wall, campaign_shards) =
            timed_fabric(CampaignJob::new(&inputs.campaign));
        for (i, (wall, shards)) in [(fleet_wall, fleet_shards), (campaign_wall, campaign_shards)]
            .into_iter()
            .enumerate()
        {
            timed_wall[i].push(wall);
            shard_s[i].push(shards);
            fabric_share[i].push(1.0 - shards / (THREADS as f64 * wall));
        }
        if reps == 0 {
            check_results(inputs, &r, checks);
            let fleet = FleetResult {
                params: inputs.fleet.clone(),
                aggregate: fleet.aggregate,
            };
            checks.check(
                fleet == r.fleet,
                "shard timing leaves the fleet result unchanged",
            );
            checks.check(
                finalize(&inputs.campaign, &campaign) == r.campaign,
                "shard timing leaves the campaign result unchanged",
            );
            let stats = r.stats();
            first = Some((r, stats));
        }
        reps += 1;
    }
    let (r, stats) = first.expect("at least one repetition");
    let plain = plain.map(|mut t| median(&mut t));
    let timed_wall = timed_wall.map(|mut t| median(&mut t));
    let fabric_share = fabric_share.map(|mut t| median(&mut t));
    let shard_s = shard_s.map(|mut t| median(&mut t));
    report(inputs, &r, &plain, reps);
    for (name, share) in ["fleet", "campaign"].iter().zip(fabric_share) {
        checks.check(
            (0.0..1.0).contains(&share),
            format!("{name}: worker time inside run_shard must not exceed worker wall time (fabric share {share})"),
        );
    }

    // faultsim::simulate, single-threaded.
    let replay = SimParams {
        devices: REPLAY_DEVICES,
        threads: 1,
        ..inputs.fig11.clone()
    };
    let t = Instant::now();
    for &p in &FIG11_POLICIES {
        std::hint::black_box(simulate(p, &inputs.model, &replay));
    }
    let ns_per_device = ns_since(t) / (REPLAY_DEVICES * FIG11_POLICIES.len() as u64) as f64;

    // The campaign's per-injection kernels on its first scenarios.
    let c = &inputs.campaign;
    let data_lines = MEMORY_CAPACITY / 64;
    let indices: Vec<u64> = (0..REPLAY_INJECTIONS).collect();
    let mut scenarios: Vec<Scenario> = Vec::with_capacity(indices.len());
    let ns_per_scenario = ns_per(&indices, |&i| {
        scenarios.push(scenario_for(c.seed, i, &c.model, &c.geometry, data_lines));
    });
    let analytic_ns = ns_per(&scenarios, |s| {
        std::hint::black_box(analytic_fails(s));
    });
    let functional_ns = |design: Design| {
        let of_design: Vec<&Scenario> = scenarios.iter().filter(|s| s.design == design).collect();
        ns_per(&of_design, |s| {
            std::hint::black_box(run_functional(s));
        })
    };
    let [secded_ns, chipkill_ns, synergy_ns] =
        [Design::Secded, Design::Chipkill, Design::Synergy].map(functional_ns);

    // The line-tag kernel behind every MAC computation.
    let gmac = Gmac::new(&MacKey::from_bytes([0x22; 16]));
    let line = CacheLine::from_words([0x0123_4567_89AB_CDEF; 8]);
    let tags: Vec<u64> = (0..REPLAY_LINE_TAGS).collect();
    let mut acc = 0u64;
    let ns_per_line_tag = ns_per(&tags, |&i| {
        acc ^= gmac.line_tag(std::hint::black_box(i * 64), i, &line);
    });
    std::hint::black_box(acc);

    let layers: BTreeMap<&'static str, f64> = [
        ("faultsim.mc_devices_per_s", devices(inputs) / plain[1]),
        ("faultsim.ns_per_device", ns_per_device),
        ("faultsim.fig11_ratio_err", fig11_ratio_err(&r)),
        ("fleet.lifetimes_per_s", lifetimes(inputs) / plain[0]),
        (
            "fleet.ns_per_dimm",
            shard_s[0] * 1e9 / inputs.fleet.dimms as f64,
        ),
        ("fleet.fabric_share", fabric_share[0]),
        ("campaign.injections_per_s", c.injections as f64 / plain[2]),
        ("campaign.ns_per_scenario", ns_per_scenario),
        ("campaign.analytic_ns", analytic_ns),
        ("campaign.fabric_share", fabric_share[1]),
        ("ecc.secded_ns_per_injection", secded_ns),
        ("ecc.chipkill_ns_per_injection", chipkill_ns),
        ("core.synergy_ns_per_injection", synergy_ns),
        (
            "crypto.mac_computations",
            r.campaign.mac_computations.sum() as f64,
        ),
        ("crypto.ns_per_line_tag", ns_per_line_tag),
        (
            "obs.trace_overhead",
            timed_wall.iter().sum::<f64>() / (plain[0] + plain[2]) - 1.0,
        ),
    ]
    .into_iter()
    .collect();
    Outcome {
        pass_s: plain.iter().sum(),
        pass_vs_ref: 0.0,
        ref_s: 0.0,
        setup_s,
        layers,
        digest: fnv64(&stats),
    }
}
