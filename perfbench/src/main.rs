//! The repository benchmark: host throughput of the SYNERGY performance
//! simulator and of its Monte-Carlo reliability engines.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_read_bound|sim_write_bound|sim_compute_bound|reliability> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root: it reads `BENCHMARK.json` there and
//! refuses to run when the metrics it prints and the metrics declared
//! there disagree. Human-readable lines come first; the last line of
//! standard output is one JSON object `{correct, attempted, failed,
//! metrics}`. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics of a separate, instrumented run. Every scale value is
//! pinned here; the `SYNERGY_BENCH_*` environment knobs are ignored.
//! `perfbench/README.md` explains the workloads and metrics.

mod reference;
mod reliability;
mod sim;
mod util;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

use synergy_obs::json::Json;

/// End-to-end metrics: name, unit, better direction. Every workload
/// prints all of them with tracing off.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("pass_vs_ref", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics of the traced run. A layer that a workload does not
/// run reports 0 there.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("trace.records", "count", "lower"),
    ("trace.ns_per_record", "ns", "lower"),
    ("core.sim_minst_per_s", "Minst/s", "higher"),
    ("core.ipc", "ipc", "higher"),
    ("core.mem_cycles", "cycles", "lower"),
    ("core.ff_skip_share", "ratio", "higher"),
    ("core.host_residual_share", "ratio", "lower"),
    ("core.fig08_gain_err", "ratio", "lower"),
    ("core.synergy_ns_per_injection", "ns", "lower"),
    ("cache.llc_accesses", "count", "lower"),
    ("cache.llc_miss_ratio", "ratio", "lower"),
    ("cache.meta_hit_ratio", "ratio", "higher"),
    ("cache.llc_ns_per_access", "ns", "lower"),
    ("secure.expand_reads", "count", "lower"),
    ("secure.expand_writebacks", "count", "lower"),
    ("secure.counter_miss_ratio", "ratio", "lower"),
    ("secure.tree_fetches", "count", "lower"),
    ("secure.parity_reads", "count", "lower"),
    ("secure.ns_per_expand_read", "ns", "lower"),
    ("secure.ns_per_expand_writeback", "ns", "lower"),
    ("dram.reads", "count", "lower"),
    ("dram.writes", "count", "lower"),
    ("dram.mac_accesses", "count", "lower"),
    ("dram.row_hit_ratio", "ratio", "higher"),
    ("dram.read_latency_p50_cycles", "cycles", "lower"),
    ("dram.read_latency_p99_cycles", "cycles", "lower"),
    ("dram.queue_wait_share", "ratio", "lower"),
    ("dram.ns_per_request", "ns", "lower"),
    ("dram.ns_per_tick", "ns", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("faultsim.mc_devices_per_s", "1/s", "higher"),
    ("faultsim.ns_per_device", "ns", "lower"),
    ("faultsim.fig11_ratio_err", "ratio", "lower"),
    ("fleet.lifetimes_per_s", "1/s", "higher"),
    ("fleet.ns_per_dimm", "ns", "lower"),
    ("fleet.fabric_share", "ratio", "lower"),
    ("campaign.injections_per_s", "1/s", "higher"),
    ("campaign.ns_per_scenario", "ns", "lower"),
    ("campaign.analytic_ns", "ns", "lower"),
    ("campaign.fabric_share", "ratio", "lower"),
    ("ecc.secded_ns_per_injection", "ns", "lower"),
    ("ecc.chipkill_ns_per_injection", "ns", "lower"),
    ("crypto.mac_computations", "count", "lower"),
    ("crypto.ns_per_line_tag", "ns", "lower"),
];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// `--seed`; `None` keeps every component's default seed.
    pub seed: Option<u64>,
    /// Measurement budget in host seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: None,
            seconds: 10.0,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = Some(value.parse().map_err(|e| bad(&e))?),
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }

    /// A component seed: `default` when no `--seed` was given, else
    /// `default` XOR a multiplicative spread of the seed, so `--seed 0`
    /// also reproduces the defaults.
    pub fn derive_seed(&self, default: u64) -> u64 {
        default ^ self.seed.unwrap_or(0).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Correctness checks: each counts once toward `attempted`.
#[derive(Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check, printing a line when it fails.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("check FAILED: {what}");
        }
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Median host seconds of one pass over the workload's pinned job:
    /// the sum of each cell's (or phase's) median.
    pub pass_s: f64,
    /// The same sum over each cell's median ratio to the reference
    /// kernel timed around it (untraced runs only).
    pub pass_vs_ref: f64,
    /// Median host seconds of one reference-kernel call (untraced runs
    /// only).
    pub ref_s: f64,
    /// Median host seconds of the set-up before each pass; the first is
    /// timed from process start.
    pub setup_s: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Digest of every simulated statistic the pass produced.
    pub digest: u64,
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match run(process_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(process_start: Instant) -> Result<(), String> {
    let args = Args::parse()?;
    self_check_declarations()?;
    let mut checks = Checks::default();

    let outcome = match args.workload.as_str() {
        w if sim::WORKLOADS.contains(&w) => sim::measure(w, &args, process_start, &mut checks),
        "reliability" => reliability::measure(&args, process_start, &mut checks),
        other => return Err(format!("unknown workload {other:?}")),
    };
    println!("digest {} {:016x}", args.workload, outcome.digest);
    println!(
        "checks attempted={} failed={} fail_frac={}",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for &(name, unit, _) in PER_LAYER {
            let value = *outcome.layers.get(name).unwrap_or(&0.0);
            metrics.push((name, value, unit));
        }
        if let Some(extra) = outcome
            .layers
            .keys()
            .find(|k| !PER_LAYER.iter().any(|d| d.0 == **k))
        {
            return Err(format!("per-layer metric {extra} is not declared"));
        }
    } else {
        println!("pass_s = {} s", outcome.pass_s);
        println!("ref_s = {} s", outcome.ref_s);
        let values = [outcome.pass_vs_ref, outcome.setup_s, util::peak_rss_mib()?];
        for (&(name, unit, _), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    if metrics.iter().any(|m| !m.1.is_finite()) {
        return Err("a metric is not a finite number".into());
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    Ok(())
}

/// Checks that `BENCHMARK.json` (in the working directory) declares every
/// metric this program prints, with the same unit and direction, and
/// nothing else.
fn self_check_declarations() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = json
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?;
        let declared: Vec<(&str, &str, &str)> = declared
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("");
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        if declared != ours {
            return Err(format!(
                "BENCHMARK.json {key} does not match the metrics perfbench prints: \
                 declared {declared:?}, printed {ours:?}"
            ));
        }
    }
    Ok(())
}
