//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every table and figure of the paper has a bench target in `benches/`
//! (custom `harness = false` executables) that prints the same rows or
//! series the paper reports and writes a CSV under `target/experiments/`.
//! This library holds the common machinery: running one workload under one
//! design, geometric means, table formatting, and CSV output.
//!
//! Scale knobs (environment variables):
//!
//! * `SYNERGY_BENCH_INSTS` — instructions per core per run
//!   (default 200,000; the paper uses 1 billion — relative results
//!   stabilize far earlier).
//! * `SYNERGY_BENCH_WARMUP` — warm-up trace records per core
//!   (default 60,000; enough to reach LLC steady state).
//! * `SYNERGY_BENCH_DEVICES` — Monte-Carlo devices for Figure 11
//!   (default 50,000,000).
//! * `SYNERGY_BENCH_WORKLOADS` — `all` (29 + 6 mixes) or `quick`
//!   (a representative memory-intensive subset; the default).
//! * `SYNERGY_BENCH_THREADS` — worker threads for the parallel sweep
//!   runner ([`sweep`]); defaults to the machine's available parallelism.
//!   `1` reproduces the sequential run (results are byte-identical either
//!   way — see [`trace_seed`]).
//! * `SYNERGY_BENCH_FAIL_CYCLE` — memory cycle at which the degraded-mode
//!   experiment (`fig_degraded`) injects its permanent chip failure
//!   (default 2,000 — early enough that most of the run executes
//!   degraded).
//! * `SYNERGY_CRYPTO_BACKEND` — crypto implementation: `auto` (default),
//!   `simd` or `table` (read by `synergy-crypto`, see its `Backend`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod sweep;

pub use sweep::{parallel_map, run_sweep, sweep_threads, SweepCell, SweepReport, SweepWorkload};

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use synergy_core::system::{run, SimResult, SystemConfig};
use synergy_dram::{DramConfig, RequestClass};
use synergy_faultsim::FaultSchedule;
use synergy_obs::{export, ChromeTrace, CycleAttribution, MetricRegistry, Span};
use synergy_secure::DesignConfig;
use synergy_trace::{presets, MultiCoreTrace, WorkloadSpec};

/// Instructions per core for performance runs.
pub fn bench_insts() -> u64 {
    env_u64("SYNERGY_BENCH_INSTS", 200_000)
}

/// Warm-up records per core.
pub fn bench_warmup() -> u64 {
    env_u64("SYNERGY_BENCH_WARMUP", 60_000)
}

/// Monte-Carlo devices for reliability runs.
pub fn bench_devices() -> u64 {
    env_u64("SYNERGY_BENCH_DEVICES", 50_000_000)
}

/// Whether to run the full 35-workload sweep or the quick subset.
pub fn full_sweep() -> bool {
    std::env::var("SYNERGY_BENCH_WORKLOADS").map(|v| v == "all").unwrap_or(false)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The workload list for performance figures: all 29 when `full_sweep()`,
/// otherwise the memory-intensive subset the headline numbers average.
pub fn perf_workloads() -> Vec<WorkloadSpec> {
    if full_sweep() {
        presets::all()
    } else {
        presets::memory_intensive()
    }
}

/// The trace seed for a sweep cell.
///
/// **Invariant (the sweep runner and every figure depend on it):** the
/// seed is a function of the *cell parameters only* — here the channel
/// count — and deliberately NOT of the design. Every design evaluated on
/// a (workload, channels) cell therefore consumes the *identical* trace
/// stream, which is what makes normalized IPC and traffic ratios
/// meaningful, and what lets [`sweep::run_sweep`] execute cells on any
/// thread in any order while staying byte-identical to a sequential run:
/// no shared RNG, no issue-order dependence. Pinned by
/// `trace_seed_is_design_independent` below and `tests/sweep_determinism.rs`.
pub fn trace_seed(channels: usize) -> u64 {
    0xBEEF ^ channels as u64
}

/// Memory cycle at which `fig_degraded` injects its chip failure
/// (`SYNERGY_BENCH_FAIL_CYCLE`, default 2,000).
pub fn bench_fail_cycle() -> u64 {
    env_u64("SYNERGY_BENCH_FAIL_CYCLE", 2_000)
}

/// Runs one single-benchmark workload (rate mode, 4 cores) under `design`.
pub fn run_workload(design: DesignConfig, workload: &WorkloadSpec, channels: usize) -> SimResult {
    run_workload_with_faults(design, workload, channels, FaultSchedule::default())
}

/// Runs one single-benchmark workload under `design` with a scheduled
/// fault injection — the degraded-mode experiment's entry point. An empty
/// schedule reproduces [`run_workload`] exactly; the schedule is not part
/// of [`trace_seed`], so healthy and degraded runs of the same cell
/// consume the identical trace stream and their IPC ratio is a pure
/// correction-traffic slowdown.
pub fn run_workload_with_faults(
    design: DesignConfig,
    workload: &WorkloadSpec,
    channels: usize,
    faults: FaultSchedule,
) -> SimResult {
    run_workload_custom(design, workload, channels, faults, |_| {})
}

/// [`run_workload_with_faults`] with a config hook: `tweak` runs on the
/// fully-populated [`SystemConfig`] just before the trace is built. Used by
/// bench targets that vary a knob the standard entry points pin — e.g.
/// `fig_degraded`'s epoch-sampled timeline run, which sets
/// `cfg.telemetry.epoch_mem_cycles`.
pub fn run_workload_custom(
    design: DesignConfig,
    workload: &WorkloadSpec,
    channels: usize,
    faults: FaultSchedule,
    tweak: impl FnOnce(&mut SystemConfig),
) -> SimResult {
    let mut cfg = SystemConfig::new(design);
    cfg.dram = DramConfig::with_channels(channels);
    cfg.warmup_records_per_core = bench_warmup();
    cfg.fault_schedule = faults;
    tweak(&mut cfg);
    let mut trace = MultiCoreTrace::rate_mode(workload, cfg.cores, trace_seed(channels));
    run(&cfg, &mut trace, bench_insts()).expect("simulation config is valid")
}

/// Runs a 4-benchmark mix under `design`.
pub fn run_mix(design: DesignConfig, mix: &presets::MixSpec, channels: usize) -> SimResult {
    run_mix_with_faults(design, mix, channels, FaultSchedule::default())
}

/// Runs a 4-benchmark mix under `design` with a scheduled fault injection
/// (see [`run_workload_with_faults`]).
pub fn run_mix_with_faults(
    design: DesignConfig,
    mix: &presets::MixSpec,
    channels: usize,
    faults: FaultSchedule,
) -> SimResult {
    let members = presets::mix_members(mix);
    let mut cfg = SystemConfig::new(design);
    cfg.dram = DramConfig::with_channels(channels);
    cfg.warmup_records_per_core = bench_warmup();
    cfg.fault_schedule = faults;
    let mut trace = MultiCoreTrace::mixed(&members, trace_seed(channels));
    run(&cfg, &mut trace, bench_insts()).expect("simulation config is valid")
}

/// Geometric mean.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gmean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "gmean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Directory for experiment CSVs (`target/experiments/`).
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Directory for machine-readable metric snapshots
/// (`target/experiments/metrics/`).
pub fn metrics_dir() -> PathBuf {
    let dir = experiments_dir().join("metrics");
    fs::create_dir_all(&dir).expect("can create target/experiments/metrics");
    dir
}

/// Writes a [`MetricRegistry`] snapshot to
/// `target/experiments/metrics/<name>.json` and returns the path — the
/// one metrics-dir plumbing shared by every bin that exports a registry
/// (`campaign`, `fleet`, ...).
pub fn write_metrics_registry(
    name: &str,
    reg: &synergy_obs::MetricRegistry,
) -> PathBuf {
    let path = metrics_dir().join(format!("{name}.json"));
    synergy_obs::export::write_file(&path, &synergy_obs::export::registry_to_json(reg))
        .unwrap_or_else(|e| panic!("can write {name} metrics JSON: {e}"));
    println!("\n[metrics] {}", path.display());
    path
}

/// Directory for Chrome-trace JSON documents
/// (`target/experiments/trace/`).
pub fn trace_dir() -> PathBuf {
    let dir = experiments_dir().join("trace");
    fs::create_dir_all(&dir).expect("can create target/experiments/trace");
    dir
}

/// Writes a Perfetto-loadable Chrome trace of one run under
/// [`trace_dir`]: the slowest request spans (one track each) plus the
/// epoch-sampled attribution counters (stacked cycle-budget chart, when
/// epoch sampling was enabled). Returns the written path.
pub fn write_chrome_trace(name: &str, r: &SimResult) -> PathBuf {
    let mut trace = ChromeTrace::new();
    trace.process_name(1, &format!("synergy-sim {}", r.design));
    for (i, span) in r.telemetry.slowest.iter().enumerate() {
        trace.add_span(span, 1, i as u64 + 1);
    }
    trace.add_epoch_counters(
        1,
        "cycle budget (per epoch)",
        r.telemetry.registry.epochs(),
        "attrib.cycles.",
    );
    let path = trace_dir().join(format!("{name}.trace.json"));
    export::write_file(&path, &trace.finish()).expect("can write chrome trace");
    println!("[trace] {}", path.display());
    path
}

#[derive(Default)]
struct DesignMetrics {
    registry: MetricRegistry,
    slowest: Vec<Span>,
    attrib: CycleAttribution,
}

impl DesignMetrics {
    /// The stored registry with the aggregated attribution folded in.
    fn full_registry(&self) -> MetricRegistry {
        let mut reg = self.registry.clone();
        if !self.attrib.is_empty() {
            use synergy_obs::Observe as _;
            self.attrib.observe("attrib", &mut reg);
        }
        reg
    }
}

/// Cross-run telemetry accumulator for one bench target.
///
/// Bench targets feed every [`SimResult`] into a snapshot (keyed by design,
/// or any other grouping string) and write one JSON document plus per-key
/// CSVs under [`metrics_dir`] at the end. Per-class DRAM latency histograms
/// merge losslessly across workloads; the slowest-request span dump keeps
/// the global top-K per key.
pub struct MetricsSnapshot {
    designs: BTreeMap<String, DesignMetrics>,
    top_k: usize,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSnapshot {
    /// An empty snapshot retaining the 10 slowest requests per key.
    pub fn new() -> Self {
        Self::with_top_k(10)
    }

    /// An empty snapshot retaining the `top_k` slowest requests per key.
    pub fn with_top_k(top_k: usize) -> Self {
        Self { designs: BTreeMap::new(), top_k }
    }

    /// Folds one simulation run of `workload` into `design`'s aggregate:
    /// per-class DRAM latency histograms and traffic counters, a
    /// per-workload IPC gauge, secure-engine hot-path counters
    /// (`engine.*` — gated by the perf-regression gate), and the
    /// slowest-request spans.
    pub fn add_run(&mut self, design: &str, workload: &str, r: &SimResult) {
        let d = self.designs.entry(design.to_string()).or_default();
        for class in RequestClass::ALL {
            let n = class.name();
            d.registry.add_counter(&format!("dram.reads.{n}"), r.dram.reads(class));
            d.registry.add_counter(&format!("dram.writes.{n}"), r.dram.writes(class));
            d.registry
                .merge_histogram(&format!("dram.read_latency.{n}"), r.dram.read_latency(class));
            d.registry
                .merge_histogram(&format!("dram.write_latency.{n}"), r.dram.write_latency(class));
        }
        d.registry.merge_histogram("dram.read_latency", &r.dram.read_latency_all());
        d.registry.merge_histogram("dram.write_latency", &r.dram.write_latency_all());
        d.registry.set_gauge(&format!("ipc.{workload}"), r.ipc);
        d.registry.add_counter("engine.data_reads", r.engine.data_reads);
        d.registry.add_counter("engine.data_writebacks", r.engine.data_writebacks);
        d.registry.add_counter("engine.counter_dedicated_hits", r.engine.counter_dedicated_hits);
        d.registry.add_counter("engine.counter_llc_hits", r.engine.counter_llc_hits);
        d.registry.add_counter("engine.counter_misses", r.engine.counter_misses);
        d.registry.add_counter("engine.tree_fetches", r.engine.tree_fetches);
        d.registry.add_counter("spans.completed", r.telemetry.spans_completed);
        d.registry.add_counter("spans.dropped", r.telemetry.spans_dropped);
        d.attrib.merge(&r.attrib);
        self.merge_spans(design, &r.telemetry.slowest);
    }

    /// Stores a component registry verbatim under `key` (for probe bins
    /// that want the full per-run metric set rather than an aggregate).
    pub fn add_registry(&mut self, key: &str, registry: &MetricRegistry, spans: &[Span]) {
        let d = self.designs.entry(key.to_string()).or_default();
        d.registry = registry.clone();
        self.merge_spans(key, spans);
    }

    fn merge_spans(&mut self, key: &str, spans: &[Span]) {
        let d = self.designs.get_mut(key).expect("key was just inserted");
        d.slowest.extend(spans.iter().cloned());
        d.slowest.sort_by_key(|s| std::cmp::Reverse(s.total_latency()));
        d.slowest.truncate(self.top_k);
    }

    /// Renders the whole snapshot as one JSON document:
    /// `{"designs": {<key>: {"telemetry": ..., "slowest_spans": [...]}}}`.
    pub fn to_json(&self) -> String {
        let designs: Vec<String> = self
            .designs
            .iter()
            .map(|(name, d)| {
                format!(
                    "\"{}\":{{\"telemetry\":{},\"slowest_spans\":{}}}",
                    export::json_escape(name),
                    export::registry_to_json(&d.full_registry()),
                    export::spans_to_json(&d.slowest)
                )
            })
            .collect();
        format!("{{\"designs\":{{{}}}}}", designs.join(","))
    }

    /// Writes `<name>.json` plus one `<name>.<key>.csv` per key under
    /// [`metrics_dir`] and returns the JSON path.
    pub fn write(&self, name: &str) -> PathBuf {
        let dir = metrics_dir();
        let json_path = dir.join(format!("{name}.json"));
        export::write_file(&json_path, &self.to_json()).expect("can write metrics JSON");
        for (key, d) in &self.designs {
            let safe: String = key
                .chars()
                .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
                .collect();
            let csv_path = dir.join(format!("{name}.{safe}.csv"));
            export::write_file(&csv_path, &export::registry_to_csv(&d.full_registry()))
                .expect("can write metrics CSV");
            if !d.attrib.is_empty() {
                let attrib_path = dir.join(format!("{name}.{safe}.attrib.csv"));
                export::write_file(&attrib_path, &d.attrib.to_csv())
                    .expect("can write attribution CSV");
            }
        }
        println!("[metrics] {}", json_path.display());
        json_path
    }
}

/// Writes a CSV file of `rows` under `target/experiments/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = experiments_dir().join(format!("{name}.csv"));
    let mut out = String::with_capacity(rows.len() * 64 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    fs::write(&path, out).expect("can write experiment CSV");
    println!("\n[csv] {}", path.display());
}

/// Prints an aligned table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:<w$}", c, w = widths[i]));
            } else {
                s.push_str(&format!("  {:>w$}", c, w = widths[i]));
            }
        }
        println!("{s}");
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Prints the standard bench banner with the effective scale settings.
pub fn banner(title: &str, paper_ref: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("(reproduces {paper_ref} of SYNERGY, HPCA 2018)");
    println!(
        "scale: {} insts/core, {} warmup records/core{}",
        bench_insts(),
        bench_warmup(),
        if full_sweep() { ", full workload sweep" } else { ", quick workload subset" }
    );
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_non_positive() {
        gmean(&[1.0, 0.0]);
    }

    #[test]
    fn env_defaults() {
        assert!(bench_insts() > 0);
        assert!(bench_devices() > 0);
    }

    #[test]
    fn metrics_snapshot_aggregates_and_renders() {
        use synergy_obs::{SpanPhase, SpanTracer};
        let mut t = SpanTracer::for_system();
        t.start(1, 0x40, "data", SpanPhase::LlcMiss, 0);
        t.complete(1, 50);
        t.start(2, 0x80, "counter", SpanPhase::LlcMiss, 10);
        t.complete(2, 100);
        let mut reg = MetricRegistry::new();
        reg.set_counter("x", 3);
        let mut snap = MetricsSnapshot::with_top_k(1);
        snap.add_registry("probe", &reg, &t.slowest(8));
        let j = snap.to_json();
        assert!(j.contains("\"probe\""), "{j}");
        assert!(j.contains("\"x\":{\"kind\":\"counter\",\"value\":3}"), "{j}");
        // top_k = 1 keeps only the slowest span (latency 90, not 50).
        assert!(j.contains("\"latency\":90") && !j.contains("\"latency\":50"), "{j}");
    }

    #[test]
    fn trace_seed_is_design_independent() {
        // The exact constant is load-bearing: changing it invalidates
        // every recorded baseline, and making it design-dependent would
        // silently break the normalized figures AND the parallel sweep's
        // byte-identity guarantee.
        assert_eq!(trace_seed(2), 0xBEEF ^ 2);
        assert_eq!(trace_seed(8), 0xBEEF ^ 8);
        // Two traces built the way run_workload builds them — for two
        // *different* designs — must yield the identical record stream.
        let w = presets::by_name("mcf").unwrap();
        let mut a = MultiCoreTrace::rate_mode(&w, 4, trace_seed(2));
        let mut b = MultiCoreTrace::rate_mode(&w, 4, trace_seed(2));
        for core in 0..4 {
            for _ in 0..1000 {
                assert_eq!(a.next_record(core), b.next_record(core));
            }
        }
    }

    #[test]
    fn quick_workload_list_is_memory_intensive() {
        for w in perf_workloads() {
            assert!(w.apki >= 10.0 || full_sweep());
        }
    }
}
