//! Zero-dependency parallel sweep runner.
//!
//! The paper's performance figures are sweeps over (design, workload,
//! channels) cells — ~35 workloads × 3–4 designs for Figures 8–9 — and
//! every cell is an independent simulation: [`crate::run_workload`] /
//! [`crate::run_mix`] seed each cell's trace from the *cell parameters
//! alone* (`trace_seed`, shared across designs by design), never from
//! global mutable state. Cells can therefore run on any thread in any
//! order and still produce byte-identical [`SimResult`]s; only the fold
//! into [`crate::MetricsSnapshot`] is order-sensitive, and that stays on
//! the calling thread in deterministic cell order.
//!
//! Built on [`synergy_obs::exec`] (no rayon — the build is offline). The
//! worker count comes from `SYNERGY_BENCH_THREADS`, defaulting to the
//! machine's available parallelism; `SYNERGY_BENCH_THREADS=1` reproduces
//! the sequential run exactly, which `tests/sweep_determinism.rs` pins.

use std::convert::Infallible;
use std::thread;

use synergy_core::system::SimResult;
use synergy_faultsim::FaultSchedule;
use synergy_obs::{exec, MetricRegistry, Stopwatch};
use synergy_secure::DesignConfig;
use synergy_trace::presets::MixSpec;
use synergy_trace::WorkloadSpec;

use crate::{run_mix_with_faults, run_workload_with_faults};

/// Worker threads for [`run_sweep`]: `SYNERGY_BENCH_THREADS`, defaulting
/// to the machine's available parallelism.
pub fn sweep_threads() -> usize {
    std::env::var("SYNERGY_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| exec::resolve_threads(0))
}

/// The workload half of a sweep cell: a single benchmark in rate mode or
/// a 4-benchmark mix.
#[derive(Debug, Clone)]
pub enum SweepWorkload {
    /// One benchmark replicated across all cores (rate mode).
    Single(WorkloadSpec),
    /// A 4-benchmark mix, one member per core.
    Mix(MixSpec),
}

/// One independent simulation of the sweep grid.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The secure-memory design under evaluation.
    pub design: DesignConfig,
    /// The workload driving it.
    pub workload: SweepWorkload,
    /// DRAM channel count (affects the trace seed — see `trace_seed`).
    pub channels: usize,
    /// Scheduled fault injections (empty for healthy runs). Deliberately
    /// NOT part of the trace seed: a degraded cell replays the identical
    /// trace as its healthy twin.
    pub fault_schedule: FaultSchedule,
}

impl SweepCell {
    /// A single-benchmark cell.
    pub fn single(design: DesignConfig, workload: &WorkloadSpec, channels: usize) -> Self {
        Self {
            design,
            workload: SweepWorkload::Single(workload.clone()),
            channels,
            fault_schedule: FaultSchedule::default(),
        }
    }

    /// A mix cell.
    pub fn mix(design: DesignConfig, mix: &MixSpec, channels: usize) -> Self {
        Self {
            design,
            workload: SweepWorkload::Mix(*mix),
            channels,
            fault_schedule: FaultSchedule::default(),
        }
    }

    /// Attaches a fault schedule (builder-style).
    #[must_use]
    pub fn with_fault_schedule(mut self, faults: FaultSchedule) -> Self {
        self.fault_schedule = faults;
        self
    }

    /// The workload name as shown on figure axes.
    pub fn workload_name(&self) -> &'static str {
        match &self.workload {
            SweepWorkload::Single(w) => w.name,
            SweepWorkload::Mix(m) => m.name,
        }
    }

    /// Runs this cell (same scale knobs as the sequential harness).
    pub fn run(&self) -> SimResult {
        let faults = self.fault_schedule.clone();
        match &self.workload {
            SweepWorkload::Single(w) => {
                run_workload_with_faults(self.design.clone(), w, self.channels, faults)
            }
            SweepWorkload::Mix(m) => {
                run_mix_with_faults(self.design.clone(), m, self.channels, faults)
            }
        }
    }
}

/// Outcome of a sweep: per-cell results in cell order plus timing.
#[derive(Debug)]
pub struct SweepReport {
    /// One result per input cell, in the input's order regardless of
    /// which thread ran which cell.
    pub results: Vec<SimResult>,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Worker threads actually used.
    pub threads: usize,
}

impl SweepReport {
    /// The sweep's own timing as a metric registry, for folding into a
    /// [`crate::MetricsSnapshot`] so exported artifacts carry the
    /// simulator-throughput trajectory alongside the simulated results.
    pub fn registry(&self) -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        reg.set_gauge("sweep.wall_seconds", self.wall_seconds);
        reg.set_counter("sweep.threads", self.threads as u64);
        // Recorded so exported artifacts are honest about the host: a
        // 1-core machine cannot demonstrate parallel speedup no matter
        // how many worker threads the sweep spawned.
        reg.set_counter(
            "sweep.host_cpus",
            thread::available_parallelism().map_or(0, |n| n.get() as u64),
        );
        reg.set_counter("sweep.cells", self.results.len() as u64);
        let total_cycles: u64 = self.results.iter().map(|r| r.mem_cycles).sum();
        reg.set_counter("sweep.mem_cycles", total_cycles);
        if self.wall_seconds > 0.0 {
            reg.set_gauge("sweep.cycles_per_sec", total_cycles as f64 / self.wall_seconds);
        }
        reg
    }

    /// Prints the standard one-line sweep timing summary.
    pub fn print_summary(&self) {
        println!(
            "[sweep] {} cells on {} thread{} in {:.2}s ({:.2} cells/s)",
            self.results.len(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall_seconds,
            if self.wall_seconds > 0.0 {
                self.results.len() as f64 / self.wall_seconds
            } else {
                0.0
            },
        );
    }
}

/// Runs every cell across [`sweep_threads`] workers and returns results in
/// cell order. Byte-identical to running the cells sequentially.
pub fn run_sweep(cells: &[SweepCell]) -> SweepReport {
    let threads = sweep_threads();
    let wall = Stopwatch::start();
    let results = parallel_map(cells, threads, |_, cell| cell.run());
    SweepReport { results, wall_seconds: wall.elapsed_secs(), threads: threads.min(cells.len().max(1)) }
}

/// Deterministic parallel map: applies `f` to every item on up to
/// `threads` workers (0 = available parallelism) of
/// [`synergy_obs::exec`] and returns the outputs in item order,
/// independent of scheduling.
///
/// `f` must be a pure function of its arguments for the determinism
/// guarantee to mean anything; the simulation entry points qualify because
/// each run is seeded from cell parameters only.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let Ok(()) = exec::run_ordered(
        0..items.len() as u64,
        threads,
        |i| f(i as usize, &items[i as usize]),
        |_, r| {
            out.push(r);
            Ok::<(), Infallible>(())
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_coverage() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 8, 64] {
            let out = parallel_map(&items, threads, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(out.len(), items.len());
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, items[i] * 3 + 1);
            }
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn report_registry_records_host_cpus() {
        let report = SweepReport { results: Vec::new(), wall_seconds: 0.0, threads: 1 };
        let reg = report.registry();
        // available_parallelism never reports 0 on a host that runs tests.
        assert!(reg.counter("sweep.host_cpus").unwrap() >= 1);
    }

    #[test]
    fn sweep_threads_defaults_to_parallelism() {
        // Can't assume the env var is unset under `cargo test`, but the
        // value must always be positive.
        assert!(sweep_threads() >= 1);
    }

    #[test]
    fn cell_names_cover_both_workload_kinds() {
        use synergy_trace::presets;
        let w = presets::by_name("mcf").unwrap();
        let cell = SweepCell::single(DesignConfig::non_secure(), &w, 2);
        assert_eq!(cell.workload_name(), "mcf");
        let m = presets::mixes().remove(0);
        let cell = SweepCell::mix(DesignConfig::synergy(), &m, 2);
        assert_eq!(cell.workload_name(), "mix1");
    }
}
