//! Determinism pins for the two perf-opt layers in this repo:
//!
//! 1. The parallel sweep runner (`synergy_bench::sweep`) must produce
//!    byte-identical per-cell results no matter how many worker threads
//!    execute the cells or in what order the work-stealing cursor hands
//!    them out.
//! 2. The event-horizon fast path (`SystemConfig::fast_forward`) must be
//!    an invisible optimization: fast-forwarded runs match a per-cycle
//!    reference run bit for bit.
//!
//! Comparison deliberately covers every deterministic field of
//! [`SimResult`] — IPC is compared via `f64::to_bits`, not a tolerance.
//! Only wall-clock telemetry (`sim.cycles_per_sec`, `sim.wall_seconds`,
//! and the fast-path skip counters inside the metric registry) is
//! excluded, since it measures the host machine rather than the simulated
//! one.

use synergy_bench::{parallel_map, trace_seed};
use synergy_core::system::{run, SimResult, SystemConfig};
use synergy_dram::DramConfig;
use synergy_faultsim::FaultSchedule;
use synergy_secure::DesignConfig;
use synergy_trace::{presets, MultiCoreTrace};

/// Small but non-trivial scale: enough instructions to exercise refresh,
/// write drains and the metadata caches, small enough for a debug-mode
/// integration test.
const INSTS: u64 = 20_000;
const WARMUP: u64 = 4_000;

fn run_cell(design: DesignConfig, workload: &str, channels: usize, fast_forward: bool) -> SimResult {
    run_cell_with_faults(design, workload, channels, fast_forward, FaultSchedule::default())
}

fn run_cell_with_faults(
    design: DesignConfig,
    workload: &str,
    channels: usize,
    fast_forward: bool,
    faults: FaultSchedule,
) -> SimResult {
    let w = presets::by_name(workload).expect("workload preset exists");
    let mut cfg = SystemConfig::new(design);
    cfg.dram = DramConfig::with_channels(channels);
    cfg.warmup_records_per_core = WARMUP;
    cfg.fast_forward = fast_forward;
    cfg.fault_schedule = faults;
    // The same seed derivation the bench harness uses: cell parameters
    // only, never the design (see `synergy_bench::trace_seed`).
    let mut trace = MultiCoreTrace::rate_mode(&w, cfg.cores, trace_seed(channels));
    run(&cfg, &mut trace, INSTS).expect("simulation config is valid")
}

/// Asserts bit-identity on every deterministic field of two results.
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.design, b.design, "{what}: design");
    assert_eq!(a.instructions_per_core, b.instructions_per_core, "{what}: insts");
    assert_eq!(a.core_cycles, b.core_cycles, "{what}: core cycles");
    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{what}: ipc bits ({} vs {})", a.ipc, b.ipc);
    assert_eq!(a.mem_cycles, b.mem_cycles, "{what}: mem cycles");
    assert_eq!(a.dram, b.dram, "{what}: dram stats");
    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{what}: seconds");
    assert_eq!(a.dram_energy, b.dram_energy, "{what}: dram energy");
    assert_eq!(a.core_energy_j.to_bits(), b.core_energy_j.to_bits(), "{what}: core energy");
    assert_eq!(a.traffic, b.traffic, "{what}: traffic");
    assert_eq!(a.engine, b.engine, "{what}: engine stats");
    assert_eq!(a.metadata_cache, b.metadata_cache, "{what}: metadata cache");
    assert_eq!(a.llc, b.llc, "{what}: llc");
    assert_eq!(a.degraded, b.degraded, "{what}: degraded-mode stats");
    assert_eq!(a.telemetry.spans_completed, b.telemetry.spans_completed, "{what}: spans");
    assert_eq!(a.telemetry.spans_dropped, b.telemetry.spans_dropped, "{what}: dropped spans");
    assert_eq!(a.attrib, b.attrib, "{what}: cycle attribution");
}

/// The sweep grid used by both determinism tests: every design class the
/// figures compare, on two workloads with different memory behaviour.
fn grid() -> Vec<(DesignConfig, &'static str, usize)> {
    let mut cells = Vec::new();
    for workload in ["mcf", "pr-web"] {
        for design in [DesignConfig::sgx_o(), DesignConfig::sgx(), DesignConfig::synergy()] {
            cells.push((design, workload, 2));
        }
    }
    cells
}

#[test]
fn parallel_sweep_matches_sequential() {
    let cells = grid();
    let run_one = |_, cell: &(DesignConfig, &'static str, usize)| {
        run_cell(cell.0.clone(), cell.1, cell.2, true)
    };
    let sequential = parallel_map(&cells, 1, run_one);
    let parallel = parallel_map(&cells, 8, run_one);
    assert_eq!(sequential.len(), parallel.len());
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        let what = format!("cell {i} ({} on {})", cells[i].0.name, cells[i].1);
        assert_identical(s, p, &what);
    }
}

#[test]
fn fast_forward_matches_per_cycle_reference() {
    // One design per memory-system shape: the MAC-heavy baseline and the
    // parity-cached Synergy design stress different fast-path events
    // (write drains vs metadata fills).
    for (design, workload) in
        [(DesignConfig::sgx(), "mcf"), (DesignConfig::synergy(), "pr-web")]
    {
        let reference = run_cell(design.clone(), workload, 2, false);
        let fast = run_cell(design.clone(), workload, 2, true);
        let what = format!("{} on {workload}", design.name);
        assert_identical(&reference, &fast, &what);
        // The fast path must actually engage on these runs — otherwise
        // this test would pass vacuously with the horizon logic broken.
        let jumps = fast.telemetry.registry.counter("sim.ff_jumps").unwrap_or(0);
        assert!(jumps > 0, "{what}: fast path never engaged");
        let ref_jumps = reference.telemetry.registry.counter("sim.ff_jumps").unwrap_or(0);
        assert_eq!(ref_jumps, 0, "{what}: reference run must not fast-forward");
    }
}

#[test]
fn degraded_runs_are_deterministic() {
    // A scheduled chip failure mid-run must not disturb either perf-opt
    // layer: the fast path caps its jumps at the next fault cycle, and the
    // sweep runner sees a pure function of the cell. Three-way pin:
    // per-cycle reference == fast-forward == fast-forward under the
    // 8-thread runner, including the new `degraded` stats.
    let faults = || FaultSchedule::chip_failure_at(3_000, 3);
    for (design, workload) in
        [(DesignConfig::synergy(), "mcf"), (DesignConfig::sgx_o(), "pr-web")]
    {
        let what = format!("degraded {} on {workload}", design.name);
        let reference = run_cell_with_faults(design.clone(), workload, 2, false, faults());
        let fast = run_cell_with_faults(design.clone(), workload, 2, true, faults());
        assert_identical(&reference, &fast, &what);
        // Not vacuous: the failure must actually have been injected and,
        // on the parity design, corrected.
        assert!(
            reference.degraded.detections + reference.degraded.due_events > 0,
            "{what}: fault never took effect"
        );
        let threaded = parallel_map(std::slice::from_ref(&design), 8, |_, d| {
            run_cell_with_faults(d.clone(), workload, 2, true, faults())
        });
        assert_identical(&fast, &threaded[0], &format!("{what} (threaded)"));
    }
}

#[test]
fn trace_seed_depends_only_on_cell_parameters() {
    // Different designs, same (workload, channels) cell → identical seed
    // and therefore identical trace stream; different channel counts →
    // different seed. Both halves of the invariant the sweep docs promise.
    assert_eq!(trace_seed(2), trace_seed(2));
    assert_ne!(trace_seed(1), trace_seed(2));
    let results = parallel_map(
        &[DesignConfig::sgx_o(), DesignConfig::synergy()],
        2,
        |_, design| run_cell(design.clone(), "libquantum", 2, true),
    );
    // Same trace on both designs: identical instruction counts and
    // identical *data* access stream (the designs differ only in the
    // metadata they bolt on).
    assert_eq!(results[0].instructions_per_core, results[1].instructions_per_core);
}
