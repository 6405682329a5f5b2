//! The three performance-simulator workloads.
//!
//! Every cell calls `synergy_core::system::run` directly, one cell at a
//! time on one thread, with 2 DRAM channels and 60k warm-up records per
//! core. Throughput is host time of the `run` calls only; simulated time
//! appears only in counts (cycles, IPC) and never mixes with host time.

use std::collections::BTreeMap;
use std::time::Instant;

use synergy_cache::SetAssocCache;
use synergy_core::system::{run, SimResult, SystemConfig, TelemetryConfig};
use synergy_dram::{AccessKind, DramConfig, MemorySystem, Request, RequestClass};
use synergy_faultsim::FaultSchedule;
use synergy_obs::{AttribBucket, CycleAttribution, LogHistogram};
use synergy_secure::{AccessSpec, DesignConfig, Expansion, Region, SecureEngine};
use synergy_trace::{presets, MultiCoreTrace, TraceRecord};

use crate::reference::Reference;
use crate::util::{clock_overhead_ns, fnv64, gmean, median, ns_since, print_manifest};
use crate::{Args, Checks, Outcome};

/// The simulator workloads this module runs.
pub const WORKLOADS: [&str; 3] = ["sim_read_bound", "sim_write_bound", "sim_compute_bound"];

const CHANNELS: usize = 2;
/// Warm-up trace records per core (the fig08 bench default).
const WARMUP_RECORDS: u64 = 60_000;
/// Instructions per core of a memory-bound cell.
const MEMORY_BOUND_INSTS: u64 = 250_000;
/// Instructions per core of a compute-bound cell.
const COMPUTE_BOUND_INSTS: u64 = 10_000_000;
/// The degraded cell's chip failure: memory cycle and chip (as fig_degraded).
const FAIL_CYCLE: u64 = 2_000;
const FAILED_CHIP: usize = 3;
/// Instructions per core of the set-up smoke run.
const SMOKE_INSTS: u64 = 1_000;
/// Untraced passes made even when `--seconds` is already spent.
const MIN_PASSES: usize = 3;
/// Figure 8's gmean Synergy/SGX_O speed-up.
const PAPER_FIG08_GAIN: f64 = 1.20;

/// One simulation: a workload preset under one design.
struct Cell {
    label: String,
    workload: &'static str,
    cfg: SystemConfig,
    trace: MultiCoreTrace,
    insts: u64,
    degraded: bool,
}

fn cell(
    workload: &'static str,
    design: DesignConfig,
    insts: u64,
    seed: u64,
    degraded: bool,
) -> Cell {
    let spec = presets::by_name(workload).expect("workload preset exists");
    let mut cfg = SystemConfig::new(design);
    cfg.dram = DramConfig::with_channels(CHANNELS);
    cfg.warmup_records_per_core = WARMUP_RECORDS;
    cfg.telemetry = TelemetryConfig {
        epoch_mem_cycles: 0,
        trace_spans: false,
        top_k: 0,
        attribution: false,
    };
    if degraded {
        cfg.fault_schedule = FaultSchedule::chip_failure_at(FAIL_CYCLE, FAILED_CHIP);
    }
    let trace = MultiCoreTrace::rate_mode(&spec, cfg.cores, seed);
    let label = format!(
        "{workload}/{}{}",
        cfg.design.name,
        if degraded { "+chipfail" } else { "" }
    );
    Cell {
        label,
        workload,
        cfg,
        trace,
        insts,
        degraded,
    }
}

/// Builds the workload's cells, then runs each for [`SMOKE_INSTS`]
/// instructions without warm-up: the simulator's constructors and lazy
/// first-call work finish before timing, and show in `setup_s`.
fn setup(workload: &str, args: &Args) -> Vec<Cell> {
    let seed = trace_seed(args);
    let m = MEMORY_BOUND_INSTS;
    let c = COMPUTE_BOUND_INSTS;
    let cells = match workload {
        "sim_read_bound" => vec![
            cell("mcf", DesignConfig::sgx_o(), m, seed, false),
            cell("mcf", DesignConfig::synergy(), m, seed, false),
            cell("pr-web", DesignConfig::sgx_o(), m, seed, false),
            cell("pr-web", DesignConfig::synergy(), m, seed, false),
        ],
        "sim_write_bound" => vec![
            cell("lbm", DesignConfig::sgx_o(), m, seed, false),
            cell("lbm", DesignConfig::synergy(), m, seed, false),
            cell("lbm", DesignConfig::synergy(), m, seed, true),
        ],
        "sim_compute_bound" => vec![
            cell("sjeng", DesignConfig::synergy(), c, seed, false),
            cell("perlbench", DesignConfig::synergy(), c, seed, false),
            cell("h264ref", DesignConfig::non_secure(), c, seed, false),
        ],
        other => unreachable!("not a simulator workload: {other}"),
    };
    for cell in &cells {
        let cfg = SystemConfig {
            warmup_records_per_core: 0,
            ..cell.cfg.clone()
        };
        std::hint::black_box(
            run(&cfg, &mut cell.trace.clone(), SMOKE_INSTS).expect("valid cell config"),
        );
    }
    cells
}

/// The trace seed: the bench harness default `trace_seed(2)` unless
/// `--seed` is given.
fn trace_seed(args: &Args) -> u64 {
    args.derive_seed(0xBEEF ^ CHANNELS as u64)
}

/// The DRAM configuration `run` builds from `cfg` (Chipkill lock-steps
/// channel pairs).
fn dram_config(cfg: &SystemConfig) -> DramConfig {
    let mut dram = cfg.dram.clone();
    if cfg.design.dual_channel_lockstep() {
        dram.channels = (dram.channels / 2).max(1);
    }
    dram
}

/// Seeds, threads and scale values for the manifest.
fn manifest(cells: &[Cell], args: &Args) -> Vec<(&'static str, String)> {
    let labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
    vec![
        ("threads", "1".into()),
        ("cells", labels.join(" ")),
        ("insts_per_core", cells[0].insts.to_string()),
        ("cores", cells[0].cfg.cores.to_string()),
        ("warmup_records_per_core", WARMUP_RECORDS.to_string()),
        ("channels", CHANNELS.to_string()),
        ("fail_cycle", FAIL_CYCLE.to_string()),
        ("failed_chip", FAILED_CHIP.to_string()),
        ("trace_seed", format!("{:#x}", trace_seed(args))),
    ]
}

/// Every simulated statistic of a result, as text: two runs agree on the
/// simulation exactly when these strings are equal.
fn sim_stats(r: &SimResult) -> String {
    format!(
        "{} {} {:?} {} {:x} {:?} {:?} {:?} {:?} {:?} {:?}",
        r.design,
        r.instructions_per_core,
        r.core_cycles,
        r.mem_cycles,
        r.ipc.to_bits(),
        r.dram,
        r.engine,
        r.degraded,
        r.metadata_cache,
        r.llc,
        r.traffic,
    )
}

fn run_cell(cell: &Cell, cfg: &SystemConfig) -> (SimResult, f64) {
    let mut trace = cell.trace.clone();
    let t = Instant::now();
    let r = run(cfg, &mut trace, cell.insts).expect("pinned cell configs are valid");
    (r, t.elapsed().as_secs_f64())
}

/// The result checks every untraced run makes.
fn check_result(cell: &Cell, r: &SimResult, checks: &mut Checks) {
    checks.check(
        r.instructions_per_core == cell.insts
            && r.core_cycles.len() == cell.cfg.cores
            && r.core_cycles.iter().all(|&c| c > 0),
        format!(
            "{}: every core retires its {} instructions",
            cell.label, cell.insts
        ),
    );
    if cell.cfg.design.name == DesignConfig::synergy().name {
        let mac = r.dram.reads(RequestClass::Mac) + r.dram.writes(RequestClass::Mac);
        checks.check(
            mac == 0,
            format!(
                "{}: Synergy moves no MAC-class DRAM traffic ({mac})",
                cell.label
            ),
        );
    }
    if cell.degraded {
        checks.check(
            r.degraded.due_events == 0 && r.degraded.corrections > 0,
            format!(
                "{}: the chip failure is corrected without DUE (corrections {}, DUE {})",
                cell.label, r.degraded.corrections, r.degraded.due_events
            ),
        );
    }
}

/// Runs the workload: untraced passes for `--trace 0`, the instrumented
/// run for `--trace 1`. Every untraced pass sets its cells up afresh, so
/// `setup_s` samples the whole run; the first set-up counts from process
/// start. The reference kernel runs after every cell, so each cell time
/// has a reference time on either side.
pub fn measure(
    workload: &str,
    args: &Args,
    process_start: Instant,
    checks: &mut Checks,
) -> Outcome {
    let mut cells = setup(workload, args);
    let mut setup_times = vec![process_start.elapsed().as_secs_f64()];
    print_manifest(args, &manifest(&cells, args));
    if args.trace {
        return traced(&cells, setup_times[0], args, checks);
    }
    let mut reference = Reference::new();
    let mut ref_times = vec![reference.last()];
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut first: Vec<SimResult> = Vec::new();
    let mut stats: Vec<String> = Vec::new();
    let mut passes = 0;
    while passes < MIN_PASSES || Instant::now() < deadline {
        if passes > 0 {
            let t = Instant::now();
            cells = setup(workload, args);
            setup_times.push(t.elapsed().as_secs_f64());
        }
        for (i, cell) in cells.iter().enumerate() {
            let (r, secs) = run_cell(cell, &cell.cfg);
            times[i].push(secs);
            ratios[i].push(reference.ratio_after(secs));
            ref_times.push(reference.last());
            let text = sim_stats(&r);
            if passes == 0 {
                check_result(cell, &r, checks);
                stats.push(text);
                first.push(r);
            } else {
                checks.check(
                    text == stats[i],
                    format!("{}: pass {passes} repeats pass 0 exactly", cell.label),
                );
            }
        }
        passes += 1;
    }
    let medians: Vec<f64> = times.iter_mut().map(|t| median(t)).collect();
    report_cells(&cells, &first, &medians, passes);
    Outcome {
        pass_s: medians.iter().sum(),
        pass_vs_ref: ratios.iter_mut().map(|r| median(r)).sum(),
        ref_s: median(&mut ref_times),
        setup_s: median(&mut setup_times),
        layers: BTreeMap::new(),
        digest: fnv64(&stats.concat()),
    }
}

fn total_insts(cells: &[Cell]) -> f64 {
    cells
        .iter()
        .map(|c| (c.insts * c.cfg.cores as u64) as f64)
        .sum()
}

fn report_cells(cells: &[Cell], results: &[SimResult], medians: &[f64], passes: usize) {
    println!(
        "{passes} passes; per cell: median host seconds of run(), IPC, memory cycles, \
         DRAM reads per memory cycle, writeback expansions per read expansion \
         (expansions include warm-up), fast-forwarded share of memory cycles"
    );
    for ((cell, r), secs) in cells.iter().zip(results).zip(medians) {
        let skipped = r
            .telemetry
            .registry
            .counter("sim.ff_skipped_cycles")
            .unwrap_or(0);
        println!(
            "  {:<24} {:>8.4} s  ipc {:>7.3}  cycles {:>8}  reads/cycle {:.3}  wb/read {:.3}  ff {:.4}",
            cell.label,
            secs,
            r.ipc,
            r.mem_cycles,
            r.dram.total_reads() as f64 / r.mem_cycles as f64,
            ratio(r.engine.data_writebacks as f64, r.engine.data_reads as f64),
            skipped as f64 / r.mem_cycles as f64,
        );
    }
    let total: f64 = medians.iter().sum();
    println!(
        "sim_minst_per_s = {} Minst/s",
        total_insts(cells) / total / 1e6
    );
    if let Some(err) = fig08_gain_err(cells, results) {
        println!("fig08_gain_err = {err} ratio (paper gmean Synergy/SGX_O {PAPER_FIG08_GAIN})");
    }
}

/// Relative distance of the gmean Synergy/SGX_O IPC ratio over the
/// workload's healthy pairs from the paper's 1.20; `None` without pairs.
fn fig08_gain_err(cells: &[Cell], results: &[SimResult]) -> Option<f64> {
    let healthy: Vec<(&Cell, &SimResult)> = cells
        .iter()
        .zip(results)
        .filter(|(c, _)| !c.degraded)
        .collect();
    let (sgx_o, synergy) = (DesignConfig::sgx_o().name, DesignConfig::synergy().name);
    let ratios: Vec<f64> = healthy
        .iter()
        .filter(|(c, _)| c.cfg.design.name == synergy)
        .filter_map(|(c, syn)| {
            healthy
                .iter()
                .find(|(b, _)| b.workload == c.workload && b.cfg.design.name == sgx_o)
                .map(|(_, base)| syn.ipc / base.ipc)
        })
        .collect();
    (!ratios.is_empty()).then(|| (gmean(&ratios) - PAPER_FIG08_GAIN).abs() / PAPER_FIG08_GAIN)
}

/// Host time of one cell's layers, replayed through their public APIs on
/// the cell's own input stream.
#[derive(Default, Clone, Copy)]
struct Replay {
    /// Trace records the run consumes (warm-up plus measured).
    records: u64,
    trace_ns: f64,
    llc_ns: f64,
    reads: u64,
    read_ns: f64,
    writebacks: u64,
    writeback_ns: f64,
    dram_requests: u64,
    /// `tick_into` calls the DRAM replay made.
    dram_ticks: u64,
    dram_ns: f64,
}

/// Replays one cell layer by layer:
/// 1. `MultiCoreTrace::next_record` regenerates the stream `run` reads:
///    the warm-up records, then each core's records up to its
///    instruction target;
/// 2. the LLC (`read`/`write`/`fill`) and secure engine
///    (`expand_read_into`/`expand_writeback_into`) process it as `run`'s
///    front end does, each engine call timed on its own;
/// 3. the DRAM requests the measured part expands to go through
///    `MemorySystem::enqueue`/`tick_into`/`next_event_cycle`/`skip_to`,
///    arriving at the run's own mean rate.
fn replay(cell: &Cell, mem_cycles: u64, clock_ns: f64) -> Replay {
    let cores = cell.cfg.cores;
    let mut out = Replay::default();

    let mut trace = cell.trace.clone();
    let t = Instant::now();
    let mut records: Vec<TraceRecord> = Vec::new();
    for _ in 0..WARMUP_RECORDS {
        for core in 0..cores {
            records.push(trace.next_record(core));
        }
    }
    let warm = records.len();
    let mut fetched = vec![0u64; cores];
    while fetched.iter().any(|&f| f < cell.insts) {
        for (core, f) in fetched.iter_mut().enumerate() {
            if *f < cell.insts {
                let rec = trace.next_record(core);
                *f += u64::from(rec.gap) + 1;
                records.push(rec);
            }
        }
    }
    out.trace_ns = ns_since(t);
    out.records = records.len() as u64;

    let cap = cell.cfg.data_capacity;
    let mut llc = SetAssocCache::new(cell.cfg.llc);
    let mut engine = SecureEngine::new(cell.cfg.design.clone(), cap);
    let mut exp = Expansion::default();
    let mut requests: Vec<AccessSpec> = Vec::new();
    let mut pending: Vec<u64> = Vec::new();
    let (mut read_raw, mut wb_raw) = (0.0, 0.0);
    let t_loop = Instant::now();
    for (i, rec) in records.iter().enumerate() {
        let measured = i >= warm;
        if cell.degraded && i == warm {
            engine.fail_chip(FAILED_CHIP);
        }
        let addr = (rec.addr % cap) & !63;
        let evicted = if rec.is_write {
            if llc.write(addr) {
                None
            } else {
                llc.fill(addr, true)
            }
        } else if llc.read(addr) {
            None
        } else {
            let t = Instant::now();
            engine.expand_read_into(addr, &mut llc, &mut exp);
            read_raw += ns_since(t);
            out.reads += 1;
            if measured {
                requests.extend_from_slice(&exp.accesses);
                pending.extend_from_slice(&exp.evicted_dirty_data);
            }
            llc.fill(addr, false)
        };
        if !measured {
            // `run`'s warm-up discards evictions and expansions.
            continue;
        }
        if let Some(ev) = evicted.filter(|ev| ev.dirty) {
            pending.push(ev.addr);
        }
        while let Some(a) = pending.pop() {
            if engine.layout().classify(a) == Region::Data {
                let t = Instant::now();
                engine.expand_writeback_into(a, &mut llc, &mut exp);
                wb_raw += ns_since(t);
                out.writebacks += 1;
                requests.extend_from_slice(&exp.accesses);
                pending.extend_from_slice(&exp.evicted_dirty_data);
            } else {
                requests.push(AccessSpec {
                    addr: a,
                    kind: AccessKind::Write,
                    class: engine.class_of(a),
                });
            }
        }
    }
    let loop_ns = ns_since(t_loop);
    let calls = (out.reads + out.writebacks) as f64;
    out.read_ns = (read_raw - out.reads as f64 * clock_ns).max(0.0);
    out.writeback_ns = (wb_raw - out.writebacks as f64 * clock_ns).max(0.0);
    out.llc_ns = (loop_ns - read_raw - wb_raw - calls * clock_ns).max(0.0);

    let mut mem = MemorySystem::new(dram_config(&cell.cfg)).expect("valid DRAM config");
    let requests: Vec<Request> = requests
        .iter()
        .enumerate()
        .map(|(i, a)| Request {
            id: i as u64,
            addr: a.addr,
            kind: a.kind,
            class: a.class,
            core: 0,
        })
        .collect();
    // Requests arrive at the run's own mean rate, spread evenly over its
    // memory cycles.
    let n = requests.len() as u64;
    let arrival = |i: u64| i * mem_cycles / n.max(1);
    let mut completions = Vec::with_capacity(64);
    let t = Instant::now();
    let mut next = 0;
    // Like `run`'s fast path, a skip attempt that finds nothing to skip
    // backs off (8 to 64 cycles): the event scan costs more than a tick.
    let (mut retry_at, mut backoff) = (0, 8);
    while next < n || mem.in_flight() > 0 {
        while next < n && arrival(next) <= mem.cycle() && mem.enqueue(requests[next as usize]) {
            next += 1;
        }
        mem.tick_into(&mut completions);
        completions.clear();
        out.dram_ticks += 1;
        let now = mem.cycle();
        if now >= retry_at {
            let due = if next < n { arrival(next) } else { u64::MAX };
            let target = mem.next_event_cycle().map_or(due, |e| e.min(due));
            if target > now + 1 && target != u64::MAX {
                mem.skip_to(target);
                backoff = 8;
            } else {
                retry_at = now + backoff;
                backoff = (backoff * 2).min(64);
            }
        }
    }
    out.dram_ns = ns_since(t);
    out.dram_requests = requests.len() as u64;
    out
}

/// Memory cycles in which `run` ticked the DRAM (those it did not
/// fast-forward over).
fn ticked_cycles(r: &SimResult) -> f64 {
    let skipped = r
        .telemetry
        .registry
        .counter("sim.ff_skipped_cycles")
        .unwrap_or(0);
    (r.mem_cycles - skipped) as f64
}

/// A cell's host nanoseconds per layer (trace, LLC, read expansion,
/// writeback expansion, DRAM): its in-run counts times replayed ns per
/// operation. DRAM host time follows its ticks, not its requests: a tick
/// scans the queues whether or not a request arrives.
fn layer_ns(r: &SimResult, rep: &Replay) -> [f64; 5] {
    [
        rep.trace_ns,
        rep.llc_ns,
        r.engine.data_reads as f64 * ratio(rep.read_ns, rep.reads as f64),
        r.engine.data_writebacks as f64 * ratio(rep.writeback_ns, rep.writebacks as f64),
        ticked_cycles(r) * ratio(rep.dram_ns, rep.dram_ticks as f64),
    ]
}

/// Per-field medians of one cell's replays (the counts never vary).
fn median_replay(reps: &mut [Replay]) -> Replay {
    let field = |f: fn(&Replay) -> f64| median(&mut reps.iter().map(f).collect::<Vec<_>>());
    Replay {
        trace_ns: field(|r| r.trace_ns),
        llc_ns: field(|r| r.llc_ns),
        read_ns: field(|r| r.read_ns),
        writeback_ns: field(|r| r.writeback_ns),
        dram_ns: field(|r| r.dram_ns),
        ..reps[0]
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: an untraced `run`, a traced `run` and a layer replay of
/// each cell repeat until `--seconds` is spent (at least once each). The
/// traced results are checked against the untraced ones, and the layer
/// ledger against the untraced wall time.
fn traced(cells: &[Cell], setup_s: f64, args: &Args, checks: &mut Checks) -> Outcome {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut instrumented: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut results: Vec<SimResult> = Vec::new();
    let mut traced_results: Vec<SimResult> = Vec::new();
    let mut replays: Vec<Vec<Replay>> = (0..cells.len()).map(|_| Vec::new()).collect();
    let mut stats = Vec::new();
    let clock_ns = clock_overhead_ns();
    let mut reps = 0;
    while reps == 0 || Instant::now() < deadline {
        for (i, cell) in cells.iter().enumerate() {
            let mut cfg = cell.cfg.clone();
            cfg.telemetry = TelemetryConfig::default();
            let (r, secs) = run_cell(cell, &cell.cfg);
            plain[i].push(secs);
            let (tr, tsecs) = run_cell(cell, &cfg);
            instrumented[i].push(tsecs);
            replays[i].push(replay(cell, r.mem_cycles, clock_ns));
            if reps == 0 {
                check_result(cell, &r, checks);
                checks.check(
                    sim_stats(&tr) == sim_stats(&r),
                    format!(
                        "{}: tracing leaves every simulated statistic unchanged",
                        cell.label
                    ),
                );
                let verdict = tr.attrib.verify();
                checks.check(
                    verdict.is_ok() && !tr.attrib.is_empty(),
                    format!("{}: CycleAttribution::verify ({verdict:?})", cell.label),
                );
                stats.push(sim_stats(&r));
                results.push(r);
                traced_results.push(tr);
            }
        }
        reps += 1;
    }
    let wall: Vec<f64> = plain.iter_mut().map(|t| median(t)).collect();
    let traced_wall: Vec<f64> = instrumented.iter_mut().map(|t| median(t)).collect();
    report_cells(cells, &results, &wall, reps);

    // Layer ledger: in-run counts times replayed ns per operation, set
    // against the untraced wall time of the same repetition (so both see
    // the same host conditions); the residual share is their median.
    let mut shares: Vec<f64> = (0..reps)
        .map(|k| {
            let ledger: f64 = (0..cells.len())
                .map(|i| layer_ns(&results[i], &replays[i][k]).iter().sum::<f64>())
                .sum();
            let wall: f64 = plain.iter().map(|t| t[k]).sum();
            1.0 - ledger / (wall * 1e9)
        })
        .collect();
    let residual_share = median(&mut shares);
    checks.check(
        residual_share >= 0.0,
        format!(
            "the layer ledger must not exceed run() wall time (residual share {residual_share})"
        ),
    );
    let replays: Vec<Replay> = replays.iter_mut().map(|r| median_replay(r)).collect();
    println!(
        "host-time ledger per cell, medians (s): trace, llc, expand_read, expand_writeback, \
         dram, run() wall; residual share {residual_share}"
    );
    for (((cell, r), rep), secs) in cells.iter().zip(&results).zip(&replays).zip(&wall) {
        let shown: Vec<String> = layer_ns(r, rep)
            .iter()
            .map(|ns| format!("{:.4}", ns / 1e9))
            .collect();
        println!("  {:<24} {} {secs:.4}", cell.label, shown.join(" "));
    }

    let mut attrib: Option<CycleAttribution> = None;
    let mut latency = LogHistogram::new();
    for tr in &traced_results {
        match &mut attrib {
            Some(a) => a.merge(&tr.attrib),
            None => attrib = Some(tr.attrib.clone()),
        }
        latency.merge(&tr.dram.read_latency_all());
    }
    let attrib = attrib.expect("at least one cell");
    let sum = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let rep_sum = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>();
    let mem_cycles = sum(&|r| r.mem_cycles);
    let llc_accesses = sum(&|r| r.llc.accesses());
    let meta_accesses = sum(&|r| r.metadata_cache.accesses());
    let meta_hits = sum(&|r| r.metadata_cache.read_hits + r.metadata_cache.write_hits);
    let counter_lookups = sum(&|r| r.engine.counter_hits() + r.engine.counter_misses);
    let dram_accesses = sum(&|r| r.dram.total_accesses());
    let row_hits: f64 = results
        .iter()
        .map(|r| r.dram.row_hit_rate() * r.dram.total_accesses() as f64)
        .sum();
    let ff_skipped = sum(&|r| {
        r.telemetry
            .registry
            .counter("sim.ff_skipped_cycles")
            .unwrap_or(0)
    });

    let layers: BTreeMap<&'static str, f64> = [
        ("trace.records", rep_sum(&|r| r.records as f64)),
        (
            "trace.ns_per_record",
            ratio(rep_sum(&|r| r.trace_ns), rep_sum(&|r| r.records as f64)),
        ),
        (
            "core.sim_minst_per_s",
            total_insts(cells) / wall.iter().sum::<f64>() / 1e6,
        ),
        (
            "core.ipc",
            gmean(&results.iter().map(|r| r.ipc).collect::<Vec<_>>()),
        ),
        ("core.mem_cycles", mem_cycles),
        ("core.ff_skip_share", ratio(ff_skipped, mem_cycles)),
        ("core.host_residual_share", residual_share),
        (
            "core.fig08_gain_err",
            fig08_gain_err(cells, &results).unwrap_or(0.0),
        ),
        ("cache.llc_accesses", llc_accesses),
        (
            "cache.llc_miss_ratio",
            ratio(
                sum(&|r| r.llc.read_misses + r.llc.write_misses),
                llc_accesses,
            ),
        ),
        ("cache.meta_hit_ratio", ratio(meta_hits, meta_accesses)),
        (
            "cache.llc_ns_per_access",
            ratio(rep_sum(&|r| r.llc_ns), rep_sum(&|r| r.records as f64)),
        ),
        ("secure.expand_reads", sum(&|r| r.engine.data_reads)),
        (
            "secure.expand_writebacks",
            sum(&|r| r.engine.data_writebacks),
        ),
        (
            "secure.counter_miss_ratio",
            ratio(sum(&|r| r.engine.counter_misses), counter_lookups),
        ),
        ("secure.tree_fetches", sum(&|r| r.engine.tree_fetches)),
        ("secure.parity_reads", sum(&|r| r.degraded.parity_reads)),
        (
            "secure.ns_per_expand_read",
            ratio(rep_sum(&|r| r.read_ns), rep_sum(&|r| r.reads as f64)),
        ),
        (
            "secure.ns_per_expand_writeback",
            ratio(
                rep_sum(&|r| r.writeback_ns),
                rep_sum(&|r| r.writebacks as f64),
            ),
        ),
        ("dram.reads", sum(&|r| r.dram.total_reads())),
        ("dram.writes", sum(&|r| r.dram.total_writes())),
        (
            "dram.mac_accesses",
            sum(&|r| r.dram.reads(RequestClass::Mac) + r.dram.writes(RequestClass::Mac)),
        ),
        ("dram.row_hit_ratio", ratio(row_hits, dram_accesses)),
        (
            "dram.read_latency_p50_cycles",
            latency.percentile(50.0) as f64,
        ),
        (
            "dram.read_latency_p99_cycles",
            latency.percentile(99.0) as f64,
        ),
        (
            "dram.queue_wait_share",
            attrib.share(AttribBucket::QueueWait),
        ),
        (
            "dram.ns_per_request",
            ratio(
                rep_sum(&|r| r.dram_ns),
                rep_sum(&|r| r.dram_requests as f64),
            ),
        ),
        (
            "dram.ns_per_tick",
            ratio(rep_sum(&|r| r.dram_ns), rep_sum(&|r| r.dram_ticks as f64)),
        ),
        (
            "obs.trace_overhead",
            traced_wall.iter().sum::<f64>() / wall.iter().sum::<f64>() - 1.0,
        ),
    ]
    .into_iter()
    .collect();
    Outcome {
        pass_s: wall.iter().sum(),
        pass_vs_ref: 0.0,
        ref_s: 0.0,
        setup_s,
        layers,
        digest: fnv64(&stats.concat()),
    }
}
