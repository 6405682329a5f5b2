//! Criterion micro-benchmarks for the secure-engine per-access hot path.
//!
//! These pin the cost of the operations `synergy_core::system` performs
//! for every LLC miss, using the allocation-free `_into` entry points and
//! a caller-owned [`Expansion`] the way the simulator's steady state does:
//!
//! * `engine_expand_read/<design>` — a metadata-warm read expansion
//!   (counter/tree hits in the dedicated cache or LLC) over a small hot
//!   footprint; the common case on the simulator's critical path.
//! * `engine_expand_read_cold/<design>` — a sweeping address stream that
//!   misses the metadata caches, exercising the full tree-walk fan-out.
//! * `engine_expand_writeback/<design>` — dirty-line writeback expansion
//!   including counter bump and tree-path dirtying.
//! * `metadata_cache_probe` — raw flat-cache hit/miss probes, the
//!   innermost primitive of every expansion.
//! * `system_run_saturated` — end-to-end `run` on a memory-saturated
//!   streaming workload (lbm), the macro number the sweep cares about.
//!
//! The same measurements go to `target/experiments/micro_engine.csv`
//! (`group,benchmark,ns_per_iter`). Run with `--quick` for CI-friendly
//! measurement times.

use criterion::{Criterion, Throughput};
use std::hint::black_box;
use synergy_bench::trace_seed;
use synergy_cache::{CacheConfig, SetAssocCache};
use synergy_core::system::{run, SystemConfig};
use synergy_dram::DramConfig;
use synergy_secure::{DesignConfig, Expansion, SecureEngine};
use synergy_trace::{presets, MultiCoreTrace};

const DATA_BYTES: u64 = 1 << 30;
const LLC_CONFIG: (usize, usize, usize) = (8 << 20, 16, 64);

fn designs() -> [(&'static str, DesignConfig); 3] {
    [
        ("synergy", DesignConfig::synergy()),
        ("sgx", DesignConfig::sgx()),
        ("sgx_o", DesignConfig::sgx_o()),
    ]
}

fn fresh_pair(design: &DesignConfig) -> (SecureEngine, SetAssocCache) {
    let engine = SecureEngine::new(design.clone(), DATA_BYTES);
    let llc = SetAssocCache::new(
        CacheConfig::new(LLC_CONFIG.0, LLC_CONFIG.1, LLC_CONFIG.2).unwrap(),
    );
    (engine, llc)
}

/// Warm reads over a 4 MiB hot set: counters and tree nodes resident.
fn bench_expand_read_warm(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_expand_read");
    g.throughput(Throughput::Elements(1));
    for (name, design) in designs() {
        let (mut engine, mut llc) = fresh_pair(&design);
        let mut exp = Expansion::default();
        let lines = (4u64 << 20) / 64;
        for i in 0..lines {
            engine.expand_read_into(i * 64, &mut llc, &mut exp);
        }
        let mut i = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % lines;
                engine.expand_read_into(i * 64, &mut llc, &mut exp);
                black_box(exp.accesses.len())
            })
        });
    }
    g.finish();
}

/// Sweeping stride that defeats the metadata caches: full-fan-out misses.
fn bench_expand_read_cold(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_expand_read_cold");
    g.throughput(Throughput::Elements(1));
    for (name, design) in designs() {
        let (mut engine, mut llc) = fresh_pair(&design);
        let mut exp = Expansion::default();
        // Large stride: each access lands in a fresh counter/tree line.
        let stride = 1u64 << 15;
        let span = DATA_BYTES / stride;
        let mut i = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % span;
                engine.expand_read_into(i * stride, &mut llc, &mut exp);
                black_box(exp.accesses.len())
            })
        });
    }
    g.finish();
}

/// Writeback expansion over the warm hot set (counter bump + tree dirty).
fn bench_expand_writeback(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_expand_writeback");
    g.throughput(Throughput::Elements(1));
    for (name, design) in designs() {
        let (mut engine, mut llc) = fresh_pair(&design);
        let mut exp = Expansion::default();
        let lines = (4u64 << 20) / 64;
        for i in 0..lines {
            engine.expand_read_into(i * 64, &mut llc, &mut exp);
        }
        let mut i = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % lines;
                engine.expand_writeback_into(i * 64, &mut llc, &mut exp);
                black_box(exp.accesses.len())
            })
        });
    }
    g.finish();
}

/// The innermost primitive: flat-cache probes, hit and miss+fill.
fn bench_metadata_cache_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("metadata_cache_probe");
    g.throughput(Throughput::Elements(1));
    // Same geometry as the default dedicated metadata cache.
    let cfg = synergy_secure::default_metadata_cache_config();
    let resident = (cfg.capacity_bytes() / 2) as u64;
    let mut hit_cache = SetAssocCache::new(cfg);
    for a in (0..resident).step_by(64) {
        hit_cache.fill(a, false);
    }
    let mut i = 0u64;
    g.bench_function("read_hit", |b| {
        b.iter(|| {
            i = (i + 64) % resident;
            black_box(hit_cache.read(i))
        })
    });
    let mut miss_cache = SetAssocCache::new(synergy_secure::default_metadata_cache_config());
    let mut a = 0u64;
    g.bench_function("miss_fill_evict", |b| {
        b.iter(|| {
            a = a.wrapping_add(64 * 8191);
            if !miss_cache.read(a) {
                black_box(miss_cache.fill(a, false));
            }
        })
    });
    g.finish();
}

/// End-to-end memory-saturated run: lbm streams at high APKI, so the
/// simulator lives in the issue/expand/DRAM path this PR optimizes.
fn bench_system_saturated(c: &mut Criterion) {
    let mut g = c.benchmark_group("system_run_saturated");
    let run_once = || {
        let w = presets::by_name("lbm").unwrap();
        let mut cfg = SystemConfig::new(DesignConfig::synergy());
        cfg.dram = DramConfig::with_channels(2);
        cfg.warmup_records_per_core = 1_000;
        let mut trace = MultiCoreTrace::rate_mode(&w, cfg.cores, trace_seed(7));
        run(&cfg, &mut trace, 5_000).expect("valid config").mem_cycles
    };
    g.throughput(Throughput::Elements(run_once()));
    g.bench_function("lbm_synergy", |b| b.iter(|| black_box(run_once())));
    g.finish();
}

/// Writes `target/experiments/micro_engine.csv` from the measurements:
/// one row per benchmark, split into its group (the operation) and name
/// (the design, or the probe/run variant), so CI can archive the engine
/// hot-path numbers.
fn export_csv(c: &Criterion) {
    let rows: Vec<String> = c
        .measurements()
        .iter()
        .map(|m| {
            let (group, bench) = m.name.split_once('/').unwrap_or((&m.name, ""));
            format!("{group},{bench},{:.1}", m.median_ns)
        })
        .collect();
    synergy_bench::write_csv("micro_engine", "group,benchmark,ns_per_iter", &rows);
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_expand_read_warm(&mut c);
    bench_expand_read_cold(&mut c);
    bench_expand_writeback(&mut c);
    bench_metadata_cache_probe(&mut c);
    bench_system_saturated(&mut c);
    export_csv(&c);
}
