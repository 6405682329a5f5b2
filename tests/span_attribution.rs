//! Request spans and cycle attribution are two views of one lifecycle
//! record: the push cycle of each DRAM read plus its DRAM completion.
//!
//! Every span's latency is a DRAM read's push → complete time, and the
//! attribution ledger charges exactly those cycles to its DRAM buckets.
//! The ledger's only other entries are requests that never reach DRAM
//! (LLC hits and crypto stalls), so the span latency total must equal the
//! attributed total minus those two buckets — healthy and with a chip
//! failure, whose diagnosis burst is the crypto-stall case.

use synergy_bench::trace_seed;
use synergy_core::system::{run, SimResult, SystemConfig};
use synergy_dram::DramConfig;
use synergy_faultsim::FaultSchedule;
use synergy_obs::AttribBucket;
use synergy_secure::DesignConfig;
use synergy_trace::{presets, MultiCoreTrace};

fn run_mcf(faults: FaultSchedule) -> SimResult {
    let w = presets::by_name("mcf").expect("workload preset exists");
    let mut cfg = SystemConfig::new(DesignConfig::synergy());
    cfg.dram = DramConfig::with_channels(2);
    cfg.warmup_records_per_core = 2_000;
    cfg.fault_schedule = faults;
    let mut trace = MultiCoreTrace::rate_mode(&w, cfg.cores, trace_seed(2));
    run(&cfg, &mut trace, 8_000).expect("simulation config is valid")
}

fn assert_views_agree(what: &str, r: &SimResult) {
    let spans = r.telemetry.registry.get_histogram("span.latency").expect("spans recorded");
    let a = &r.attrib;
    a.verify().unwrap();
    let dram_cycles = a.total_cycles()
        - a.bucket_cycles(AttribBucket::LlcHit)
        - a.bucket_cycles(AttribBucket::CryptoWork);
    assert!(spans.sum() > 0, "{what}: no span cycles");
    assert_eq!(spans.sum(), dram_cycles, "{what}: span latency vs attributed DRAM cycles");
    assert_eq!(spans.count(), r.telemetry.spans_completed, "{what}: span count");
}

#[test]
fn span_latency_equals_attributed_dram_cycles() {
    let healthy = run_mcf(FaultSchedule::default());
    assert_views_agree("healthy", &healthy);
    assert_eq!(healthy.attrib.bucket_cycles(AttribBucket::CryptoWork), 0);

    let degraded = run_mcf(FaultSchedule::chip_failure_at(1_000, 3));
    assert_views_agree("degraded", &degraded);
    assert!(
        degraded.attrib.bucket_cycles(AttribBucket::CryptoWork) > 0,
        "the chip failure's diagnosis burst is charged as crypto work"
    );
}
