//! Telemetry layer for the SYNERGY reproduction.
//!
//! Zero-dependency observability shared by the whole performance stack
//! (DRAM model, caches, secure engine, system simulator, fault simulator,
//! bench harness):
//!
//! * [`LogHistogram`] — log-bucketed `u64` histograms with ≤1.6% quantile
//!   error, exact count/sum/min/max, and lossless merging. Replaces the
//!   `latency_sum / count` averaging pattern with full distributions
//!   (p50/p90/p99/max).
//! * [`MetricRegistry`] — a named registry of counters, gauges and
//!   histograms. Components publish into it via [`Observe`]; periodic
//!   [`MetricRegistry::sample_epoch`] calls build a time-series of every
//!   scalar metric.
//! * [`SpanTracer`] — bounded request-lifecycle tracing (LLC miss →
//!   engine expansion → metadata-cache probe → DRAM enqueue → issue →
//!   complete) that retains the K slowest requests with per-phase
//!   breakdowns, folding every completed span into per-phase duration
//!   histograms.
//! * [`CycleAttribution`] — per-request-class × per-bucket cycle
//!   accounting ("where did my cycles go") with a zero-tolerance
//!   conservation invariant: buckets sum to end-to-end latency.
//! * [`ChromeTrace`] — `chrome://tracing` / Perfetto JSON export of span
//!   lifecycles and epoch-sampled attribution counters.
//! * [`export`] — hand-rolled JSON/CSV snapshot serialization used by the
//!   fig0x bench targets and the `calibrate` / `debug_probe` bins, written
//!   under `target/experiments/metrics/`.
//! * [`Json`] — a matching minimal JSON reader, enough to re-read the
//!   crate's own exports (round-trip tests, the `perf_gate` bin).
//! * [`exec`] — the one parallel executor: ordered shards on scoped
//!   threads, merged in index order (fig11 Monte Carlo, job fabric, sweep
//!   runner).
//! * [`Stopwatch`] — wall-clock timing for simulator-throughput gauges
//!   (`sim.cycles_per_sec`); never feeds back into simulated behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod exec;
pub mod export;
pub mod hist;
pub mod inline_vec;
pub mod json;
pub mod registry;
pub mod span;
pub mod stopwatch;
pub mod trace_export;

pub use attrib::{AttribBucket, CycleAttribution};
pub use hist::{HistogramSummary, LogHistogram};
pub use inline_vec::InlineVec;
pub use json::Json;
pub use registry::{metric_name, EpochSample, Metric, MetricRegistry, Observe};
pub use span::{Span, SpanPhase, SpanTracer};
pub use stopwatch::Stopwatch;
pub use trace_export::ChromeTrace;
