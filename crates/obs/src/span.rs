//! Request-lifecycle spans.
//!
//! A [`SpanTracer`] receives each memory request once, when it
//! completes, as the full list of its `(phase, cycle)` stamps — LLC
//! miss, secure-engine expansion, metadata-cache probe, DRAM enqueue,
//! DRAM issue, completion. It keeps no per-request state between calls:
//! every request's per-phase durations and end-to-end latency are folded
//! into [`LogHistogram`]s, so phase latency *distributions* cover the
//! whole run, and a [`Span`] is built (the only allocation) only when the
//! request ranks among the K slowest seen so far.

use crate::hist::LogHistogram;
use crate::registry::{metric_name, MetricRegistry, Observe};

/// Lifecycle phases of a traced request, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanPhase {
    /// The data load missed the LLC — the request enters the system.
    LlcMiss,
    /// The secure engine expanded the miss into its DRAM access list.
    EngineExpand,
    /// The engine probed the dedicated metadata cache.
    MetaCacheProbe,
    /// The request entered a DRAM controller queue.
    DramEnqueue,
    /// The DRAM column command issued (data on the bus).
    DramIssue,
    /// Data returned; the requester unblocked.
    Complete,
}

impl SpanPhase {
    /// All phases in pipeline order.
    pub const ALL: [SpanPhase; 6] = [
        SpanPhase::LlcMiss,
        SpanPhase::EngineExpand,
        SpanPhase::MetaCacheProbe,
        SpanPhase::DramEnqueue,
        SpanPhase::DramIssue,
        SpanPhase::Complete,
    ];

    /// Dense index, matching the position in [`SpanPhase::ALL`].
    pub const fn index(self) -> usize {
        match self {
            SpanPhase::LlcMiss => 0,
            SpanPhase::EngineExpand => 1,
            SpanPhase::MetaCacheProbe => 2,
            SpanPhase::DramEnqueue => 3,
            SpanPhase::DramIssue => 4,
            SpanPhase::Complete => 5,
        }
    }

    /// Stable lowercase name for export.
    pub const fn name(self) -> &'static str {
        match self {
            SpanPhase::LlcMiss => "llc_miss",
            SpanPhase::EngineExpand => "engine_expand",
            SpanPhase::MetaCacheProbe => "meta_cache_probe",
            SpanPhase::DramEnqueue => "dram_enqueue",
            SpanPhase::DramIssue => "dram_issue",
            SpanPhase::Complete => "complete",
        }
    }
}

impl core::fmt::Display for SpanPhase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One traced request: identity plus its timestamped phase events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request identifier (the DRAM request id of the data read).
    pub id: u64,
    /// Physical address of the data line.
    pub addr: u64,
    /// Free-form label (request class, design name, …).
    pub label: &'static str,
    /// `(phase, cycle)` events in the order they were recorded.
    pub events: Vec<(SpanPhase, u64)>,
}

impl Span {
    /// Cycle of the first event (0 if none — not constructible via the tracer).
    pub fn start_cycle(&self) -> u64 {
        self.events.first().map_or(0, |&(_, c)| c)
    }

    /// Cycle of the last event.
    pub fn end_cycle(&self) -> u64 {
        self.events.last().map_or(0, |&(_, c)| c)
    }

    /// End-to-end latency in cycles.
    pub fn total_latency(&self) -> u64 {
        self.end_cycle() - self.start_cycle()
    }

    /// Cycle at which `phase` was recorded, if it was.
    pub fn cycle_of(&self, phase: SpanPhase) -> Option<u64> {
        self.events.iter().find(|&&(p, _)| p == phase).map(|&(_, c)| c)
    }

    /// Per-phase breakdown: each event paired with the cycles until the
    /// next event (the final event gets 0).
    pub fn phase_durations(&self) -> Vec<(SpanPhase, u64)> {
        self.events
            .iter()
            .enumerate()
            .map(|(i, &(p, c))| {
                let next = self.events.get(i + 1).map_or(c, |&(_, n)| n);
                (p, next.saturating_sub(c))
            })
            .collect()
    }
}

/// Top-K slowest spans plus phase and latency histograms over every
/// recorded request.
#[derive(Debug, Clone, Default)]
pub struct SpanTracer {
    /// Slowest recorded spans, ascending by latency, len ≤ `top_k`.
    slowest: Vec<Span>,
    top_k: usize,
    /// Duration-in-phase distribution per [`SpanPhase`], over every
    /// recorded request.
    phase_cycles: [LogHistogram; SpanPhase::ALL.len()],
    /// End-to-end latency distribution over every recorded request.
    latency: LogHistogram,
    completed: u64,
}

impl SpanTracer {
    /// A tracer retaining the `top_k` slowest spans.
    pub fn new(top_k: usize) -> Self {
        Self {
            slowest: Vec::with_capacity(top_k.min(256)),
            top_k,
            phase_cycles: core::array::from_fn(|_| LogHistogram::new()),
            latency: LogHistogram::new(),
            completed: 0,
        }
    }

    /// Records one completed request. `events` are its `(phase, cycle)`
    /// stamps in pipeline order, the last one its completion. Every
    /// non-terminal phase's duration (cycles until the next stamp) and
    /// the end-to-end latency go into the histograms; the request is kept
    /// as a [`Span`] only if it ranks among the slowest.
    pub fn record(&mut self, id: u64, addr: u64, label: &'static str, events: &[(SpanPhase, u64)]) {
        let (Some(&(_, start)), Some(&(_, end))) = (events.first(), events.last()) else {
            return;
        };
        self.completed += 1;
        let lat = end - start;
        self.latency.record(lat);
        for pair in events.windows(2) {
            let ((phase, at), (_, next)) = (pair[0], pair[1]);
            self.phase_cycles[phase.index()].record(next.saturating_sub(at));
        }

        let span = || Span { id, addr, label, events: events.to_vec() };
        if self.slowest.len() < self.top_k {
            self.slowest.push(span());
        } else if self.slowest.first().is_some_and(|s| lat > s.total_latency()) {
            self.slowest[0] = span();
        } else {
            return;
        }
        self.slowest.sort_by_key(Span::total_latency);
    }

    /// The slowest recorded spans, descending by latency, at most `k`.
    pub fn slowest(&self, k: usize) -> Vec<Span> {
        self.slowest.iter().rev().take(k).cloned().collect()
    }

    /// Duration-in-phase distribution for one phase, over every request
    /// recorded so far (not just the retained top-K).
    pub fn phase_histogram(&self, phase: SpanPhase) -> &LogHistogram {
        &self.phase_cycles[phase.index()]
    }

    /// End-to-end latency distribution over every recorded request.
    pub fn latency_histogram(&self) -> &LogHistogram {
        &self.latency
    }

    /// Requests recorded.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

impl Observe for SpanTracer {
    /// Publishes `<prefix>.phase_cycles.<phase>` and `<prefix>.latency`
    /// histograms plus the `<prefix>.completed` counter.
    fn observe(&self, prefix: &str, registry: &mut MetricRegistry) {
        for phase in SpanPhase::ALL {
            let h = self.phase_histogram(phase);
            if h.count() > 0 {
                registry.set_histogram(&metric_name(prefix, &format!("phase_cycles.{phase}")), h);
            }
        }
        if self.latency.count() > 0 {
            registry.set_histogram(&metric_name(prefix, "latency"), &self.latency);
        }
        registry.set_counter(&metric_name(prefix, "completed"), self.completed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_one(t: &mut SpanTracer, id: u64, start: u64, issue: u64, end: u64) {
        t.record(
            id,
            0x1000 + id,
            "data",
            &[
                (SpanPhase::LlcMiss, start),
                (SpanPhase::EngineExpand, start),
                (SpanPhase::DramEnqueue, start + 1),
                (SpanPhase::DramIssue, issue),
                (SpanPhase::Complete, end),
            ],
        );
    }

    #[test]
    fn lifecycle_records_all_phases() {
        let mut t = SpanTracer::new(16);
        trace_one(&mut t, 1, 100, 140, 150);
        assert_eq!(t.completed(), 1);
        let spans = t.slowest(10);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.total_latency(), 50);
        assert_eq!(s.cycle_of(SpanPhase::DramIssue), Some(140));
        let durs = s.phase_durations();
        assert_eq!(durs.len(), 5);
        assert_eq!(durs.last().unwrap().1, 0);
        // Durations sum to total latency.
        assert_eq!(durs.iter().map(|&(_, d)| d).sum::<u64>(), 50);
    }

    #[test]
    fn top_k_keeps_slowest_descending() {
        let mut t = SpanTracer::new(3);
        for (id, lat) in [(1, 10), (2, 50), (3, 20), (4, 40), (5, 30)] {
            trace_one(&mut t, id, 0, lat - 5, lat);
        }
        let s = t.slowest(10);
        let lats: Vec<u64> = s.iter().map(Span::total_latency).collect();
        assert_eq!(lats, [50, 40, 30]);
        assert_eq!(t.slowest(2).len(), 2);
    }

    #[test]
    fn phase_histograms_cover_spans_evicted_from_top_k() {
        // top_k = 1: only the slowest span survives as an exemplar, yet
        // the histograms see all three requests.
        let mut t = SpanTracer::new(1);
        for (id, lat) in [(1, 10), (2, 50), (3, 20)] {
            trace_one(&mut t, id, 0, lat - 5, lat);
        }
        assert_eq!(t.slowest(10).len(), 1);
        assert_eq!(t.latency_histogram().count(), 3);
        assert_eq!(t.latency_histogram().max(), 50);
        // Each request records one duration per non-terminal event.
        assert_eq!(t.phase_histogram(SpanPhase::LlcMiss).count(), 3);
        assert_eq!(t.phase_histogram(SpanPhase::DramIssue).count(), 3);
        // DramIssue → Complete is 5 cycles in every exemplar above.
        assert_eq!(t.phase_histogram(SpanPhase::DramIssue).max(), 5);
        // The terminal Complete event contributes no duration sample.
        assert_eq!(t.phase_histogram(SpanPhase::Complete).count(), 0);
    }

    #[test]
    fn zero_top_k_keeps_histograms_only() {
        let mut t = SpanTracer::new(0);
        trace_one(&mut t, 1, 0, 5, 10);
        assert_eq!(t.completed(), 1);
        assert!(t.slowest(10).is_empty());
        assert_eq!(t.latency_histogram().count(), 1);
        // An empty event list is not a request.
        t.record(2, 0, "data", &[]);
        assert_eq!(t.completed(), 1);
    }

    #[test]
    fn observe_publishes_histograms_and_counters() {
        let mut t = SpanTracer::new(2);
        trace_one(&mut t, 1, 0, 5, 10);
        let mut reg = MetricRegistry::new();
        t.observe("span", &mut reg);
        assert_eq!(reg.counter("span.completed"), Some(1));
        assert_eq!(reg.get_histogram("span.latency").unwrap().count(), 1);
        assert_eq!(reg.get_histogram("span.phase_cycles.dram_enqueue").unwrap().count(), 1);
        // Phases with no samples stay unpublished.
        assert!(reg.get_histogram("span.phase_cycles.complete").is_none());
    }
}
