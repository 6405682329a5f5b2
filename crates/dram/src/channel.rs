//! Per-channel DRAM state: banks, ranks, queues and the FR-FCFS scheduler.
//!
//! Scheduling policy (the USIMM baseline scheduler):
//!
//! * Reads have priority; writes buffer in a write queue and drain in
//!   batches between a high and a low watermark (posted writes).
//! * FR-FCFS: among the serviced queue, ready row-hit column commands issue
//!   first (oldest first); otherwise the oldest request's precharge or
//!   activate issues, provided no younger request still wants the open row.
//! * One command per channel per cycle; all DDR3 bank/rank/bus timing
//!   constraints (tRCD/tRP/tRAS/tRC/tCCD/tRRD/tFAW/tWR/tWTR/tRTP/refresh and
//!   data-bus occupancy with direction-switch penalties) are enforced.
//!
//! Every readiness check above is per bank, not per request, so each bank
//! counts, per queue, the requests waiting on it and how many of those hit
//! its open row (kept at enqueue, column issue, ACT, PRE and refresh). A
//! scan turns those counts into bank bitmasks, visiting only banks with
//! queued requests, and walks a queue at most once, to the oldest request
//! whose bank is in the mask; the issue horizon is O(banks) with no queue
//! walk at all. The masks are `u64`, hence at most 64 banks per channel
//! ([`DramConfig::validate`] enforces it).

use std::collections::VecDeque;

use crate::config::{DramConfig, TimingParams};
use crate::mapping::DramLocation;
use crate::request::{AccessKind, Completion, Request};
use crate::stats::DramStats;

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    ready_act: u64,
    ready_col: u64,
    ready_pre: u64,
    /// Requests queued for this bank, per queue (indexed by [`slot`]).
    queued: [u32; 2],
    /// How many of `queued` hit `open_row`; zero while the bank is closed.
    hits: [u32; 2],
}

impl Bank {
    fn new() -> Self {
        let zero = [0; 2];
        Self { open_row: None, ready_act: 0, ready_col: 0, ready_pre: 0, queued: zero, hits: zero }
    }

    /// Some request in either queue hits the open row (row-hit
    /// friendliness: the bank must not be precharged under it).
    fn waiting_hit(&self) -> bool {
        self.hits != [0; 2]
    }
}

/// Index of `kind`'s queue in the per-bank count arrays.
fn slot(kind: AccessKind) -> usize {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

/// Cycles from a column command of `kind` to its data burst (CL / CWL).
fn lead(t: &TimingParams, kind: AccessKind) -> u64 {
    match kind {
        AccessKind::Read => t.t_cas,
        AccessKind::Write => t.t_cwd,
    }
}

/// Indices of the set bits of `mask`, lowest first.
fn bank_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

#[derive(Debug, Clone)]
struct Rank {
    /// ACT timestamps inside the rolling tFAW window.
    act_window: VecDeque<u64>,
    last_act: u64,
    next_refresh: u64,
}

impl Rank {
    /// Earliest cycle the rank admits an ACT, judged at `cycle`: tRRD after
    /// the last ACT and, with four ACTs inside the tFAW window, the oldest
    /// of them expiring. An ACT is allowed at `cycle` iff `cycle` reaches
    /// this floor and the bank's own `ready_act`.
    fn act_floor(&self, cycle: u64, t: &TimingParams) -> u64 {
        let mut floor = 0;
        if self.last_act != 0 {
            floor = self.last_act + t.t_rrd;
        }
        let mut in_window = 0usize;
        let mut oldest = u64::MAX;
        for &at in &self.act_window {
            if at + t.t_faw > cycle {
                in_window += 1;
                oldest = oldest.min(at);
            }
        }
        if in_window >= 4 {
            floor = floor.max(oldest + t.t_faw);
        }
        floor
    }
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    req: Request,
    loc: DramLocation,
    /// Flat bank index `rank * banks_per_rank + bank` (its mask bit).
    bank: usize,
    enqueue_cycle: u64,
    /// When the row serving this request became usable: stamped at
    /// enqueue if the row was already open, at ACT completion otherwise;
    /// cleared when a precharge or refresh closes the row again. Pure
    /// bookkeeping for cycle attribution — never consulted by the
    /// scheduler.
    bank_ready: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct PendingCompletion {
    at: u64,
    id: u64,
    addr: u64,
    class: crate::request::RequestClass,
    latency: u64,
    issue_cycle: u64,
    enqueue_cycle: u64,
    bank_ready_cycle: u64,
}

/// A command the FR-FCFS scan found issueable this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Candidate {
    /// Column command for queue `kind`, request index `idx`.
    Col(AccessKind, usize),
    /// Row activation for the bank at `loc`.
    Act(DramLocation),
    /// Precharge for the bank at `loc`.
    Pre(DramLocation),
}

/// One DRAM channel with its queues and device state.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    /// Every bank of the channel, rank-major (see [`Queued::bank`]).
    banks: Vec<Bank>,
    banks_per_rank: usize,
    /// Per queue, one bit per bank with `queued > 0`: the only banks a
    /// scan or the horizon has to look at.
    occupied: [u64; 2],
    ranks: Vec<Rank>,
    read_q: VecDeque<Queued>,
    write_q: VecDeque<Queued>,
    pending: Vec<PendingCompletion>,
    draining: bool,
    bus_free_at: u64,
    last_bus_op: Option<AccessKind>,
    /// Earliest cycle at which any queued command could legally issue,
    /// given the bank/rank/bus state as of the last failed scan. `0` means
    /// "unknown — rescan": the cache is invalidated whenever channel state
    /// changes through a path other than pure time passing (an enqueue, a
    /// command issue, or a refresh firing). While `cycle <
    /// issue_horizon`, the FR-FCFS scan is provably fruitless and skipped.
    issue_horizon: u64,
    /// FR-FCFS scans skipped thanks to `issue_horizon` (observability).
    scan_skips: u64,
}

impl Channel {
    pub(crate) fn new(cfg: &DramConfig) -> Self {
        let banks = vec![Bank::new(); cfg.ranks_per_channel * cfg.banks_per_rank];
        let ranks = (0..cfg.ranks_per_channel)
            .map(|_| Rank {
                act_window: VecDeque::new(),
                last_act: 0,
                next_refresh: cfg.timing.t_refi,
            })
            .collect();
        Self {
            banks,
            banks_per_rank: cfg.banks_per_rank,
            occupied: [0; 2],
            ranks,
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            pending: Vec::new(),
            draining: false,
            bus_free_at: 0,
            last_bus_op: None,
            issue_horizon: 0,
            scan_skips: 0,
        }
    }

    pub(crate) fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    pub(crate) fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.read_q.len() + self.write_q.len() + self.pending.len()
    }

    fn bank_index(&self, loc: DramLocation) -> usize {
        loc.rank * self.banks_per_rank + loc.bank
    }

    pub(crate) fn enqueue(&mut self, req: Request, loc: DramLocation, cycle: u64) {
        let b = self.bank_index(loc);
        let bank = &mut self.banks[b];
        let (k, hit) = (slot(req.kind), bank.open_row == Some(loc.row));
        bank.queued[k] += 1;
        bank.hits[k] += u32::from(hit);
        self.occupied[k] |= 1 << b;
        // Attribution bookkeeping: a request arriving to an already-open
        // row never waits on the bank at all.
        let bank_ready = hit.then_some(cycle);
        let q = Queued { req, loc, bank: b, enqueue_cycle: cycle, bank_ready };
        match req.kind {
            AccessKind::Read => self.read_q.push_back(q),
            AccessKind::Write => self.write_q.push_back(q),
        }
        // A new request may be issueable before the cached horizon.
        self.issue_horizon = 0;
    }

    pub(crate) fn scan_skips(&self) -> u64 {
        self.scan_skips
    }

    /// The earliest future cycle at which this channel's externally visible
    /// state can change on its own: a pending read completing, a refresh
    /// deadline, or a queued command becoming issueable (which also covers
    /// write-drain watermark crossings — queue occupancy only moves when a
    /// command issues or the caller enqueues). Returns `0` when the issue
    /// horizon is unknown (a command just issued or state just changed):
    /// the caller must keep ticking per cycle until the horizon is
    /// re-established. Returns `u64::MAX` when nothing is pending at all.
    pub(crate) fn next_event_cycle(&self, cfg: &DramConfig) -> u64 {
        let mut event = u64::MAX;
        for p in &self.pending {
            event = event.min(p.at);
        }
        if cfg.timing.t_refi != 0 {
            for r in &self.ranks {
                event = event.min(r.next_refresh);
            }
        }
        if !self.read_q.is_empty() || !self.write_q.is_empty() {
            event = event.min(self.issue_horizon);
        }
        event
    }

    /// Advances one memory cycle: retires finished reads, handles refresh,
    /// and issues at most one DRAM command.
    pub(crate) fn tick(
        &mut self,
        cycle: u64,
        cfg: &DramConfig,
        completions: &mut Vec<Completion>,
        stats: &mut DramStats,
    ) {
        // Retire data arriving this cycle.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].at <= cycle {
                let p = self.pending.swap_remove(i);
                completions.push(Completion {
                    id: p.id,
                    addr: p.addr,
                    class: p.class,
                    latency: p.latency,
                    issue_cycle: p.issue_cycle,
                    enqueue_cycle: p.enqueue_cycle,
                    bank_ready_cycle: p.bank_ready_cycle,
                });
            } else {
                i += 1;
            }
        }

        self.handle_refresh(cycle, &cfg.timing, stats);
        self.update_drain_mode(cfg);
        if cycle < self.issue_horizon {
            // The last scan proved no command can issue before
            // `issue_horizon`, and nothing invalidated that proof since.
            debug_assert!(
                self.find_candidate(cycle, &cfg.timing).is_none(),
                "issue horizon skipped over a ready command at cycle {cycle}"
            );
            self.scan_skips += 1;
            return;
        }
        if self.issue_one_command(cycle, &cfg.timing, stats) {
            // Bank/bus/queue state changed; next cycle must rescan.
            self.issue_horizon = 0;
        } else {
            self.issue_horizon = self.next_issue_cycle(cycle, &cfg.timing);
        }
    }

    fn handle_refresh(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats) {
        if t.t_refi == 0 {
            return;
        }
        let per_rank = self.banks_per_rank;
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            if cycle >= rank.next_refresh {
                // Close all rows (no request hits a closed row) and lock
                // the rank for tRFC.
                for bank in &mut self.banks[r * per_rank..][..per_rank] {
                    bank.open_row = None;
                    bank.hits = [0; 2];
                    bank.ready_act = bank.ready_act.max(cycle + t.t_rfc);
                }
                // Attribution: every waiter in the rank must reacquire its
                // row after the refresh window.
                for q in self.read_q.iter_mut().filter(|q| q.loc.rank == r) {
                    q.bank_ready = None;
                }
                rank.next_refresh += t.t_refi;
                stats.refreshes += 1;
                // Closed rows flip column candidates into ACT candidates.
                self.issue_horizon = 0;
            }
        }
    }

    fn update_drain_mode(&mut self, cfg: &DramConfig) {
        if self.write_q.len() >= cfg.write_hi_watermark {
            self.draining = true;
        } else if self.write_q.len() <= cfg.write_lo_watermark {
            self.draining = false;
        }
    }

    /// Issues at most one command. Returns true when one issued.
    fn issue_one_command(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats) -> bool {
        match self.find_candidate(cycle, t) {
            Some(Candidate::Col(kind, idx)) => {
                self.issue_col_command(cycle, t, stats, kind, idx);
                true
            }
            Some(Candidate::Act(loc)) => {
                self.issue_act(cycle, t, stats, loc);
                true
            }
            Some(Candidate::Pre(loc)) => {
                self.issue_pre(cycle, t, stats, loc);
                true
            }
            None => false,
        }
    }

    fn queue(&self, kind: AccessKind) -> &VecDeque<Queued> {
        match kind {
            AccessKind::Read => &self.read_q,
            AccessKind::Write => &self.write_q,
        }
    }

    /// The command the scheduler would issue this cycle, if any.
    ///
    /// Service order: the drained queue first, then the other when the
    /// primary can make no progress this cycle. The fallback matters
    /// beyond opportunism: a queued write that row-hits an open row
    /// blocks the precharge a queued read needs (row-hit friendliness),
    /// so the write must be allowed to issue or the pair deadlocks
    /// until a refresh closes the row.
    fn find_candidate(&self, cycle: u64, t: &TimingParams) -> Option<Candidate> {
        let primary = if self.draining || self.read_q.is_empty() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let secondary = match primary {
            AccessKind::Read => AccessKind::Write,
            AccessKind::Write => AccessKind::Read,
        };
        self.find_candidate_for_queue(cycle, t, primary)
            .or_else(|| self.find_candidate_for_queue(cycle, t, secondary))
    }

    /// FR-FCFS pick from `kind`'s queue (read-only).
    ///
    /// Two bank masks, built from the per-bank counts, say which banks
    /// could serve a request of `kind` right now: `col` — the open row has
    /// a waiting hit, `ready_col` has passed and the data bus is free in
    /// time; `row` — a precharge is allowed and no request in either queue
    /// hits the open row, or the bank is closed and an ACT is allowed.
    /// Every request of a `row` bank wants that row command (none hits the
    /// open row), so the oldest request in the mask is exactly the one the
    /// oldest-first FR-FCFS walk would pick.
    fn find_candidate_for_queue(
        &self,
        cycle: u64,
        t: &TimingParams,
        kind: AccessKind,
    ) -> Option<Candidate> {
        let k = slot(kind);
        let bus_ok = cycle + lead(t, kind) >= self.bus_ready(t, kind);
        let (mut col, mut row) = (0u64, 0u64);
        for b in bank_bits(self.occupied[k]) {
            let bank = &self.banks[b];
            let (mask, ready) = match bank.open_row {
                None => {
                    let rank = &self.ranks[b / self.banks_per_rank];
                    (&mut row, cycle >= bank.ready_act && cycle >= rank.act_floor(cycle, t))
                }
                Some(_) if bank.hits[k] > 0 => (&mut col, bus_ok && cycle >= bank.ready_col),
                Some(_) => (&mut row, !bank.waiting_hit() && cycle >= bank.ready_pre),
            };
            *mask |= u64::from(ready) << b;
        }
        let queue = self.queue(kind);
        if col != 0 {
            // FR: the oldest row hit on a column-ready bank.
            let hit = |q: &Queued| self.banks[q.bank].open_row == Some(q.loc.row);
            let idx = queue.iter().position(|q| col >> q.bank & 1 != 0 && hit(q))?;
            return Some(Candidate::Col(kind, idx));
        }
        if row == 0 {
            return None;
        }
        // FCFS: the oldest request whose bank takes its row command now.
        let q = queue.iter().find(|q| row >> q.bank & 1 != 0)?;
        Some(match self.banks[q.bank].open_row {
            Some(_) => Candidate::Pre(q.loc),
            None => Candidate::Act(q.loc),
        })
    }

    /// A conservative lower bound (> `cycle`) on the next cycle at which
    /// any queued command could issue, assuming no external state change
    /// (enqueues, issues and refreshes all reset [`Self::issue_horizon`]).
    ///
    /// Each bank with queued requests contributes the earliest legal issue
    /// cycle of the commands they want: a column command per queue with a
    /// waiting hit (CAS readiness and the data bus), a precharge when the
    /// open row has no waiting hit, an ACT (tRC/tRP, tRRD, tFAW) when the
    /// bank is closed. A precharge blocked by row-hit friendliness
    /// contributes no bound of its own: it can only unblock when the
    /// hitting request issues, which resets the horizon.
    fn next_issue_cycle(&self, cycle: u64, t: &TimingParams) -> u64 {
        // data_start = issue + CAS/CWD lead must not precede the bus freeing.
        let col_floor = [AccessKind::Read, AccessKind::Write]
            .map(|kind| self.bus_ready(t, kind).saturating_sub(lead(t, kind)));
        let mut earliest = u64::MAX;
        for b in bank_bits(self.occupied[0] | self.occupied[1]) {
            let bank = &self.banks[b];
            if bank.open_row.is_none() {
                let rank = &self.ranks[b / self.banks_per_rank];
                earliest = earliest.min(bank.ready_act.max(rank.act_floor(cycle, t)));
            } else if !bank.waiting_hit() {
                earliest = earliest.min(bank.ready_pre);
            } else {
                for (&hits, &floor) in bank.hits.iter().zip(&col_floor) {
                    if hits > 0 {
                        earliest = earliest.min(bank.ready_col.max(floor));
                    }
                }
            }
        }
        earliest.max(cycle + 1)
    }

    /// Earliest cycle the data bus can start a burst of `kind`, including
    /// any turnaround/WTR penalty versus the last burst.
    fn bus_ready(&self, t: &TimingParams, kind: AccessKind) -> u64 {
        let mut bus_ready = self.bus_free_at;
        if let Some(last) = self.last_bus_op {
            if last != kind {
                bus_ready += t.t_turnaround;
                if last == AccessKind::Write && kind == AccessKind::Read {
                    bus_ready += t.t_wtr;
                }
            }
        }
        bus_ready
    }

    fn issue_act(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats, loc: DramLocation) {
        let b = self.bank_index(loc);
        let bank = &mut self.banks[b];
        bank.open_row = Some(loc.row);
        bank.ready_col = cycle + t.t_rcd;
        bank.ready_pre = bank.ready_pre.max(cycle + t.t_ras);
        bank.ready_act = cycle + t.t_rc;
        let rank = &mut self.ranks[loc.rank];
        rank.last_act = cycle;
        rank.act_window.push_back(cycle);
        while rank.act_window.len() > 4 {
            rank.act_window.pop_front();
        }
        stats.activates += 1;
        // Recount the bank's hits on its new row. Attribution: every
        // unstamped read waiting on it gets its row at tRCD after the ACT.
        let ready = cycle + t.t_rcd;
        let on_row = |q: &Queued| q.bank == b && q.loc.row == loc.row;
        let mut read_hits = 0;
        for q in self.read_q.iter_mut().filter(|q| on_row(q)) {
            q.bank_ready.get_or_insert(ready);
            read_hits += 1;
        }
        let write_hits = self.write_q.iter().filter(|q| on_row(q)).count() as u32;
        self.banks[b].hits = [read_hits, write_hits];
    }

    fn issue_pre(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats, loc: DramLocation) {
        let b = self.bank_index(loc);
        let bank = &mut self.banks[b];
        // PRE issues now; `cycle >= ready_pre` was checked by the caller.
        bank.open_row = None;
        bank.hits = [0; 2];
        bank.ready_act = bank.ready_act.max(cycle + t.t_rp);
        stats.precharges += 1;
        // Attribution: waiters on this bank lose their open row (a stamped
        // waiter on the *closed* row goes back to waiting on the bank; a
        // waiter on another row never had a stamp).
        for q in self.read_q.iter_mut().filter(|q| q.bank == b) {
            q.bank_ready = None;
        }
    }

    fn issue_col_command(
        &mut self,
        cycle: u64,
        t: &TimingParams,
        stats: &mut DramStats,
        kind: AccessKind,
        idx: usize,
    ) {
        let q = match kind {
            AccessKind::Read => self.read_q.remove(idx),
            AccessKind::Write => self.write_q.remove(idx),
        }
        .expect("candidate index valid");
        let bank = &mut self.banks[q.bank];
        bank.ready_col = cycle + t.t_ccd;
        // Column commands only serve row hits.
        let k = slot(kind);
        bank.queued[k] -= 1;
        bank.hits[k] -= 1;
        if bank.queued[k] == 0 {
            self.occupied[k] &= !(1 << q.bank);
        }

        match kind {
            AccessKind::Read => {
                let done = cycle + t.t_cas + t.t_burst;
                bank.ready_pre = bank.ready_pre.max(cycle + t.t_rtp);
                self.bus_free_at = done;
                // An unstamped request here means its ACT predates the
                // stamping bookkeeping (can't happen via `enqueue`/
                // `issue_act`, but be defensive); clamp keeps the
                // enqueue ≤ bank_ready ≤ issue invariant unconditional.
                let bank_ready =
                    q.bank_ready.unwrap_or(cycle).clamp(q.enqueue_cycle, cycle);
                self.pending.push(PendingCompletion {
                    at: done,
                    id: q.req.id,
                    addr: q.req.addr,
                    class: q.req.class,
                    latency: done - q.enqueue_cycle,
                    issue_cycle: cycle,
                    enqueue_cycle: q.enqueue_cycle,
                    bank_ready_cycle: bank_ready,
                });
                stats.record_read(q.req.class, done - q.enqueue_cycle);
            }
            AccessKind::Write => {
                let data_end = cycle + t.t_cwd + t.t_burst;
                bank.ready_pre = bank.ready_pre.max(data_end + t.t_wr);
                self.bus_free_at = data_end;
                stats.record_write(q.req.class, data_end - q.enqueue_cycle);
            }
        }
        stats.bursts += 1;
        stats.busy_cycles += t.t_burst;
        self.last_bus_op = Some(kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestClass;
    use proptest::prelude::*;

    /// The linear-scan FR-FCFS scheduler the bank index replaced, kept
    /// verbatim (bar the flat bank lookup) as the differential oracle.
    impl Channel {
        fn find_candidate_reference(&self, cycle: u64, t: &TimingParams) -> Option<Candidate> {
            let primary = if self.draining || self.read_q.is_empty() {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let secondary = match primary {
                AccessKind::Read => AccessKind::Write,
                AccessKind::Write => AccessKind::Read,
            };
            self.find_candidate_for_queue_reference(cycle, t, primary)
                .or_else(|| self.find_candidate_for_queue_reference(cycle, t, secondary))
        }

        fn find_candidate_for_queue_reference(
            &self,
            cycle: u64,
            t: &TimingParams,
            kind: AccessKind,
        ) -> Option<Candidate> {
            // Pass 1 — FR: oldest request whose column command is ready now.
            let bus_ready = self.bus_ready(t, kind);
            if let Some((idx, _)) = self
                .queue(kind)
                .iter()
                .enumerate()
                .find(|(_, q)| self.col_command_ready(cycle, t, q, kind, bus_ready))
            {
                return Some(Candidate::Col(kind, idx));
            }

            // Pass 2 — FCFS: oldest requests' row commands (ACT or PRE).
            let mut blocked_banks = 0u64;
            self.queue(kind).iter().find_map(|q| {
                let bank = &self.banks[self.bank_index(q.loc)];
                let bit = self.bank_bit(q.loc);
                if blocked_banks & bit != 0 {
                    return None;
                }
                match bank.open_row {
                    Some(row) if row == q.loc.row => None, // waiting on tCCD/bus only
                    Some(_) => {
                        // Precharge, but not while an older request in either
                        // queue still hits the open row (row-hit friendliness).
                        if cycle >= bank.ready_pre && !self.row_has_waiting_hit(q.loc) {
                            Some(Candidate::Pre(q.loc))
                        } else {
                            blocked_banks |= bit;
                            None
                        }
                    }
                    None => {
                        if self.act_allowed(cycle, t, q.loc) {
                            Some(Candidate::Act(q.loc))
                        } else {
                            blocked_banks |= bit;
                            None
                        }
                    }
                }
            })
        }

        fn bank_bit(&self, loc: DramLocation) -> u64 {
            let id = self.bank_index(loc);
            if id < 64 {
                1u64 << id
            } else {
                0
            }
        }

        fn next_issue_cycle_reference(&self, cycle: u64, t: &TimingParams) -> u64 {
            let mut earliest = u64::MAX;
            for kind in [AccessKind::Read, AccessKind::Write] {
                let bus_ready = self.bus_ready(t, kind);
                let lead = match kind {
                    AccessKind::Read => t.t_cas,
                    AccessKind::Write => t.t_cwd,
                };
                let mut seen_row_match = 0u64; // col (open) / ACT (closed)
                let mut seen_pre = 0u64;
                for q in self.queue(kind) {
                    let bank = &self.banks[self.bank_index(q.loc)];
                    let bit = self.bank_bit(q.loc);
                    let candidate = match bank.open_row {
                        Some(row) if row == q.loc.row => {
                            if seen_row_match & bit != 0 {
                                continue;
                            }
                            seen_row_match |= bit;
                            bank.ready_col.max(bus_ready.saturating_sub(lead))
                        }
                        Some(_) => {
                            if seen_pre & bit != 0 {
                                continue;
                            }
                            seen_pre |= bit;
                            if self.row_has_waiting_hit(q.loc) {
                                continue;
                            }
                            bank.ready_pre
                        }
                        None => {
                            if seen_row_match & bit != 0 {
                                continue;
                            }
                            seen_row_match |= bit;
                            let rank = &self.ranks[q.loc.rank];
                            let mut c = bank.ready_act;
                            if rank.last_act != 0 {
                                c = c.max(rank.last_act + t.t_rrd);
                            }
                            let mut in_window = 0usize;
                            let mut oldest = u64::MAX;
                            for &at in &rank.act_window {
                                if at + t.t_faw > cycle {
                                    in_window += 1;
                                    oldest = oldest.min(at);
                                }
                            }
                            if in_window >= 4 {
                                c = c.max(oldest + t.t_faw);
                            }
                            c
                        }
                    };
                    earliest = earliest.min(candidate);
                }
            }
            earliest.max(cycle + 1)
        }

        fn row_has_waiting_hit(&self, loc: DramLocation) -> bool {
            let open = match self.banks[self.bank_index(loc)].open_row {
                Some(r) => r,
                None => return false,
            };
            self.read_q
                .iter()
                .chain(self.write_q.iter())
                .any(|q| q.loc.rank == loc.rank && q.loc.bank == loc.bank && q.loc.row == open)
        }

        fn col_command_ready(
            &self,
            cycle: u64,
            t: &TimingParams,
            q: &Queued,
            kind: AccessKind,
            bus_ready: u64,
        ) -> bool {
            let bank = &self.banks[self.bank_index(q.loc)];
            if bank.open_row != Some(q.loc.row) || cycle < bank.ready_col {
                return false;
            }
            let data_start = match kind {
                AccessKind::Read => cycle + t.t_cas,
                AccessKind::Write => cycle + t.t_cwd,
            };
            data_start >= bus_ready
        }

        fn act_allowed(&self, cycle: u64, t: &TimingParams, loc: DramLocation) -> bool {
            let bank = &self.banks[self.bank_index(loc)];
            if cycle < bank.ready_act {
                return false;
            }
            let rank = &self.ranks[loc.rank];
            if rank.last_act != 0 && cycle < rank.last_act + t.t_rrd {
                return false;
            }
            let in_window = rank
                .act_window
                .iter()
                .filter(|&&at| at + t.t_faw > cycle)
                .count();
            in_window < 4
        }
    }

    /// Two ranks of four banks, frequent refresh and low write watermarks,
    /// so row hits, conflicts, friendliness blocks, drains and refresh
    /// closures all occur within a few hundred cycles.
    fn small_config() -> DramConfig {
        DramConfig {
            channels: 1,
            ranks_per_channel: 2,
            banks_per_rank: 4,
            read_queue_capacity: 12,
            write_queue_capacity: 12,
            write_hi_watermark: 6,
            write_lo_watermark: 2,
            timing: TimingParams { t_refi: 300, t_rfc: 40, ..TimingParams::default() },
            ..DramConfig::default()
        }
    }

    /// Asserts that every bank's queued/hit counts equal a recount of the
    /// queues.
    fn assert_counts_match_queues(ch: &Channel) {
        for (b, bank) in ch.banks.iter().enumerate() {
            for kind in [AccessKind::Read, AccessKind::Write] {
                let mine = || ch.queue(kind).iter().filter(|q| q.bank == b);
                let hits = mine().filter(|q| bank.open_row == Some(q.loc.row)).count();
                assert_eq!(bank.queued[slot(kind)] as usize, mine().count(), "bank {b} {kind:?}");
                assert_eq!(bank.hits[slot(kind)] as usize, hits, "bank {b} {kind:?} hits");
                let occupied = ch.occupied[slot(kind)] >> b & 1 != 0;
                assert_eq!(occupied, mine().count() > 0, "bank {b} {kind:?} occupancy bit");
            }
        }
    }

    /// Ticks `ch` at `cycle` after checking, against the state the tick's
    /// scan will see (refresh and drain mode applied to a probe copy), that
    /// the indexed scheduler agrees with the oracle.
    fn checked_tick(ch: &mut Channel, cycle: u64, cfg: &DramConfig, stats: &mut DramStats) {
        let t = &cfg.timing;
        let mut probe = ch.clone();
        probe.handle_refresh(cycle, t, &mut DramStats::default());
        probe.update_drain_mode(cfg);
        assert_counts_match_queues(&probe);
        assert_eq!(
            probe.find_candidate(cycle, t),
            probe.find_candidate_reference(cycle, t),
            "candidate at cycle {cycle}"
        );
        assert_eq!(
            probe.next_issue_cycle(cycle, t),
            probe.next_issue_cycle_reference(cycle, t),
            "issue horizon at cycle {cycle}"
        );
        ch.tick(cycle, cfg, &mut Vec::new(), stats);
        assert_counts_match_queues(ch);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random enqueue/tick streams: each op waits `gap` cycles, then
        /// enqueues one request to a (rank, bank, row) from a small pool.
        #[test]
        fn indexed_scheduler_matches_linear_scan_oracle(
            ops in proptest::collection::vec(
                (0u64..6, any::<bool>(), 0usize..2, 0usize..4, 0u64..3),
                1..160,
            ),
        ) {
            let cfg = small_config();
            let mut ch = Channel::new(&cfg);
            let mut stats = DramStats::default();
            let mut cycle = 0;
            for (id, &(gap, is_write, rank, bank, row)) in (0u64..).zip(&ops) {
                for _ in 0..gap {
                    checked_tick(&mut ch, cycle, &cfg, &mut stats);
                    cycle += 1;
                }
                let (kind, capacity) = if is_write {
                    (AccessKind::Write, cfg.write_queue_capacity)
                } else {
                    (AccessKind::Read, cfg.read_queue_capacity)
                };
                if ch.queue(kind).len() < capacity {
                    let req = Request { id, addr: 0, kind, class: RequestClass::Data, core: 0 };
                    let loc = DramLocation { channel: 0, rank, bank, row, col: id % 8 };
                    ch.enqueue(req, loc, cycle);
                }
            }
            let deadline = cycle + 20_000;
            while ch.in_flight() > 0 {
                prop_assert!(cycle < deadline, "channel failed to drain");
                checked_tick(&mut ch, cycle, &cfg, &mut stats);
                cycle += 1;
            }
        }
    }

    #[test]
    fn sixty_four_banks_use_every_mask_bit() {
        let cfg = DramConfig { ranks_per_channel: 4, banks_per_rank: 16, ..small_config() };
        cfg.validate().unwrap();
        let mut ch = Channel::new(&cfg);
        let mut stats = DramStats::default();
        for (id, bank) in [(0u64, 0usize), (1, 15)] {
            let kind = AccessKind::Read;
            let req = Request { id, addr: 0, kind, class: RequestClass::Data, core: 0 };
            ch.enqueue(req, DramLocation { channel: 0, rank: 3, bank, row: 1, col: 0 }, 0);
        }
        let mut cycle = 0;
        while ch.in_flight() > 0 {
            assert!(cycle < 1_000, "reads to banks 48 and 63 never completed");
            checked_tick(&mut ch, cycle, &cfg, &mut stats);
            cycle += 1;
        }
        assert_eq!(stats.activates, 2);
    }
}
