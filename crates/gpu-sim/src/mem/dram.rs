//! GDDR3 DRAM channel with an out-of-order FR-FCFS memory controller
//! (Table I: "Out-of-Order (FR-FCFS)" scheduling, per-slice controller).
//!
//! Each memory slice owns one channel with `banks` banks and per-bank row
//! buffers. The scheduler prefers row-buffer hits over older requests
//! (first-ready), falling back to the oldest schedulable request
//! (first-come-first-serve). Completion latency follows the row state:
//! hit = CAS + burst; closed row = RCD + CAS + burst; conflict adds the
//! precharge. The shared data bus serializes bursts and its busy cycles
//! are the Fig. 9 bandwidth-utilization numerator.

use std::collections::VecDeque;

use crate::config::DramConfig;
use crate::stats::DramStats;

/// A line-sized DRAM request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct DramReq {
    pub id: u64,
    pub line_addr: u32,
    pub is_write: bool,
    /// Filled in by the controller when the request is scheduled: whether
    /// it hit the bank's open row (observability only — timing is charged
    /// inside [`Dram::cycle`] regardless).
    pub row_hit: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u32>,
    busy_until: u64,
    /// Earliest cycle the open row may be precharged (tRAS).
    ras_until: u64,
}

/// One DRAM channel.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    queue: VecDeque<DramReq>,
    in_flight: Vec<(u64, DramReq)>,
    bus_free_at: u64,
    /// Bandwidth/row-buffer counters.
    pub stats: DramStats,
}

impl Dram {
    /// New channel.
    pub fn new(cfg: DramConfig) -> Self {
        Self {
            cfg,
            banks: vec![Bank::default(); cfg.banks as usize],
            queue: VecDeque::new(),
            in_flight: Vec::new(),
            bus_free_at: 0,
            stats: DramStats::default(),
        }
    }

    fn bank_of(&self, line_addr: u32) -> usize {
        ((line_addr / self.cfg.row_bytes) % self.cfg.banks) as usize
    }

    fn row_of(&self, line_addr: u32) -> u32 {
        line_addr / self.cfg.row_bytes / self.cfg.banks
    }

    /// Whether the controller queue can accept another request.
    pub fn can_accept(&self) -> bool {
        (self.queue.len() as u32) < self.cfg.queue_size
    }

    /// Enqueue a request (caller must respect [`Self::can_accept`]).
    pub fn push(&mut self, req: DramReq) {
        debug_assert!(self.can_accept());
        self.queue.push_back(req);
    }

    /// Outstanding work (queued + in flight).
    pub fn busy(&self) -> bool {
        !self.queue.is_empty() || !self.in_flight.is_empty()
    }

    /// Earliest future cycle (> `now`) at which [`Self::cycle`] can do
    /// anything: the soonest in-flight completion, or the soonest cycle a
    /// queued request's bank frees up so the scheduler could pick it.
    /// `None` when the channel is fully idle. The scheduler issues at
    /// most one request per cycle, so a request whose bank is already
    /// free is an event at `now + 1` — the caller re-evaluates after
    /// every active cycle, which covers same-cycle contention.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut t = u64::MAX;
        for &(at, _) in &self.in_flight {
            t = t.min(at);
        }
        for r in &self.queue {
            let bank = &self.banks[self.bank_of(r.line_addr)];
            t = t.min(bank.busy_until.max(now + 1));
        }
        (t != u64::MAX).then_some(t)
    }

    /// Advance one cycle: maybe schedule one request (FR-FCFS) and append
    /// the requests whose data completed this cycle to `out`, sorted by
    /// id.
    pub fn cycle(&mut self, now: u64, out: &mut Vec<DramReq>) {
        self.schedule(now);
        let first = out.len();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                out.push(self.in_flight.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        // Deterministic completion order.
        out[first..].sort_by_key(|r| r.id);
    }

    fn schedule(&mut self, now: u64) {
        // FR-FCFS: first pass looks for the oldest row-buffer *hit* whose
        // bank is free; second pass takes the oldest request with a free
        // bank.
        let pick = self
            .queue
            .iter()
            .position(|r| {
                let b = &self.banks[self.bank_of(r.line_addr)];
                b.busy_until <= now && b.open_row == Some(self.row_of(r.line_addr))
            })
            .or_else(|| {
                self.queue
                    .iter()
                    .position(|r| self.banks[self.bank_of(r.line_addr)].busy_until <= now)
            });
        let Some(idx) = pick else { return };
        let mut req = self.queue.remove(idx).expect("index valid");
        let bank_idx = self.bank_of(req.line_addr);
        let row = self.row_of(req.line_addr);
        let cfg = self.cfg;
        let bank = &mut self.banks[bank_idx];

        let mut t = now;
        match bank.open_row {
            Some(r) if r == row => {
                self.stats.row_hits += 1;
                req.row_hit = true;
            }
            Some(_) => {
                // Row conflict: precharge (after tRAS) + activate.
                self.stats.row_misses += 1;
                self.stats.activates += 1;
                t = t.max(bank.ras_until) + u64::from(cfg.t_rp) + u64::from(cfg.t_rcd);
                bank.ras_until = t + u64::from(cfg.t_ras);
            }
            None => {
                self.stats.row_misses += 1;
                self.stats.activates += 1;
                t += u64::from(cfg.t_rcd);
                bank.ras_until = t + u64::from(cfg.t_ras);
            }
        }
        bank.open_row = Some(row);

        // CAS latency, then the burst on the shared data bus.
        let cas_done = t + u64::from(cfg.t_cl);
        let burst_start = cas_done.max(self.bus_free_at);
        let done_at = burst_start + u64::from(cfg.burst_cycles);
        self.bus_free_at = done_at;
        self.stats.bus_busy_cycles += u64::from(cfg.burst_cycles);
        bank.busy_until = done_at;

        if req.is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.in_flight.push((done_at, req));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn dram() -> Dram {
        Dram::new(GpuConfig::quadro_fx5800().dram)
    }

    fn run_until_done(d: &mut Dram, mut now: u64) -> Vec<(u64, DramReq)> {
        let (mut out, mut done) = (Vec::new(), Vec::new());
        for _ in 0..10_000 {
            d.cycle(now, &mut done);
            out.extend(done.drain(..).map(|r| (now, r)));
            if !d.busy() {
                break;
            }
            now += 1;
        }
        out
    }

    #[test]
    fn single_read_latency_is_rcd_cl_burst() {
        let mut d = dram();
        d.push(DramReq { id: 1, line_addr: 0, is_write: false, row_hit: false });
        let done = run_until_done(&mut d, 0);
        assert_eq!(done.len(), 1);
        let cfg = GpuConfig::quadro_fx5800().dram;
        let expect = u64::from(cfg.t_rcd + cfg.t_cl + cfg.burst_cycles);
        assert_eq!(done[0].0, expect);
        assert_eq!(d.stats.reads, 1);
        assert_eq!(d.stats.activates, 1);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let cfg = GpuConfig::quadro_fx5800().dram;
        // Same row (consecutive lines within row_bytes).
        let mut d = dram();
        d.push(DramReq { id: 1, line_addr: 0, is_write: false, row_hit: false });
        d.push(DramReq { id: 2, line_addr: 128, is_write: false, row_hit: false });
        let done = run_until_done(&mut d, 0);
        let hit_finish = done[1].0;
        assert_eq!(d.stats.row_hits, 1);

        // Conflicting rows in the same bank (stride = row_bytes × banks).
        let mut d2 = dram();
        d2.push(DramReq { id: 1, line_addr: 0, is_write: false, row_hit: false });
        d2.push(DramReq { id: 2, line_addr: cfg.row_bytes * cfg.banks, is_write: false, row_hit: false });
        let done2 = run_until_done(&mut d2, 0);
        let conflict_finish = done2[1].0;
        assert_eq!(d2.stats.row_misses, 2);
        assert!(conflict_finish > hit_finish, "{conflict_finish} vs {hit_finish}");
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let cfg = GpuConfig::quadro_fx5800().dram;
        let mut d = dram();
        // Open row 0 of bank 0.
        d.push(DramReq { id: 1, line_addr: 0, is_write: false, row_hit: false });
        let _ = run_until_done(&mut d, 0);
        // Now queue: conflict first (older), then a row hit.
        d.push(DramReq { id: 2, line_addr: cfg.row_bytes * cfg.banks, is_write: false, row_hit: false });
        d.push(DramReq { id: 3, line_addr: 128, is_write: false, row_hit: false });
        let done = run_until_done(&mut d, 1000);
        assert_eq!(done[0].1.id, 3, "row hit scheduled first despite being younger");
        assert_eq!(done[1].1.id, 2);
    }

    #[test]
    fn banks_operate_in_parallel() {
        let cfg = GpuConfig::quadro_fx5800().dram;
        let mut d = dram();
        // Two requests in different banks.
        d.push(DramReq { id: 1, line_addr: 0, is_write: false, row_hit: false });
        d.push(DramReq { id: 2, line_addr: cfg.row_bytes, is_write: false, row_hit: false });
        let done = run_until_done(&mut d, 0);
        // Second finishes just one burst later (bus serialization), not a
        // full access later.
        assert!(done[1].0 - done[0].0 <= u64::from(cfg.burst_cycles) + 1,
            "{} then {}", done[0].0, done[1].0);
    }

    #[test]
    fn bus_busy_counts_bursts() {
        let mut d = dram();
        for i in 0..4 {
            d.push(DramReq { id: i, line_addr: i as u32 * 128, is_write: i % 2 == 0, row_hit: false });
        }
        run_until_done(&mut d, 0);
        let cfg = GpuConfig::quadro_fx5800().dram;
        assert_eq!(d.stats.bus_busy_cycles, 4 * u64::from(cfg.burst_cycles));
        assert_eq!(d.stats.reads + d.stats.writes, 4);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut d = dram();
        let cap = GpuConfig::quadro_fx5800().dram.queue_size;
        for i in 0..cap {
            assert!(d.can_accept());
            d.push(DramReq { id: u64::from(i), line_addr: i * 128, is_write: false, row_hit: false });
        }
        assert!(!d.can_accept());
    }
}
