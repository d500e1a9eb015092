//! A memory slice: one bank of the unified L2 cache and its memory
//! controller + GDDR3 channel.
//!
//! Every global data transaction is processed here. HAccRG's
//! shadow-table accesses (§IV-B, Fig. 6) are *not* served by the slice:
//! the passive detector charges them to per-slice port and fill counters
//! in [`crate::detector::LaunchDet`], so detection can never perturb
//! data timing. A request's `shadow_line` annotation is inert here — it
//! exists only for the §IV-B TLB trace.

use std::collections::VecDeque;

use crate::config::GpuConfig;
use crate::device::DeviceMemory;
use crate::exec::eval_atom;
use crate::mem::cache::Cache;
use crate::mem::dram::{Dram, DramReq};
use crate::mem::{MemReq, ReqKind};
use crate::trace::SimEvent;

/// One memory slice.
pub struct MemSlice {
    id: u32,
    cfg: GpuConfig,
    /// This slice's L2 bank.
    pub l2: Cache,
    /// This slice's memory controller + GDDR3 channel.
    pub dram: Dram,
    input: VecDeque<MemReq>,
    /// line → (waiting requests, dirty-on-fill)
    mshr: Vec<(u32, Vec<MemReq>, bool)>,
    /// Dirty evictions waiting for DRAM queue space.
    writeback_queue: VecDeque<u32>,
    /// Completed responses awaiting their ready time.
    ready: Vec<(u64, MemReq)>,
    /// DRAM completions of the current cycle; empty between cycles, kept
    /// so [`Dram::cycle`] appends without allocating.
    dram_done: Vec<DramReq>,
    next_dram_id: u64,
    /// Whether to record trace events (mirrors the GPU tracer's state;
    /// the slice has no tracer handle, so the GPU drains `trace_buf`).
    pub trace_on: bool,
    /// Events recorded this cycle, drained by the GPU after
    /// [`Self::cycle`]. Empty whenever `trace_on` is false.
    pub trace_buf: Vec<SimEvent>,
    /// Earliest future cycle [`Self::cycle`] can make progress, as of the
    /// last time the slice was cycled; `0` (never in the future) whenever
    /// the hint may be stale — new input invalidates it. While
    /// `now < wake_hint` a cycle call is a provable no-op, so the GPU
    /// may gate the slice out of such cycles with bit-identical results.
    pub(crate) wake_hint: u64,
}

impl MemSlice {
    /// Build slice `id`.
    pub fn new(id: u32, cfg: GpuConfig) -> Self {
        Self {
            id,
            cfg,
            l2: Cache::new(cfg.l2),
            dram: Dram::new(cfg.dram),
            input: VecDeque::new(),
            mshr: Vec::new(),
            writeback_queue: VecDeque::new(),
            ready: Vec::new(),
            dram_done: Vec::new(),
            next_dram_id: 0,
            trace_on: false,
            trace_buf: Vec::new(),
            wake_hint: 0,
        }
    }

    /// Slice ID.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// A request arrived from the interconnect.
    pub fn push_input(&mut self, req: MemReq) {
        self.input.push_back(req);
        // New work invalidates the quiescence hint.
        self.wake_hint = 0;
    }

    /// Whether all queues are drained (kernel completion check).
    pub fn idle(&self) -> bool {
        self.input.is_empty()
            && self.mshr.is_empty()
            && self.writeback_queue.is_empty()
            && self.ready.is_empty()
            && !self.dram.busy()
    }

    fn dram_read(&mut self, line: u32) {
        let id = self.next_dram_id;
        self.next_dram_id += 1;
        self.dram.push(DramReq { id, line_addr: line, is_write: false, row_hit: false });
    }

    fn handle_eviction(&mut self, ev: Option<crate::mem::cache::Eviction>) {
        if let Some(e) = ev {
            if e.dirty {
                self.writeback_queue.push_back(e.line_addr);
            }
        }
    }

    /// Advance one cycle. Atomics are functionally applied to `mem` here,
    /// in processing order — this is what serializes contended locks.
    /// Appends the responses that completed this cycle (to be sent back)
    /// to `out`, sorted by request id.
    pub fn cycle(&mut self, now: u64, mem: &mut DeviceMemory, out: &mut Vec<MemReq>) {
        // Retry pending dirty writebacks first (they only need queue space).
        while let Some(&line) = self.writeback_queue.front() {
            if !self.dram.can_accept() {
                break;
            }
            let id = self.next_dram_id;
            self.next_dram_id += 1;
            self.dram.push(DramReq { id, line_addr: line, is_write: true, row_hit: false });
            self.writeback_queue.pop_front();
        }

        // One L2 port access per cycle.
        self.process_data(now, mem);

        // DRAM progress.
        let prof_dram = crate::prof::scope(crate::prof::Phase::Dram);
        let mut completions = std::mem::take(&mut self.dram_done);
        self.dram.cycle(now, &mut completions);
        for c in completions.drain(..) {
            if self.trace_on {
                self.trace_buf.push(SimEvent::DramAccess {
                    slice: self.id,
                    line: c.line_addr,
                    write: c.is_write,
                    row_hit: c.row_hit,
                });
            }
            if c.is_write {
                continue;
            }
            // Which MSHR entry does this fill?
            if let Some(pos) = self.mshr.iter().position(|(l, _, _)| *l == c.line_addr) {
                let (line, waiters, dirty) = self.mshr.swap_remove(pos);
                let ev = self.l2.fill(line, dirty, now);
                self.handle_eviction(ev);
                for w in waiters {
                    self.ready.push((now + 1, w));
                }
            }
        }
        self.dram_done = completions;
        drop(prof_dram);

        // Release responses whose time has come.
        let released = out.len();
        let mut i = 0;
        while i < self.ready.len() {
            if self.ready[i].0 <= now {
                out.push(self.ready.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        out[released..].sort_by_key(|r| r.id);
        self.wake_hint = self.next_event(now);
    }

    /// Earliest future cycle at which [`Self::cycle`] could do real work,
    /// evaluated right after a cycle at `now` (so every event is
    /// `> now`); `u64::MAX` when the slice is drained. "Real work" means
    /// releasing a matured response, DRAM scheduling or completion,
    /// retrying a writeback, or serving a head request through the L2
    /// port.
    fn next_event(&self, now: u64) -> u64 {
        let mut t = u64::MAX;
        for &(at, _) in &self.ready {
            t = t.min(at);
        }
        if let Some(d) = self.dram.next_event(now) {
            t = t.min(d);
        }
        if !self.writeback_queue.is_empty() && self.dram.can_accept() {
            t = t.min(now + 1);
        }
        if self.head_can_progress(self.input.front().map(|r| r.line_addr)) {
            t = t.min(now + 1);
        }
        t
    }

    /// Whether a head request for `line` would get through the L2 port:
    /// the exact inverse of the head-blockage checks in
    /// [`Self::process_data`] (hit, merged into an outstanding fill, or
    /// free MSHR + DRAM queue space).
    fn head_can_progress(&self, line: Option<u32>) -> bool {
        let Some(line) = line else { return false };
        self.l2.contains(line)
            || self.mshr.iter().any(|(l, _, _)| *l == line)
            || (self.dram.can_accept() && self.mshr.len() < self.cfg.l2.mshrs as usize)
    }

    /// Process one data request. Returns whether the L2 port was used.
    fn process_data(&mut self, now: u64, mem: &mut DeviceMemory) -> bool {
        let Some(req) = self.input.front() else { return false };

        // Backpressure: a miss needs MSHR + DRAM queue space.
        let line = req.line_addr;
        let needs_mshr = !self.l2.contains(line);
        if needs_mshr
            && !self.mshr.iter().any(|(l, _, _)| *l == line)
            && (!self.dram.can_accept() || self.mshr.len() >= self.cfg.l2.mshrs as usize)
        {
            return false;
        }

        let mut req = self.input.pop_front().expect("checked above");

        // Atomics: functional read-modify-write in lane order, right now.
        if let ReqKind::Atomic { ops, .. } = &req.kind {
            for op in ops {
                let old = mem.read_u32(op.addr);
                let new = eval_atom(op.op, old, op.src, op.src2);
                mem.write_u32(op.addr, new);
                req.atomic_old.push((op.lane, old));
            }
        }

        let is_write = req.kind.is_write();
        let hit = self.l2.probe(line, is_write, now);
        if self.trace_on {
            self.trace_buf.push(SimEvent::L2Access { slice: self.id, line, hit, shadow: false });
        }
        // Every request kind is answered: load data, a store ack, or an
        // atomic's old values.
        if hit {
            self.ready.push((now + u64::from(self.cfg.l2.hit_latency), req));
        } else {
            // Miss: join or open an MSHR entry; write-allocate marks the
            // fill dirty.
            if let Some(entry) = self.mshr.iter_mut().find(|(l, _, _)| *l == line) {
                entry.2 |= is_write;
                entry.1.push(req);
            } else {
                self.mshr.push((line, vec![req], is_write));
                self.dram_read(line);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::LaneAtomic;
    use crate::isa::AtomOp;

    fn slice() -> MemSlice {
        MemSlice::new(0, GpuConfig::test_small())
    }

    fn mem() -> DeviceMemory {
        DeviceMemory::new(1 << 20)
    }

    fn load(id: u64, line: u32) -> MemReq {
        MemReq {
            id,
            line_addr: line,
            bytes: 128,
            sm: 0,
            warp_slot: 0,
            gwarp: 0,
            kind: ReqKind::LoadData,
            shadow_line: None,
            atomic_old: Vec::new(),
        }
    }

    fn run(s: &mut MemSlice, m: &mut DeviceMemory, from: u64, max: u64) -> Vec<(u64, MemReq)> {
        let mut out = Vec::new();
        let mut done = Vec::new();
        for now in from..from + max {
            s.cycle(now, m, &mut done);
            out.extend(done.drain(..).map(|r| (now, r)));
            if s.idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn load_miss_goes_to_dram_then_hits() {
        let mut s = slice();
        let mut m = mem();
        s.push_input(load(1, 0x1000));
        let done = run(&mut s, &mut m, 0, 1000);
        assert_eq!(done.len(), 1);
        let miss_time = done[0].0;

        // Second load to the same line: L2 hit, much faster.
        s.push_input(load(2, 0x1000));
        let t0 = miss_time + 10;
        let done2 = run(&mut s, &mut m, t0, 1000);
        let hit_latency = done2[0].0 - t0;
        assert!(hit_latency < miss_time, "hit {hit_latency} vs miss {miss_time}");
        assert_eq!(s.l2.stats.hits, 1);
    }

    #[test]
    fn merged_misses_share_one_fill() {
        let mut s = slice();
        let mut m = mem();
        s.push_input(load(1, 0x2000));
        s.push_input(load(2, 0x2000));
        let done = run(&mut s, &mut m, 0, 1000);
        assert_eq!(done.len(), 2);
        assert_eq!(s.dram.stats.reads, 1, "one DRAM read services both");
    }

    #[test]
    fn store_ack_after_write_allocate() {
        let mut s = slice();
        let mut m = mem();
        let mut w = load(1, 0x3000);
        w.kind = ReqKind::StoreData;
        s.push_input(w);
        let done = run(&mut s, &mut m, 0, 1000);
        assert_eq!(done.len(), 1, "store acked");
        assert!(matches!(done[0].1.kind, ReqKind::StoreData));
        // The allocated line is dirty: evicting it writes back.
        assert!(s.l2.contains(0x3000));
    }

    #[test]
    fn atomics_serialize_in_lane_order() {
        let mut s = slice();
        let mut m = mem();
        m.write_u32(0x4000, 10);
        let ops = vec![
            LaneAtomic { lane: 0, addr: 0x4000, op: AtomOp::Add, src: 1, src2: 0 },
            LaneAtomic { lane: 1, addr: 0x4000, op: AtomOp::Add, src: 1, src2: 0 },
        ];
        let mut a = load(1, 0x4000);
        a.kind = ReqKind::Atomic { ops, dreg: 0 };
        s.push_input(a);
        let done = run(&mut s, &mut m, 0, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(m.read_u32(0x4000), 12);
        assert_eq!(done[0].1.atomic_old, vec![(0, 10), (1, 11)]);
    }

    #[test]
    fn shadow_annotations_are_inert_at_the_slice() {
        // Passive detection: a request carrying shadow annotations must
        // complete on exactly the same cycle as a bare one and generate
        // no extra cache or DRAM traffic.
        let mut bare_s = slice();
        let mut bare_m = mem();
        bare_s.push_input(load(1, 0x5000));
        let bare = run(&mut bare_s, &mut bare_m, 0, 2000);

        let mut s = slice();
        let mut m = mem();
        let mut r = load(1, 0x5000);
        r.shadow_line = Some(0x80_0000);
        s.push_input(r);
        let done = run(&mut s, &mut m, 0, 2000);

        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, bare[0].0, "annotation changed completion time");
        assert_eq!(s.dram.stats.reads, bare_s.dram.stats.reads);
        assert!(!s.l2.contains(0x80_0000), "shadow lines must not allocate in L2");
    }

    #[test]
    fn dirty_evictions_write_back_to_dram() {
        let mut s = slice();
        let mut m = mem();
        // Fill many distinct lines mapping across the small L2 with dirty
        // shadow accesses until evictions occur.
        let mut now = 0;
        for (id, i) in (1..).zip(0..512u32) {
            let mut r = load(id, 0x10_0000 + i * 128);
            r.kind = ReqKind::StoreData;
            s.push_input(r);
            // Drain periodically to keep queues small.
            let done = run(&mut s, &mut m, now, 4000);
            now = done.last().map(|(t, _)| *t + 1).unwrap_or(now) + 1;
        }
        assert!(s.dram.stats.writes > 0, "dirty L2 evictions reached DRAM");
    }
}
