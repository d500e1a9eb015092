//! Intra-launch parallel execution engine (level 2 of the two-level
//! parallelism story; level 1 is the sweep runner in `bench`).
//!
//! A [`CyclePool`] owns a set of scoped worker threads, each fed one
//! contiguous chunk of SMs per cycle. Workers run
//! [`Sm::cycle_compute`] against read-only snapshots — an
//! `Arc<DeviceMemory>` and (when detection is on) an `Arc<ClockFile>` —
//! and buffer every cross-SM effect into the chunk's
//! [`CycleOutput`]s. The coordinator reassembles chunks in SM-id order
//! and replays the buffers serially, so results are bit-identical to
//! serial execution regardless of worker count or OS scheduling (the
//! determinism contract; enforced by `tests/parallel_determinism.rs`).
//!
//! Workers are persistent for the whole launch: one `mpsc` round trip
//! per worker per cycle, no per-cycle thread spawns. Each worker drops
//! its snapshot `Arc`s *before* reporting completion, so once the
//! coordinator has received every chunk, `Arc::get_mut` on the memory
//! and clock file is guaranteed to succeed.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;

use haccrg::prelude::ClockFile;

use crate::detector::DetStatics;
use crate::device::DeviceMemory;
use crate::sm::{CycleOutput, LaunchContext, Sm};

/// One cycle's work for one worker: a contiguous chunk of SMs plus the
/// read-only snapshots the compute phase needs.
struct Job {
    now: u64,
    /// Global index of the first SM in this chunk, used to reassemble
    /// results in SM-id order.
    base: usize,
    /// Whether quiescent SMs (`now < wake_hint`) may skip their compute
    /// call this cycle (the `GpuConfig::cycle_skip` fast path). Gating is
    /// decided per SM from SM-local state, so results stay independent of
    /// the worker count, and the coordinator applies exactly the SMs it
    /// knows were computed.
    gate: bool,
    mem: Arc<DeviceMemory>,
    det: Option<(Arc<ClockFile>, DetStatics)>,
    sms: Vec<Sm>,
    outs: Vec<CycleOutput>,
}

/// A finished chunk on its way back to the coordinator.
struct Done {
    base: usize,
    sms: Vec<Sm>,
    outs: Vec<CycleOutput>,
}

/// Persistent worker pool for the compute phase of each cycle. Workers
/// exit when the pool is dropped (their job channels disconnect), which
/// is what lets the owning `thread::scope` join them.
pub(crate) struct CyclePool {
    to_workers: Vec<Sender<Job>>,
    from_workers: Receiver<Done>,
}

impl CyclePool {
    /// Spawn `workers` compute threads inside `scope`. `ctx` must outlive
    /// the scope (it is shared read-only by every worker).
    pub(crate) fn start<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        ctx: &'env LaunchContext,
        workers: usize,
    ) -> Self {
        let (done_tx, from_workers) = channel::<Done>();
        let mut to_workers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (job_tx, job_rx) = channel::<Job>();
            let done = done_tx.clone();
            scope.spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    let Job { now, base, gate, mem, det, mut sms, mut outs } = job;
                    // Worker-side profiling: this thread has no enclosing
                    // phase, so the chunk's compute time lands under
                    // `sm_compute` at the root. Summed across workers it
                    // can exceed the coordinator's wall-clock; attribution
                    // percentages are exact on serial runs.
                    let prof_chunk = crate::prof::scope(crate::prof::Phase::SmCompute);
                    for (sm, out) in sms.iter_mut().zip(outs.iter_mut()) {
                        if !(gate && now < sm.wake_hint) {
                            out.clear();
                            let view = det.as_ref().map(|(clocks, st)| st.view(clocks));
                            sm.cycle_compute(now, ctx, &mem, view, out);
                        }
                    }
                    drop(prof_chunk);
                    // Release the snapshots before signalling completion:
                    // the coordinator's `Arc::get_mut` in the apply phase
                    // relies on every clone being gone once all chunks
                    // are received.
                    drop(mem);
                    drop(det);
                    if done.send(Done { base, sms, outs }).is_err() {
                        break;
                    }
                }
            });
            to_workers.push(job_tx);
        }
        Self { to_workers, from_workers }
    }

    /// Fan one compute phase over the pool and reassemble `sms`/`outs`
    /// in SM-id order. Blocks until every chunk is back.
    pub(crate) fn run_cycle(
        &self,
        now: u64,
        gate: bool,
        mem: &Arc<DeviceMemory>,
        det: Option<(&Arc<ClockFile>, DetStatics)>,
        sms: &mut Vec<Sm>,
        outs: &mut Vec<CycleOutput>,
    ) {
        let total = sms.len();
        let workers = self.to_workers.len().min(total).max(1);
        let base_sz = total / workers;
        let extra = total % workers;

        let mut rest_sms = std::mem::take(sms);
        let mut rest_outs = std::mem::take(outs);
        let mut start = 0usize;
        for (w, tx) in self.to_workers.iter().take(workers).enumerate() {
            let len = base_sz + usize::from(w < extra);
            let tail_sms = rest_sms.split_off(len);
            let tail_outs = rest_outs.split_off(len);
            let job = Job {
                now,
                base: start,
                gate,
                mem: Arc::clone(mem),
                det: det.map(|(clocks, st)| (Arc::clone(clocks), st)),
                sms: rest_sms,
                outs: rest_outs,
            };
            tx.send(job).expect("cycle worker alive");
            rest_sms = tail_sms;
            rest_outs = tail_outs;
            start += len;
        }
        debug_assert!(rest_sms.is_empty() && rest_outs.is_empty());

        let mut dones: Vec<Done> = (0..workers)
            .map(|_| self.from_workers.recv().expect("cycle worker alive"))
            .collect();
        // Chunks complete in any order; SM-id order is restored here, so
        // the apply phase is oblivious to scheduling.
        dones.sort_by_key(|d| d.base);
        for d in dones {
            sms.extend(d.sms);
            outs.extend(d.outs);
        }
    }
}
