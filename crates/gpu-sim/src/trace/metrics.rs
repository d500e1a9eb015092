//! Cycle-sampled metrics: periodic delta snapshots of the launch's
//! statistics, per SM and per memory slice, written as a JSON time
//! series by [`metrics_json`].
//!
//! Every sample covers the half-open cycle interval
//! `(start_cycle, end_cycle]` and holds the counter *deltas* accumulated
//! in it, so summing a launch's samples with [`SimStats::accumulate`]
//! reproduces the launch's final aggregate exactly (the sampler always
//! flushes a final partial interval).

use haccrg::json::Value;
use haccrg::json_object;
use haccrg::prelude::DetectorHealth;

use crate::stats::{CacheStats, DramStats, SimStats};

/// One sampling interval of a launch.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSample {
    /// Launch sequence number the interval belongs to.
    pub launch: u32,
    /// First cycle of the interval (exclusive).
    pub start_cycle: u64,
    /// Last cycle of the interval (inclusive).
    pub end_cycle: u64,
    /// Aggregate counter deltas over the interval.
    pub delta: SimStats,
    /// Per-SM L1 counter deltas over the interval.
    pub per_sm_l1: Vec<CacheStats>,
    /// Per-slice L2 counter deltas over the interval.
    pub per_slice_l2: Vec<CacheStats>,
    /// Per-slice DRAM counter deltas over the interval.
    pub per_slice_dram: Vec<DramStats>,
    /// Interconnect packets in flight at the sample instant (gauge, not
    /// a delta).
    pub icnt_in_flight: u64,
    /// Cycles fast-forwarded inside the interval (delta). Zero in dense
    /// mode — the only sample field allowed to differ between dense and
    /// skipping runs (along with `skip_jumps`).
    pub cycles_skipped: u64,
    /// Fast-forward jumps taken inside the interval (delta).
    pub skip_jumps: u64,
    /// Per-SM quiescent cycles inside the interval (delta); identical in
    /// dense and skipping modes.
    pub per_sm_idle_cycles: Vec<u64>,
}

/// A time series of samples as a JSON array, one sample per line; each
/// sample's `delta` carries every [`SimStats`] counter under its field
/// name.
pub fn metrics_json(samples: &[MetricsSample]) -> String {
    let rows: Vec<String> = samples.iter().map(|s| sample_json(s).to_string()).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Delta bookkeeping for one launch: remembers the previous aggregate
/// and per-unit snapshots so each sample carries only its interval.
#[derive(Clone, Debug)]
pub(crate) struct LaunchSampler {
    every: u64,
    launch: u32,
    last_cycle: u64,
    prev: SimStats,
    prev_sm_l1: Vec<CacheStats>,
    prev_l2: Vec<CacheStats>,
    prev_dram: Vec<DramStats>,
    prev_skip: (u64, u64),
    prev_idle: Vec<u64>,
}

impl LaunchSampler {
    pub(crate) fn new(every: u64, launch: u32, num_sms: usize, num_slices: usize) -> Self {
        Self {
            every: every.max(1),
            launch,
            last_cycle: 0,
            prev: SimStats::default(),
            prev_sm_l1: vec![CacheStats::default(); num_sms],
            prev_l2: vec![CacheStats::default(); num_slices],
            prev_dram: vec![DramStats::default(); num_slices],
            prev_skip: (0, 0),
            prev_idle: vec![0; num_sms],
        }
    }

    /// Whether a sample is due at cycle `now`.
    pub(crate) fn due(&self, now: u64) -> bool {
        now >= self.last_cycle + self.every
    }

    /// The sampling interval — `last_cycle() + every()` is the next
    /// sample boundary, which caps fast-forward jumps so every interval
    /// is cut at exactly the cycle the dense loop would cut it.
    pub(crate) fn every(&self) -> u64 {
        self.every
    }

    /// Start of the interval currently accumulating (the cycle the last
    /// sample was cut at). Lets the caller skip a zero-width final flush.
    pub(crate) fn last_cycle(&self) -> u64 {
        self.last_cycle
    }

    /// Cut a sample at `now` from instantaneous aggregate/per-unit
    /// snapshots, advancing the interval start.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn snap(
        &mut self,
        now: u64,
        agg: &SimStats,
        sm_l1: &[CacheStats],
        l2: &[CacheStats],
        dram: &[DramStats],
        icnt_in_flight: u64,
        skip: (u64, u64),
        idle: &[u64],
    ) -> MetricsSample {
        let sample = MetricsSample {
            launch: self.launch,
            start_cycle: self.last_cycle,
            end_cycle: now,
            delta: agg.delta(&self.prev),
            per_sm_l1: sm_l1.iter().zip(&self.prev_sm_l1).map(|(c, p)| c.delta(p)).collect(),
            per_slice_l2: l2.iter().zip(&self.prev_l2).map(|(c, p)| c.delta(p)).collect(),
            per_slice_dram: dram.iter().zip(&self.prev_dram).map(|(c, p)| c.delta(p)).collect(),
            icnt_in_flight,
            cycles_skipped: skip.0.saturating_sub(self.prev_skip.0),
            skip_jumps: skip.1.saturating_sub(self.prev_skip.1),
            per_sm_idle_cycles: idle
                .iter()
                .zip(&self.prev_idle)
                .map(|(c, p)| c.saturating_sub(*p))
                .collect(),
        };
        self.prev = agg.clone();
        self.prev_sm_l1.copy_from_slice(sm_l1);
        self.prev_l2.copy_from_slice(l2);
        self.prev_dram.copy_from_slice(dram);
        self.prev_skip = skip;
        self.prev_idle.clear();
        self.prev_idle.extend_from_slice(idle);
        self.last_cycle = now;
        sample
    }
}

fn sample_json(s: &MetricsSample) -> Value {
    let caches = |v: &[CacheStats]| v.iter().map(cache_json).collect::<Vec<_>>();
    json_object!(MetricsSample {
        launch: *launch, start_cycle: *start_cycle, end_cycle: *end_cycle, delta: stats_json(delta),
        per_sm_l1: caches(per_sm_l1), per_slice_l2: caches(per_slice_l2),
        per_slice_dram: per_slice_dram.iter().map(dram_json).collect::<Vec<_>>(),
        icnt_in_flight: *icnt_in_flight, cycles_skipped: *cycles_skipped, skip_jumps: *skip_jumps,
        per_sm_idle_cycles: per_sm_idle_cycles.clone(),
    } = s)
}

fn cache_json(c: &CacheStats) -> Value {
    json_object!(CacheStats { accesses, hits, misses, evictions, dirty_writebacks } = *c)
}

fn dram_json(d: &DramStats) -> Value {
    json_object!(DramStats { reads, writes, row_hits, row_misses, activates, bus_busy_cycles } = *d)
}

fn stats_json(s: &SimStats) -> Value {
    json_object!(SimStats {
        cycles, warp_instructions, thread_instructions, shared_insts, global_insts, shared_loads,
        shared_stores, global_loads, global_stores, atomics, barriers, fences, bank_conflict_cycles,
        global_transactions, l1: cache_json(&l1), l2: cache_json(&l2), dram: dram_json(&dram),
        icnt_flits, shadow_l2_accesses, probe_packets, shared_shadow_l1_accesses,
        shadow_reset_stall_cycles, l1_mshr_full_stalls, mem_faults, detector_skipped_checks,
        health: json_object!(DetectorHealth {
            bloom_insert_aliased, bloom_null_intersections, bloom_nonnull_intersections,
            bloom_suppressed_conflicts, id_truncation_collisions, shadow_fresh_on_mismatch,
            shadow_pages_allocated, log_dropped,
        } = health),
    } = *s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(cycles: u64, insts: u64) -> SimStats {
        SimStats { cycles, warp_instructions: insts, ..Default::default() }
    }

    #[test]
    fn deltas_telescope_to_the_final_aggregate() {
        let mut s = LaunchSampler::new(10, 0, 2, 2);
        let l1 = [CacheStats::default(); 2];
        let l2 = [CacheStats::default(); 2];
        let dr = [DramStats::default(); 2];
        let a = s.snap(10, &agg(10, 4), &l1, &l2, &dr, 0, (0, 0), &[0; 2]);
        let b = s.snap(20, &agg(20, 9), &l1, &l2, &dr, 0, (3, 1), &[2, 2]);
        let fin = s.snap(25, &agg(25, 11), &l1, &l2, &dr, 0, (5, 2), &[4, 3]);
        let mut sum = SimStats::default();
        for smp in [&a, &b, &fin] {
            sum.accumulate(&smp.delta);
        }
        assert_eq!(sum, agg(25, 11));
        assert_eq!(a.start_cycle, 0);
        assert_eq!(b.start_cycle, 10);
        assert_eq!(b.delta.warp_instructions, 5);
        assert_eq!(fin.end_cycle, 25);
        assert_eq!(b.cycles_skipped, 3);
        assert_eq!(b.skip_jumps, 1);
        assert_eq!(fin.cycles_skipped, 2);
        assert_eq!(fin.per_sm_idle_cycles, vec![2, 1]);
    }

    #[test]
    fn due_respects_the_interval() {
        let s = LaunchSampler::new(64, 0, 1, 1);
        assert!(!s.due(63));
        assert!(s.due(64));
    }

    #[test]
    fn per_unit_deltas_are_tracked_independently() {
        let mut s = LaunchSampler::new(1, 0, 2, 1);
        let l1a = [
            CacheStats { accesses: 5, hits: 5, ..Default::default() },
            CacheStats { accesses: 1, ..Default::default() },
        ];
        let _ = s.snap(1, &agg(1, 0), &l1a, &[CacheStats::default()], &[DramStats::default()], 0, (0, 0), &[0; 2]);
        let l1b = [
            CacheStats { accesses: 9, hits: 8, ..Default::default() },
            CacheStats { accesses: 1, ..Default::default() },
        ];
        let smp = s.snap(2, &agg(2, 0), &l1b, &[CacheStats::default()], &[DramStats::default()], 3, (0, 0), &[0; 2]);
        assert_eq!(smp.per_sm_l1[0].accesses, 4);
        assert_eq!(smp.per_sm_l1[0].hits, 3);
        assert_eq!(smp.per_sm_l1[1].accesses, 0);
        assert_eq!(smp.icnt_in_flight, 3);
    }

    #[test]
    fn metrics_json_is_parseable() {
        let mut s = LaunchSampler::new(1, 2, 1, 1);
        let smp = s.snap(5, &agg(5, 3), &[CacheStats::default()], &[CacheStats::default()], &[DramStats::default()], 0, (0, 0), &[0; 1]);
        let text = metrics_json(&[smp]);
        let v = haccrg::json::parse(&text).unwrap();
        assert_eq!(v[0]["launch"], 2);
        assert_eq!(v[0]["end_cycle"], 5);
        assert_eq!(v[0]["delta"]["warp_instructions"], 3);
    }
}
