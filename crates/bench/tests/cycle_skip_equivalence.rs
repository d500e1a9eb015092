//! The fast-forward contract: event-driven cycle skipping is
//! bit-identical to the dense loop. Every bundled workload is run dense
//! and skipping, and every observable output is compared: final
//! statistics (including cycle counts and the detector health
//! counters), race logs (records, static groups, witness timelines,
//! totals, dedup counts), sync/fence ID high-water marks, live
//! device-memory contents, the full traced event stream, and the
//! cycle-sampled metrics series (modulo the two skip-accounting
//! counters, which are the only fields allowed to differ). See
//! DESIGN.md, "Event-driven cycle skipping".

use gpu_sim::device::HEAP_BASE;
use gpu_sim::prelude::*;
use haccrg::config::DetectorConfig;
use haccrg::prelude::{RaceGroup, RaceRecord, WitnessEvent};
use haccrg_workloads::runner::run_instance;
use haccrg_workloads::{all_benchmarks, Benchmark, Scale};

/// Everything a run exposes to the outside world.
struct Observed {
    stats: SimStats,
    race_records: Vec<RaceRecord>,
    race_groups: Vec<RaceGroup>,
    /// Per-record witness timelines (index-aligned with `race_records`).
    witnesses: Vec<Vec<WitnessEvent>>,
    races_total: u64,
    max_sync_id: u8,
    max_fence_id: u8,
    /// Live heap `[HEAP_BASE, alloc_ptr)` after the last launch.
    mem: Vec<u8>,
    events: Vec<(u64, SimEvent)>,
    samples: Vec<MetricsSample>,
    skip: SkipStats,
}

fn observe(bench: &dyn Benchmark, detect: bool, cycle_skip: bool) -> Observed {
    let mut cfg = GpuConfig::quadro_fx5800();
    cfg.cycle_skip = cycle_skip;
    let mut gpu = Gpu::new(cfg);
    if detect {
        // Witness capture on: the timelines (and the health counters in
        // SimStats) are observables too, and must not depend on skipping.
        let mut det = DetectorConfig::paper_default();
        det.witness_capture = true;
        gpu.set_detector(Some(det));
    }
    let rec = RingRecorder::shared(1 << 20);
    gpu.tracer.install(Box::new(rec.clone()));
    gpu.tracer.set_sample_every(500);
    let inst = bench.prepare(&mut gpu, Scale::Tiny);
    let out = run_instance(&mut gpu, &inst).expect("workload runs");
    let live = (gpu.mem.alloc_ptr() - HEAP_BASE) as usize;
    let events = rec.borrow().events();
    Observed {
        stats: out.stats,
        race_records: out.races.records().to_vec(),
        race_groups: out.races.groups(),
        witnesses: out.races.witnesses().to_vec(),
        races_total: out.races.total(),
        max_sync_id: out.max_sync_id,
        max_fence_id: out.max_fence_id,
        mem: gpu.mem.copy_to_host_u8(HEAP_BASE, live),
        events,
        samples: gpu.tracer.samples().to_vec(),
        skip: out.skip,
    }
}

/// A sample with the skip-accounting counters masked off — the only
/// fields that may legitimately differ between dense and skipping runs.
fn masked(s: &MetricsSample) -> MetricsSample {
    let mut m = s.clone();
    m.cycles_skipped = 0;
    m.skip_jumps = 0;
    m
}

fn assert_equivalent(name: &str, mode: &str, dense: &Observed, skip: &Observed) {
    assert_eq!(dense.stats, skip.stats, "{name}/{mode}: SimStats diverged");
    assert_eq!(dense.race_records, skip.race_records, "{name}/{mode}: race records diverged");
    assert_eq!(dense.race_groups, skip.race_groups, "{name}/{mode}: race groups diverged");
    assert_eq!(dense.witnesses, skip.witnesses, "{name}/{mode}: witness timelines diverged");
    assert_eq!(
        dense.stats.health, skip.stats.health,
        "{name}/{mode}: detector health counters diverged"
    );
    assert_eq!(dense.races_total, skip.races_total, "{name}/{mode}: race totals diverged");
    assert_eq!(dense.max_sync_id, skip.max_sync_id, "{name}/{mode}: sync IDs diverged");
    assert_eq!(dense.max_fence_id, skip.max_fence_id, "{name}/{mode}: fence IDs diverged");
    assert_eq!(dense.mem, skip.mem, "{name}/{mode}: device memory diverged");
    assert_eq!(dense.events, skip.events, "{name}/{mode}: trace event streams diverged");
    assert_eq!(
        dense.samples.len(),
        skip.samples.len(),
        "{name}/{mode}: sample counts diverged"
    );
    for (d, s) in dense.samples.iter().zip(&skip.samples) {
        assert_eq!(masked(d), masked(s), "{name}/{mode}: metrics samples diverged");
    }
    // Idle accounting is maintained identically in both modes: a hint is
    // a pure function of component state, which skipping never changes.
    assert_eq!(
        dense.skip.sm_idle_cycles, skip.skip.sm_idle_cycles,
        "{name}/{mode}: per-SM idle cycles diverged"
    );
    assert_eq!(dense.skip.cycles_skipped, 0, "{name}/{mode}: dense run fast-forwarded");
    assert_eq!(dense.skip.skip_jumps, 0, "{name}/{mode}: dense run fast-forwarded");
}

#[test]
fn skipping_is_bit_identical_on_every_workload_with_detection() {
    let mut any_skipped = false;
    for b in all_benchmarks() {
        let name = b.name().to_string();
        let dense = observe(b.as_ref(), true, false);
        let skip = observe(b.as_ref(), true, true);
        assert_equivalent(&name, "detected", &dense, &skip);
        any_skipped |= skip.skip.skip_jumps > 0;
    }
    assert!(any_skipped, "fast-forward never engaged on any workload");
}

#[test]
fn skipping_is_bit_identical_on_the_undetected_baseline() {
    for b in all_benchmarks().into_iter().take(4) {
        let name = b.name().to_string();
        let dense = observe(b.as_ref(), false, false);
        let skip = observe(b.as_ref(), false, true);
        assert_equivalent(&name, "baseline", &dense, &skip);
    }
}
