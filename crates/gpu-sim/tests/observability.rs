//! Observability-layer integration tests: tracing must not perturb the
//! simulation, metrics samples must telescope exactly to the final
//! aggregates, the Perfetto export must be valid, and race records must
//! carry full provenance.

use std::sync::Arc;

use gpu_sim::prelude::*;
use gpu_sim::trace::heartbeat::{self, Heartbeat};
use gpu_sim::trace::perfetto::{write_chrome_trace, write_chrome_trace_with_counters};
use haccrg::config::{DetectorConfig, SharedShadowPlacement};
use haccrg::json;
use haccrg::prelude::RaceCategory;

/// out[i] = in[i] * 3 + 1
fn saxpyish_kernel() -> Kernel {
    let mut b = KernelBuilder::new("saxpyish");
    let inp = b.param(0);
    let outp = b.param(1);
    let t = b.global_tid();
    let off = b.shl(t, 2u32);
    let src = b.add(inp, off);
    let v = b.ld(Space::Global, src, 0, 4);
    let v3 = b.mul(v, 3u32);
    let v31 = b.add(v3, 1u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, v31, 4);
    b.build()
}

/// Shared-memory tree reduction with the classic missing-barrier race.
fn racy_reduction_kernel(block: u32) -> Kernel {
    let mut b = KernelBuilder::new("racy_reduce");
    let sh = b.shared_alloc(block * 4);
    let inp = b.param(0);
    let _outp = b.param(1);
    let tid = b.tid();
    let gt = b.global_tid();
    let goff = b.shl(gt, 2u32);
    let src = b.add(inp, goff);
    let v = b.ld(Space::Global, src, 0, 4);
    let soff0 = b.shl(tid, 2u32);
    let soff = b.add(soff0, sh);
    b.st(Space::Shared, soff, 0, v, 4);
    let s = b.mov(block / 2);
    b.while_loop(
        |b| b.setp(CmpOp::GtU, s, 0u32),
        |b| {
            let p = b.setp(CmpOp::LtU, tid, s);
            b.if_then(p, |b| {
                let mine = b.ld(Space::Shared, soff, 0, 4);
                let o0 = b.shl(s, 2u32);
                let oaddr = b.add(soff, o0);
                let theirs = b.ld(Space::Shared, oaddr, 0, 4);
                let sum = b.add(mine, theirs);
                b.st(Space::Shared, soff, 0, sum, 4);
            });
            b.bin_into(BinOp::Shr, s, s, 1u32);
        },
    );
    b.build()
}

/// Run the saxpyish kernel on a GPU configured by `setup`.
fn run_saxpyish(setup: impl FnOnce(&mut Gpu)) -> SimStats {
    let mut gpu = Gpu::with_detector(GpuConfig::test_small(), DetectorConfig::paper_default());
    setup(&mut gpu);
    let n = 1024u32;
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    gpu.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
    gpu.launch(&saxpyish_kernel(), n / 64, 64, &[inp, outp]).unwrap().stats
}

#[test]
fn tracing_leaves_stats_bit_identical() {
    let plain = run_saxpyish(|_| {});
    let with_null_sink = run_saxpyish(|gpu| gpu.tracer.install(Box::new(NullSink)));
    let with_recorder = run_saxpyish(|gpu| {
        gpu.tracer.install(Box::new(RingRecorder::shared(1 << 16)));
    });
    let with_sampling = run_saxpyish(|gpu| gpu.tracer.set_sample_every(100));
    assert_eq!(plain, with_null_sink, "a NullSink run must not perturb the simulation");
    assert_eq!(plain, with_recorder, "a recorded run must not perturb the simulation");
    assert_eq!(plain, with_sampling, "a sampled run must not perturb the simulation");
}

#[test]
fn sampling_deltas_telescope_to_each_launch_aggregate() {
    let mut gpu = Gpu::with_detector(GpuConfig::test_small(), DetectorConfig::paper_default());
    gpu.tracer.set_sample_every(50);
    let n = 1024u32;
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    gpu.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
    // Two launches of different sizes, sampled into the same tracer.
    let k = saxpyish_kernel();
    let first = gpu.launch(&k, n / 64, 64, &[inp, outp]).unwrap().stats;
    let second = gpu.launch(&k, n / 128, 64, &[inp, outp]).unwrap().stats;

    for (launch, expect) in [(0u32, &first), (1u32, &second)] {
        let samples: Vec<_> =
            gpu.tracer.samples().iter().filter(|s| s.launch == launch).collect();
        assert!(samples.len() > 1, "launch {launch} produced {} samples", samples.len());
        // Intervals tile the launch: start at 0, contiguous, end at the
        // final cycle count.
        assert_eq!(samples[0].start_cycle, 0);
        for w in samples.windows(2) {
            assert_eq!(w[0].end_cycle, w[1].start_cycle, "gap in sample intervals");
        }
        assert_eq!(samples.last().unwrap().end_cycle, expect.cycles);
        // The deltas sum back to the launch's final aggregate, exactly.
        let mut sum = SimStats::default();
        for s in &samples {
            sum.accumulate(&s.delta);
        }
        assert_eq!(sum, *expect, "launch {launch} samples do not telescope");
        // Per-unit vectors match the configured geometry.
        let cfg = GpuConfig::test_small();
        assert!(samples.iter().all(|s| s.per_sm_l1.len() == cfg.num_sms as usize));
        assert!(samples.iter().all(|s| s.per_slice_l2.len() == cfg.num_mem_slices as usize));
    }
}

/// out[i] = 2 * in[i], staged through shared memory. The second load of
/// `in[i]` hits L1 and sends a detection probe, so every kind of shadow
/// check the heartbeat counts occurs.
fn probe_and_stage_kernel(block: u32) -> Kernel {
    let mut b = KernelBuilder::new("probe_and_stage");
    let sh = b.shared_alloc(block * 4);
    let inp = b.param(0);
    let outp = b.param(1);
    let tid = b.tid();
    let gt = b.global_tid();
    let goff = b.shl(gt, 2u32);
    let src = b.add(inp, goff);
    let v = b.ld(Space::Global, src, 0, 4);
    let again = b.ld(Space::Global, src, 0, 4);
    let twice = b.add(v, again);
    let soff0 = b.shl(tid, 2u32);
    let soff = b.add(soff0, sh);
    b.st(Space::Shared, soff, 0, twice, 4);
    b.bar();
    let back = b.ld(Space::Shared, soff, 0, 4);
    let dst = b.add(outp, goff);
    b.st(Space::Global, dst, 0, back, 4);
    b.build()
}

#[test]
fn final_heartbeat_publishes_the_launch_totals() {
    let mut det = DetectorConfig::paper_default();
    det.shared_shadow = SharedShadowPlacement::GlobalMemory;
    let mut gpu = Gpu::with_detector(GpuConfig::test_small(), det);
    let (n, block) = (1024u32, 128u32);
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    gpu.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
    let hb = Arc::new(Heartbeat::new());
    heartbeat::attach(Some(Arc::clone(&hb)));
    let res = gpu.launch(&probe_and_stage_kernel(block), n / block, block, &[inp, outp]);
    heartbeat::attach(None);
    let s = res.unwrap().stats;
    assert_eq!(
        gpu.mem.copy_to_host_u32(outp, n as usize),
        (0..n).map(|i| 2 * i).collect::<Vec<_>>()
    );
    assert!(
        s.shared_shadow_l1_accesses > 0 && s.shadow_l2_accesses > 0 && s.probe_packets > 0,
        "every shadow-check kind must occur: {s:?}"
    );
    let beat = hb.snapshot();
    assert_eq!(beat.launches, 1);
    assert_eq!(beat.instructions, s.warp_instructions, "heartbeat instructions");
    assert_eq!(
        beat.checks,
        s.shared_shadow_l1_accesses + s.shadow_l2_accesses + s.probe_packets,
        "heartbeat shadow checks"
    );
}

#[test]
fn recorder_captures_the_event_lifecycle() {
    let mut gpu = Gpu::with_detector(GpuConfig::test_small(), DetectorConfig::paper_default());
    let rec = RingRecorder::shared(1 << 18);
    gpu.tracer.install(Box::new(rec.clone()));
    let n = 512u32;
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    gpu.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
    gpu.launch(&saxpyish_kernel(), n / 64, 64, &[inp, outp]).unwrap();

    let rec = rec.borrow();
    let events = rec.events();
    assert!(rec.dropped() == 0, "ring too small for this kernel");
    let count = |pred: fn(&SimEvent) -> bool| events.iter().filter(|(_, e)| pred(e)).count();
    assert_eq!(count(|e| matches!(e, SimEvent::KernelLaunch { .. })), 1);
    assert_eq!(count(|e| matches!(e, SimEvent::KernelEnd { .. })), 1);
    assert!(count(|e| matches!(e, SimEvent::WarpIssue { .. })) > 0);
    assert!(count(|e| matches!(e, SimEvent::MemCoalesce { .. })) > 0);
    assert!(count(|e| matches!(e, SimEvent::L1Access { .. })) > 0);
    assert!(count(|e| matches!(e, SimEvent::ReqDepart { .. })) > 0);
    assert!(count(|e| matches!(e, SimEvent::L2Access { .. })) > 0);
    assert!(count(|e| matches!(e, SimEvent::DramAccess { .. })) > 0);
    assert!(count(|e| matches!(e, SimEvent::RespArrive { .. })) > 0);
    // With the detector on, global accesses drive Fig. 3 transitions.
    assert!(count(|e| matches!(e, SimEvent::ShadowTransition { .. })) > 0);
    // Events are cycle-ordered (the recorder preserves emission order and
    // the simulator emits monotonically).
    assert!(events.windows(2).all(|w| w[0].0 <= w[1].0), "events out of cycle order");
    // KernelEnd is stamped with the final cycle.
    let end_cycle = events.iter().find(|(_, e)| matches!(e, SimEvent::KernelEnd { .. })).unwrap().0;
    assert!(events.iter().all(|(c, _)| *c <= end_cycle));
}

/// The metrics sampler must close the books on a launch even when its
/// final window is shorter than the sampling interval: the last sample
/// covers exactly `[last_boundary, final_cycle)` and the deltas still
/// telescope to the launch aggregate. Regression test for the
/// final-partial-window flush in `Gpu::launch`.
#[test]
fn final_partial_window_sample_is_emitted_exactly() {
    // Learn the (deterministic) launch length first, unsampled.
    let total = run_saxpyish(|_| {}).cycles;
    assert!(total > 2, "kernel too short to split");

    // An interval of `total - 1` forces one full window and a one-cycle
    // partial remainder.
    let interval = total - 1;
    let mut gpu = Gpu::with_detector(GpuConfig::test_small(), DetectorConfig::paper_default());
    gpu.tracer.set_sample_every(interval);
    let n = 1024u32;
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    gpu.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
    let stats = gpu.launch(&saxpyish_kernel(), n / 64, 64, &[inp, outp]).unwrap().stats;
    assert_eq!(stats.cycles, total, "sampling perturbed the simulation");

    let samples = gpu.tracer.samples();
    assert_eq!(samples.len(), 2, "expected one full window plus the partial flush");
    assert_eq!(samples[0].start_cycle, 0);
    assert_eq!(samples[0].end_cycle, interval);
    assert_eq!(samples[1].start_cycle, interval);
    assert_eq!(samples[1].end_cycle, total, "partial window must end at the final cycle");
    assert_eq!(
        samples[1].end_cycle - samples[1].start_cycle,
        1,
        "partial window has exactly the remainder width"
    );
    let mut sum = SimStats::default();
    for s in samples {
        sum.accumulate(&s.delta);
    }
    assert_eq!(sum, stats, "partial-window deltas do not telescope");
}

/// Run the saxpyish kernel with a recorder + sampler, dense or
/// skipping, and export the counter-augmented Chrome trace.
fn counter_trace_for(cycle_skip: bool) -> Vec<u8> {
    let mut cfg = GpuConfig::test_small();
    cfg.cycle_skip = cycle_skip;
    let mut gpu = Gpu::with_detector(cfg, DetectorConfig::paper_default());
    let rec = RingRecorder::shared(1 << 18);
    gpu.tracer.install(Box::new(rec.clone()));
    gpu.tracer.set_sample_every(50);
    let n = 1024u32;
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    gpu.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
    gpu.launch(&saxpyish_kernel(), n / 64, 64, &[inp, outp]).unwrap();
    let rec = rec.borrow();
    let mut buf = Vec::new();
    write_chrome_trace_with_counters(&mut buf, &rec.events(), rec.dropped(), gpu.tracer.samples())
        .unwrap();
    buf
}

/// The counter-augmented export must be well-formed JSON whose
/// timestamps are monotonic per track — instant events per `(pid, tid)`
/// lane, counter events per `(pid, name)` series — dense and skipping.
#[test]
fn counter_trace_is_well_formed_with_monotonic_tracks_in_every_engine() {
    for (mode, cycle_skip) in [("dense", false), ("skip", true)] {
        let buf = counter_trace_for(cycle_skip);
        let doc = json::parse(std::str::from_utf8(&buf).unwrap())
            .unwrap_or_else(|e| panic!("{mode}: invalid JSON: {e}"));
        let tes = doc["traceEvents"].as_array().expect("traceEvents array");
        let mut counters = 0usize;
        let mut last_ts: std::collections::HashMap<(bool, u64, u64, String), u64> =
            std::collections::HashMap::new();
        for e in tes {
            let ph = e["ph"].as_str().expect("ph string");
            assert!(ph == "i" || ph == "C", "{mode}: unexpected phase {ph:?}");
            let ts = e["ts"].as_u64().expect("u64 ts");
            let pid = e["pid"].as_u64().expect("u64 pid");
            let tid = e["tid"].as_u64().expect("u64 tid");
            assert!(e["name"].is_string() && e.get("args").is_some(), "{mode}: bare event");
            // Counter series are keyed by name; instant lanes by tid.
            let key = if ph == "C" {
                counters += 1;
                (true, pid, 0, e["name"].as_str().unwrap().to_string())
            } else {
                (false, pid, tid, String::new())
            };
            if let Some(prev) = last_ts.insert(key.clone(), ts) {
                assert!(
                    prev <= ts,
                    "{mode}: track {key:?} went backwards ({prev} -> {ts})"
                );
            }
        }
        assert!(counters >= 5, "{mode}: counter tracks missing from the export");
        assert_eq!(doc["otherData"]["dropped_events"], 0, "{mode}: ring overflowed");
    }
}

#[test]
fn perfetto_export_is_valid_chrome_trace_json() {
    let mut gpu = Gpu::with_detector(GpuConfig::test_small(), DetectorConfig::paper_default());
    let rec = RingRecorder::shared(1 << 18);
    gpu.tracer.install(Box::new(rec.clone()));
    let n = 256u32;
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    gpu.launch(&saxpyish_kernel(), n / 64, 64, &[inp, outp]).unwrap();

    let rec = rec.borrow();
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, &rec.events(), rec.dropped()).unwrap();
    let doc = json::parse(std::str::from_utf8(&buf).unwrap()).expect("valid JSON");
    let tes = doc["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(tes.len(), rec.len());
    assert!(tes.iter().any(|e| e["name"] == "KernelLaunch"));
    for e in tes {
        assert_eq!(e["ph"], "i", "all events are instants");
        assert!(e["ts"].is_u64());
        assert!(e["pid"].is_u64());
        assert!(e.get("args").is_some());
    }
    assert_eq!(doc["otherData"]["dropped_events"], 0);
}

#[test]
fn detected_races_carry_provenance_and_are_emitted_as_events() {
    let mut gpu = Gpu::with_detector(GpuConfig::test_small(), DetectorConfig::paper_default());
    let rec = RingRecorder::shared(1 << 18);
    gpu.tracer.install(Box::new(rec.clone()));
    let block = 128u32;
    let inp = gpu.alloc(block * 4);
    let outp = gpu.alloc(4);
    gpu.mem.copy_from_host_u32(inp, &vec![1u32; block as usize]);
    let res = gpu.launch(&racy_reduction_kernel(block), 1, block, &[inp, outp]).unwrap();

    assert!(res.races.any(), "missing barriers must race");
    assert!(res
        .races
        .records()
        .iter()
        .any(|r| r.category == RaceCategory::Barrier && r.cycle > 0));
    for r in res.races.records() {
        assert_ne!(r.prev.tid, r.cur.tid, "race between a thread and itself: {r}");
        let p = r.provenance();
        assert!(p.contains(&format!("cycle {}", r.cycle)), "{p}");
        assert!(p.contains("first  access"), "{p}");
        assert!(p.contains("second access"), "{p}");
    }
    // Every distinct race also went out as a structured event whose
    // record matches one in the log.
    let rec = rec.borrow();
    let emitted: Vec<_> = rec
        .events()
        .into_iter()
        .filter_map(|(cycle, e)| match e {
            SimEvent::RaceDetected { record } => Some((cycle, record)),
            _ => None,
        })
        .collect();
    assert!(!emitted.is_empty(), "no RaceDetected events recorded");
    for (cycle, record) in &emitted {
        assert_eq!(*cycle, record.cycle, "event cycle and record cycle disagree");
    }
    for r in res.races.records() {
        assert!(
            emitted.iter().any(|(_, e)| e == r),
            "race {r} missing from the event stream"
        );
    }
}
