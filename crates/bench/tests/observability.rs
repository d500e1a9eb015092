//! Sweep-observability integration tests: the live progress JSONL
//! stream and the run manifest must be deterministic functions of the
//! work — not of the `--jobs` count, the engine, or the scheduling —
//! modulo wall-clock fields. See `progress` / `manifest` module docs.
//! Observers attached to a launch must not change what it reports, and
//! what a traced launch emits, in which order, is pinned.

use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gpu_sim::prelude::{Gpu, GpuConfig, NullSink, RingRecorder, SimEvent, SimStats};
use haccrg::access::MemSpace;
use haccrg::config::{DetectorConfig, SharedShadowPlacement};
use haccrg_bench::effectiveness::campaign;
use haccrg_bench::manifest::{self, Fnv, RunManifest};
use haccrg_bench::progress::SweepProgress;
use haccrg_bench::SweepRunner;
use haccrg_workloads::inject::{apply, Injection};
use haccrg_workloads::runner::{run, run_instance, RunConfig};
use haccrg_workloads::{all_benchmarks, benchmark_by_name, Benchmark, LaunchSpec, Scale};

/// A `Vec<u8>` sink shared with the test through an `Arc<Mutex<_>>`.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl Write for Buf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run a 4-workload detecting sweep at tiny scale on `jobs` workers and
/// return the emitted JSONL stream.
fn sweep_stream(jobs: usize) -> Vec<String> {
    let benches: Vec<_> = all_benchmarks().into_iter().take(4).collect();
    let labels: Vec<String> = benches.iter().map(|b| b.name().to_string()).collect();
    let buf = Buf::default();
    let p = SweepProgress::new(
        labels,
        jobs,
        Some(Box::new(buf.clone())),
        false,
        Duration::from_millis(5),
    );
    let runner = SweepRunner::new(jobs);
    let results = runner.run_with_progress(Some(p), benches, |b| {
        run(b.as_ref(), &RunConfig::detecting(Scale::Tiny)).expect("workload runs").stats.cycles
    });
    assert!(results.iter().all(Result::is_ok), "a sweep job failed");
    let bytes = buf.0.lock().unwrap().clone();
    String::from_utf8(bytes).unwrap().lines().map(str::to_string).collect()
}

/// Strip the wall-clock field from a JSONL event line: everything about
/// a terminal `job` record except `wall_ms` (and the free-text `error`)
/// is a deterministic function of the job.
fn strip_wall_ms(line: &str) -> String {
    match line.find("\"wall_ms\":") {
        Some(i) => {
            let tail = &line[i + "\"wall_ms\":".len()..];
            let end = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
            format!("{}{}", &line[..i], &tail[end..])
        }
        None => line.to_string(),
    }
}

#[test]
fn progress_stream_is_deterministic_across_jobs_counts() {
    // Terminal `job` records (sorted by id — completion order is
    // scheduling) and the lifecycle bookends must agree between a serial
    // and a 4-worker sweep of the same battery.
    let canonical = |lines: &[String]| {
        let mut jobs: Vec<String> = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"job\""))
            .map(|l| strip_wall_ms(l))
            .collect();
        jobs.sort();
        let start = lines.first().expect("sweep_start").clone();
        let end = strip_wall_ms(lines.last().expect("sweep_end"));
        (start, jobs, end)
    };

    let serial = sweep_stream(1);
    let wide = sweep_stream(4);

    let (start_1, jobs_1, end_1) = canonical(&serial);
    let (start_4, jobs_4, end_4) = canonical(&wide);

    assert!(start_1.contains("\"event\":\"sweep_start\""), "{start_1}");
    assert!(start_1.contains("\"jobs\":4"), "{start_1}");
    assert!(start_1.contains("\"workers\":1"), "{start_1}");
    assert!(start_4.contains("\"workers\":4"), "{start_4}");
    assert_eq!(jobs_1.len(), 4, "one terminal record per job:\n{}", jobs_1.join("\n"));
    assert_eq!(
        jobs_1, jobs_4,
        "job records must not depend on the worker count"
    );
    assert!(end_1.contains("\"event\":\"sweep_end\""), "{end_1}");
    assert_eq!(end_1, end_4, "sweep_end must not depend on the worker count");
    // Every terminal record carries real simulation throughput counters.
    for j in &jobs_1 {
        assert!(j.contains("\"state\":\"done\""), "{j}");
        assert!(!j.contains("\"cycles\":0,"), "job never heartbeat: {j}");
    }
}

#[test]
fn progress_stream_reports_heartbeats_while_running() {
    // With a 5ms tick and four tiny workloads on one worker, at least
    // one periodic snapshot lands while a job is mid-flight.
    let lines = sweep_stream(1);
    let progress: Vec<_> =
        lines.iter().filter(|l| l.contains("\"event\":\"progress\"")).collect();
    assert!(!progress.is_empty(), "no periodic snapshots in:\n{}", lines.join("\n"));
    for p in &progress {
        assert!(p.contains("\"elapsed_ms\":"), "{p}");
        assert!(p.contains("\"running\":["), "{p}");
    }
}

/// Strip the wall-clock lines from a pretty-printed manifest.
fn strip_timing(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("\"wall_ms\"") && !l.contains("\"created_unix_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn manifest_is_deterministic_modulo_timing() {
    let make = || {
        let mut m = RunManifest::new("observability-test");
        m.scale = "tiny".into();
        m.jobs = 3;
        m.workloads = manifest::suite_workloads(Scale::Tiny);
        m.config_hash = manifest::config_hash(&GpuConfig::quadro_fx5800());
        m.to_json()
    };
    let a = make();
    let b = make();
    assert_eq!(strip_timing(&a), strip_timing(&b), "manifest content drifted between builds");

    // Schema and hash shape: 16 lowercase hex digits per hash.
    assert!(a.contains("\"schema\": 1"), "{a}");
    assert!(a.contains("\"bin\": \"observability-test\""), "{a}");
    assert!(a.contains("\"rustc\""), "{a}");
    let hashes: Vec<&str> = a
        .lines()
        .filter_map(|l| {
            let i = l.find("_hash\": \"")? + "_hash\": \"".len();
            l[i..].split('"').next()
        })
        .collect();
    assert!(!hashes.is_empty(), "no content hashes in:\n{a}");
    for h in hashes {
        assert_eq!(h.len(), 16, "hash {h:?} is not 64-bit hex");
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()), "hash {h:?} is not hex");
    }
    // The full Table II suite is referenced.
    assert_eq!(a.matches("\"workload_hash\"").count(), all_benchmarks().len());
}

#[test]
fn stats_digest_is_engine_independent() {
    // The digest covers simulation outcomes, which the determinism
    // contract pins across skipping and dense (no fast-forward) runs of
    // the same workload: they must digest equally.
    let b = all_benchmarks().into_iter().next().expect("suite nonempty");
    let skip = run(b.as_ref(), &RunConfig::detecting(Scale::Tiny)).expect("runs");
    let mut dense_cfg = RunConfig::detecting(Scale::Tiny);
    dense_cfg.gpu.cycle_skip = false;
    let dense = run(b.as_ref(), &dense_cfg).expect("runs");

    let digest =
        |o: &haccrg_workloads::runner::RunOutput| manifest::stats_digest(&o.stats, &o.races);
    assert_eq!(digest(&skip), digest(&dense), "dense engine changed the digest");
}

#[test]
fn observers_leave_every_table2_launch_unchanged() {
    // Witness capture and an installed event sink record what the
    // detector sees; they must not change it. Every Table II benchmark,
    // observed and plain, must report equal statistics, race records and
    // shadow-check tiers, and every record of the observed run must
    // carry its timeline.
    let mut racy = 0;
    for b in all_benchmarks() {
        let name = b.name();
        let plain = run(b.as_ref(), &RunConfig::detecting(Scale::Tiny)).expect("plain run");

        let det = DetectorConfig { witness_capture: true, ..DetectorConfig::paper_default() };
        let cfg = RunConfig::with_detector(Scale::Tiny, det);
        let mut gpu = Gpu::new(cfg.gpu);
        gpu.set_detector(cfg.detector);
        gpu.tracer.install(Box::new(NullSink));
        let inst = b.prepare(&mut gpu, cfg.scale);
        let observed = run_instance(&mut gpu, &inst).expect("observed run");

        assert_eq!(observed.stats, plain.stats, "{name}: observers changed SimStats");
        assert_eq!(observed.dispatch, plain.dispatch, "{name}: observers moved the dispatch tiers");
        assert!(plain.dispatch.total() > 0, "{name}: no shadow-check lane was counted");
        let records = observed.races.records();
        assert_eq!(records, plain.races.records(), "{name}: observers changed the race records");
        for i in 0..records.len() {
            assert!(!observed.races.witness_of(i).is_empty(), "{name}: record {i} has no witness timeline");
        }
        racy += usize::from(!records.is_empty());
    }
    assert!(racy > 0, "no Table II benchmark races at tiny scale");
}

/// What one traced, witness-capturing run of a benchmark produced: the
/// FNV-64 digest over every `(cycle, event)` the tracer saw, in order,
/// then each launch's race records with their witness timelines, its
/// dispatch tiers, max IDs and statistics; plus the counts the pin
/// below checks its cases against.
#[derive(Default)]
struct Traced {
    digest: u64,
    shared_races: usize,
    global_races: usize,
    barriers: usize,
    fences: usize,
    lockset_checks: u64,
}

/// Run `bench` at `tiny` with witness capture and a recorder that drops
/// nothing, optionally with `plant` applied to one launch's kernel.
fn traced(bench: &dyn Benchmark, plant: Option<(usize, Injection)>) -> Traced {
    let det = DetectorConfig { witness_capture: true, ..DetectorConfig::paper_default() };
    let cfg = RunConfig::with_detector(Scale::Tiny, det);
    let mut gpu = Gpu::new(cfg.gpu);
    gpu.set_detector(cfg.detector);
    let mut inst = bench.prepare(&mut gpu, cfg.scale);
    if let Some((launch, injection)) = plant {
        let (mutated, planted) = apply(&inst.launches[launch].kernel, injection);
        assert!(planted > 0, "{injection:?}: injection site missing");
        inst.launches[launch].kernel = mutated;
    }
    let rec = RingRecorder::shared(1 << 24);
    gpu.tracer.install(Box::new(rec.clone()));
    let mut h = Fnv::new();
    let mut t = Traced::default();
    let mut results = Vec::new();
    for l in &inst.launches {
        results.push(gpu.launch(&l.kernel, l.grid, l.block, &l.params).expect("launch runs"));
    }
    let rec = rec.borrow();
    assert_eq!(rec.dropped(), 0, "the recorder dropped events");
    for (cycle, ev) in rec.events() {
        let _ = write!(h, "{cycle}:{ev:?}\x1f");
        match ev {
            SimEvent::BarrierRelease { .. } => t.barriers += 1,
            SimEvent::FenceComplete { .. } => t.fences += 1,
            _ => {}
        }
    }
    for r in &results {
        for (rec, witness) in r.races.records().iter().zip(r.races.witnesses()) {
            let _ = write!(h, "{rec:?}\x1f{witness:?}\x1f");
        }
        let _ = write!(
            h,
            "{:?}\x1f{}\x1f{}\x1f{:?}\x1f",
            r.dispatch, r.max_sync_id, r.max_fence_id, r.stats
        );
        t.shared_races += r.races.count_space(MemSpace::Shared);
        t.global_races += r.races.count_space(MemSpace::Global);
        let health = r.stats.health;
        t.lockset_checks += health.bloom_null_intersections + health.bloom_nonnull_intersections;
    }
    t.digest = h.finish();
    t
}

/// The whole traced stream of three detecting runs, pinned: moving a
/// detector operation between the compute and apply phases, or
/// reordering the events one check emits, must leave every event, race
/// record, witness timeline and dispatch tally where it was. SCAN's
/// racy multi-block run has global races and barriers, a SCAN
/// barrier-removal plant has shared races (no Table II run does at
/// `tiny`), and HASH has locks and fences.
#[test]
fn traced_event_stream_is_pinned() {
    let scan = benchmark_by_name("SCAN").expect("SCAN");
    let racy = traced(scan.as_ref(), None);
    assert!(racy.global_races > 0 && racy.barriers > 0, "SCAN: no global race or barrier");

    let plant = campaign(Scale::Tiny)
        .into_iter()
        .find(|p| p.label == "SCAN/DropBarrier(0)")
        .expect("SCAN barrier plant");
    let planted = traced(plant.bench.as_ref(), Some((plant.launch, plant.injection)));
    assert!(planted.shared_races > 0, "the SCAN plant raced in no shared memory");

    let hash = benchmark_by_name("HASH").expect("HASH");
    let locked = traced(hash.as_ref(), None);
    assert!(locked.fences > 0 && locked.lockset_checks > 0, "HASH: no fence or lockset check");

    // Recorded when the shared checks still ran at issue, in the compute
    // phase: moving them to the apply phase moved nothing.
    let digests = [racy.digest, planted.digest, locked.digest];
    let want = [0xd5a1_d607_b4bb_6c44, 0x8ddf_2081_3de6_51f1, 0x564a_1cc8_a6da_827b];
    assert_eq!(digests, want, "traced event stream moved: {digests:#018x?}");
}

/// What one sampled, TLB-traced detecting run of a benchmark produced:
/// the FNV-64 digest over each launch's statistics, race records and
/// per-SM idle cycles, then every metrics sample and every TLB pair;
/// plus the launch totals the pin below checks its cases against.
struct Modeled {
    digest: u64,
    stats: SimStats,
    /// Launch cycles beyond the detection-off run's, summed.
    epilogue: u64,
}

/// Run `name` at `tiny` under `det`, cutting a metrics sample every 64
/// cycles and recording the TLB trace. Detection is passive, so each
/// launch's cycle count with detection off is where its cycle loop ends
/// and the modeled epilogue begins: every launch must also have a
/// sample that starts there or later, i.e. the epilogue is tiled.
fn modeled(name: &str, det: DetectorConfig) -> Modeled {
    let bench = benchmark_by_name(name).expect(name);
    let gpu_cfg = RunConfig::base(Scale::Tiny).gpu;
    let launch_all = |gpu: &mut Gpu| {
        let inst = bench.prepare(gpu, Scale::Tiny);
        let mut launch = |l: &LaunchSpec| gpu.launch(&l.kernel, l.grid, l.block, &l.params);
        inst.launches.iter().map(|l| launch(l).expect("launch runs")).collect::<Vec<_>>()
    };
    let loop_ends: Vec<u64> =
        launch_all(&mut Gpu::new(gpu_cfg)).iter().map(|r| r.stats.cycles).collect();

    let mut gpu = Gpu::with_detector(gpu_cfg, det);
    gpu.tracer.set_sample_every(64);
    gpu.record_trace(true);
    let results = launch_all(&mut gpu);
    let mut h = Fnv::new();
    let mut m = Modeled { digest: 0, stats: SimStats::default(), epilogue: 0 };
    for (launch, (r, &end)) in results.iter().zip(&loop_ends).enumerate() {
        let _ = write!(h, "{:?}\x1f{:?}\x1f{:?}\x1f", r.stats, r.races.records(), r.skip.sm_idle_cycles);
        m.stats.accumulate(&r.stats);
        m.epilogue += r.stats.cycles - end;
        let tiled = gpu.tracer.samples().iter().any(|s| s.launch == launch as u32 && s.start_cycle >= end);
        assert!(tiled, "{name} launch {launch}: no sample starts in the epilogue after cycle {end}");
    }
    for s in gpu.tracer.samples() {
        let _ = write!(h, "{s:?}\x1f");
    }
    for pair in gpu.take_trace() {
        let _ = write!(h, "{pair:?}\x1f");
    }
    m.digest = h.finish();
    m
}

/// Detection's modeled cost, pinned: the Fig. 8 ghost-L1 charges, the
/// barrier resets, the global shadow port and fill counters, the
/// epilogue that folds them into the cycle count and the sample windows
/// that tile it, and the §IV-B TLB pairs of requests and L1-hit probes.
/// REDUCE's Fig. 8 region starts part-way into an L1 line (the digest
/// covers the index rule there; `gpu_sim::detector`'s unit test checks
/// an unaligned base against the layout itself), HIST makes the most
/// Fig. 8 line accesses, FWALSH has global shadow port and fill
/// traffic, and OFFT's L1-hit probes write TLB pairs in the apply phase.
#[test]
fn modeled_detection_cost_is_pinned() {
    let fig8 = DetectorConfig {
        shared_shadow: SharedShadowPlacement::GlobalMemory,
        ..DetectorConfig::paper_default()
    };

    let reduce = modeled("REDUCE", fig8);
    assert!(reduce.stats.shared_shadow_l1_accesses > 0, "REDUCE: no Fig. 8 line access");

    let hist = modeled("HIST", fig8);
    assert_eq!(hist.stats.shared_shadow_l1_accesses, 28_672, "HIST: Fig. 8 line accesses");

    let fwalsh = modeled("FWALSH", DetectorConfig::paper_default());
    let s = &fwalsh.stats;
    assert!(s.shadow_l2_accesses > 0, "FWALSH: no global shadow line access");
    // The busiest SM's barrier resets are at most all of them; the rest
    // of the epilogue is the busiest slice's shadow port and fill time.
    assert!(fwalsh.epilogue > s.shadow_reset_stall_cycles, "FWALSH: the slices charged nothing");

    let offt = modeled("OFFT", DetectorConfig::paper_default());
    assert_eq!(offt.stats.probe_packets, 672, "OFFT: L1-hit probes");

    let digests = [reduce.digest, hist.digest, fwalsh.digest, offt.digest];
    // Recorded before the SM's Fig. 8 charge and `Gpu::launch`'s layout,
    // barrier rule and epilogue moved into `LaunchDet`.
    let want = [0xb7d6_2de7_d5f9_fd8e, 0x983c_ea18_67de_2202, 0x1cd9_af53_3be9_bd15, 0xac63_63b8_fa1a_324f];
    assert_eq!(digests, want, "modeled detection cost moved: {digests:#018x?}");
}
