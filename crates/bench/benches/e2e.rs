//! End-to-end Criterion benchmarks: whole-kernel simulation throughput
//! with detection off, shared-only, and combined — the Fig. 7 comparison
//! as a continuously tracked regression benchmark (on the SCAN kernel at
//! tiny scale so a run stays in milliseconds).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpu_sim::prelude::{Gpu, NullSink};
use haccrg::config::DetectorConfig;
use haccrg_workloads::runner::{run, run_instance, RunConfig};
use haccrg_workloads::scan::Scan;
use haccrg_workloads::{Benchmark, Scale};

fn simulate_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate_scan_tiny");
    g.sample_size(20);
    g.bench_function("no_detection", |b| {
        b.iter(|| black_box(run(&Scan::single_block(), &RunConfig::base(Scale::Tiny)).unwrap().stats.cycles))
    });
    g.bench_function("shared_only", |b| {
        b.iter(|| {
            black_box(
                run(
                    &Scan::single_block(),
                    &RunConfig::with_detector(Scale::Tiny, DetectorConfig::shared_only()),
                )
                .unwrap()
                .stats
                .cycles,
            )
        })
    });
    g.bench_function("shared_and_global", |b| {
        b.iter(|| {
            black_box(run(&Scan::single_block(), &RunConfig::detecting(Scale::Tiny)).unwrap().stats.cycles)
        })
    });
    g.finish();
}

/// Guard for the tracing layer's zero-cost-when-disabled contract: the
/// `disabled` and `no_detection` timings above must stay within noise of
/// each other (< 2%), and `null_sink` bounds the cost of event
/// construction when a sink is installed. The host-side phase profiler
/// rides the same contract: `disabled` runs with its scopes compiled in
/// but off (one relaxed atomic load each), and `prof_enabled` bounds the
/// cost of live attribution.
fn tracing_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracing_overhead_scan_tiny");
    g.sample_size(20);
    g.bench_function("disabled", |b| {
        b.iter(|| {
            let cfg = RunConfig::detecting(Scale::Tiny);
            let mut gpu = Gpu::new(cfg.gpu);
            gpu.set_detector(cfg.detector);
            let bench = Scan::single_block();
            let inst = bench.prepare(&mut gpu, cfg.scale);
            black_box(run_instance(&mut gpu, &inst).unwrap().stats.cycles)
        })
    });
    g.bench_function("prof_enabled", |b| {
        gpu_sim::prof::reset();
        gpu_sim::prof::set_enabled(true);
        b.iter(|| {
            let cfg = RunConfig::detecting(Scale::Tiny);
            let mut gpu = Gpu::new(cfg.gpu);
            gpu.set_detector(cfg.detector);
            let bench = Scan::single_block();
            let inst = bench.prepare(&mut gpu, cfg.scale);
            black_box(run_instance(&mut gpu, &inst).unwrap().stats.cycles)
        });
        gpu_sim::prof::set_enabled(false);
    });
    g.bench_function("null_sink", |b| {
        b.iter(|| {
            let cfg = RunConfig::detecting(Scale::Tiny);
            let mut gpu = Gpu::new(cfg.gpu);
            gpu.set_detector(cfg.detector);
            gpu.tracer.install(Box::new(NullSink));
            let bench = Scan::single_block();
            let inst = bench.prepare(&mut gpu, cfg.scale);
            black_box(run_instance(&mut gpu, &inst).unwrap().stats.cycles)
        })
    });
    g.finish();
}

/// Guard for the witness-capture opt-in contract: `capture_off` is the
/// stock detecting run (capture defaults off — the ring is never
/// consulted), so it must stay within noise of `shared_and_global`
/// above; `capture_on` bounds the cost of per-access ring recording
/// when timelines are requested.
fn witness_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("witness_overhead_scan_tiny");
    g.sample_size(20);
    g.bench_function("capture_off", |b| {
        b.iter(|| {
            black_box(run(&Scan::single_block(), &RunConfig::detecting(Scale::Tiny)).unwrap().stats.cycles)
        })
    });
    g.bench_function("capture_on", |b| {
        let mut det = DetectorConfig::paper_default();
        det.witness_capture = true;
        b.iter(|| {
            black_box(
                run(&Scan::single_block(), &RunConfig::with_detector(Scale::Tiny, det))
                    .unwrap()
                    .stats
                    .cycles,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, simulate_scan, tracing_overhead, witness_overhead);
criterion_main!(benches);
