//! Trace pipeline: use HAccRG *without* the simulator — feed the detector
//! a recorded stream of accesses and synchronization events through the
//! `haccrg::replay` API, the way a profiler-based deployment would.
//!
//! The example builds the Fig. 1 scenario from the paper as a trace:
//! every thread writes `out[tid]`, the last arriver reads the whole array
//! to sum it — with no barrier between the phases.
//!
//! The second half shows the *simulator-backed* pipeline: the same
//! detector wired into the cycle-level GPU model with structured event
//! tracing, cycle-sampled metrics, and full race provenance. Pass a file
//! path to also write a Chrome `trace-event` JSON loadable at
//! <https://ui.perfetto.dev>.
//!
//! Run with: `cargo run --release --example trace_pipeline [trace.json]`

use gpu_sim::prelude::{Gpu, RingRecorder};
use haccrg::access::{AccessKind, MemAccess, MemSpace, ThreadCoord};
use haccrg::config::DetectorConfig;
use haccrg::replay::{Replayer, TraceEvent, TraceGeometry};

const OUT: u32 = 0x1000; // device address of `out[]`
const THREADS: u32 = 64; // two warps

fn geometry() -> TraceGeometry {
    TraceGeometry {
        num_sms: 1,
        shared_bytes_per_sm: 16 * 1024,
        shared_banks: 16,
        blocks: 1,
        warps: THREADS / 32,
        global_base: OUT,
        global_len: THREADS * 4,
    }
}

fn access(tid: u32, addr: u32, kind: AccessKind, pc: u32) -> TraceEvent {
    TraceEvent::Access {
        space: MemSpace::Global,
        access: MemAccess::plain(addr, 4, kind, ThreadCoord::from_flat(tid, THREADS, 32, 1))
            .at_pc(pc),
    }
}

/// The Fig. 1 trace: phase-1 writes, then (optionally a barrier, then)
/// the "last" thread's summing reads.
fn fig1_trace(with_barrier: bool) -> Vec<TraceEvent> {
    let mut t = Vec::new();
    // Line 6: out[tid] = foo(...)
    for tid in 0..THREADS {
        t.push(access(tid, OUT + tid * 4, AccessKind::Write, 6));
    }
    if with_barrier {
        // Line 12's missing __syncthreads(), restored.
        t.push(TraceEvent::Barrier { block: 0, sm: 0, shared_lo: 0, shared_hi: 0 });
    }
    // Line 9: the last thread sums out[0..blockDim].
    let last = THREADS - 1;
    for i in 0..THREADS {
        t.push(access(last, OUT + i * 4, AccessKind::Read, 9));
    }
    t
}

fn analyze(label: &str, with_barrier: bool) {
    let mut r = Replayer::new(&DetectorConfig::paper_default(), &geometry())
        .expect("the geometry's shadow fits the address space");
    r.replay(fig1_trace(with_barrier).iter()).expect("the trace fits its geometry");
    println!("{label:24} events={:3}  races={}", r.events(), r.races().distinct());
    for rec in r.races().records().iter().take(3) {
        println!("    {rec}");
    }
}

/// The same detector inside the cycle-level simulator, with the
/// observability layer switched on: structured events into a bounded
/// ring, a metrics sample every 1000 cycles, and provenance-carrying
/// race records.
fn simulator_tracing(trace_path: Option<&str>) {
    use haccrg_workloads::runner::{run_instance, RunConfig};
    use haccrg_workloads::scan::Scan;
    use haccrg_workloads::{Benchmark, Scale};

    let cfg = RunConfig::detecting(Scale::Tiny);
    let mut gpu = Gpu::new(cfg.gpu);
    gpu.set_detector(cfg.detector);
    let rec = RingRecorder::shared(1 << 16);
    gpu.tracer.install(Box::new(rec.clone()));
    gpu.tracer.set_sample_every(1000);

    // The multi-block SCAN variant: one of the paper's real races.
    let bench = Scan::default();
    let inst = bench.prepare(&mut gpu, Scale::Tiny);
    let out = run_instance(&mut gpu, &inst).expect("simulation");

    let recorder = rec.borrow();
    println!(
        "simulated {} cycles; recorded {} events ({} dropped by the ring)",
        out.stats.cycles,
        recorder.len(),
        recorder.dropped()
    );
    for (cycle, ev) in recorder.events().iter().take(6) {
        println!("    cycle {cycle:>6}  {ev:?}");
    }
    println!("    …");
    println!(
        "{} metric samples at 1000-cycle intervals (delta counters per SM / slice)",
        gpu.tracer.samples().len()
    );
    if let Some(r) = out.races.records().first() {
        println!("\none detected race, with full provenance:\n{}", r.provenance());
    }
    if let Some(path) = trace_path {
        let f = std::fs::File::create(path).expect("create trace file");
        gpu_sim::trace::perfetto::write_chrome_trace(
            std::io::BufWriter::new(f),
            &recorder.events(),
            recorder.dropped(),
        )
        .expect("write trace");
        println!("\nwrote Chrome trace to {path} — open it at https://ui.perfetto.dev");
    }
}

fn main() {
    println!("Fig. 1 of the paper, replayed as a recorded trace:\n");
    analyze("missing barrier (bug):", false);
    println!();
    analyze("with the barrier:", true);
    println!(
        "\nThe same stream, saved as JSON lines, feeds the `haccrg-trace` CLI:\n\
         first line = TraceGeometry, then one TraceEvent per line."
    );
    println!("\n— simulator-backed tracing —\n");
    let trace_path = std::env::args().nth(1);
    simulator_tracing(trace_path.as_deref());
}
