//! Memory-system edge cases at the component level: slice backpressure,
//! MSHR merging limits, write-back storms, and end-to-end bandwidth
//! saturation behaviour.

use gpu_sim::config::GpuConfig;
use gpu_sim::device::DeviceMemory;
use gpu_sim::mem::slice::MemSlice;
use gpu_sim::mem::{MemReq, ReqKind};
use gpu_sim::prelude::*;

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

#[test]
fn slice_survives_a_flood_of_distinct_lines() {
    // More outstanding misses than MSHRs + DRAM queue: backpressure must
    // throttle, not drop or deadlock.
    let mut s = MemSlice::new(0, GpuConfig::test_small());
    let mut m = DeviceMemory::new(1 << 20);
    let total = 512u64;
    for i in 0..total {
        s.push_input(load(i, (i as u32) * 128));
    }
    let mut done = 0u64;
    for now in 0..2_000_000u64 {
        done += s.cycle(now, &mut m).len() as u64;
        if done == total && s.idle() {
            break;
        }
    }
    assert_eq!(done, total, "every request must eventually complete");
}

#[test]
fn repeated_hits_are_cheap_after_one_fill() {
    let mut s = MemSlice::new(0, GpuConfig::test_small());
    let mut m = DeviceMemory::new(1 << 20);
    s.push_input(load(1, 0x4000));
    let mut now = 0;
    let mut first_done = 0;
    while first_done == 0 && now < 10_000 {
        if !s.cycle(now, &mut m).is_empty() {
            first_done = now;
        }
        now += 1;
    }
    assert!(first_done > 0);
    // 64 more hits to the same line complete quickly and without DRAM.
    let reads_before = s.dram.stats.reads;
    for i in 0..64 {
        s.push_input(load(100 + i, 0x4000));
    }
    let mut done = 0;
    let start = now;
    while done < 64 && now < start + 10_000 {
        done += s.cycle(now, &mut m).len();
        now += 1;
    }
    assert_eq!(done, 64);
    assert_eq!(s.dram.stats.reads, reads_before, "all hits, no DRAM reads");
}

#[test]
fn shadow_annotations_never_delay_data() {
    // Passive detection: a shadow-line annotation on a request must leave
    // the slice's timing and DRAM traffic identical to a bare run —
    // detection may not perturb the architectural stream.
    let run = |shadow_line: Option<u32>| {
        let mut s = MemSlice::new(0, GpuConfig::test_small());
        let mut m = DeviceMemory::new(1 << 20);
        let mut r = load(1, 0x1000);
        r.shadow_line = shadow_line;
        s.push_input(r);
        s.push_input(load(2, 0x8000));
        let mut done = Vec::new();
        for now in 0..1_000_000u64 {
            for resp in s.cycle(now, &mut m) {
                done.push((now, resp.id));
            }
            if done.len() == 2 && s.idle() {
                break;
            }
        }
        (done, s.dram.stats.reads)
    };
    let (bare_done, bare_reads) = run(None);
    let (annotated_done, annotated_reads) = run(Some(0x20_0000));
    assert_eq!(annotated_done, bare_done, "annotations changed data timing");
    assert_eq!(annotated_reads, bare_reads, "annotations changed DRAM traffic");
}

#[test]
fn end_to_end_streaming_bandwidth_is_bounded_by_dram() {
    // A pure streaming kernel: DRAM bus busy cycles must be within the
    // theoretical envelope (lines × burst ≤ busy ≤ cycles × slices).
    let mut b = KernelBuilder::new("stream");
    let inp = b.param(0);
    let outp = b.param(1);
    let t = b.global_tid();
    let off = b.shl(t, 2u32);
    let src = b.add(inp, off);
    let v = b.ld(Space::Global, src, 0, 4);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, v, 4);
    let k = b.build();

    let mut gpu = Gpu::new(GpuConfig::test_small());
    let n = 64 * 1024u32; // words
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    let res = gpu.launch(&k, n / 256, 256, &[inp, outp]).unwrap();

    let cfg = GpuConfig::test_small();
    let lines_moved = res.stats.dram.reads + res.stats.dram.writes;
    let min_busy = lines_moved * u64::from(cfg.dram.burst_cycles);
    assert!(res.stats.dram.bus_busy_cycles >= min_busy.min(res.stats.cycles));
    assert!(
        res.stats.dram.bus_busy_cycles <= res.stats.cycles * u64::from(cfg.num_mem_slices),
        "bus cannot be busier than wall-clock × slices"
    );
    // Streaming reads: at least one DRAM read per input line.
    assert!(res.stats.dram.reads >= u64::from(n * 4 / cfg.l2.line_bytes));
}

#[test]
fn row_buffer_locality_shows_in_the_hit_counters() {
    // Sequential lines within a row: mostly row hits after the activate.
    let mut s = MemSlice::new(0, GpuConfig::quadro_fx5800());
    let mut m = DeviceMemory::new(1 << 20);
    for i in 0..16u64 {
        s.push_input(load(i, (i as u32) * 128)); // same 2KB row
    }
    for now in 0..100_000u64 {
        s.cycle(now, &mut m);
        if s.idle() {
            break;
        }
    }
    assert!(s.dram.stats.row_hits >= 14, "row hits {}", s.dram.stats.row_hits);
    assert_eq!(s.dram.stats.activates, 1);
}
