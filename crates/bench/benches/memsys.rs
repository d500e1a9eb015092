//! Criterion micro-benchmarks for the simulator's memory-system models:
//! cache probe/fill, DRAM FR-FCFS scheduling, coalescing and shared-memory
//! bank conflicts.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gpu_sim::config::GpuConfig;
use gpu_sim::mem::cache::Cache;
use gpu_sim::mem::coalesce::{bank_conflict_degree, coalesce, LaneAddr};
use gpu_sim::mem::dram::{Dram, DramReq};

fn cache_ops(c: &mut Criterion) {
    let cfg = GpuConfig::quadro_fx5800().l2;
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1));
    g.bench_function("probe_hit", |b| {
        let mut cache = Cache::new(cfg);
        cache.fill(0x1000, false, 0);
        let mut now = 1;
        b.iter(|| {
            now += 1;
            black_box(cache.probe(black_box(0x1000), false, now))
        })
    });
    g.bench_function("fill_with_eviction", |b| {
        let mut cache = Cache::new(cfg);
        let mut addr = 0u32;
        let mut now = 0;
        b.iter(|| {
            addr = addr.wrapping_add(128);
            now += 1;
            black_box(cache.fill(addr, true, now))
        })
    });
    g.finish();
}

fn dram_scheduling(c: &mut Criterion) {
    let cfg = GpuConfig::quadro_fx5800().dram;
    c.bench_function("dram_fr_fcfs_32_requests", |b| {
        b.iter_with_setup(
            || {
                let mut d = Dram::new(cfg);
                for i in 0..32u64 {
                    d.push(DramReq { id: i, line_addr: (i as u32) * 128 * 7, is_write: i % 3 == 0, row_hit: false });
                }
                d
            },
            |mut d| {
                let mut now = 0;
                let mut done = 0;
                while done < 32 && now < 100_000 {
                    done += d.cycle(now).len();
                    now += 1;
                }
                black_box((now, done))
            },
        )
    });
}

fn coalescer(c: &mut Criterion) {
    let mut g = c.benchmark_group("coalesce");
    g.throughput(Throughput::Elements(32));
    let sequential: Vec<LaneAddr> =
        (0..32).map(|l| LaneAddr { lane: l as u8, addr: 0x1000 + l * 4, size: 4 }).collect();
    let scattered: Vec<LaneAddr> =
        (0..32).map(|l| LaneAddr { lane: l as u8, addr: l * 4096, size: 4 }).collect();
    g.bench_function("sequential_warp", |b| {
        b.iter(|| black_box(coalesce(black_box(&sequential), 128)))
    });
    g.bench_function("scattered_warp", |b| {
        b.iter(|| black_box(coalesce(black_box(&scattered), 128)))
    });
    g.bench_function("bank_conflicts", |b| {
        b.iter(|| black_box(bank_conflict_degree(black_box(&sequential), 16)))
    });
    // HIST's byte counters: `s_hist[bin * 64 + tid]`, one byte per lane,
    // bins from a fixed pseudo-random byte stream. Lanes 4k..4k+3 share
    // bank k, so the degree is the most distinct bins in a lane quad.
    let hist_bytes: Vec<LaneAddr> = (0..32u32)
        .map(|l| {
            let bin = (l.wrapping_mul(0x9E37_79B9) >> 26) & 63;
            LaneAddr { lane: l as u8, addr: bin * 64 + l, size: 1 }
        })
        .collect();
    g.bench_function("bank_conflicts_hist_bytes", |b| {
        b.iter(|| black_box(bank_conflict_degree(black_box(&hist_bytes), 16)))
    });
    g.finish();
}

criterion_group!(benches, cache_ops, dram_scheduling, coalescer);
criterion_main!(benches);
