//! Measure the shadow-memory fast path and write `BENCH_shadow.json`.
//!
//! Three scenarios, with a counting allocator attached so allocation
//! counts land in the snapshot next to the timings:
//!
//! 1. **Launch setup** — building the global shadow table for an 8 MiB
//!    tracked region: eager monolithic `Vec<ShadowEntry>` (the pre-paging
//!    behavior) vs. the demand-paged [`ShadowTable`] behind
//!    [`GlobalRdu::new`].
//! 2. **Barrier reset** — invalidating a 48 KiB shared region: eager
//!    entry walk vs. per-page epoch bump (the modeled banked-clear cycles
//!    are charged identically either way).
//! 3. **Steady state** — warp store checks + shadow observes through
//!    reusable [`RaceScratch`] buffers; after warm-up the allocation
//!    counter must not move.
//!
//! Usage: `cargo run --release -p haccrg-bench --bin shadow_bench --
//! [--out FILE] [--manifest-out FILE]` (default `BENCH_shadow.json` in the
//! current directory — run from the repo root to refresh the committed
//! snapshot).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use haccrg::prelude::*;
use haccrg::shadow::FRESH;
use haccrg::shadow_table::PAGE_ENTRIES;
use haccrg_bench::cli::{Flag, MANIFEST_OUT, OUT};

/// Allocation-counting wrapper around the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(p, l, new_size)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

const FLAGS: [Flag; 2] = [OUT, MANIFEST_OUT];

const TRACKED_MIB: u32 = 8;
const SHARED_BYTES: u32 = 48 * 1024;
const EAGER_ITERS: u32 = 10;
const PAGED_ITERS: u32 = 1000;
const RESET_ITERS: u32 = 10_000;
const STEADY_WARPS: u32 = 100_000;

fn global_rdu(tracked: u32) -> GlobalRdu {
    GlobalRdu::new(
        0x1000,
        tracked,
        0x100_0000,
        Granularity::GLOBAL_DEFAULT,
        true,
        true,
        BloomConfig::PAPER_DEFAULT,
    )
}

/// Mean nanoseconds per iteration of `f`, run `iters` times.
fn time_ns<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn main() {
    let setup = haccrg_bench::RunSetup::from_args("shadow_bench", &FLAGS);
    let out_path = setup.args.value(OUT.0).unwrap_or("BENCH_shadow.json");
    let tracked = TRACKED_MIB << 20;
    let entries = Granularity::GLOBAL_DEFAULT.entries_for(tracked);

    // 1. Launch setup.
    let eager_ns = time_ns(EAGER_ITERS, || vec![FRESH; entries]);
    let paged_ns = time_ns(PAGED_ITERS, || global_rdu(tracked));
    let setup_speedup = eager_ns / paged_ns;

    // 2. Barrier reset over a fully materialized 48 KiB shared region.
    let shared_entries = Granularity::SHARED_DEFAULT.entries_for(SHARED_BYTES);
    let mut eager_table = vec![FRESH; shared_entries];
    let eager_reset_ns = time_ns(RESET_ITERS, || {
        eager_table.fill(std::hint::black_box(FRESH));
        eager_table.len()
    });
    let mut srdu = SharedRdu::new(
        0,
        SHARED_BYTES,
        16,
        Granularity::SHARED_DEFAULT,
        true,
        BloomConfig::PAPER_DEFAULT,
    );
    let clocks = ClockFile::new(8, 48);
    let mut log = RaceLog::default();
    for i in 0..shared_entries as u32 {
        let who = ThreadCoord::new(0, 0, 0, 0);
        let a = MemAccess::plain(i * Granularity::SHARED_DEFAULT.bytes(), 4, AccessKind::Write, who);
        srdu.observe(&a, &clocks, &mut log);
    }
    let mut charged_cycles = 0u64;
    let epoch_reset_ns = time_ns(RESET_ITERS, || {
        charged_cycles = srdu.reset_block_range(0, SHARED_BYTES);
        charged_cycles
    });

    // 3. Steady-state warp checks: warm one pass, then demand the
    // allocation counter stays put.
    let clocks = ClockFile::new(64, 2048);
    let mut rdu = global_rdu(1 << 20);
    let mut race_log = RaceLog::default();
    let mut scratch = RaceScratch::default();
    let lanes: Vec<MemAccess> = (0..32u32)
        .map(|l| {
            let who = ThreadCoord::new(l, 0, 0, 0);
            MemAccess::plain(0x1000 + l * 4, 4, AccessKind::Write, who)
        })
        .collect();
    let warp_check = |rdu: &mut GlobalRdu, scratch: &mut RaceScratch, log: &mut RaceLog| {
        rdu.check_warp_stores(&lanes, scratch, log);
        for a in &lanes {
            std::hint::black_box(rdu.observe(a, &clocks, log));
        }
    };
    warp_check(&mut rdu, &mut scratch, &mut race_log); // warm-up
    let allocs_before = ALLOCS.load(Relaxed);
    let steady_ns = time_ns(STEADY_WARPS, || {
        warp_check(&mut rdu, &mut scratch, &mut race_log);
        race_log.total()
    });
    let steady_allocs = ALLOCS.load(Relaxed) - allocs_before;

    let report = format!(
        r#"{{
  "benchmark": "shadow_fastpath",
  "produced_by": "cargo run --release -p haccrg-bench --bin shadow_bench",
  "environment": {env},
  "config": {{
    "tracked_mib": {TRACKED_MIB},
    "global_entries": {entries},
    "global_granularity_bytes": {gran},
    "shared_bytes": {SHARED_BYTES},
    "shared_entries": {shared_entries},
    "page_entries": {PAGE_ENTRIES},
    "iters": {{
      "eager_setup": {EAGER_ITERS},
      "paged_setup": {PAGED_ITERS},
      "reset": {RESET_ITERS},
      "steady_warps": {STEADY_WARPS}
    }}
  }},
  "launch_setup": {{
    "eager_ns": {eager_ns:.1},
    "paged_ns": {paged_ns:.1},
    "speedup": {setup_speedup:.1}
  }},
  "barrier_reset": {{
    "eager_fill_ns": {eager_reset_ns:.1},
    "epoch_bump_ns": {epoch_reset_ns:.1},
    "speedup": {reset_speedup:.1},
    "charged_cycles": {charged_cycles}
  }},
  "steady_state": {{
    "warps": {STEADY_WARPS},
    "ns_per_warp": {steady_ns:.1},
    "allocations": {steady_allocs},
    "pages_allocated": {pages}
  }}
}}
"#,
        env = haccrg_bench::Environment::capture().to_json(),
        gran = Granularity::GLOBAL_DEFAULT.bytes(),
        reset_speedup = eager_reset_ns / epoch_reset_ns,
        pages = rdu.pages_allocated(),
    );
    std::fs::write(out_path, report).expect("write report");
    println!("wrote {out_path}");
    println!(
        "launch setup: eager {:.0} ns vs paged {:.0} ns ({setup_speedup:.1}x)",
        eager_ns, paged_ns
    );
    println!(
        "barrier reset: eager {:.0} ns vs epoch {:.0} ns (charged {charged_cycles} cycles)",
        eager_reset_ns, epoch_reset_ns
    );
    println!("steady state: {steady_ns:.0} ns/warp, {steady_allocs} allocations");
    assert!(setup_speedup >= 2.0, "launch-setup speedup below the 2x target");
    assert_eq!(steady_allocs, 0, "steady-state warp checks must not allocate");
    setup.write_manifest(&[out_path]);
}
