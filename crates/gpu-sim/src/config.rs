//! GPU hardware configuration — Table I of the paper.
//!
//! The default models the NVIDIA Quadro FX5800 that GPGPU-Sim 3.0.2 was
//! configured as, with Fermi-style non-coherent L1 data caches and a
//! banked, coherent unified L2 (§V).

use serde::{Deserialize, Serialize};

/// Timing-model cache parameters (tag-store only; data is functional).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct CacheConfig {
    pub size_bytes: u32,
    pub ways: u32,
    pub line_bytes: u32,
    /// Hit latency in core cycles.
    pub hit_latency: u32,
    /// Miss-status-holding registers (outstanding misses).
    pub mshrs: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Line-aligned base of `addr`.
    pub fn line_of(&self, addr: u32) -> u32 {
        addr & !(self.line_bytes - 1)
    }
}

/// GDDR3 DRAM timing, in core cycles (§V: "GPGPU-Sim simulates timing for
/// ... the memory controllers, and the GDDR3 memory").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct DramConfig {
    pub banks: u32,
    /// Row-activate to column-access delay.
    pub t_rcd: u32,
    /// Column-access (CAS) latency.
    pub t_cl: u32,
    /// Precharge latency.
    pub t_rp: u32,
    /// Minimum row-open time (activate-to-precharge).
    pub t_ras: u32,
    /// Cycles to burst one line over the data bus (128 B at 32 B/cycle).
    pub burst_cycles: u32,
    /// Row-buffer size in bytes (consecutive addresses in one row).
    pub row_bytes: u32,
    /// Request queue depth per memory controller (Table I: 32).
    pub queue_size: u32,
}

/// Interconnection-network parameters (Table I's flit/VC entries,
/// collapsed into a latency + per-port bandwidth model).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IcntConfig {
    /// One-way traversal latency in cycles.
    pub latency: u32,
    /// Flit payload in bytes (Table I: 32 B).
    pub flit_bytes: u32,
}

/// Warp scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Table I's policy: rotate fairly through ready warps.
    RoundRobin,
    /// Greedy-then-oldest: keep issuing from the current warp until it
    /// stalls, then pick the oldest ready warp — the common alternative
    /// in GPGPU-Sim studies, exposed here as an ablation.
    GreedyThenOldest,
}

/// Full GPU configuration (Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct GpuConfig {
    /// Streaming multiprocessors (Table I: 30, in 10 clusters).
    pub num_sms: u32,
    /// SIMD pipeline width (Table I: 8) — a 32-wide warp issues over
    /// `warp_size / simd_width` = 4 cycles.
    pub simd_width: u32,
    /// Threads per warp (Table I: 32).
    pub warp_size: u32,
    /// Maximum resident threads per SM (Table I: 1024).
    pub max_threads_per_sm: u32,
    /// Warp scheduling policy (Table I: round robin).
    pub sched: SchedPolicy,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Registers per SM (Table I: 16384) — bounds resident blocks.
    pub regs_per_sm: u32,
    /// Shared memory per SM in bytes (Table I: 16 KB).
    pub shared_mem_per_sm: u32,
    /// Shared-memory banks (16 on this generation).
    pub shared_banks: u32,
    /// Shared-memory access latency (pipelined; charged as issue-to-use).
    pub shared_latency: u32,
    /// Per-SM non-coherent L1 data cache (Fermi-style, §II-A).
    pub l1: CacheConfig,
    /// Unified L2, banked per memory slice (Table I: 64 KB/slice, 8-way,
    /// 128 B lines).
    pub l2: CacheConfig,
    /// Memory slices / controllers (Table I: 8).
    pub num_mem_slices: u32,
    pub dram: DramConfig,
    pub icnt: IcntConfig,
    /// Device (global) memory size in bytes.
    pub device_mem_bytes: u32,
    /// Maximum cycles before a launch is declared hung (watchdog).
    pub watchdog_cycles: u64,
    /// Cycle the SMs' core phase on a scoped worker pool instead of
    /// serially. Results are bit-identical to serial execution — both
    /// paths run the same two-phase compute/apply cycle and the apply
    /// phase always merges SM outputs in SM-id order (see DESIGN.md,
    /// "Parallel execution engine").
    #[serde(default)]
    pub parallel_sms: bool,
    /// Worker-thread count for `parallel_sms` (capped at `num_sms`);
    /// `0` means one per available core. Setting an explicit count also
    /// forces the pool on machines reporting a single core, which the
    /// determinism suite uses to exercise the parallel path everywhere.
    #[serde(default)]
    pub sm_workers: u32,
    /// Event-driven fast forwarding: gate quiescent components out of
    /// active cycles and jump the global clock over windows where no
    /// component can make progress (see DESIGN.md, "Event-driven cycle
    /// skipping"). Results are bit-identical either way — cycle counts,
    /// stats, race logs and trace streams never depend on this flag —
    /// so it exists purely as an escape hatch for bisecting the
    /// fast-forward machinery against the dense loop.
    #[serde(default = "default_cycle_skip")]
    pub cycle_skip: bool,
}

// Referenced from the `Deserialize` expansion only (the offline stub
// derive expands to nothing, so rustc can't see the use).
#[allow(dead_code)]
fn default_cycle_skip() -> bool {
    true
}

impl GpuConfig {
    /// Table I: the Quadro FX5800 configuration with Fermi-style caches.
    pub fn quadro_fx5800() -> Self {
        Self {
            num_sms: 30,
            simd_width: 8,
            warp_size: 32,
            max_threads_per_sm: 1024,
            sched: SchedPolicy::RoundRobin,
            max_blocks_per_sm: 8,
            regs_per_sm: 16384,
            shared_mem_per_sm: 16 * 1024,
            shared_banks: 16,
            shared_latency: 24,
            l1: CacheConfig {
                size_bytes: 48 * 1024,
                ways: 6,
                line_bytes: 128,
                hit_latency: 30,
                mshrs: 64,
            },
            l2: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 8,
                line_bytes: 128,
                hit_latency: 20,
                mshrs: 64,
            },
            num_mem_slices: 8,
            dram: DramConfig {
                banks: 8,
                t_rcd: 12,
                t_cl: 10,
                t_rp: 10,
                t_ras: 25,
                burst_cycles: 4,
                row_bytes: 2048,
                queue_size: 32,
            },
            icnt: IcntConfig { latency: 8, flit_bytes: 32 },
            device_mem_bytes: 192 * 1024 * 1024,
            watchdog_cycles: 300_000_000,
            parallel_sms: false,
            sm_workers: 0,
            cycle_skip: true,
        }
    }

    /// An NVIDIA Fermi-class configuration (the generation whose cost
    /// numbers §VI-C2 quotes): 16 SMs, 1536 threads per SM, 48 KB shared
    /// memory with 32 banks, larger L2 slices.
    pub fn fermi() -> Self {
        let mut c = Self::quadro_fx5800();
        c.num_sms = 16;
        c.simd_width = 16; // two 16-wide pipelines per Fermi SM
        c.max_threads_per_sm = 1536;
        c.regs_per_sm = 32768;
        c.shared_mem_per_sm = 48 * 1024;
        c.shared_banks = 32;
        c.l2.size_bytes = 96 * 1024;
        c
    }

    /// A scaled-down configuration for unit tests: 4 SMs, small caches.
    /// Same latencies and structure, far faster to simulate.
    pub fn test_small() -> Self {
        let mut c = Self::quadro_fx5800();
        c.num_sms = 4;
        c.num_mem_slices = 2;
        c.l1.size_bytes = 8 * 1024;
        c.l1.ways = 4;
        c.l2.size_bytes = 16 * 1024;
        c.device_mem_bytes = 16 * 1024 * 1024;
        c.watchdog_cycles = 200_000_000;
        c
    }

    /// Warps per fully occupied SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// Cycles a warp instruction occupies the issue stage
    /// (`warp_size / simd_width`).
    pub fn issue_cycles(&self) -> u64 {
        u64::from(self.warp_size / self.simd_width)
    }

    /// Memory slice servicing a device address (line-interleaved).
    pub fn slice_of(&self, addr: u32) -> u32 {
        (addr / self.l2.line_bytes) % self.num_mem_slices
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.warp_size == 0 || self.simd_width == 0 {
            return Err("warp size and SIMD width must be non-zero".into());
        }
        // Register rows and lane masks are `LANES` (32) wide.
        if self.warp_size > crate::lanes::LANES as u32 {
            return Err(format!("warp size must be at most {} lanes", crate::lanes::LANES));
        }
        if self.shared_banks == 0 {
            return Err("shared memory needs at least one bank".into());
        }
        if self.warp_size % self.simd_width != 0 {
            return Err("warp size must be a multiple of SIMD width".into());
        }
        if !self.l2.line_bytes.is_power_of_two() || !self.l1.line_bytes.is_power_of_two() {
            return Err("cache lines must be powers of two".into());
        }
        if self.l1.sets() == 0 || self.l2.sets() == 0 {
            return Err("cache must have at least one set".into());
        }
        if !self.num_mem_slices.is_power_of_two() {
            return Err("memory slices must be a power of two".into());
        }
        if self.max_threads_per_sm % self.warp_size != 0 {
            return Err("threads per SM must be a multiple of warp size".into());
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::quadro_fx5800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_skip_is_on_in_every_stock_config() {
        assert!(GpuConfig::quadro_fx5800().cycle_skip);
        assert!(GpuConfig::test_small().cycle_skip);
        assert!(GpuConfig::default().cycle_skip);
        assert!(default_cycle_skip());
    }

    #[test]
    fn fx5800_matches_table1() {
        let c = GpuConfig::quadro_fx5800();
        assert_eq!(c.num_sms, 30);
        assert_eq!(c.simd_width, 8);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.max_threads_per_sm, 1024);
        assert_eq!(c.regs_per_sm, 16384);
        assert_eq!(c.shared_mem_per_sm, 16 * 1024);
        assert_eq!(c.num_mem_slices, 8);
        assert_eq!(c.l2.size_bytes, 64 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l2.line_bytes, 128);
        assert_eq!(c.dram.queue_size, 32);
        assert!(c.validate().is_ok());
        assert_eq!(c.issue_cycles(), 4);
        assert_eq!(c.max_warps_per_sm(), 32);
    }

    #[test]
    fn slice_interleaving_is_line_granular() {
        let c = GpuConfig::quadro_fx5800();
        assert_eq!(c.slice_of(0), 0);
        assert_eq!(c.slice_of(127), 0);
        assert_eq!(c.slice_of(128), 1);
        assert_eq!(c.slice_of(128 * 8), 0);
    }

    #[test]
    fn cache_geometry() {
        let c = GpuConfig::quadro_fx5800().l2;
        assert_eq!(c.sets(), 64);
        assert_eq!(c.line_of(0x1234), 0x1200 | 0x00); // 128-byte aligned
        assert_eq!(c.line_of(0x1234) % 128, 0);
    }

    #[test]
    fn test_config_is_valid() {
        assert!(GpuConfig::test_small().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_geometry() {
        let mut c = GpuConfig::quadro_fx5800();
        c.simd_width = 7;
        assert!(c.validate().is_err());
        let mut c2 = GpuConfig::quadro_fx5800();
        c2.num_mem_slices = 3;
        assert!(c2.validate().is_err());
    }

    /// Configs the issue stage cannot run are rejected, not left to
    /// panic: a zero divisor in `validate` itself, a zero bank count in
    /// the bank-conflict model, or warps wider than the 32-lane rows and
    /// masks.
    #[test]
    fn validation_rejects_configs_the_issue_stage_cannot_run() {
        let bad: [fn(&mut GpuConfig); 5] = [
            |c| c.warp_size = 0,
            |c| c.simd_width = 0,
            |c| c.shared_banks = 0,
            |c| c.warp_size = 64,
            |c| {
                c.warp_size = 33;
                c.simd_width = 11;
                c.max_threads_per_sm = 33 * 32;
            },
        ];
        for (i, spoil) in bad.iter().enumerate() {
            for base in [GpuConfig::quadro_fx5800(), GpuConfig::fermi(), GpuConfig::test_small()] {
                let mut c = base;
                spoil(&mut c);
                assert!(c.validate().is_err(), "case {i}: {c:?}");
            }
        }
        for good in [GpuConfig::quadro_fx5800(), GpuConfig::fermi(), GpuConfig::test_small()] {
            assert!(good.validate().is_ok());
        }
        let mut narrow = GpuConfig::test_small();
        narrow.warp_size = 16;
        assert!(narrow.validate().is_ok(), "warps narrower than 32 lanes still run");
    }
}
