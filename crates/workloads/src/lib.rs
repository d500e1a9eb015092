//! # haccrg-workloads — the paper's benchmark suite, rewritten
//!
//! The ten CUDA applications of Table II, re-implemented against the
//! `gpu-sim` kernel DSL with the same algorithms, block/warp
//! decompositions, memory layouts and synchronization structure:
//!
//! | module     | benchmark | provenance |
//! |------------|-----------|------------|
//! | [`mcarlo`]  | MCARLO — Monte Carlo option pricing            | CUDA SDK |
//! | [`scan`]    | SCAN — parallel prefix sum (single-block design)| CUDA SDK |
//! | [`fwalsh`]  | FWALSH — fast Walsh–Hadamard transform          | CUDA SDK |
//! | [`hist`]    | HIST — 64-bin byte histogram                    | CUDA SDK |
//! | [`sortnw`]  | SORTNW — bitonic sorting networks               | CUDA SDK |
//! | [`reduce`]  | REDUCE — threadfence single-pass reduction      | CUDA SDK |
//! | [`psum`]    | PSUM — threadfence partial-sum microbenchmark   | CUDA guide |
//! | [`offt`]    | OFFT — ocean-FFT spectrum (with the real WAR bug)| CUDA SDK |
//! | [`kmeans`]  | KMEANS — k-means clustering (single-block design)| Rodinia-style |
//! | [`hash`]    | HASH — lock-protected hash-table microbenchmark | paper §V |
//!
//! SCAN and KMEANS carry the *documented* multi-block races the paper
//! found (§VI-A); OFFT carries its address-calculation WAR bug. The
//! [`inject`] module programmatically plants the 41 artificial races of
//! §VI-A (barrier removal, cross-block accesses, fence removal,
//! critical-section violations), and [`runner`] drives everything through
//! the simulator with any detector configuration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fwalsh;
pub mod hash;
pub mod hist;
pub mod inject;
pub mod kmeans;
pub mod mcarlo;
pub mod offt;
pub mod psum;
pub mod reduce;
pub mod runner;
pub mod scan;
pub mod sortnw;
pub mod variants;

use gpu_sim::prelude::*;

/// One kernel launch of a prepared benchmark.
pub struct LaunchSpec {
    /// The kernel to run.
    pub kernel: Kernel,
    /// Grid size in blocks.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Kernel parameters (device pointers and scalars).
    pub params: Vec<u32>,
}

/// Input scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper's Table II inputs. Faithful but slow to simulate.
    Paper,
    /// Reduced inputs with identical structure — the default for the
    /// table/figure harness (documented substitution in DESIGN.md).
    Repro,
    /// Minimal inputs for unit tests.
    Tiny,
}

/// A functional check of device memory after a benchmark's launches.
pub type Verify = Box<dyn Fn(&DeviceMemory) -> Result<(), String>>;

/// A benchmark instance: device memory initialized, kernels built.
pub struct BenchInstance {
    /// Benchmark name (Table II).
    pub name: &'static str,
    /// Human-readable description of the inputs used.
    pub inputs: String,
    /// The launches to execute, in order.
    pub launches: Vec<LaunchSpec>,
    /// Functional check against a host reference, run after all launches.
    pub verify: Verify,
    /// Whether this instance is *expected* to contain real data races
    /// (the documented SCAN/KMEANS multi-block and OFFT bugs).
    pub expect_races: bool,
}

/// A benchmark from the Table II suite.
pub trait Benchmark: Send + Sync {
    /// Table II name.
    fn name(&self) -> &'static str;
    /// Table II input description (the paper's configuration).
    fn paper_inputs(&self) -> &'static str;
    /// Allocate inputs on `gpu` and build the kernels.
    fn prepare(&self, gpu: &mut Gpu, scale: Scale) -> BenchInstance;
}

/// The full Table II suite, in the paper's order.
pub fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(mcarlo::McArlo),
        Box::new(scan::Scan::default()),
        Box::new(fwalsh::FWalsh),
        Box::new(hist::Hist),
        Box::new(sortnw::SortNw),
        Box::new(reduce::Reduce::default()),
        Box::new(psum::PSum::default()),
        Box::new(offt::OffT::default()),
        Box::new(kmeans::KMeans::default()),
        Box::new(hash::Hash),
    ]
}

/// Look a benchmark up by its Table II name (case-insensitive).
pub fn benchmark_by_name(name: &str) -> Option<Box<dyn Benchmark>> {
    all_benchmarks().into_iter().find(|b| b.name().eq_ignore_ascii_case(name))
}

// ---- shared kernel-builder helpers ----

/// `base + idx * 4` (word addressing).
pub(crate) fn word_addr(b: &mut KernelBuilder, base: Reg, idx: Reg) -> Reg {
    let off = b.shl(idx, 2u32);
    b.add(base, off)
}

/// The workload input generator: SplitMix64 from `seed ^
/// 0x5851_f42d_4c95_7f2d`. Every input, and so every table and digest,
/// depends on this exact stream; the first draws are pinned in the
/// tests below.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Deterministic pseudo-random f32 values in `[lo, hi)`.
pub(crate) fn rand_f32(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| lo + ((rng.next() >> 40) as f32 / (1u64 << 24) as f32) * (hi - lo)).collect()
}

/// Deterministic pseudo-random u32 values below `bound`.
pub(crate) fn rand_u32(seed: u64, n: usize, bound: u32) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| (rng.next() % u64::from(bound)) as u32).collect()
}

/// Deterministic pseudo-random bytes.
pub(crate) fn rand_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next() as u8).collect()
}

/// Relative-tolerance float comparison for verifiers.
pub(crate) fn close(a: f32, b: f32, tol: f32) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_ten_table2_benchmarks() {
        let names: Vec<_> = all_benchmarks().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            ["MCARLO", "SCAN", "FWALSH", "HIST", "SORTNW", "REDUCE", "PSUM", "OFFT", "KMEANS", "HASH"]
        );
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert!(benchmark_by_name("scan").is_some());
        assert!(benchmark_by_name("Reduce").is_some());
        assert!(benchmark_by_name("nope").is_none());
    }

    #[test]
    fn rand_helpers_are_deterministic() {
        assert_eq!(rand_f32(7, 8, 0.0, 1.0), rand_f32(7, 8, 0.0, 1.0));
        assert_eq!(rand_u32(7, 8, 100), rand_u32(7, 8, 100));
        assert_eq!(rand_bytes(7, 8), rand_bytes(7, 8));
        assert_ne!(rand_bytes(7, 8), rand_bytes(8, 8));
    }

    #[test]
    fn rand_streams_are_frozen() {
        // A change to the generator moves every workload input.
        assert_eq!(rand_u32(7, 4, 100), [16, 0, 28, 86]);
        assert_eq!(rand_bytes(7, 4), [80, 140, 56, 22]);
        let bits: Vec<u32> = rand_f32(7, 4, 0.0, 1.0).iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, [0x3f7a_e332, 0x3ec3_9286, 0x3f20_9a68, 0x3eb0_44e4]);
    }

    #[test]
    fn close_tolerates_scale() {
        assert!(close(1000.0, 1000.5, 1e-3));
        assert!(!close(1.0, 1.5, 1e-3));
    }
}
