//! # gpu-sim — a cycle-level SIMT GPU simulator
//!
//! The execution substrate for the HAccRG reproduction: a from-scratch
//! Rust re-implementation of the parts of GPGPU-Sim 3.0.2 the paper's
//! evaluation exercises, configured as the NVIDIA Quadro FX5800 of
//! Table I with Fermi-style caches:
//!
//! * streaming multiprocessors with in-order SIMD pipelines, round-robin
//!   warp scheduling and PDOM SIMT reconvergence stacks — [`sm`], [`simt`];
//! * a miniature PTX-flavoured ISA and a structured kernel-builder DSL
//!   that replaces CUDA — [`isa`];
//! * banked shared memory with bank-conflict serialization, intra-warp
//!   coalescing, per-SM non-coherent L1 data caches (write-through for
//!   global stores), a banked coherent unified L2, queued interconnect
//!   links, and FR-FCFS GDDR3 memory controllers — [`mem`];
//! * block-wide barriers, memory fences (`membar` waits for the warp's
//!   outstanding global stores to reach the L2 coherence point), and
//!   hardware atomics executed *at the memory slice*, which serializes
//!   contended locks exactly like the real machine — [`gpu`], [`sm`];
//! * hooks for the `haccrg` Race Detection Units: per-access shared/global
//!   checks, shadow-memory traffic charged through the same L2/DRAM path,
//!   barrier-time shadow invalidation stalls, L1-hit detection probes, and
//!   the Fig. 8 shared-shadow-in-global-memory mode — [`detector`].
//! * an opt-in observability layer: structured event tracing with a
//!   bounded ring recorder, cycle-sampled per-SM/per-slice metrics, and
//!   a Chrome/Perfetto trace exporter — [`trace`]. Zero-cost when
//!   disabled (the default).
//! * a host-side phase profiler attributing the simulator's own
//!   wall-clock time to component phases — [`prof`]. Also zero-cost
//!   when disabled.
//!
//! Simulations are fully deterministic.
//!
//! ## Quick example
//!
//! ```
//! use gpu_sim::prelude::*;
//!
//! // out[i] = in[i] + 1
//! let mut b = KernelBuilder::new("add1");
//! let inp = b.param(0);
//! let outp = b.param(1);
//! let t = b.global_tid();
//! let off = b.shl(t, 2u32);
//! let src = b.add(inp, off);
//! let v = b.ld(Space::Global, src, 0, 4);
//! let v1 = b.add(v, 1u32);
//! let dst = b.add(outp, off);
//! b.st(Space::Global, dst, 0, v1, 4);
//! let k = b.build();
//!
//! let mut gpu = Gpu::new(GpuConfig::test_small());
//! let input = gpu.alloc(64 * 4);
//! let output = gpu.alloc(64 * 4);
//! gpu.mem.copy_from_host_u32(input, &(0..64).collect::<Vec<_>>());
//! let res = gpu.launch(&k, 2, 32, &[input, output]).unwrap();
//! assert!(res.stats.cycles > 0);
//! assert_eq!(gpu.mem.copy_to_host_u32(output, 64), (1..=64).collect::<Vec<_>>());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod active;
pub mod config;
pub mod detector;
pub mod device;
pub mod exec;
pub mod fuzzgen;
pub mod gpu;
pub mod isa;
pub mod lanes;
pub mod mem;
pub mod prof;
pub mod simt;
pub mod sm;
pub mod stats;
pub mod trace;

/// Commonly used types.
pub mod prelude {
    pub use crate::config::GpuConfig;
    pub use crate::detector::DetectorMode;
    pub use crate::device::DeviceMemory;
    pub use crate::gpu::{DetectorSetup, Gpu, LaunchResult, SimError};
    pub use crate::isa::builder::KernelBuilder;
    pub use crate::isa::{AtomOp, BinOp, CmpOp, Kernel, Op, Reg, Space, Src, UnOp};
    pub use crate::stats::{SimStats, SkipStats};
    pub use crate::trace::{
        EventSink, MetricsSample, NullSink, RingRecorder, SimEvent, Tracer,
    };
}

pub use prelude::*;
