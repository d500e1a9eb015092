//! # haccrg-baselines — software race-detection baselines
//!
//! The two comparison points of the paper's §VI-B performance study:
//!
//! * [`sw_haccrg`] — **HAccRG-SW**, the same detection algorithm executed
//!   entirely in software: every tracked access is instrumented with a
//!   shadow-word load, the state-machine ALU work, and a shadow-word
//!   store, all through the real memory hierarchy. The paper measures
//!   6.6× / 12.4× / 18.1× slowdowns on SCAN / HIST / KMEANS.
//! * [`grace`] — a behavioural re-implementation of **GRace-add**
//!   (Zheng et al.), the prior instrumentation-based detector: per-warp
//!   access logs in device memory plus a pairwise log sweep at every
//!   barrier — "two orders of magnitude slower than our software
//!   implementation".
//!
//! Both are built on [`instrument`], a general kernel-rewriting pass for
//! the `gpu-sim` IR. [`runner`] prepares any Table II benchmark,
//! instruments its kernels, allocates the auxiliary device structures and
//! runs it with no detector attached: the baselines are measured for
//! their *cost*, which comes from the instrumented execution.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod grace;
pub mod instrument;
pub mod oracle;
pub mod runner;
pub mod sw_haccrg;

pub use runner::{run_baseline, BaselineKind};
