//! KMEANS — parallel k-means clustering, Table II's KMEANS entry
//! (a CUDA port of the classic parallel k-means algorithm).
//!
//! Two kernels: **assign** maps each point to its nearest centroid;
//! **update** recomputes the centroids. The update kernel is written for
//! a *single thread-block* (one thread per (cluster, feature) pair, each
//! sweeping the whole point set). The paper found that the distributed
//! benchmark launches it with multiple blocks "to scale up the workload",
//! so every block rewrites the same centroid array — the documented
//! multi-block data race (§VI-A). [`KMeans::default`] reproduces that
//! launch; [`KMeans::single_block`] is the clean configuration.

use gpu_sim::prelude::*;

use crate::{word_addr, BenchInstance, Benchmark, LaunchSpec, Scale};

/// The KMEANS benchmark.
pub struct KMeans {
    /// Blocks used for the update kernel; 1 = race-free design point.
    pub update_blocks: u32,
}

impl Default for KMeans {
    fn default() -> Self {
        KMeans { update_blocks: 2 }
    }
}

impl KMeans {
    /// Clean single-block update launch.
    pub fn single_block() -> Self {
        KMeans { update_blocks: 1 }
    }

    fn geometry(scale: Scale) -> (u32, u32, u32) {
        // (points, features, clusters)
        match scale {
            Scale::Paper => (16 * 1024, 8, 16),
            Scale::Repro => (4096, 4, 8),
            Scale::Tiny => (512, 4, 8),
        }
    }
}

/// Assign kernel: one thread per point; nearest centroid by squared
/// Euclidean distance.
fn assign_kernel(n: u32, d: u32, k: u32) -> Kernel {
    let mut b = KernelBuilder::new("kmeans_assign");
    let pointsp = b.param(0);
    let centroidsp = b.param(1);
    let memberp = b.param(2);

    let gt = b.global_tid();
    let inrange = b.setp(CmpOp::LtU, gt, n);
    b.if_then(inrange, |b| {
        let best = b.mov(0u32);
        let best_d = b.mov(f32::MAX);
        let my_base = b.mul(gt, d);
        b.for_range(0u32, k, 1u32, |b, c| {
            let c_base = b.mul(c, d);
            let dist = b.mov(0.0f32);
            b.for_range(0u32, d, 1u32, |b, f| {
                let pi = b.add(my_base, f);
                let pa = word_addr(b, pointsp, pi);
                let pv = b.ld(Space::Global, pa, 0, 4);
                let ci = b.add(c_base, f);
                let ca = word_addr(b, centroidsp, ci);
                let cv = b.ld(Space::Global, ca, 0, 4);
                let diff = b.fsub(pv, cv);
                let sq = b.fmul(diff, diff);
                b.bin_into(BinOp::FAdd, dist, dist, sq);
            });
            let closer = b.setp(CmpOp::FLt, dist, best_d);
            b.if_then(closer, |b| {
                b.assign(best_d, dist);
                b.assign(best, c);
            });
        });
        let ma = word_addr(b, memberp, gt);
        b.st(Space::Global, ma, 0, best, 4);
    });
    b.build()
}

/// Update kernel (single-block design): thread `(c·d + f)` sweeps every
/// point, summing feature `f` of the members of cluster `c`, then writes
/// `centroids[c][f] = sum / count`. Launching it with more than one block
/// makes every block redo and rewrite the same sums — the documented
/// cross-block WAW/RAW races.
fn update_kernel(n: u32, d: u32, k: u32) -> Kernel {
    let mut b = KernelBuilder::new("kmeans_update");
    let pointsp = b.param(0);
    let memberp = b.param(1);
    let centroidsp = b.param(2);

    let tid = b.tid();
    let active = b.setp(CmpOp::LtU, tid, k * d);
    b.if_then(active, |b| {
        let c = b.div(tid, d);
        let f = b.rem(tid, d);
        let sum = b.mov(0.0f32);
        let count = b.mov(0u32);
        b.for_range(0u32, n, 1u32, |b, p| {
            let ma = word_addr(b, memberp, p);
            let m = b.ld(Space::Global, ma, 0, 4);
            let mine = b.setp(CmpOp::Eq, m, c);
            b.if_then(mine, |b| {
                let pi = b.mad(p, d, f);
                let pa = word_addr(b, pointsp, pi);
                let pv = b.ld(Space::Global, pa, 0, 4);
                b.bin_into(BinOp::FAdd, sum, sum, pv);
                b.bin_into(BinOp::Add, count, count, 1u32);
            });
        });
        let cnt_nonzero = b.setp(CmpOp::GtU, count, 0u32);
        b.if_then(cnt_nonzero, |b| {
            let cf = b.un(UnOp::I2F, count);
            let mean = b.fdiv(sum, cf);
            let ca = word_addr(b, centroidsp, tid);
            b.st(Space::Global, ca, 0, mean, 4);
        });
    });
    b.build()
}

impl Benchmark for KMeans {
    fn name(&self) -> &'static str {
        "KMEANS"
    }

    fn paper_inputs(&self) -> &'static str {
        "16K points, 8 features, 16 clusters"
    }

    fn prepare(&self, gpu: &mut Gpu, scale: Scale) -> BenchInstance {
        let (n, d, k) = Self::geometry(scale);
        let points = crate::rand_f32(0x6315, (n * d) as usize, 0.0, 100.0);
        let init_centroids: Vec<f32> = (0..(k * d) as usize).map(|i| points[i]).collect();

        let pointsp = gpu.alloc(n * d * 4);
        let centroidsp = gpu.alloc(k * d * 4);
        let memberp = gpu.alloc(n * 4);
        gpu.mem.copy_from_host_f32(pointsp, &points);
        gpu.mem.copy_from_host_f32(centroidsp, &init_centroids);

        // Host reference: one assign + one update iteration.
        let mut member = vec![0u32; n as usize];
        for p in 0..n as usize {
            let mut best = 0u32;
            let mut best_d = f32::MAX;
            for c in 0..k as usize {
                let mut dist = 0f32;
                for f in 0..d as usize {
                    let diff = points[p * d as usize + f] - init_centroids[c * d as usize + f];
                    dist += diff * diff;
                }
                if dist < best_d {
                    best_d = dist;
                    best = c as u32;
                }
            }
            member[p] = best;
        }
        let mut new_centroids = init_centroids.clone();
        for c in 0..k as usize {
            let members: Vec<usize> = (0..n as usize).filter(|&p| member[p] == c as u32).collect();
            if members.is_empty() {
                continue;
            }
            for f in 0..d as usize {
                // Same accumulation order as the device sweep.
                let mut sum = 0f32;
                for &p in &members {
                    sum += points[p * d as usize + f];
                }
                new_centroids[c * d as usize + f] = sum / members.len() as f32;
            }
        }
        let member_expected = member;

        let block = (k * d).div_ceil(32) * 32;
        BenchInstance {
            name: self.name(),
            inputs: format!("{n} points, {d} features, {k} clusters, {} update block(s)", self.update_blocks),
            launches: vec![
                LaunchSpec {
                    kernel: assign_kernel(n, d, k),
                    grid: n.div_ceil(128),
                    block: 128,
                    params: vec![pointsp, centroidsp, memberp],
                },
                LaunchSpec {
                    kernel: update_kernel(n, d, k),
                    grid: self.update_blocks,
                    block,
                    params: vec![pointsp, memberp, centroidsp],
                },
            ],
            verify: Box::new(move |mem| {
                let got_m = mem.copy_to_host_u32(memberp, member_expected.len());
                if got_m != member_expected {
                    return Err("membership mismatch".into());
                }
                let got_c = mem.copy_to_host_f32(centroidsp, new_centroids.len());
                for (i, (&g, &w)) in got_c.iter().zip(&new_centroids).enumerate() {
                    if !crate::close(g, w, 1e-3) {
                        return Err(format!("centroid {i}: got {g}, want {w}"));
                    }
                }
                Ok(())
            }),
            expect_races: self.update_blocks > 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, RunConfig};

    #[test]
    fn single_block_update_is_correct_and_race_free() {
        let out = run(&KMeans::single_block(), &RunConfig::detecting(Scale::Tiny)).unwrap();
        out.verified.as_ref().expect("clustering correct");
        assert_eq!(out.races.distinct(), 0, "{:?}", out.races.records().first());
    }

    #[test]
    fn multi_block_update_reproduces_the_documented_race() {
        let out = run(&KMeans::default(), &RunConfig::detecting(Scale::Tiny)).unwrap();
        out.verified.as_ref().expect("blocks write identical values");
        assert!(out.races.any(), "multi-block update must race");
        assert!(out
            .races
            .records()
            .iter()
            .any(|r| r.space == haccrg::access::MemSpace::Global && r.prev.block != r.cur.block));
    }
}
