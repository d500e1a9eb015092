//! Functional ISA semantics through full launches: selection, multiply-
//! add, special registers, sub-word memory accesses, atomic variants,
//! nested divergence, and failure modes.

use gpu_sim::prelude::*;

fn gpu() -> Gpu {
    Gpu::new(GpuConfig::test_small())
}

#[test]
fn sel_and_mad_semantics() {
    // out[i] = i < 8 ? i*3 + 100 : i*5 + 7
    let mut b = KernelBuilder::new("selmad");
    let outp = b.param(0);
    let t = b.global_tid();
    let p = b.setp(CmpOp::LtU, t, 8u32);
    let a = b.mad(t, 3u32, 100u32);
    let c = b.mad(t, 5u32, 7u32);
    let v = b.sel(p, a, c);
    let off = b.shl(t, 2u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, v, 4);
    let k = b.build();

    let mut gpu = gpu();
    let outp = gpu.alloc(32 * 4);
    gpu.launch(&k, 1, 32, &[outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, 32);
    for (i, &v) in out.iter().enumerate() {
        let i = i as u32;
        assert_eq!(v, if i < 8 { i * 3 + 100 } else { i * 5 + 7 });
    }
}

#[test]
fn fmad_computes_in_f32() {
    // out[i] = i as f32 * 0.5 + 1.25
    let mut b = KernelBuilder::new("fmad");
    let outp = b.param(0);
    let t = b.global_tid();
    let tf = b.un(UnOp::I2F, t);
    let v = b.fmad(tf, 0.5f32, 1.25f32);
    let off = b.shl(t, 2u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, v, 4);
    let k = b.build();

    let mut gpu = gpu();
    let outp = gpu.alloc(32 * 4);
    gpu.launch(&k, 1, 32, &[outp]).unwrap();
    let out = gpu.mem.copy_to_host_f32(outp, 32);
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, i as f32 * 0.5 + 1.25);
    }
}

#[test]
fn special_registers_report_launch_geometry() {
    // out[gtid] = tid | (ctaid << 8) | (ntid << 16) | (nctaid << 24)
    let mut b = KernelBuilder::new("sregs");
    let outp = b.param(0);
    let tid = b.tid();
    let ctaid = b.ctaid();
    let ntid = b.ntid();
    let nctaid = b.nctaid();
    let c8 = b.shl(ctaid, 8u32);
    let n16 = b.shl(ntid, 16u32);
    let g24 = b.shl(nctaid, 24u32);
    let v0 = b.or(tid, c8);
    let v1 = b.or(v0, n16);
    let v = b.or(v1, g24);
    let gt = b.global_tid();
    let off = b.shl(gt, 2u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, v, 4);
    let k = b.build();

    let mut gpu = gpu();
    let outp = gpu.alloc(3 * 40 * 4);
    gpu.launch(&k, 3, 40, &[outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, 3 * 40);
    for block in 0..3u32 {
        for t in 0..40u32 {
            let got = out[(block * 40 + t) as usize];
            assert_eq!(got & 0xFF, t & 0xFF);
            assert_eq!((got >> 8) & 0xFF, block);
            assert_eq!((got >> 16) & 0xFF, 40);
            assert_eq!(got >> 24, 3);
        }
    }
}

#[test]
fn laneid_and_warpid() {
    let mut b = KernelBuilder::new("lanes");
    let outp = b.param(0);
    let lane = b.laneid();
    let warp = b.warpid();
    let w8 = b.shl(warp, 8u32);
    let v = b.or(lane, w8);
    let t = b.tid();
    let off = b.shl(t, 2u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, v, 4);
    let k = b.build();

    let mut gpu = gpu();
    let outp = gpu.alloc(96 * 4);
    gpu.launch(&k, 1, 96, &[outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, 96);
    for (t, &v) in out.iter().enumerate() {
        assert_eq!(v & 0xFF, (t as u32) % 32, "lane of thread {t}");
        assert_eq!(v >> 8, (t as u32) / 32, "warp of thread {t}");
    }
}

#[test]
fn subword_loads_and_stores() {
    // Bytes in, halfwords out: out16[i] = in8[i] * 2 (zero-extended).
    let mut b = KernelBuilder::new("subword");
    let inp = b.param(0);
    let outp = b.param(1);
    let t = b.global_tid();
    let src = b.add(inp, t);
    let v = b.ld(Space::Global, src, 0, 1);
    let v2 = b.mul(v, 2u32);
    let off = b.shl(t, 1u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, v2, 2);
    let k = b.build();

    let mut gpu = gpu();
    let inp = gpu.alloc(64);
    let outp = gpu.alloc(128);
    gpu.mem.copy_from_host_u8(inp, &(0..64).map(|i| (i * 3) as u8).collect::<Vec<_>>());
    gpu.launch(&k, 2, 32, &[inp, outp]).unwrap();
    for i in 0..64u32 {
        let got = gpu.mem.read(outp + i * 2, 2);
        assert_eq!(got, (((i * 3) as u8) as u32) * 2, "element {i}");
    }
}

#[test]
fn atomic_variants_end_to_end() {
    // Threads atomically fold min/max/or into fixed cells.
    let mut b = KernelBuilder::new("atoms");
    let cells = b.param(0);
    let t = b.global_tid();
    b.atom(Space::Global, AtomOp::Min, cells, 0, t, 0u32);
    b.atom(Space::Global, AtomOp::Max, cells, 4, t, 0u32);
    let bit = b.and(t, 31u32);
    let one = b.mov(1u32);
    let mask = b.bin(BinOp::Shl, one, bit);
    b.atom(Space::Global, AtomOp::Or, cells, 8, mask, 0u32);
    let k = b.build();

    let mut gpu = gpu();
    let cells = gpu.alloc(12);
    gpu.mem.write_u32(cells, u32::MAX); // min identity
    gpu.launch(&k, 2, 32, &[cells]).unwrap();
    assert_eq!(gpu.mem.read_u32(cells), 0, "min over 0..64");
    assert_eq!(gpu.mem.read_u32(cells + 4), 63, "max over 0..64");
    assert_eq!(gpu.mem.read_u32(cells + 8), u32::MAX, "all 32 bits OR'd");
}

#[test]
fn shared_memory_atomics_serialize_within_block() {
    let mut b = KernelBuilder::new("shatom");
    let sh = b.shared_alloc(4);
    let outp = b.param(0);
    let shreg = b.mov(sh);
    b.atom(Space::Shared, AtomOp::Add, shreg, 0, 1u32, 0u32);
    b.bar();
    let t = b.tid();
    let lane0 = b.setp(CmpOp::Eq, t, 0u32);
    b.if_then(lane0, |b| {
        let v = b.ld(Space::Shared, shreg, 0, 4);
        let ctaid = b.ctaid();
        let off = b.shl(ctaid, 2u32);
        let dst = b.add(outp, off);
        b.st(Space::Global, dst, 0, v, 4);
    });
    let k = b.build();

    let mut gpu = gpu();
    let outp = gpu.alloc(16);
    gpu.launch(&k, 4, 64, &[outp]).unwrap();
    assert_eq!(gpu.mem.copy_to_host_u32(outp, 4), vec![64; 4]);
}

/// One warp's 32 lanes `atom.add` at `tid * 64` into a 4-byte shared
/// allocation: only lane 0 lands inside it. A lane past the allocation
/// reads 0, writes nothing and counts one `mem_faults`, as a faulting
/// load or store lane does.
#[test]
fn faulting_shared_atomic_lanes_count_one_fault_each() {
    let mut b = KernelBuilder::new("shatom_fault");
    let sh = b.shared_alloc(4);
    let outp = b.param(0);
    let t = b.tid();
    let off = b.shl(t, 6u32);
    let addr = b.add(off, sh);
    let old = b.atom(Space::Shared, AtomOp::Add, addr, 0, 5u32, 0u32);
    b.bar();
    let shreg = b.mov(sh);
    let word = b.ld(Space::Shared, shreg, 0, 4);
    let row = b.mad(t, 8u32, outp);
    b.st(Space::Global, row, 0, old, 4);
    b.st(Space::Global, row, 4, word, 4);
    let k = b.build();
    assert_eq!(k.shared_bytes, 4);

    let mut gpu = gpu();
    let outp = gpu.alloc(32 * 8);
    let res = gpu.launch(&k, 1, 32, &[outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, 64);
    for t in 0..32 {
        assert_eq!(out[2 * t], 0, "lane {t}: old value (0 when faulting)");
        assert_eq!(out[2 * t + 1], 5, "lane {t}: only lane 0's add reached the word");
    }
    assert_eq!(res.stats.atomics, 32);
    assert_eq!(res.stats.mem_faults, 31);
}

#[test]
fn nested_divergence_inside_loops() {
    // out[i] = count of odd bits processed with a divergent inner branch.
    let mut b = KernelBuilder::new("nested");
    let outp = b.param(0);
    let t = b.global_tid();
    let acc = b.mov(0u32);
    b.for_range(0u32, 8u32, 1u32, |b, j| {
        let sum = b.add(t, j);
        let bit = b.and(sum, 1u32);
        let odd = b.setp(CmpOp::Eq, bit, 1u32);
        b.if_then_else(
            odd,
            |b| b.bin_into(BinOp::Add, acc, acc, 3u32),
            |b| b.bin_into(BinOp::Add, acc, acc, 1u32),
        );
    });
    let off = b.shl(t, 2u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, acc, 4);
    let k = b.build();

    let mut gpu = gpu();
    let outp = gpu.alloc(64 * 4);
    gpu.launch(&k, 1, 64, &[outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, 64);
    for (t, &v) in out.iter().enumerate() {
        let expect: u32 = (0..8).map(|j| if (t as u32 + j) % 2 == 1 { 3 } else { 1 }).sum();
        assert_eq!(v, expect, "thread {t}");
    }
}

#[test]
fn watchdog_catches_infinite_loops() {
    let mut b = KernelBuilder::new("spin");
    let i = b.mov(0u32);
    b.while_loop(|b| b.setp(CmpOp::GeU, i, 0u32), |b| {
        b.bin_into(BinOp::Add, i, i, 1u32);
    });
    let k = b.build();
    let mut cfg = GpuConfig::test_small();
    cfg.watchdog_cycles = 50_000;
    let mut gpu = Gpu::new(cfg);
    assert!(matches!(gpu.launch(&k, 1, 32, &[]), Err(SimError::Hang { .. })));
}

#[test]
fn out_of_range_lane_accesses_fault_but_do_not_crash() {
    let mut b = KernelBuilder::new("wild");
    let t = b.global_tid();
    let addr = b.mul(t, 0x00FF_FFFFu32);
    let v = b.ld(Space::Global, addr, 0, 4);
    let sink = b.add(v, 1u32);
    let _ = sink;
    let k = b.build();
    let mut gpu = gpu();
    let res = gpu.launch(&k, 1, 32, &[]).unwrap();
    assert!(res.stats.cycles > 0);
}

/// Shared-memory lane semantics in one launch of two 40-thread blocks (a
/// full warp and an 8-lane last warp each): 1- and 2-byte stores and
/// loads, every lane of a warp atomically adding to one word (serialized
/// in lane order), and word accesses at a 16-byte stride that run past
/// the block's 132-byte allocation. A lane past the allocation loads 0,
/// its store is dropped and it counts one `mem_faults`; its word still
/// occupies a bank, so the conflict cycles include it.
#[test]
fn shared_lane_semantics_with_faults_and_partial_warp() {
    const THREADS: u32 = 40;
    let mut b = KernelBuilder::new("shared_lanes");
    let bytes = b.shared_alloc(THREADS); // 0..40
    let halves = b.shared_alloc(2 * THREADS); // 48..128
    let word = b.shared_alloc(4); // 128..132
    let outp = b.param(0);
    let t = b.tid();
    let gt = b.global_tid();
    let t3 = b.mad(t, 3u32, 1u32);
    let ab = b.add(t, bytes);
    b.st(Space::Shared, ab, 0, t3, 1);
    let th = b.mad(t, 0x101u32, 7u32);
    let ah = b.mad(t, 2u32, halves);
    b.st(Space::Shared, ah, 0, th, 2);
    let low = b.and(t, 3u32);
    let inc = b.add(low, 1u32);
    let aw = b.mov(word);
    let old = b.atom(Space::Shared, AtomOp::Add, aw, 0, inc, 0u32);
    b.bar();
    let rb = b.sub(THREADS - 1, t);
    let ab2 = b.add(rb, bytes);
    let v1 = b.ld(Space::Shared, ab2, 0, 1);
    let t5 = b.add(t, 5u32);
    let i = b.rem(t5, THREADS);
    let ah2 = b.mad(i, 2u32, halves);
    let v2 = b.ld(Space::Shared, ah2, 0, 2);
    let af = b.shl(t, 4u32);
    let v3 = b.ld(Space::Shared, af, 0, 4);
    b.bar();
    let tag = b.add(t, 0xA000_0000u32);
    b.st(Space::Shared, af, 4, tag, 4);
    b.bar();
    let v4 = b.ld(Space::Shared, af, 4, 4);
    let total = b.ld(Space::Shared, aw, 0, 4);
    let row = b.mad(gt, 24u32, outp);
    for (k, v) in [old, v1, v2, v3, v4, total].into_iter().enumerate() {
        b.st(Space::Global, row, 4 * k as u32, v, 4);
    }
    let k = b.build();
    assert_eq!(k.shared_bytes, 132);

    let mut gpu = gpu();
    let outp = gpu.alloc(2 * THREADS * 24);
    let res = gpu.launch(&k, 2, THREADS, &[outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, (2 * THREADS * 6) as usize);

    // Host model of one block's shared bytes after the first barrier.
    let inc = |t: u32| (t & 3) + 1;
    let mut sh = [0u8; 132];
    for t in 0..THREADS {
        sh[t as usize] = (t * 3 + 1) as u8;
        let h = (t * 0x101 + 7) as u16;
        sh[(48 + 2 * t) as usize..][..2].copy_from_slice(&h.to_le_bytes());
    }
    let sum: u32 = (0..THREADS).map(inc).sum();
    sh[128..132].copy_from_slice(&sum.to_le_bytes());
    let word_at = |a: u32| u32::from_le_bytes(sh[a as usize..][..4].try_into().unwrap());
    for block in 0..2 {
        let lane = |t: u32, k: usize| out[((block * THREADS + t) * 6) as usize + k];
        // Lane order within each warp; the full warp's atomics ran first.
        let mut acc = 0;
        for t in 0..THREADS {
            assert_eq!(lane(t, 0), acc, "block {block} thread {t}: atomic old value");
            acc += inc(t);
        }
        for t in 0..THREADS {
            let ctx = format!("block {block} thread {t}");
            assert_eq!(lane(t, 1), u32::from(sh[(THREADS - 1 - t) as usize]), "{ctx}: byte");
            let h = 48 + 2 * ((t + 5) % THREADS) as usize;
            assert_eq!(lane(t, 2), u32::from(u16::from_le_bytes([sh[h], sh[h + 1]])), "{ctx}");
            let v3 = if t * 16 + 4 <= 132 { word_at(t * 16) } else { 0 };
            assert_eq!(lane(t, 3), v3, "{ctx}: word load, 0 past the allocation");
            let v4 = if t * 16 + 8 <= 132 { 0xA000_0000 + t } else { 0 };
            assert_eq!(lane(t, 4), v4, "{ctx}: stores past the allocation are dropped");
            assert_eq!(lane(t, 5), sum, "{ctx}: atomic total");
        }
    }

    let s = &res.stats;
    let lanes = u64::from(2 * THREADS);
    assert_eq!(s.shared_loads, 5 * lanes);
    assert_eq!(s.shared_stores, 3 * lanes);
    assert_eq!(s.atomics, lanes);
    // Per block: 31 lanes past the allocation on the word load, 32 on the
    // store and 32 on the read-back.
    assert_eq!(s.mem_faults, 2 * (31 + 32 + 32));
    // Per block on 16 banks: the stride-16 word accesses put the full
    // warp's 32 words on 4 banks (7 cycles) and the last warp's 8 on 4
    // banks (1 cycle), three times; the rotated half load puts words 14
    // and 30 in one bank in each warp (1 + 1). Broadcasts cost nothing.
    assert_eq!(s.bank_conflict_cycles, 2 * (3 * (7 + 1) + 2));
}
