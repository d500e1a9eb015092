//! Logical clocks: per-thread-block *sync IDs* (§IV-B) and per-warp
//! *fence IDs* (§III-C), plus the replicated *race register file* the
//! global-memory RDUs consult at detection time.
//!
//! Both clocks are small wrapping hardware counters (8 bits each in the
//! paper's sizing, §VI-A2). The sync ID advances when a block passes a
//! barrier *and has touched global memory since its previous barrier* —
//! the paper's optimization to keep increments rare. The fence ID advances
//! every time a warp completes a memory-fence instruction.

/// Width of sync and fence IDs in bits (§VI-A2: "we set sync and fence ID
/// sizes to 8 bits each").
pub const ID_BITS: u32 = 8;

/// All logical clocks for one kernel launch.
///
/// The hardware distributes these across SMs (each SM owns its resident
/// blocks' sync IDs and its warps' fence IDs) and replicates the fence IDs
/// into every memory slice's *race register file*. Functionally they form
/// one table indexed by global block/warp ID, which is what this struct
/// models; the simulator charges the replication/transport costs.
#[derive(Clone, Debug, Default)]
pub struct ClockFile {
    sync: Vec<u8>,
    fence: Vec<u8>,
    /// Tracks, per block, whether any global access happened since the last
    /// barrier — gates the sync-ID increment (§IV-B).
    global_touched: Vec<bool>,
}

impl ClockFile {
    /// Create clocks for a grid of `blocks` thread-blocks and `warps`
    /// (global) warps, all initially zero.
    pub fn new(blocks: u32, warps: u32) -> Self {
        Self {
            sync: vec![0; blocks as usize],
            fence: vec![0; warps as usize],
            global_touched: vec![false; blocks as usize],
        }
    }

    /// Current sync ID of a block.
    pub fn sync_id(&self, block: u32) -> u8 {
        self.sync[block as usize]
    }

    /// Current fence ID of a warp (this is the race-register-file lookup
    /// the global RDU performs on read-after-write checks).
    pub fn fence_id(&self, warp: u32) -> u8 {
        self.fence[warp as usize]
    }

    /// Record that `block` issued a global-memory access.
    pub fn note_global_access(&mut self, block: u32) {
        self.global_touched[block as usize] = true;
    }

    /// Whether `block` has accessed global memory since its last barrier.
    pub fn global_touched(&self, block: u32) -> bool {
        self.global_touched[block as usize]
    }

    /// A block reached a barrier. Returns `true` if the sync ID was
    /// incremented (i.e. the block had touched global memory since the last
    /// barrier — §IV-B's increment filter).
    pub fn on_barrier(&mut self, block: u32) -> bool {
        let b = block as usize;
        if self.global_touched[b] {
            self.sync[b] = self.sync[b].wrapping_add(1);
            self.global_touched[b] = false;
            true
        } else {
            false
        }
    }

    /// A warp completed a memory fence: bump its fence ID.
    pub fn on_fence(&mut self, warp: u32) {
        let w = warp as usize;
        self.fence[w] = self.fence[w].wrapping_add(1);
    }

    /// Number of blocks tracked.
    pub fn num_blocks(&self) -> u32 {
        self.sync.len() as u32
    }

    /// Number of warps tracked.
    pub fn num_warps(&self) -> u32 {
        self.fence.len() as u32
    }

    /// Largest sync-ID value reached by any block (the §VI-A2 evaluation
    /// observes a maximum of 5 across the suite).
    pub fn max_sync_id(&self) -> u8 {
        self.sync.iter().copied().max().unwrap_or(0)
    }

    /// Largest fence-ID value reached by any warp.
    pub fn max_fence_id(&self) -> u8 {
        self.fence.iter().copied().max().unwrap_or(0)
    }

    /// Reset everything to zero (kernel relaunch).
    pub fn reset(&mut self) {
        self.sync.fill(0);
        self.fence.fill(0);
        self.global_touched.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_without_global_access_does_not_bump_sync() {
        let mut c = ClockFile::new(2, 4);
        assert!(!c.on_barrier(0));
        assert_eq!(c.sync_id(0), 0);
    }

    #[test]
    fn barrier_after_global_access_bumps_sync_once() {
        let mut c = ClockFile::new(2, 4);
        c.note_global_access(0);
        c.note_global_access(0);
        assert!(c.on_barrier(0));
        assert_eq!(c.sync_id(0), 1);
        // The touched flag was consumed; the next barrier is free.
        assert!(!c.on_barrier(0));
        assert_eq!(c.sync_id(0), 1);
        // Block 1 is unaffected.
        assert_eq!(c.sync_id(1), 0);
    }

    #[test]
    fn fence_bumps_only_that_warp() {
        let mut c = ClockFile::new(1, 3);
        c.on_fence(1);
        c.on_fence(1);
        assert_eq!(c.fence_id(0), 0);
        assert_eq!(c.fence_id(1), 2);
        assert_eq!(c.fence_id(2), 0);
        assert_eq!(c.max_fence_id(), 2);
    }

    #[test]
    fn clocks_wrap_at_8_bits() {
        let mut c = ClockFile::new(1, 1);
        for _ in 0..256 {
            c.note_global_access(0);
            c.on_barrier(0);
            c.on_fence(0);
        }
        assert_eq!(c.sync_id(0), 0);
        assert_eq!(c.fence_id(0), 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = ClockFile::new(1, 1);
        c.note_global_access(0);
        c.on_barrier(0);
        c.on_fence(0);
        c.note_global_access(0);
        c.reset();
        assert_eq!(c.sync_id(0), 0);
        assert_eq!(c.fence_id(0), 0);
        assert!(!c.global_touched(0));
    }
}
