//! Functional device (global) memory: a flat byte array with a bump
//! allocator standing in for `cudaMalloc`, plus typed host↔device copy
//! helpers.
//!
//! Timing is handled entirely by the cache/DRAM models; this type is the
//! architectural state only.

/// Lowest allocatable device address (0 is reserved as a null pointer).
pub const HEAP_BASE: u32 = 0x1000;

/// Flat device memory.
pub struct DeviceMemory {
    data: Vec<u8>,
    next: u32,
}

impl Default for DeviceMemory {
    /// Zero-byte placeholder, left in the [`crate::gpu::Gpu`] while a
    /// launch's cycle loop holds the real memory.
    fn default() -> Self {
        Self::new(0)
    }
}

impl DeviceMemory {
    /// Create `bytes` of device memory.
    pub fn new(bytes: u32) -> Self {
        Self { data: vec![0; bytes as usize], next: HEAP_BASE }
    }

    /// Total capacity.
    pub fn capacity(&self) -> u32 {
        self.data.len() as u32
    }

    /// Current allocation high-water mark — everything in
    /// `[HEAP_BASE, alloc_ptr)` is live kernel data (the global RDU's
    /// tracked region).
    pub fn alloc_ptr(&self) -> u32 {
        self.next
    }

    /// `cudaMalloc`: allocate `bytes`, 256-byte aligned (matching CUDA's
    /// allocation alignment, which is what makes accesses coalescable).
    pub fn alloc(&mut self, bytes: u32) -> Result<u32, String> {
        let base = (self.next + 255) & !255;
        let end = base.checked_add(bytes).ok_or("device address overflow")?;
        if end > self.capacity() {
            return Err(format!(
                "device OOM: requested {bytes} B at {base:#x}, capacity {:#x}",
                self.capacity()
            ));
        }
        self.next = end;
        Ok(base)
    }

    /// Reset the allocator and zero memory (fresh context).
    pub fn reset(&mut self) {
        self.data.fill(0);
        self.next = HEAP_BASE;
    }

    #[inline]
    fn in_range(&self, addr: u32, size: u32) -> bool {
        (addr as usize).checked_add(size as usize).is_some_and(|e| e <= self.data.len())
    }

    /// Read `size` ∈ {1,2,4} bytes, zero-extended. Out-of-range reads
    /// return 0 (the simulator reports faults separately).
    #[inline]
    pub fn read(&self, addr: u32, size: u8) -> u32 {
        if !self.in_range(addr, u32::from(size)) {
            return 0;
        }
        let a = addr as usize;
        match size {
            1 => u32::from(self.data[a]),
            2 => u32::from(u16::from_le_bytes([self.data[a], self.data[a + 1]])),
            _ => u32::from_le_bytes([self.data[a], self.data[a + 1], self.data[a + 2], self.data[a + 3]]),
        }
    }

    /// Write `size` ∈ {1,2,4} bytes (truncating). Out-of-range writes are
    /// dropped.
    #[inline]
    pub fn write(&mut self, addr: u32, val: u32, size: u8) {
        if !self.in_range(addr, u32::from(size)) {
            return;
        }
        let a = addr as usize;
        match size {
            1 => self.data[a] = val as u8,
            2 => self.data[a..a + 2].copy_from_slice(&(val as u16).to_le_bytes()),
            _ => self.data[a..a + 4].copy_from_slice(&val.to_le_bytes()),
        }
    }

    /// Read a 32-bit word.
    pub fn read_u32(&self, addr: u32) -> u32 {
        self.read(addr, 4)
    }

    /// Write a 32-bit word.
    pub fn write_u32(&mut self, addr: u32, val: u32) {
        self.write(addr, val, 4)
    }

    /// Read an f32.
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Write an f32.
    pub fn write_f32(&mut self, addr: u32, val: f32) {
        self.write_u32(addr, val.to_bits())
    }

    /// `cudaMemcpy(HostToDevice)` for words.
    pub fn copy_from_host_u32(&mut self, dst: u32, src: &[u32]) {
        for (i, &w) in src.iter().enumerate() {
            self.write_u32(dst + (i as u32) * 4, w);
        }
    }

    /// `cudaMemcpy(DeviceToHost)` for words.
    pub fn copy_to_host_u32(&self, src: u32, len: usize) -> Vec<u32> {
        (0..len).map(|i| self.read_u32(src + (i as u32) * 4)).collect()
    }

    /// `cudaMemcpy(HostToDevice)` for f32.
    pub fn copy_from_host_f32(&mut self, dst: u32, src: &[f32]) {
        for (i, &w) in src.iter().enumerate() {
            self.write_f32(dst + (i as u32) * 4, w);
        }
    }

    /// `cudaMemcpy(DeviceToHost)` for f32.
    pub fn copy_to_host_f32(&self, src: u32, len: usize) -> Vec<f32> {
        (0..len).map(|i| self.read_f32(src + (i as u32) * 4)).collect()
    }

    /// `cudaMemcpy(HostToDevice)` for bytes.
    pub fn copy_from_host_u8(&mut self, dst: u32, src: &[u8]) {
        let a = dst as usize;
        if a + src.len() <= self.data.len() {
            self.data[a..a + src.len()].copy_from_slice(src);
        }
    }

    /// `cudaMemcpy(DeviceToHost)` for bytes.
    pub fn copy_to_host_u8(&self, src: u32, len: usize) -> Vec<u8> {
        let a = src as usize;
        self.data[a..(a + len).min(self.data.len())].to_vec()
    }

    /// `cudaMemset`.
    pub fn memset(&mut self, dst: u32, val: u8, len: u32) {
        let a = dst as usize;
        let e = (a + len as usize).min(self.data.len());
        if a < e {
            self.data[a..e].fill(val);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_256_aligned_and_bumping() {
        let mut m = DeviceMemory::new(1 << 20);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_eq!(a % 256, 0);
        assert_eq!(b % 256, 0);
        assert!(b >= a + 100);
        assert!(a >= HEAP_BASE);
        assert_eq!(m.alloc_ptr(), b + 100);
    }

    #[test]
    fn alloc_oom_is_an_error() {
        let mut m = DeviceMemory::new(1 << 12); // HEAP_BASE == capacity
        assert!(m.alloc(16).is_err());
    }

    #[test]
    fn read_write_sizes() {
        let mut m = DeviceMemory::new(1 << 16);
        m.write(0x100, 0xAABBCCDD, 4);
        assert_eq!(m.read(0x100, 4), 0xAABBCCDD);
        assert_eq!(m.read(0x100, 1), 0xDD); // little-endian
        assert_eq!(m.read(0x102, 2), 0xAABB);
        m.write(0x100, 0x11, 1);
        assert_eq!(m.read(0x100, 4), 0xAABBCC11);
    }

    #[test]
    fn out_of_range_is_ignored() {
        let mut m = DeviceMemory::new(64);
        m.write(100, 5, 4); // dropped
        assert_eq!(m.read(100, 4), 0);
        m.write(62, 5, 4); // straddles the end: dropped
        assert_eq!(m.read(62, 2), 0);
        // u32 overflow path
        assert_eq!(m.read(u32::MAX, 4), 0);
    }

    #[test]
    fn host_copies_round_trip() {
        let mut m = DeviceMemory::new(1 << 16);
        let src = vec![1u32, 2, 3, 4];
        m.copy_from_host_u32(0x200, &src);
        assert_eq!(m.copy_to_host_u32(0x200, 4), src);
        let f = vec![1.5f32, -2.5];
        m.copy_from_host_f32(0x300, &f);
        assert_eq!(m.copy_to_host_f32(0x300, 2), f);
        let b = vec![9u8, 8, 7];
        m.copy_from_host_u8(0x400, &b);
        assert_eq!(m.copy_to_host_u8(0x400, 3), b);
    }

    #[test]
    fn memset_fills() {
        let mut m = DeviceMemory::new(1 << 12);
        m.memset(0x10, 0xFF, 8);
        assert_eq!(m.read(0x10, 4), 0xFFFF_FFFF);
        assert_eq!(m.read(0x18, 4), 0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut m = DeviceMemory::new(1 << 16);
        let a = m.alloc(64).unwrap();
        m.write_u32(a, 42);
        m.reset();
        assert_eq!(m.read_u32(a), 0);
        assert_eq!(m.alloc_ptr(), HEAP_BASE);
    }
}
