//! Flat byte-addressable data memory with a bump allocator.
//!
//! Kernel operands (vectors, scalars spilled to stack) live here. Addresses
//! are plain `u64` offsets from a nonzero base so that accidental
//! null-pointer style bugs in generated code trap instead of silently
//! reading byte 0.

/// Default base address of the allocatable region. Chosen to be
/// page- and line-aligned and nonzero.
pub const DEFAULT_BASE: u64 = 0x1_0000;

/// Simulated data memory.
#[derive(Clone, Debug)]
pub struct Memory {
    base: u64,
    /// Backing store, exactly the addressable bytes (a
    /// [`reset`](Memory::reset) to a smaller capacity keeps the larger
    /// allocation), and zero from `dirty` on.
    bytes: Vec<u8>,
    /// High-water mark of writes since creation or the last reset.
    dirty: usize,
    next: u64,
}

/// Errors raised by out-of-range accesses from simulated code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemFault {
    pub addr: u64,
    pub len: u64,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory fault at 0x{:x} (len {})", self.addr, self.len)
    }
}
impl std::error::Error for MemFault {}

impl Memory {
    /// Create a memory with `capacity` allocatable bytes.
    pub fn new(capacity: usize) -> Self {
        Memory {
            base: DEFAULT_BASE,
            bytes: vec![0; capacity],
            dirty: 0,
            next: DEFAULT_BASE,
        }
    }

    /// Return to the state of `Memory::new(capacity)` — all zero, nothing
    /// allocated, faults past `capacity` — reusing the backing store when
    /// it is large enough. Only the extent written since the last reset
    /// is zeroed: simulated code may have stored anywhere, not just into
    /// what the harness allocated.
    pub fn reset(&mut self, capacity: usize) {
        if capacity > self.bytes.capacity() {
            // A new zeroed store: `resize` would copy the old one first.
            self.bytes = vec![0; capacity];
        } else {
            self.bytes[..self.dirty].fill(0);
            self.bytes.resize(capacity, 0);
        }
        self.dirty = 0;
        self.next = self.base;
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// First valid address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Allocate `len` bytes aligned to `align` (power of two); returns the
    /// address. Panics if the region is exhausted — allocation happens at
    /// harness setup time, not inside simulated code.
    pub fn alloc(&mut self, len: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        let end = addr + len;
        assert!(
            end - self.base <= self.bytes.len() as u64,
            "xsim memory exhausted: need {} bytes past 0x{:x}",
            len,
            addr
        );
        self.next = end;
        addr
    }

    /// Allocate and zero-fill a vector of `n` elements of `elem_bytes`,
    /// aligned to 16 bytes (SIMD) by default.
    pub fn alloc_vector(&mut self, n: u64, elem_bytes: u64) -> u64 {
        self.alloc(n * elem_bytes, 64)
    }

    /// Offset of `addr` in the store if all `len` bytes are addressable.
    #[inline]
    fn offset(&self, addr: u64, len: u64) -> Result<usize, MemFault> {
        // Below `base` the subtraction wraps past any capacity, so one
        // comparison covers both ends (and cannot itself overflow).
        let off = addr.wrapping_sub(self.base);
        let cap = self.bytes.len() as u64;
        if len > cap || off > cap - len {
            return Err(MemFault { addr, len });
        }
        Ok(off as usize)
    }

    /// The `N` bytes at `addr`, if all of them are addressable.
    #[inline]
    pub fn chunk<const N: usize>(&self, addr: u64) -> Option<&[u8; N]> {
        // Below `base` the offset wraps past the end of the store.
        let off = usize::try_from(addr.wrapping_sub(self.base)).ok()?;
        self.bytes.get(off..)?.first_chunk()
    }

    /// The `N` bytes at `addr` for writing (they count as written).
    #[inline]
    pub fn chunk_mut<const N: usize>(&mut self, addr: u64) -> Option<&mut [u8; N]> {
        let off = usize::try_from(addr.wrapping_sub(self.base)).ok()?;
        let chunk = self.bytes.get_mut(off..)?.first_chunk_mut()?;
        self.dirty = self.dirty.max(off + N);
        Some(chunk)
    }

    /// Read `N` bytes.
    #[inline]
    pub fn read<const N: usize>(&self, addr: u64) -> Result<[u8; N], MemFault> {
        let len = N as u64;
        self.chunk(addr).copied().ok_or(MemFault { addr, len })
    }

    /// Write `N` bytes.
    #[inline]
    pub fn write<const N: usize>(&mut self, addr: u64, val: [u8; N]) -> Result<(), MemFault> {
        let len = N as u64;
        *self.chunk_mut(addr).ok_or(MemFault { addr, len })? = val;
        Ok(())
    }

    #[inline]
    pub fn read_f32(&self, addr: u64) -> Result<f32, MemFault> {
        Ok(f32::from_le_bytes(self.read::<4>(addr)?))
    }
    #[inline]
    pub fn read_f64(&self, addr: u64) -> Result<f64, MemFault> {
        Ok(f64::from_le_bytes(self.read::<8>(addr)?))
    }
    #[inline]
    pub fn read_i64(&self, addr: u64) -> Result<i64, MemFault> {
        Ok(i64::from_le_bytes(self.read::<8>(addr)?))
    }
    #[inline]
    pub fn write_f32(&mut self, addr: u64, v: f32) -> Result<(), MemFault> {
        self.write(addr, v.to_le_bytes())
    }
    #[inline]
    pub fn write_f64(&mut self, addr: u64, v: f64) -> Result<(), MemFault> {
        self.write(addr, v.to_le_bytes())
    }
    #[inline]
    pub fn write_i64(&mut self, addr: u64, v: i64) -> Result<(), MemFault> {
        self.write(addr, v.to_le_bytes())
    }

    /// Copy `data` into memory at `addr`, each element as the `N` bytes
    /// `enc` makes of it: one bounds check for the whole slice, then one
    /// pass. A slice that does not fit faults before anything is written;
    /// an empty one is a no-op at any address.
    pub fn store_elems<T: Copy, const N: usize>(
        &mut self,
        addr: u64,
        data: &[T],
        enc: impl Fn(T) -> [u8; N],
    ) -> Result<(), MemFault> {
        if data.is_empty() {
            return Ok(());
        }
        let len = (data.len() as u64).saturating_mul(N as u64);
        let off = self.offset(addr, len)?;
        let end = off + len as usize;
        let (dst, _) = self.bytes[off..end].as_chunks_mut::<N>();
        for (d, &v) in dst.iter_mut().zip(data) {
            *d = enc(v);
        }
        self.dirty = self.dirty.max(end);
        Ok(())
    }

    /// Read `n` elements of `N` bytes each starting at `addr`, each
    /// through `dec`; the counterpart of [`store_elems`](Memory::store_elems).
    pub fn load_elems<T, const N: usize>(
        &self,
        addr: u64,
        n: usize,
        dec: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, MemFault> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let len = (n as u64).saturating_mul(N as u64);
        let off = self.offset(addr, len)?;
        let (src, _) = self.bytes[off..off + len as usize].as_chunks::<N>();
        Ok(src.iter().map(|&b| dec(b)).collect())
    }

    /// Copy an `f64` slice into memory at `addr`.
    pub fn store_f64_slice(&mut self, addr: u64, data: &[f64]) -> Result<(), MemFault> {
        self.store_elems(addr, data, f64::to_le_bytes)
    }

    /// Copy an `f32` slice into memory at `addr`.
    pub fn store_f32_slice(&mut self, addr: u64, data: &[f32]) -> Result<(), MemFault> {
        self.store_elems(addr, data, f32::to_le_bytes)
    }

    /// Read `n` f64 values starting at `addr`.
    pub fn load_f64_slice(&self, addr: u64, n: usize) -> Result<Vec<f64>, MemFault> {
        self.load_elems(addr, n, f64::from_le_bytes)
    }

    /// Read `n` f32 values starting at `addr`.
    pub fn load_f32_slice(&self, addr: u64, n: usize) -> Result<Vec<f32>, MemFault> {
        self.load_elems(addr, n, f32::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_alignment_and_progress() {
        let mut m = Memory::new(1 << 16);
        let a = m.alloc(10, 64);
        assert_eq!(a % 64, 0);
        let b = m.alloc(1, 16);
        assert!(b >= a + 10);
        assert_eq!(b % 16, 0);
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = Memory::new(4096);
        let a = m.alloc(64, 64);
        m.write_f64(a, 3.25).unwrap();
        m.write_f32(a + 8, -1.5).unwrap();
        m.write_i64(a + 16, -42).unwrap();
        assert_eq!(m.read_f64(a).unwrap(), 3.25);
        assert_eq!(m.read_f32(a + 8).unwrap(), -1.5);
        assert_eq!(m.read_i64(a + 16).unwrap(), -42);
    }

    #[test]
    fn slice_roundtrip() {
        let mut m = Memory::new(4096);
        let a = m.alloc_vector(8, 8);
        let data: Vec<f64> = (0..8).map(|i| i as f64 * 0.5).collect();
        m.store_f64_slice(a, &data).unwrap();
        assert_eq!(m.load_f64_slice(a, 8).unwrap(), data);
    }

    #[test]
    fn slices_past_the_end_fault_whole_and_empty_ones_are_no_ops() {
        let mut m = Memory::new(64);
        let end = DEFAULT_BASE + 64;
        let data = [1.0f64; 4];
        // Eight doubles' room: four fit at the last 32 bytes, not later.
        m.store_f64_slice(end - 32, &data).unwrap();
        for addr in [end - 24, end, DEFAULT_BASE - 8, 0, u64::MAX - 7] {
            let fault = MemFault { addr, len: 32 };
            assert_eq!(m.store_f64_slice(addr, &data), Err(fault));
            assert_eq!(m.load_f64_slice(addr, 4), Err(fault));
            // Nothing was written, and nothing is asked of an empty slice.
            assert_eq!(m.load_f64_slice(end - 32, 4).unwrap(), data);
            assert_eq!(m.store_f64_slice(addr, &[]), Ok(()));
            assert_eq!(m.store_f32_slice(addr, &[]), Ok(()));
            assert_eq!(m.load_f64_slice(addr, 0), Ok(vec![]));
            assert_eq!(m.load_f32_slice(addr, 0), Ok(vec![]));
        }
        let fault = MemFault {
            addr: end - 12,
            len: 16,
        };
        assert_eq!(m.store_f32_slice(end - 12, &[2.0; 4]), Err(fault));
        assert_eq!(m.load_f32_slice(end - 12, 4), Err(fault));
        assert!(m.load_f64_slice(DEFAULT_BASE, usize::MAX).is_err());
        // A bulk store counts as written for the next reset.
        m.reset(64);
        assert_eq!(m.load_f64_slice(end - 32, 4).unwrap(), [0.0; 4]);
    }

    #[test]
    fn fault_below_base_and_past_end() {
        let m = Memory::new(64);
        assert!(m.read_f64(0).is_err());
        assert!(m.read_f64(DEFAULT_BASE + 60).is_err());
        assert!(m.read_f64(DEFAULT_BASE + 56).is_ok());
    }

    #[test]
    fn reset_is_indistinguishable_from_new() {
        let mut m = Memory::new(4096);
        let a = m.alloc(64, 64);
        m.write_f64(a, 1.5).unwrap();
        // A stray store far past anything allocated.
        m.write_i64(DEFAULT_BASE + 4000, -1).unwrap();
        // Shrink: the old tail must fault, not read stale bytes.
        m.reset(1024);
        assert_eq!(m.capacity(), 1024);
        assert_eq!(m.alloc(8, 8), DEFAULT_BASE, "allocator rewound");
        assert_eq!(m.read_f64(a).unwrap(), 0.0);
        assert!(m.read_i64(DEFAULT_BASE + 4000).is_err());
        assert!(m.write_i64(DEFAULT_BASE + 1020, 1).is_err());
        // Grow back inside the old store, then past it: all zero.
        m.reset(4096);
        assert_eq!(m.read_i64(DEFAULT_BASE + 4000).unwrap(), 0);
        m.write_i64(DEFAULT_BASE + 4088, 7).unwrap();
        m.reset(8192);
        assert_eq!(m.read_i64(DEFAULT_BASE + 4088).unwrap(), 0);
        assert_eq!(m.read_i64(DEFAULT_BASE + 8184).unwrap(), 0);
        assert!(m.read_i64(DEFAULT_BASE + 8185).is_err());
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_exhaustion_panics() {
        let mut m = Memory::new(128);
        m.alloc(256, 8);
    }
}
