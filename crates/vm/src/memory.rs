//! Flat guest memory with a bump allocator.

use crate::error::VmError;

/// Guest address space: a flat byte array. Address 0 is kept unmapped so
/// null-pointer dereferences trap.
#[derive(Debug, Clone)]
pub struct GuestMemory {
    bytes: Vec<u8>,
    /// Bump-allocation cursor.
    brk: u64,
}

/// Reserved low region (null guard).
const NULL_GUARD: u64 = 4096;

impl GuestMemory {
    /// A guest memory of `size` bytes.
    ///
    /// # Panics
    /// Panics if `size` is smaller than the null guard region.
    pub fn new(size: usize) -> GuestMemory {
        assert!(size as u64 > NULL_GUARD * 2, "guest memory too small");
        GuestMemory {
            bytes: vec![0; size],
            brk: NULL_GUARD,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Allocate `bytes` with `align` alignment; returns the guest address.
    ///
    /// # Errors
    /// [`VmError::OutOfBounds`] when the heap is exhausted.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Result<u64, VmError> {
        let align = align.max(1);
        let base = self.brk.div_ceil(align) * align;
        let end = base
            .checked_add(bytes)
            .ok_or(VmError::OutOfBounds { addr: base, bytes })?;
        if end > self.bytes.len() as u64 {
            return Err(VmError::OutOfBounds { addr: base, bytes });
        }
        self.brk = end;
        Ok(base)
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.brk - NULL_GUARD
    }

    fn check(&self, addr: u64, bytes: u64) -> Result<usize, VmError> {
        let end = addr
            .checked_add(bytes)
            .ok_or(VmError::OutOfBounds { addr, bytes })?;
        if addr < NULL_GUARD || end > self.bytes.len() as u64 {
            return Err(VmError::OutOfBounds { addr, bytes });
        }
        Ok(addr as usize)
    }

    /// Read `N` bytes at `addr`.
    ///
    /// # Errors
    /// [`VmError::OutOfBounds`] outside the mapped region (incl. the null
    /// guard page).
    pub fn read<const N: usize>(&self, addr: u64) -> Result<[u8; N], VmError> {
        let i = self.check(addr, N as u64)?;
        Ok(self.bytes[i..i + N].try_into().expect("length checked"))
    }

    /// Write bytes at `addr`.
    ///
    /// # Errors
    /// [`VmError::OutOfBounds`] outside the mapped region.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), VmError> {
        let i = self.check(addr, data.len() as u64)?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Read a byte slice (for host-side inspection).
    ///
    /// # Errors
    /// [`VmError::OutOfBounds`] outside the mapped region.
    pub fn slice(&self, addr: u64, len: u64) -> Result<&[u8], VmError> {
        let i = self.check(addr, len)?;
        Ok(&self.bytes[i..i + len as usize])
    }

    /// Typed helpers.
    ///
    /// # Errors
    /// [`VmError::OutOfBounds`] outside the mapped region.
    pub fn read_u64(&self, addr: u64) -> Result<u64, VmError> {
        Ok(u64::from_le_bytes(self.read::<8>(addr)?))
    }

    /// See [`GuestMemory::read_u64`].
    ///
    /// # Errors
    /// [`VmError::OutOfBounds`] outside the mapped region.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), VmError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// See [`GuestMemory::read_u64`].
    ///
    /// # Errors
    /// [`VmError::OutOfBounds`] outside the mapped region.
    pub fn read_f32(&self, addr: u64) -> Result<f32, VmError> {
        Ok(f32::from_le_bytes(self.read::<4>(addr)?))
    }

    /// See [`GuestMemory::read_u64`].
    ///
    /// # Errors
    /// [`VmError::OutOfBounds`] outside the mapped region.
    pub fn write_f32(&mut self, addr: u64, v: f32) -> Result<(), VmError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// See [`GuestMemory::read_u64`].
    ///
    /// # Errors
    /// [`VmError::OutOfBounds`] outside the mapped region.
    pub fn read_f64(&self, addr: u64) -> Result<f64, VmError> {
        Ok(f64::from_le_bytes(self.read::<8>(addr)?))
    }

    /// See [`GuestMemory::read_u64`].
    ///
    /// # Errors
    /// [`VmError::OutOfBounds`] outside the mapped region.
    pub fn write_f64(&mut self, addr: u64, v: f64) -> Result<(), VmError> {
        self.write(addr, &v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_aligns_and_advances() {
        let mut m = GuestMemory::new(1 << 20);
        let a = m.alloc(10, 8).unwrap();
        assert_eq!(a % 8, 0);
        let b = m.alloc(16, 64).unwrap();
        assert_eq!(b % 64, 0);
        assert!(b > a);
        assert!(m.allocated() >= 26);
    }

    #[test]
    fn null_guard_traps() {
        let m = GuestMemory::new(1 << 20);
        assert!(m.read_u64(0).is_err());
        assert!(m.read_u64(8).is_err());
        assert!(m.read_u64(4096).is_ok());
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut m = GuestMemory::new(1 << 20);
        let end = m.size() as u64;
        assert!(m.read_u64(end - 4).is_err());
        assert!(m.write_u64(end, 1).is_err());
        assert!(m.read_u64(u64::MAX - 2).is_err(), "overflow-safe");
    }

    #[test]
    fn heap_exhaustion_errors() {
        let mut m = GuestMemory::new(64 * 1024);
        assert!(m.alloc(1 << 20, 8).is_err());
    }

    #[test]
    fn typed_roundtrips() {
        let mut m = GuestMemory::new(1 << 20);
        let a = m.alloc(64, 8).unwrap();
        m.write_u64(a, 0xdead_beef).unwrap();
        assert_eq!(m.read_u64(a).unwrap(), 0xdead_beef);
        m.write_f32(a + 8, 1.5).unwrap();
        assert_eq!(m.read_f32(a + 8).unwrap(), 1.5);
        m.write_f64(a + 16, -2.25).unwrap();
        assert_eq!(m.read_f64(a + 16).unwrap(), -2.25);
        assert_eq!(m.slice(a, 4).unwrap().len(), 4);
    }
}
