//! Minimal hand-rolled wire codec for journal payloads.
//!
//! The workspace builds offline (no serde); journal payloads are
//! encoded with this explicit little-endian codec instead. It is not a
//! general serialization framework: encoders and decoders are written
//! in pairs and schema evolution is handled by versioning the payload
//! (the journal key already hashes the producing configuration, so a
//! schema change simply misses the cache).

use std::fmt;

/// Decode failure: the payload does not match the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the field needs.
    Truncated,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Well-formed fields but trailing bytes remain.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("payload truncated"),
            WireError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::Trailing(n) => write!(f, "{n} trailing byte(s) after payload"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian append-only encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Bit-exact float encoding (`to_bits`), so decode → encode is the
    /// identity byte-for-byte.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `u32` length prefix + UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// `u32` length prefix + raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-style decoder over an encoded payload.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// A `u32` element count for a list whose elements each encode to at
    /// least `min_elem` bytes. A count the remaining bytes cannot hold
    /// is [`WireError::Truncated`], so decoders can size a
    /// `Vec::with_capacity` from it without trusting the wire.
    pub fn count(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let left = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem) > left {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(left))
        }
    }
}

/// FNV-1a 64-bit hash — the journal's content-hash primitive (stable
/// across platforms and runs, unlike `std`'s `DefaultHasher`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// CRC-32 (IEEE 802.3, reflected), bitwise — frames are small and the
/// journal is not on any hot path, so no table.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.str("platform × workload");
        e.bytes(&[1, 2, 3]);
        let buf = e.into_bytes();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.str().unwrap(), "platform × workload");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_are_detected() {
        let mut e = Enc::new();
        e.u64(1);
        let buf = e.into_bytes();
        let mut d = Dec::new(&buf[..7]);
        assert_eq!(d.u64(), Err(WireError::Truncated));
        let mut d = Dec::new(&buf);
        d.u32().unwrap();
        assert_eq!(d.finish(), Err(WireError::Trailing(4)));
    }

    #[test]
    fn counts_are_bounded_by_the_remaining_bytes() {
        let mut e = Enc::new();
        e.u32(2);
        e.u64(7);
        e.u64(8);
        let buf = e.into_bytes();
        assert_eq!(Dec::new(&buf).count(8), Ok(2));
        assert_eq!(Dec::new(&buf).count(9), Err(WireError::Truncated));
        let mut e = Enc::new();
        e.u32(u32::MAX);
        let buf = e.into_bytes();
        assert_eq!(Dec::new(&buf).count(1), Err(WireError::Truncated));
    }

    #[test]
    fn bad_utf8_is_detected() {
        let mut e = Enc::new();
        e.bytes(&[0xff, 0xfe]);
        let buf = e.into_bytes();
        assert_eq!(Dec::new(&buf).str(), Err(WireError::BadUtf8));
    }

    #[test]
    fn hash_and_crc_reference_values() {
        // FNV-1a and CRC-32 published test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }
}
