//! A process- and toolchain-stable 64-bit hasher (FNV-1a).
//!
//! [`UarchProfile::fingerprint`](crate::UarchProfile::fingerprint) and
//! [`NoiseConfig::fingerprint`](crate::NoiseConfig::fingerprint) key the
//! machine pools and the calibration cache.
//! `std::collections::hash_map::DefaultHasher` is explicitly documented as
//! unstable across Rust releases, so fingerprints built on it would silently
//! change on a toolchain upgrade. `StableHasher` implements
//! FNV-1a over a little-endian byte stream: the digest depends only on the
//! values written, never on the platform, the process, or the standard
//! library version. The `fingerprint_compat` tests lock the resulting
//! digests so any accidental change to the encoding fails loudly.

use std::hash::Hasher;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A [`Hasher`] computing 64-bit FNV-1a over the written bytes, with every
/// integer-writing method pinned to little-endian encoding (the trait's
/// defaults use native endianness, which would make digests
/// platform-dependent).
#[derive(Copy, Clone, Debug)]
pub struct StableHasher(u64);

impl StableHasher {
    /// A hasher in the FNV-1a initial state.
    pub fn new() -> StableHasher {
        StableHasher(FNV_OFFSET_BASIS)
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        // Fixed eight-byte encoding regardless of the platform word size.
        self.write(&(i as u64).to_le_bytes());
    }

    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_fnv1a_vectors() {
        // Classic FNV-1a 64 test vectors.
        let digest = |s: &str| {
            let mut h = StableHasher::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn integer_writes_use_little_endian() {
        let mut a = StableHasher::new();
        a.write_u32(0x0403_0201);
        let mut b = StableHasher::new();
        b.write(&[1, 2, 3, 4]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn usize_writes_are_width_independent() {
        let mut a = StableHasher::new();
        a.write_usize(7);
        let mut b = StableHasher::new();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
