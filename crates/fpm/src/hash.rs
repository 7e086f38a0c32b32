//! FNV-1a, the workspace's one 64-bit content hash.
//!
//! Every deterministic digest in the workspace is FNV-1a fed one of two
//! ways: byte-wise ([`Fnv::bytes`], [`Fnv::u64_le`], [`fnv`]) for values
//! that are persisted or compared across processes — the store
//! fingerprint, shard routing, the golden corpus digests, the loadgen
//! schedule digest — and word-wise ([`Fnv::word`]) for in-process keys
//! where one xor-multiply per item is enough (the LCM duplicate buckets,
//! [`StatsSink`](crate::StatsSink)). Both feeds produce values that are
//! pinned by tests and, for the store fingerprint, written into
//! artifacts, so neither may change.
//!
//! Everything is `#[inline]`: `lcm::rmdup`'s bucket hash and the serve
//! layer's shard routing sit on measured paths.

/// The FNV-1a 64-bit offset basis (the empty input's hash).
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a state. Start with [`Fnv::new`], feed, read with
/// [`Fnv::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    #[inline]
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The state of the empty input.
    #[inline]
    pub const fn new() -> Self {
        Fnv(OFFSET)
    }

    /// Feeds `bytes` one byte per step.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Feeds `v` as its eight little-endian bytes.
    #[inline]
    pub fn u64_le(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds `w` as one step: xor the whole word, multiply once.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(PRIME);
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Byte-wise FNV-1a of `bytes` — the golden corpus digest.
#[inline]
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_and_is_stable() {
        assert_ne!(fnv(b"1:5\n"), fnv(b"1:6\n"));
        assert_eq!(fnv(b""), OFFSET, "FNV offset basis");
        assert_eq!(fnv(b"1:5\n"), fnv(b"1:5\n"));
        // FNV-1a 64 test vectors (Fowler/Noll/Vo reference suite).
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
        // A word-sized step of one byte's value is that byte's step.
        let mut h = Fnv::new();
        h.word(u64::from(b'a'));
        assert_eq!(h.finish(), fnv(b"a"));
    }
}
