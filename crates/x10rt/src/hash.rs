//! A small multiplicative hasher for integer-keyed maps on the per-message
//! path (place ids, finish ids, sequence numbers). std's default SipHash
//! resists keys crafted to collide, and every message pays for that; this
//! is one rotate, xor and multiply per word (the Fx scheme). The keys it
//! serves are minted by the runtime's own places, never taken from input
//! outside the program, so that resistance buys nothing here. The same
//! insertions give the same iteration order in every run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for integer keys (and tuples/structs of them).
#[derive(Default, Clone, Copy)]
pub struct IntHasher(u64);

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IntHasher {
    #[inline]
    fn mix(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(w));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `BuildHasher` for [`IntHasher`].
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed by integers, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildIntHasher>;
