//! The UTS splittable random number generator (Olivier et al., LCPC'06).
//!
//! Each tree node carries a 20-byte SHA-1 state. Spawning child `i` hashes
//! the parent state concatenated with the 4-byte spawn index; drawing a
//! random value interprets the last four state bytes as a non-negative
//! 31-bit integer. Determinism is total: the tree is a pure function of the
//! root seed, which is what makes UTS verifiable under any traversal order
//! or work-stealing schedule.

use crate::sha1::{compress, digest, sha1, H0};

/// A node's RNG state (equals its SHA-1 descriptor).
pub type State = [u8; 20];

/// Initial state from the benchmark seed (`r = 19` in the paper).
pub fn init(seed: u32) -> State {
    sha1(&seed.to_le_bytes())
}

/// State of the `spawn_index`-th child: `sha1(parent ++ spawn_index_le)`.
/// The 24-byte message always fits one block, so the padded block (the
/// `0x80` marker and the 192-bit length) is built here and compressed once.
pub fn spawn(parent: &State, spawn_index: u32) -> State {
    let mut block = [0u8; 64];
    block[..20].copy_from_slice(parent);
    block[20..24].copy_from_slice(&spawn_index.to_le_bytes());
    block[24] = 0x80;
    block[63] = 24 * 8;
    let mut h = H0;
    compress(&mut h, &block);
    digest(&h)
}

/// The node's random draw: a 31-bit non-negative integer.
pub fn rand31(state: &State) -> u32 {
    u32::from_be_bytes(state[16..20].try_into().unwrap()) & 0x7fff_ffff
}

/// The node's random draw as a probability in `[0, 1)`.
pub fn to_prob(state: &State) -> f64 {
    rand31(state) as f64 / 2_147_483_648.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_deterministic_and_seed_sensitive() {
        assert_eq!(init(19), init(19));
        assert_ne!(init(19), init(20));
    }

    #[test]
    fn children_distinct_per_index() {
        let root = init(19);
        let a = spawn(&root, 0);
        let b = spawn(&root, 1);
        assert_ne!(a, b);
        assert_eq!(spawn(&root, 0), a);
    }

    #[test]
    fn rand31_is_31_bits() {
        let mut s = init(7);
        for i in 0..1000 {
            s = spawn(&s, i % 4);
            assert!(rand31(&s) < (1 << 31));
        }
    }

    #[test]
    fn probabilities_in_unit_interval_and_spread() {
        let root = init(19);
        let mut lo = 0usize;
        let mut hi = 0usize;
        for i in 0..10_000 {
            let p = to_prob(&spawn(&root, i));
            assert!((0.0..1.0).contains(&p));
            if p < 0.5 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        // crude uniformity check: both halves well populated
        assert!(lo > 4_000 && hi > 4_000, "lo={lo} hi={hi}");
    }
}
