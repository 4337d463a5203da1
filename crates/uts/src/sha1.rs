//! SHA-1, implemented from scratch (FIPS 180-1).
//!
//! UTS generates its tree with a SHA-1-based splittable random number
//! generator; the paper's X10 code "calls a native C routine to compute
//! SHA1 hashes". This is that routine. (SHA-1 is long broken for
//! cryptography; UTS uses it purely as a high-quality deterministic mixing
//! function, as do we.)
//!
//! The one-block compression has two implementations. On x86-64 CPUs with
//! the SHA extensions (`sha_ni` in `/proc/cpuinfo`) `compress` runs the
//! 80 rounds with `sha1rnds4`/`sha1nexte`/`sha1msg1`/`sha1msg2`;
//! everywhere else it runs the portable scalar loop. The choice is made on
//! every call from runtime CPU detection (a cached flag), with no
//! configuration. Both compressors are `pub(crate)` so the tests run the
//! FIPS vectors and a differential property test through each of them on
//! every host; on a CPU without the extensions the SHA-NI half reports
//! that it skipped.

pub(crate) const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Compute the 20-byte SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    sha1_with(data, compress)
}

/// [`sha1`] over an explicit one-block compressor.
fn sha1_with(data: &[u8], mut compress: impl FnMut(&mut [u32; 5], &[u8; 64])) -> [u8; 20] {
    let mut h = H0;
    let ml = (data.len() as u64).wrapping_mul(8);

    // Process full blocks, then the padded tail.
    let mut chunks = data.chunks_exact(64);
    for block in &mut chunks {
        compress(&mut h, block.try_into().unwrap());
    }
    let rem = chunks.remainder();
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    tail[tail_len - 8..tail_len].copy_from_slice(&ml.to_be_bytes());
    compress(&mut h, tail[..64].try_into().unwrap());
    if tail_len == 128 {
        compress(&mut h, tail[64..128].try_into().unwrap());
    }
    digest(&h)
}

/// The big-endian digest bytes of a final chaining state.
pub(crate) fn digest(h: &[u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Fold one 64-byte block into the chaining state `h`: the SHA extensions
/// when the CPU has them, the scalar loop otherwise.
#[inline]
pub(crate) fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    if !compress_sha_ni(h, block) {
        compress_scalar(h, block);
    }
}

/// The portable FIPS 180-1 compression.
pub(crate) fn compress_scalar(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, c) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(c.try_into().unwrap());
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | (!b & d), 0x5A827999),
            20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
            _ => (b ^ c ^ d, 0xCA62C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// Fold `block` into `h` with the SHA extensions and return `true`, or
/// leave `h` untouched and return `false` on a CPU without them.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn compress_sha_ni(h: &mut [u32; 5], block: &[u8; 64]) -> bool {
    let available = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    if available {
        // SAFETY: `sha_ni::compress` enables the `sha`, `sse2`, `ssse3` and
        // `sse4.1` target features. The `is_x86_feature_detected!` checks
        // above found `sha`, `ssse3` and `sse4.1` on this CPU, and `sse2` is
        // part of the x86-64 baseline.
        unsafe { sha_ni::compress(h, block) };
    }
    available
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub(crate) fn compress_sha_ni(_h: &mut [u32; 5], _block: &[u8; 64]) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::*;

    /// One-block SHA-1 compression on the SHA extensions; bit-identical to
    /// [`super::compress_scalar`].
    ///
    /// # Safety
    ///
    /// The CPU must support every target feature enabled below.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
        // The unaligned loads and the store touch only `block`'s four
        // 16-byte chunks and the first four words of `h`.

        // Byte-swaps every big-endian word and reverses the word order, so
        // the first word of each 16-byte chunk lands in lane 3.
        let bswap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let load =
            |i: usize| _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * i).cast()), bswap);
        let mut w = [load(0), load(1), load(2), load(3)];

        // A in lane 3 down to D in lane 0; E in lane 3 of its own vector.
        let abcd0 = _mm_shuffle_epi32::<0x1B>(_mm_loadu_si128(h.as_ptr().cast()));
        let e0 = _mm_set_epi32(h[4] as i32, 0, 0, 0);
        let mut abcd = abcd0;
        let mut prev = abcd0;

        // Four rounds per `sha1rnds4` with round function `$f`, 20 groups.
        // Group `$i` uses schedule vector `w[$i % 4]`, which holds message
        // words `4i..4i+4`. Its E input is `sha1nexte` of the ABCD that
        // entered the previous group; group 0 adds the chaining E directly.
        // From group 4 on, `w[$i % 4]` is rebuilt from the four vectors
        // before it: `W[i] = msg2(msg1(W[i-4], W[i-3]) ^ W[i-2], W[i-1])`.
        macro_rules! group {
            ($i:literal, $f:literal) => {{
                if $i >= 4 {
                    w[$i % 4] = _mm_sha1msg2_epu32(
                        _mm_xor_si128(
                            _mm_sha1msg1_epu32(w[$i % 4], w[($i + 1) % 4]),
                            w[($i + 2) % 4],
                        ),
                        w[($i + 3) % 4],
                    );
                }
                let e = if $i == 0 {
                    _mm_add_epi32(e0, w[0])
                } else {
                    _mm_sha1nexte_epu32(prev, w[$i % 4])
                };
                prev = abcd;
                abcd = _mm_sha1rnds4_epu32::<$f>(abcd, e);
            }};
        }
        group!(0, 0);
        group!(1, 0);
        group!(2, 0);
        group!(3, 0);
        group!(4, 0);
        group!(5, 1);
        group!(6, 1);
        group!(7, 1);
        group!(8, 1);
        group!(9, 1);
        group!(10, 2);
        group!(11, 2);
        group!(12, 2);
        group!(13, 2);
        group!(14, 2);
        group!(15, 3);
        group!(16, 3);
        group!(17, 3);
        group!(18, 3);
        group!(19, 3);

        // E after round 79 is A after round 75 rotated by 30, which is what
        // `sha1nexte` computes before adding the chaining E.
        let e = _mm_sha1nexte_epu32(prev, e0);
        let abcd = _mm_shuffle_epi32::<0x1B>(_mm_add_epi32(abcd, abcd0));
        _mm_storeu_si128(h.as_mut_ptr().cast(), abcd);
        h[4] = _mm_extract_epi32::<3>(e) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &[u8; 20]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180 vectors plus the one-vs-two padding block boundaries.
    fn vectors() -> Vec<(Vec<u8>, &'static str)> {
        let mut v = vec![
            (b"abc".to_vec(), "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (Vec::new(), "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (
                vec![b'a'; 1_000_000],
                "34aa973cd4c4daa4f61eeb2bdbad27316534016f",
            ),
        ];
        for (len, want) in [
            (55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"),
            (56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"),
            (63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"),
            (64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"),
            (65, "11655326c708d70319be2610e8a57d9a5b959d3b"),
        ] {
            v.push((vec![b'a'; len], want));
        }
        v
    }

    /// Whether this CPU runs the SHA-NI compressor; says so when it does not,
    /// so a skipped half is visible in `--nocapture` output.
    fn sha_ni_or_skip(test: &str) -> bool {
        let ran = compress_sha_ni(&mut H0.clone(), &[0; 64]);
        if !ran {
            eprintln!("{test}: SHA-NI half skipped: this CPU lacks the SHA extensions");
        }
        ran
    }

    /// `compress_sha_ni` as a plain compressor, for a CPU known to have it.
    fn sha_ni_compress(h: &mut [u32; 5], block: &[u8; 64]) {
        assert!(compress_sha_ni(h, block));
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let input = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&input)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn boundary_lengths_55_56_63_64_65() {
        // Exercise the one-vs-two padding block paths; compare against
        // known digests computed with a reference implementation.
        let cases: [(usize, &str); 5] = [
            (55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"),
            (56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"),
            (63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"),
            (64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"),
            (65, "11655326c708d70319be2610e8a57d9a5b959d3b"),
        ];
        for (len, want) in cases {
            let input = vec![b'a'; len];
            assert_eq!(hex(&sha1(&input)), want, "len={len}");
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(sha1(b"uts"), sha1(b"uts"));
        assert_ne!(sha1(b"uts"), sha1(b"ut"));
    }

    #[test]
    fn fips_vectors_scalar_compressor() {
        for (input, want) in vectors() {
            assert_eq!(
                hex(&sha1_with(&input, compress_scalar)),
                want,
                "len={}",
                input.len()
            );
        }
    }

    #[test]
    fn fips_vectors_sha_ni_compressor() {
        if !sha_ni_or_skip("fips_vectors_sha_ni_compressor") {
            return;
        }
        for (input, want) in vectors() {
            assert_eq!(
                hex(&sha1_with(&input, sha_ni_compress)),
                want,
                "len={}",
                input.len()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Both compressors map any chaining state and block to the same state.
        #[test]
        fn compressors_agree_on_random_blocks(
            block in prop::collection::vec(any::<u8>(), 64..65),
            h in prop::collection::vec(any::<u32>(), 5..6)
        ) {
            if !sha_ni_or_skip("compressors_agree_on_random_blocks") {
                return Ok(());
            }
            let block: &[u8; 64] = block.as_slice().try_into().unwrap();
            let mut scalar: [u32; 5] = h.as_slice().try_into().unwrap();
            let mut sha_ni = scalar;
            compress_scalar(&mut scalar, block);
            sha_ni_compress(&mut sha_ni, block);
            prop_assert_eq!(scalar, sha_ni);
        }

        /// `rng::spawn`'s hand-padded block digests like the scalar `sha1` of
        /// its 24-byte message, and so does the SHA-NI compressor.
        #[test]
        fn compressors_agree_on_uts_spawns(
            parent in prop::collection::vec(any::<u8>(), 20..21),
            index in any::<u32>()
        ) {
            let mut msg = parent;
            msg.extend_from_slice(&index.to_le_bytes());
            let scalar = sha1_with(&msg, compress_scalar);
            let parent: &[u8; 20] = msg[..20].try_into().unwrap();
            prop_assert_eq!(crate::rng::spawn(parent, index), scalar);
            if sha_ni_or_skip("compressors_agree_on_uts_spawns") {
                prop_assert_eq!(sha1_with(&msg, sha_ni_compress), scalar);
            }
        }
    }
}
