//! SHA-256 (FIPS 180-4), implemented over `std` alone.
//!
//! The container this repo builds in has no network and no registry
//! cache, so the content-address digest is hand-rolled rather than pulled
//! from `sha2`. The implementation is the textbook one — message
//! schedule, eight working variables, 64 rounds — and is pinned against
//! the NIST FIPS 180-4 example vectors inline here and end-to-end in
//! `bc-serve`'s `tests/cas.rs`. It lives in `bc_sim` (the workspace root
//! crate) so the one content-addressed store, the result cache shared by
//! the figure sweeps and `bc-serve`, can key objects from any crate.
//! Speed is irrelevant at this call rate (one digest per cache object,
//! over at most a few megabytes); correctness and stability are the
//! point.

// bc-lint: allow-file(saturating-counter) — mod-2^32 wrapping addition
// and the bit-length multiply are the FIPS 180-4 algorithm itself.
/// First 32 bits of the fractional parts of the cube roots of the first
/// 64 primes — the round constants of FIPS 180-4 §4.2.2.
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Initial hash value — fractional parts of the square roots of the first
/// eight primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (t, word) in w.iter_mut().take(16).enumerate() {
        let i = t * 4;
        *word = u32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    let round = [a, b, c, d, e, f, g, h];
    for (s, r) in state.iter_mut().zip(round) {
        *s = s.wrapping_add(r);
    }
}

/// SHA-256 digest of `data`.
#[must_use]
pub fn digest(data: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let mut chunks = data.chunks_exact(64);
    for block in &mut chunks {
        compress(&mut state, block);
    }

    // Padding: 0x80, zeros, then the bit length as a big-endian u64,
    // in one or two final blocks.
    let rest = chunks.remainder();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_blocks = if rest.len() < 56 { 1 } else { 2 };
    let len_at = tail_blocks * 64 - 8;
    tail[len_at..len_at + 8].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..tail_blocks * 64].chunks_exact(64) {
        compress(&mut state, block);
    }

    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Lowercase hex spelling of a digest — the form cache keys and file
/// names use.
#[must_use]
pub fn hex(digest: &[u8; 32]) -> String {
    let mut out = String::with_capacity(64);
    for b in digest {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// `hex(digest(data))` — the common one-shot form.
#[must_use]
pub fn hex_digest(data: &[u8]) -> String {
    hex(&digest(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 example vectors (also pinned end-to-end in tests/cas.rs).
    #[test]
    fn nist_one_block_message() {
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_empty_message() {
        assert_eq!(
            hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_two_block_message() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn padding_boundaries_round_trip() {
        // 55, 56 and 64 bytes exercise the one-vs-two final block split.
        for len in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xa5u8; len];
            let d = digest(&data);
            assert_eq!(d, digest(&data), "len {len} must be deterministic");
            let mut flipped = data.clone();
            if let Some(b) = flipped.first_mut() {
                *b ^= 1;
                assert_ne!(d, digest(&flipped), "len {len} must be sensitive");
            }
        }
    }
}
