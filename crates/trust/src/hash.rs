//! SHA-256 and HMAC-SHA256, implemented from scratch.
//!
//! These are the measurement and signing primitives under the enclave,
//! secure-boot and attestation models, and the chunk hashes of the OTA
//! artifacts. The implementation follows FIPS 180-4 / RFC 2104 and is
//! verified against published test vectors. One compression function,
//! generic over lanes, serves both [`sha256`] and [`sha256_each`], which
//! hashes runs of equal-length messages side by side.

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value (FIPS 180-4 §5.3.3).
const IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Messages [`sha256_each`] hashes side by side. A measured choice:
/// hashing 100 chunks of 64 KiB on a 2-vCPU x86-64 host (baseline SSE2
/// build, 40 interleaved rounds, three runs), 16 lanes took 0.32–0.42×
/// the time of the plain one-lane reference the tests keep
/// (`sha256_reference`) and 32 lanes 0.34–0.42×, both vectorized by
/// LLVM's loop vectorizer (packed `paddd`/`pslld`/`psrld`/`por`); 8 and
/// 4 lanes were not vectorized (0.85–1.10×), and one lane of the same
/// code took 0.80–0.96×.
const LANES: usize = 16;

/// Computes the SHA-256 digest of `data`.
///
/// ```
/// use vedliot_trust::hash::sha256;
///
/// let digest = sha256(b"abc");
/// assert_eq!(digest[0], 0xba);
/// ```
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let [digest] = hash_lanes([data]);
    digest
}

/// The SHA-256 digest of each message, in order: every run of 16
/// consecutive equal-length messages is hashed side by side in one
/// vectorized pass, every other message alone. Each digest equals
/// [`sha256`] of its message.
///
/// ```
/// use vedliot_trust::hash::{sha256, sha256_each};
///
/// let chunks = [&b"abc"[..], b"", b"abd"];
/// let digests = sha256_each(&chunks);
/// assert_eq!(digests, chunks.map(sha256));
/// ```
#[must_use]
pub fn sha256_each(msgs: &[&[u8]]) -> Vec<[u8; 32]> {
    let mut out = Vec::with_capacity(msgs.len());
    let mut rest = msgs;
    while let Some((&first, tail)) = rest.split_first() {
        match rest.first_chunk::<LANES>() {
            Some(run) if run.iter().all(|m| m.len() == first.len()) => {
                out.extend(hash_lanes(*run));
                rest = &rest[LANES..];
            }
            _ => {
                out.extend(hash_lanes([first]));
                rest = tail;
            }
        }
    }
    out
}

/// Hashes `N` messages of equal length side by side: every whole 64-byte
/// block straight from the messages, then the last one or two blocks
/// padded (message tail, `0x80`, zeros, 64-bit bit length).
fn hash_lanes<const N: usize>(msgs: [&[u8]; N]) -> [[u8; 32]; N] {
    let len = msgs.first().map_or(0, |m| m.len());
    let split = msgs.map(<[u8]>::as_chunks::<64>);
    let mut state = IV.map(|h| [h; N]);
    for b in 0..len / 64 {
        compress(&mut state, split.map(|(blocks, _)| &blocks[b]));
    }
    let tail = len % 64;
    let pad_blocks = if tail < 56 { 1 } else { 2 };
    let mut pad = [[[0u8; 64]; 2]; N];
    for (p, (_, rest)) in pad.iter_mut().zip(split) {
        let p = p.as_flattened_mut();
        p[..tail].copy_from_slice(rest);
        p[tail] = 0x80;
        p[64 * pad_blocks - 8..64 * pad_blocks]
            .copy_from_slice(&(len as u64).wrapping_mul(8).to_be_bytes());
    }
    for b in 0..pad_blocks {
        compress(&mut state, pad.each_ref().map(|p| &p[b]));
    }
    std::array::from_fn(|l| {
        let mut out = [0u8; 32];
        for (o, h) in out.chunks_exact_mut(4).zip(&state) {
            o.copy_from_slice(&h[l].to_be_bytes());
        }
        out
    })
}

/// One SHA-256 compression of each of `N` independent states, lane `l`
/// over `blocks[l]`. Every step loops over the lanes innermost, so at
/// [`LANES`] the loop vectorizer turns it into packed 32-bit arithmetic.
/// The 64 rounds run as eight unrolled groups of eight in which the
/// roles `a..h` rotate over the state's indices, so no word moves
/// between rounds.
fn compress<const N: usize>(state: &mut [[u32; N]; 8], blocks: [&[u8; 64]; N]) {
    let mut w = [[0u32; N]; 64];
    for (t, wt) in w[..16].iter_mut().enumerate() {
        for (x, block) in wt.iter_mut().zip(blocks) {
            let b = &block[4 * t..4 * t + 4];
            *x = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    for t in 16..64 {
        let (done, next) = w.split_at_mut(t);
        for (l, x) in next[0].iter_mut().enumerate() {
            let (w15, w2) = (done[t - 15][l], done[t - 2][l]);
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            *x = done[t - 16][l]
                .wrapping_add(s0)
                .wrapping_add(done[t - 7][l])
                .wrapping_add(s1);
        }
    }
    let mut s = *state;
    for (k, w) in K.chunks_exact(8).zip(w.chunks_exact(8)) {
        round::<N, 0>(&mut s, k[0], &w[0]);
        round::<N, 1>(&mut s, k[1], &w[1]);
        round::<N, 2>(&mut s, k[2], &w[2]);
        round::<N, 3>(&mut s, k[3], &w[3]);
        round::<N, 4>(&mut s, k[4], &w[4]);
        round::<N, 5>(&mut s, k[5], &w[5]);
        round::<N, 6>(&mut s, k[6], &w[6]);
        round::<N, 7>(&mut s, k[7], &w[7]);
    }
    for (h, x) in state.iter_mut().zip(s) {
        for (h, x) in h.iter_mut().zip(x) {
            *h = h.wrapping_add(x);
        }
    }
}

/// Round `J` (mod 8) over every lane. Role `r` of `a..h` lives at state
/// index `(r - J) mod 8`: the round adds `T1` into `d`, which is the
/// next round's `e`, and writes `T1 + T2` over `h`, which is its `a`.
#[inline(always)]
fn round<const N: usize, const J: usize>(s: &mut [[u32; N]; 8], k: u32, w: &[u32; N]) {
    let at = |role: usize| (role + 8 - J) % 8;
    let (a, b, c, d, e, f, g, h) = (at(0), at(1), at(2), at(3), at(4), at(5), at(6), at(7));
    for l in 0..N {
        let (ea, aa) = (s[e][l], s[a][l]);
        let s1 = ea.rotate_right(6) ^ ea.rotate_right(11) ^ ea.rotate_right(25);
        let ch = (ea & s[f][l]) ^ (!ea & s[g][l]);
        let t1 = s[h][l]
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(k)
            .wrapping_add(w[l]);
        let s0 = aa.rotate_right(2) ^ aa.rotate_right(13) ^ aa.rotate_right(22);
        let maj = (aa & s[b][l]) ^ (aa & s[c][l]) ^ (s[b][l] & s[c][l]);
        s[d][l] = s[d][l].wrapping_add(t1);
        s[h][l] = t1.wrapping_add(s0.wrapping_add(maj));
    }
}

/// HMAC-SHA256 (RFC 2104).
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    const BLOCK: usize = 64;
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Vec::with_capacity(BLOCK + message.len());
    let mut outer = Vec::with_capacity(BLOCK + 32);
    for &b in &key_block {
        inner.push(b ^ 0x36);
    }
    inner.extend_from_slice(message);
    let inner_hash = sha256(&inner);
    for &b in &key_block {
        outer.push(b ^ 0x5c);
    }
    outer.extend_from_slice(&inner_hash);
    sha256(&outer)
}

/// Renders a digest as lowercase hex (for logs and reports).
#[must_use]
pub fn to_hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain one-lane SHA-256: it copies the message, pads the copy
    /// and compresses it block by block. The oracle the lane-generic
    /// code is checked against.
    fn sha256_reference(data: &[u8]) -> [u8; 32] {
        let mut h: [u32; 8] = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];

        // Padding: message || 0x80 || zeros || 64-bit bit length.
        let bit_len = (data.len() as u64) * 8;
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&bit_len.to_be_bytes());

        for chunk in message.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, word) in chunk.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let temp1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let temp2 = s0.wrapping_add(maj);
                hh = g;
                g = f;
                f = e;
                e = d.wrapping_add(temp1);
                d = c;
                c = b;
                b = a;
                a = temp1.wrapping_add(temp2);
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
            h[5] = h[5].wrapping_add(f);
            h[6] = h[6].wrapping_add(g);
            h[7] = h[7].wrapping_add(hh);
        }

        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// FIPS 180-4 test vectors.
    #[test]
    fn sha256_known_vectors() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// FIPS 180-4 known answers: the 896-bit two-block message and one
    /// million `a`s.
    #[test]
    fn sha256_long_known_vectors() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
        assert_eq!(
            to_hex(&sha256(&vec![b'a'; 1_000_000])),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// `len` pseudo-random bytes drawn from `seed`.
    fn message(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `sha256` and `sha256_each` agree with the oracle, digest for
        /// digest, on sets of 0-40 messages mixing runs of 16 or more
        /// equal-length messages, empty messages, the padding's block
        /// boundaries and other lengths.
        #[test]
        fn sha256_and_sha256_each_match_the_reference(
            groups in proptest::collection::vec(
                (0usize..12, 0usize..8, proptest::any::<u64>()),
                0..6,
            ),
        ) {
            const EDGES: [usize; 8] = [0, 55, 56, 63, 64, 119, 120, 128];
            let mut msgs = Vec::new();
            for (pick, count, seed) in groups {
                let len = EDGES.get(pick).copied().unwrap_or(seed as usize % 300);
                // Half the groups are runs long enough for the lanes.
                let count = if count < 4 { LANES + 2 * count } else { count - 3 };
                msgs.extend((0..count as u64).map(|i| message(seed ^ i, len)));
            }
            msgs.truncate(40);
            let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
            let want: Vec<[u8; 32]> = refs.iter().map(|m| sha256_reference(m)).collect();
            proptest::prop_assert_eq!(sha256_each(&refs), want.clone());
            for (m, w) in refs.iter().zip(&want) {
                proptest::prop_assert_eq!(&sha256(m), w);
            }
        }
    }

    /// A multi-block message (crosses the 64-byte boundary).
    #[test]
    fn sha256_long_message() {
        let msg = vec![b'a'; 1_000];
        // Reference value computed with a known-good implementation.
        assert_eq!(
            to_hex(&sha256(&msg)),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    /// RFC 4231 test case 2 (short key "Jefe").
    #[test]
    fn hmac_known_vector() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 1 (0x0b * 20 key, "Hi There").
    #[test]
    fn hmac_known_vector_binary_key() {
        let mac = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_long_key_is_hashed_first() {
        // RFC 4231 test case 6: 131-byte key.
        let key = [0xaa; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }
}
