//! SHA-256 and HMAC-SHA256, implemented from scratch.
//!
//! These are the measurement and signing primitives under the enclave,
//! secure-boot and attestation models, and the chunk hashes of the OTA
//! artifacts. The implementation follows FIPS 180-4 / RFC 2104 and is
//! verified against published test vectors. One compression function,
//! generic over lanes, serves both [`sha256`] (one lane) and
//! [`sha256_each`], which hashes any list of messages side by side in
//! groups of four SIMD lanes. Its lane loop runs outermost, around a
//! whole block, so LLVM's loop vectorizer packs the four lanes into one
//! vector; safe, portable Rust, with no intrinsic.

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

/// The lane width [`sha256_each`] runs a group of messages at. A
/// measured choice, on a 2-vCPU x86-64 host (baseline SSE2 build, 25
/// interleaved rounds over 64 KiB messages): LLVM's loop vectorizer packs
/// the lane loop of [`compress`] four lanes to a vector
/// (`paddd`/`pslld`/`psrld`/`por`), which hashed a message in 0.41× the
/// time one lane of the same code's round-level predecessor took, against
/// 0.84× for one lane of this code. 8 and 16 lanes vectorize the same way
/// and hashed a message in the same 0.40–0.41×: they only add idle lanes
/// to a partly filled group.
const LANES: usize = 4;

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

/// The SHA-256 digest of each message, in order, each equal to [`sha256`]
/// of its message, the messages hashed side by side in SIMD lanes.
/// Longest first, a group is the longest message left and those after
/// it within 2× of its block count, up to four; it runs in four lanes
/// when its messages fill more than half of them, counted in compressed
/// blocks, and otherwise its longest message is hashed alone. A lane
/// side by side costs about half a lone hash, so no group costs more
/// than hashing its messages one at a time. An OTA release's equal
/// chunks and its shorter last one share groups: LeNet-5's four chunks
/// (three of 64 KiB, one of 51,141 bytes) hash in one pass, in 0.51× the
/// time [`sha256`] takes over them one at a time (2-vCPU x86-64 host).
/// One 1 MiB message beside fifteen 1 KiB ones runs alone, and they in
/// four passes, where a group in input order would carry three idle
/// lanes along the long one.
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
    let mut out = vec![[0; 32]; msgs.len()];
    for group in groups(msgs) {
        let digests: &[[u8; 32]] = match group[..] {
            [i] => &[sha256(msgs[i])],
            _ => &hash_lanes::<LANES>(std::array::from_fn(|l| {
                group.get(l).map_or(&[][..], |&i| msgs[i])
            })),
        };
        for (&i, digest) in group.iter().zip(digests) {
            out[i] = *digest;
        }
    }
    out
}

/// How [`sha256_each`] groups `msgs`, by the rule its doc states: each
/// group's message indices, one for a message hashed alone.
fn groups(msgs: &[&[u8]]) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..msgs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(msgs[i].len()));
    let mut groups = Vec::new();
    let mut rest = &order[..];
    while let Some(&first) = rest.first() {
        let longest = blocks(msgs[first]);
        let peers = rest
            .iter()
            .take(LANES)
            .take_while(|&&i| 2 * blocks(msgs[i]) > longest);
        let used: usize = peers.clone().map(|&i| blocks(msgs[i])).sum();
        let n = if 2 * used > LANES * longest {
            peers.count()
        } else {
            1
        };
        let (group, tail) = rest.split_at(n);
        groups.push(group.to_vec());
        rest = tail;
    }
    groups
}

/// Blocks SHA-256 compresses for a message of `msg.len()` bytes: its
/// whole 64-byte blocks, then one padding block, or two when the tail
/// leaves no room for `0x80` and the 8-byte bit length.
fn blocks(msg: &[u8]) -> usize {
    msg.len() / 64 + if msg.len() % 64 < 56 { 1 } else { 2 }
}

/// Hashes `N` messages side by side, lane `l` over `msgs[l]`: its whole
/// 64-byte blocks straight from the message, then its one or two padded
/// blocks (message tail, `0x80`, zeros, 64-bit bit length). A lane past
/// its last block compresses a dummy block until the longest lane is
/// done; its digest is read at its own last block.
fn hash_lanes<const N: usize>(msgs: [&[u8]; N]) -> [[u8; 32]; N] {
    let split = msgs.map(<[u8]>::as_chunks::<64>);
    let mut pad = [[[0u8; 64]; 2]; N];
    for (p, msg) in pad.iter_mut().zip(msgs) {
        let tail = msg.len() % 64;
        let end = 64 * (blocks(msg) - msg.len() / 64);
        let p = p.as_flattened_mut();
        p[..tail].copy_from_slice(&msg[msg.len() - tail..]);
        p[tail] = 0x80;
        p[end - 8..end].copy_from_slice(&(msg.len() as u64).wrapping_mul(8).to_be_bytes());
    }
    let ends = msgs.map(blocks);
    let mut state = IV.map(|h| [h; N]);
    let mut last = [[0u32; 8]; N];
    for b in 0..ends.into_iter().max().unwrap_or(0) {
        compress(
            &mut state,
            std::array::from_fn(|l| {
                let whole = split[l].0;
                let padded = b.checked_sub(whole.len()).and_then(|p| pad[l].get(p));
                whole.get(b).or(padded).unwrap_or(&pad[l][0])
            }),
        );
        for (l, _) in ends.iter().enumerate().filter(|&(_, &e)| e == b + 1) {
            last[l] = state.map(|h| h[l]);
        }
    }
    last.map(|h| {
        let mut out = [0u8; 32];
        for (o, h) in out.chunks_exact_mut(4).zip(h) {
            o.copy_from_slice(&h.to_be_bytes());
        }
        out
    })
}

/// One SHA-256 compression of each of `N` independent states, lane `l`
/// over `blocks[l]`. The block's words are first read lane-innermost,
/// word `t` of every lane side by side. Then the lane loop runs
/// outermost, around the whole block: the lane's 16-word
/// message-schedule ring and all 64 rounds, written out so that no loop
/// is left inside it. The lane loop is then the innermost loop the
/// vectorizer sees, and at `N = 4` it packs the four lanes into one
/// vector; at `N = 1` it is scalar code that keeps the state and the
/// ring in registers.
fn compress<const N: usize>(state: &mut [[u32; N]; 8], blocks: [&[u8; 64]; N]) {
    let mut m = [[0u32; N]; 16];
    for (t, mt) in m.iter_mut().enumerate() {
        for (x, block) in mt.iter_mut().zip(blocks) {
            let b = &block[4 * t..4 * t + 4];
            *x = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    for l in 0..N {
        let mut w: [u32; 16] = std::array::from_fn(|t| m[t][l]);
        let mut s: [u32; 8] = std::array::from_fn(|i| state[i][l]);
        sixteen_rounds::<0>(&mut s, &mut w);
        sixteen_rounds::<1>(&mut s, &mut w);
        sixteen_rounds::<2>(&mut s, &mut w);
        sixteen_rounds::<3>(&mut s, &mut w);
        for (h, x) in state.iter_mut().zip(s) {
            h[l] = h[l].wrapping_add(x);
        }
    }
}

/// Rounds `16·G` to `16·G + 15` of one lane.
#[inline(always)]
fn sixteen_rounds<const G: usize>(s: &mut [u32; 8], w: &mut [u32; 16]) {
    round::<G, 0>(s, w);
    round::<G, 1>(s, w);
    round::<G, 2>(s, w);
    round::<G, 3>(s, w);
    round::<G, 4>(s, w);
    round::<G, 5>(s, w);
    round::<G, 6>(s, w);
    round::<G, 7>(s, w);
    round::<G, 8>(s, w);
    round::<G, 9>(s, w);
    round::<G, 10>(s, w);
    round::<G, 11>(s, w);
    round::<G, 12>(s, w);
    round::<G, 13>(s, w);
    round::<G, 14>(s, w);
    round::<G, 15>(s, w);
}

/// Round `t = 16·G + J` of one lane. Its message word is `w[J]`, the
/// ring slot that held word `t - 16`: from round 16 on, the round first
/// expands it there from words `t - 16`, `t - 15`, `t - 7` and `t - 2`.
#[inline(always)]
fn round<const G: usize, const J: usize>(s: &mut [u32; 8], w: &mut [u32; 16]) {
    if G > 0 {
        let (w15, w2) = (w[(J + 1) % 16], w[(J + 14) % 16]);
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        w[J] = w[J]
            .wrapping_add(s0)
            .wrapping_add(w[(J + 9) % 16])
            .wrapping_add(s1);
    }
    let [a, b, c, d, e, f, g, h] = *s;
    let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
    let ch = (e & f) ^ (!e & g);
    let t1 = h
        .wrapping_add(s1)
        .wrapping_add(ch)
        .wrapping_add(K[16 * G + J])
        .wrapping_add(w[J]);
    let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
    let maj = (a & b) ^ (a & c) ^ (b & c);
    let (new_a, new_e) = (t1.wrapping_add(s0.wrapping_add(maj)), d.wrapping_add(t1));
    *s = [new_a, a, b, c, new_e, e, f, g];
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

    /// Each of `msgs` in exactly one group. A group of more than one
    /// message fits the lanes, its messages fill more than half of its
    /// lanes' blocks, and each is within 2× of the group's longest.
    fn assert_groups_pay(msgs: &[&[u8]]) {
        let mut seen = vec![0; msgs.len()];
        for group in groups(msgs) {
            for &i in &group {
                seen[i] += 1;
            }
            let lens: Vec<usize> = group.iter().map(|&i| blocks(msgs[i])).collect();
            let longest = lens.iter().copied().max().unwrap_or(0);
            if group.len() > 1 {
                assert!(group.len() <= LANES, "{group:?}");
                assert!(lens.iter().all(|&b| 2 * b > longest), "{lens:?}");
                assert!(2 * lens.iter().sum::<usize>() > LANES * longest, "{lens:?}");
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `sha256` and `sha256_each` agree with the oracle, digest for
        /// digest, on 0-40 messages of lengths that mix block counts,
        /// 1- and 2-block paddings (0, 55, 56 and 63 mod 64), empty
        /// messages and other lengths; so do the lanes hashing the same
        /// messages side by side in input order, lanes of any lengths in
        /// one pass and the last pass partly filled.
        #[test]
        fn sha256_and_sha256_each_match_the_reference(
            picks in proptest::collection::vec((0usize..16, proptest::any::<u64>()), 0..=40),
        ) {
            const EDGES: [usize; 12] = [0, 55, 56, 63, 64, 119, 120, 127, 128, 183, 184, 191];
            let msgs: Vec<Vec<u8>> = picks
                .iter()
                .map(|&(pick, seed)| {
                    message(seed, EDGES.get(pick).copied().unwrap_or(seed as usize % 300))
                })
                .collect();
            let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
            let want: Vec<[u8; 32]> = refs.iter().map(|m| sha256_reference(m)).collect();
            proptest::prop_assert_eq!(&sha256_each(&refs), &want);
            assert_groups_pay(&refs);
            let in_order: Vec<[u8; 32]> = refs
                .chunks(LANES)
                .flat_map(|g| {
                    hash_lanes::<LANES>(std::array::from_fn(|l| g.get(l).map_or(&[][..], |m| m)))
                })
                .take(refs.len())
                .collect();
            proptest::prop_assert_eq!(&in_order, &want);
            for (m, w) in refs.iter().zip(&want) {
                proptest::prop_assert_eq!(&sha256(m), w);
            }
        }
    }

    #[test]
    fn lists_of_every_size_run_full_and_partly_filled_lanes() {
        // 1-40 messages of one length, and 1-40 whose lengths cycle over
        // three block counts and both paddings: groups fill all four
        // lanes or three of them, and a message left over runs alone.
        const CYCLE: [usize; 8] = [120, 183, 127, 64, 184, 119, 191, 128];
        let mut sizes = std::collections::BTreeSet::new();
        for n in 1..=40u64 {
            for len in [|_| 1000, |i: u64| CYCLE[i as usize % CYCLE.len()]] {
                let msgs: Vec<Vec<u8>> = (0..n).map(|i| message(i, len(i))).collect();
                let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                let want: Vec<[u8; 32]> = refs.iter().map(|m| sha256_reference(m)).collect();
                assert_eq!(sha256_each(&refs), want, "{n} messages");
                assert_groups_pay(&refs);
                sizes.extend(groups(&refs).iter().map(Vec::len));
            }
        }
        assert_eq!(sizes.into_iter().collect::<Vec<_>>(), [1, 3, 4]);
    }

    #[test]
    fn a_long_message_runs_alone_beside_short_ones() {
        // One 1 MiB message with fifteen 1 KiB ones, and with one: the
        // long one never holds idle lanes busy.
        let long = vec![0x5a; 1 << 20];
        let short: Vec<Vec<u8>> = (0..15).map(|i| message(i, 1024)).collect();
        for (n, sizes) in [(15, &[1, 4, 4, 4, 3][..]), (1, &[1, 1])] {
            let mut msgs: Vec<&[u8]> = short[..n].iter().map(Vec::as_slice).collect();
            msgs.insert(n / 2, &long);
            let plan = groups(&msgs);
            assert_eq!(plan[0], [n / 2]);
            assert_eq!(plan.iter().map(Vec::len).collect::<Vec<_>>(), sizes);
            assert_groups_pay(&msgs);
            let digests: Vec<[u8; 32]> = msgs.iter().map(|m| sha256_reference(m)).collect();
            assert_eq!(sha256_each(&msgs), digests);
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
