//! Canonical Huffman coding over small symbol alphabets.
//!
//! Deep Compression's final stage Huffman-codes the cluster indices and
//! zero-run lengths of the pruned, clustered weight matrices. This is a
//! from-scratch implementation with exact bit accounting (the compression
//! ratios reported by [`crate::compress`] come from real encoded sizes,
//! not entropy estimates).

use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// A Huffman code table: symbol → (bits, length).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeBook {
    /// Code length in bits per symbol (0 = symbol unused).
    lengths: Vec<u8>,
    /// Canonical code value per symbol.
    codes: Vec<u32>,
}

/// An encoded bitstream plus its codebook.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Encoded {
    /// The code table needed to decode.
    pub codebook: CodeBook,
    /// Packed bits, LSB-first within each byte.
    pub bits: Vec<u8>,
    /// Number of valid bits in `bits`.
    pub bit_len: usize,
    /// Number of symbols encoded.
    pub symbol_count: usize,
}

impl Encoded {
    /// Size of the payload in bytes (excluding the codebook).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.bit_len.div_ceil(8)
    }

    /// Size of the codebook in bytes: one length byte per possible symbol.
    #[must_use]
    pub fn codebook_bytes(&self) -> usize {
        self.codebook.lengths.len()
    }

    /// Total stored size in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.payload_bytes() + self.codebook_bytes()
    }
}

#[derive(PartialEq, Eq)]
struct HeapNode {
    weight: u64,
    // Tie-break on an id to make the tree deterministic.
    id: usize,
    node: Tree,
}

#[derive(PartialEq, Eq)]
enum Tree {
    Leaf(u16),
    Internal(Box<HeapNode>, Box<HeapNode>),
}

impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for min-heap behaviour.
        other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn code_lengths(freqs: &[u64]) -> Vec<u8> {
    let mut heap = BinaryHeap::new();
    let mut next_id = 0usize;
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            heap.push(HeapNode {
                weight: f,
                id: next_id,
                node: Tree::Leaf(sym as u16),
            });
            next_id += 1;
        }
    }
    let mut lengths = vec![0u8; freqs.len()];
    match heap.len() {
        0 => return lengths,
        1 => {
            // A single distinct symbol still needs 1 bit.
            if let Some(HeapNode {
                node: Tree::Leaf(sym),
                ..
            }) = heap.pop()
            {
                lengths[sym as usize] = 1;
            }
            return lengths;
        }
        _ => {}
    }
    while heap.len() > 1 {
        let (Some(a), Some(b)) = (heap.pop(), heap.pop()) else {
            break;
        };
        heap.push(HeapNode {
            weight: a.weight + b.weight,
            id: next_id,
            node: Tree::Internal(Box::new(a), Box::new(b)),
        });
        next_id += 1;
    }
    // Walk the tree assigning depths.
    fn walk(node: &HeapNode, depth: u8, lengths: &mut [u8]) {
        match &node.node {
            Tree::Leaf(sym) => lengths[*sym as usize] = depth.max(1),
            Tree::Internal(a, b) => {
                walk(a, depth + 1, lengths);
                walk(b, depth + 1, lengths);
            }
        }
    }
    if let Some(root) = heap.pop() {
        walk(&root, 0, &mut lengths);
    }
    lengths
}

impl CodeBook {
    /// Builds a canonical codebook from symbol frequencies.
    #[must_use]
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        let lengths = code_lengths(freqs);
        let codes = canonical_codes(&lengths);
        CodeBook { lengths, codes }
    }

    /// Code length of a symbol in bits (0 = unused).
    #[must_use]
    pub fn length(&self, symbol: u16) -> u8 {
        self.lengths.get(symbol as usize).copied().unwrap_or(0)
    }

    /// Number of possible symbols.
    #[must_use]
    pub fn alphabet_size(&self) -> usize {
        self.lengths.len()
    }
}

/// Assigns canonical codes given lengths (shorter codes first, then by
/// symbol order).
fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let mut symbols: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
    symbols.sort_by_key(|&s| (lengths[s], s));
    let mut codes = vec![0u32; lengths.len()];
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for &s in &symbols {
        code <<= lengths[s] - prev_len;
        codes[s] = code;
        code += 1;
        prev_len = lengths[s];
    }
    codes
}

/// Encodes a symbol sequence.
///
/// # Panics
///
/// Panics if a symbol is outside `0..alphabet_size` (an internal-usage
/// error, not a data error).
#[must_use]
pub fn encode(symbols: &[u16], alphabet_size: usize) -> Encoded {
    let mut freqs = vec![0u64; alphabet_size];
    for &s in symbols {
        freqs[s as usize] += 1;
    }
    let codebook = CodeBook::from_frequencies(&freqs);
    let mut bits = Vec::new();
    let mut bit_len = 0usize;
    let mut current = 0u8;
    for &s in symbols {
        let len = codebook.lengths[s as usize];
        let code = codebook.codes[s as usize];
        // Emit MSB-first within the code.
        for i in (0..len).rev() {
            let bit = (code >> i) & 1;
            current |= (bit as u8) << (bit_len % 8);
            bit_len += 1;
            if bit_len.is_multiple_of(8) {
                bits.push(current);
                current = 0;
            }
        }
    }
    if !bit_len.is_multiple_of(8) {
        bits.push(current);
    }
    Encoded {
        codebook,
        bits,
        bit_len,
        symbol_count: symbols.len(),
    }
}

/// Decodes an [`Encoded`] stream back into symbols.
///
/// # Errors
///
/// Returns a descriptive error string if the bitstream is truncated,
/// claims more bits than its bytes hold or more symbols than its bits,
/// or contains an invalid code.
pub fn decode(encoded: &Encoded) -> Result<Vec<u16>, String> {
    let (bit_len, bytes) = (encoded.bit_len, encoded.bits.len());
    if bit_len.div_ceil(8) > bytes {
        return Err(format!(
            "huffman stream of {bit_len} bits holds {bytes} bytes"
        ));
    }
    // Every used symbol's code has at least one bit, so a count past the
    // bit length cannot decode; refusing it bounds the allocation below.
    if encoded.symbol_count > bit_len {
        let count = encoded.symbol_count;
        return Err(format!("{count} huffman symbols claimed in {bit_len} bits"));
    }
    // Rebuild the canonical code table and decode by walking code space.
    let lengths = &encoded.codebook.lengths;
    let codes = &encoded.codebook.codes;
    // (length, code) -> symbol lookup.
    let mut table: std::collections::HashMap<(u8, u32), u16> = std::collections::HashMap::new();
    for (sym, (&len, &code)) in lengths.iter().zip(codes.iter()).enumerate() {
        if len > 0 {
            table.insert((len, code), sym as u16);
        }
    }
    let read_bit = |i: usize| -> u8 { (encoded.bits[i / 8] >> (i % 8)) & 1 };
    let mut out = Vec::with_capacity(encoded.symbol_count);
    let mut pos = 0usize;
    while out.len() < encoded.symbol_count {
        let mut code = 0u32;
        let mut len = 0u8;
        loop {
            if pos >= encoded.bit_len {
                return Err("truncated huffman stream".into());
            }
            code = (code << 1) | read_bit(pos) as u32;
            pos += 1;
            len += 1;
            if let Some(&sym) = table.get(&(len, code)) {
                out.push(sym);
                break;
            }
            if len >= 32 {
                return Err("invalid huffman code".into());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple() {
        let symbols = vec![0u16, 1, 1, 2, 2, 2, 2, 3];
        let enc = encode(&symbols, 4);
        assert_eq!(decode(&enc).unwrap(), symbols);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 1000 zeros + 10 ones: near-1-bit-per-symbol coding.
        let mut symbols = vec![0u16; 1000];
        symbols.extend(vec![1u16; 10]);
        let enc = encode(&symbols, 2);
        assert!(
            enc.payload_bytes() < 1010 / 4,
            "{} bytes",
            enc.payload_bytes()
        );
        assert_eq!(decode(&enc).unwrap(), symbols);
    }

    #[test]
    fn single_symbol_alphabet() {
        let symbols = vec![5u16; 64];
        let enc = encode(&symbols, 8);
        assert_eq!(enc.bit_len, 64);
        assert_eq!(decode(&enc).unwrap(), symbols);
    }

    #[test]
    fn empty_stream() {
        let enc = encode(&[], 4);
        assert_eq!(enc.bit_len, 0);
        assert_eq!(decode(&enc).unwrap(), Vec::<u16>::new());
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let mut symbols = vec![0u16; 100];
        symbols.extend(vec![1u16; 10]);
        symbols.extend(vec![2u16; 1]);
        let enc = encode(&symbols, 3);
        assert!(enc.codebook.length(0) <= enc.codebook.length(1));
        assert!(enc.codebook.length(1) <= enc.codebook.length(2));
    }

    #[test]
    fn truncated_stream_is_detected() {
        let symbols = vec![0u16, 1, 2, 3, 0, 1, 2, 3];
        let mut enc = encode(&symbols, 4);
        enc.bit_len /= 2;
        assert!(decode(&enc).is_err());
    }

    #[test]
    fn lengths_past_the_stream_are_refused() {
        let symbols = vec![0u16, 1, 2, 3, 0, 1, 2, 3];
        let enc = encode(&symbols, 4);
        // The last byte dropped: its bits read past the buffer.
        let mut short = enc.clone();
        short.bits.pop();
        assert!(decode(&short).unwrap_err().contains("bits holds"));
        // A count that could never decode, up to one no buffer holds.
        for count in [enc.bit_len + 1, usize::MAX] {
            let huge = Encoded {
                symbol_count: count,
                ..enc.clone()
            };
            assert!(decode(&huge).unwrap_err().contains("symbols claimed"));
        }
    }

    #[test]
    fn sixteen_entry_codebook_round_trip() {
        // The alphabet size Deep Compression uses for 4-bit conv clusters.
        let symbols: Vec<u16> = (0..4096).map(|i| ((i * 7 + i / 13) % 16) as u16).collect();
        let enc = encode(&symbols, 16);
        assert_eq!(decode(&enc).unwrap(), symbols);
        // Uniform-ish distribution over 16 symbols → ~4 bits/symbol.
        let bits_per_symbol = enc.bit_len as f64 / symbols.len() as f64;
        assert!((3.5..4.8).contains(&bits_per_symbol), "{bits_per_symbol}");
    }
}
