//! Property-based tests for the toolchain substrates: Huffman coding,
//! k-means weight sharing, quantization and FP16 rounding.

use proptest::prelude::*;
use vedliot_toolchain::huffman;
use vedliot_toolchain::kmeans::kmeans_1d;
use vedliot_toolchain::passes::round_to_f16;

proptest! {
    /// Huffman round-trips any symbol stream over any small alphabet.
    #[test]
    fn huffman_round_trip(
        symbols in proptest::collection::vec(0u16..32, 0..2_000),
    ) {
        let encoded = huffman::encode(&symbols, 32);
        let decoded = huffman::decode(&encoded).expect("decodes");
        prop_assert_eq!(decoded, symbols);
    }

    /// A stream that arrives from elsewhere decodes to `Ok` or an error,
    /// never a panic: bytes dropped from or appended to its buffer, its
    /// bit length and symbol count raised, up to `usize::MAX`. Unmutated,
    /// it decodes to its symbols.
    #[test]
    fn huffman_decode_never_panics_on_mutated_streams(
        symbols in proptest::collection::vec(0u16..16, 0..300),
        drop in 0usize..4,
        append in proptest::collection::vec(any::<u8>(), 0..4),
        (more_bits, more_symbols) in (0usize..40, 0usize..40),
        saturate in 0usize..6,
    ) {
        let mut encoded = huffman::encode(&symbols, 16);
        let unmutated = drop == 0 && append.is_empty() && more_bits + more_symbols == 0 && saturate > 1;
        let keep = encoded.bits.len().saturating_sub(drop);
        encoded.bits.truncate(keep);
        encoded.bits.extend(append);
        encoded.bit_len += more_bits;
        encoded.symbol_count += more_symbols;
        match saturate {
            0 => encoded.bit_len = usize::MAX,
            1 => encoded.symbol_count = usize::MAX,
            _ => {}
        }
        let decoded = huffman::decode(&encoded);
        if unmutated {
            prop_assert_eq!(decoded, Ok(symbols));
        }
    }

    /// The encoded payload never exceeds the trivial fixed-width bound
    /// by more than one byte of padding (Huffman is never worse than
    /// ceil(log2(alphabet)) bits per symbol, +1 for the degenerate
    /// single-symbol case).
    #[test]
    fn huffman_never_expands_beyond_fixed_width(
        symbols in proptest::collection::vec(0u16..16, 1..2_000),
    ) {
        let encoded = huffman::encode(&symbols, 16);
        // 16-symbol alphabet: longest possible canonical code for n
        // symbols is n-1 bits, but frequency-sorted coding bounds the
        // *average* by entropy <= 4 bits + 1. Use a generous structural
        // bound: total payload <= symbols * 15 bits.
        prop_assert!(encoded.bit_len <= symbols.len() * 15 + 8);
        // And it must decode to itself.
        prop_assert_eq!(huffman::decode(&encoded).expect("decodes").len(), symbols.len());
    }

    /// k-means: every assignment points at an existing centroid, the
    /// codebook never exceeds k entries, and reconstruction only uses
    /// codebook values.
    #[test]
    fn kmeans_structural_invariants(
        values in proptest::collection::vec(-100.0f32..100.0, 1..300),
        k in 1usize..17,
    ) {
        let clustering = kmeans_1d(&values, k, 15);
        prop_assert!(clustering.centroids.len() <= k);
        prop_assert!(!clustering.centroids.is_empty());
        prop_assert_eq!(clustering.assignments.len(), values.len());
        for &a in &clustering.assignments {
            prop_assert!((a as usize) < clustering.centroids.len());
        }
        // Reconstruction error is bounded by the data range.
        let min = values.iter().copied().fold(f32::INFINITY, f32::min);
        let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let range = (max - min) as f64;
        prop_assert!(clustering.mse(&values) <= range * range + 1e-6);
    }

    /// More clusters never increase reconstruction error (up to Lloyd's
    /// local-optimum wobble, bounded by a tolerance).
    #[test]
    fn kmeans_error_shrinks_with_k(
        values in proptest::collection::vec(-10.0f32..10.0, 8..200),
    ) {
        let coarse = kmeans_1d(&values, 2, 25).mse(&values);
        let fine = kmeans_1d(&values, 16, 25).mse(&values);
        prop_assert!(fine <= coarse + 1e-9, "fine {fine} > coarse {coarse}");
    }

    /// FP16 rounding is idempotent and its relative error is bounded by
    /// 2^-11 in the normal range.
    #[test]
    fn fp16_rounding_properties(x in -60_000.0f32..60_000.0) {
        let r = round_to_f16(x);
        prop_assert_eq!(round_to_f16(r), r, "idempotent");
        if x.abs() > 6.2e-5 {
            let rel = ((r - x) / x).abs();
            prop_assert!(rel <= 1.0 / 2048.0 + 1e-7, "x={x}, r={r}, rel={rel}");
        }
    }

    /// Symmetric INT8 fake-quantization keeps every value within half a
    /// quantization step and is idempotent.
    #[test]
    fn int8_grid_properties(
        values in proptest::collection::vec(-50.0f32..50.0, 1..200),
    ) {
        let absmax = values.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = absmax / 127.0;
        if scale > 0.0 {
            for &x in &values {
                let q = (x / scale).round().clamp(-127.0, 127.0) * scale;
                prop_assert!((q - x).abs() <= scale / 2.0 * 1.0001 + 1e-6);
                let q2 = (q / scale).round().clamp(-127.0, 127.0) * scale;
                prop_assert!((q2 - q).abs() < 1e-6);
            }
        }
    }
}
