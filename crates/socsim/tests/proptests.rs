// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property-based tests: the simulated core's arithmetic must agree
//! with Rust's integer semantics, and PMP region decoding must match
//! membership checks.

use proptest::prelude::*;
use vedliot_socsim::asm::assemble;
use vedliot_socsim::machine::Machine;
use vedliot_socsim::pmp::{AccessKind, PmpUnit};
use vedliot_socsim::PrivilegeMode;

/// Runs `op a2, a0, a1` with the given register values and returns a2.
fn run_binop(op: &str, a: i32, b: i32) -> u32 {
    let src = format!(
        r#"
        li a0, {a}
        li a1, {b}
        {op} a2, a0, a1
        ebreak
    "#
    );
    let fw = assemble(&src).expect("assembles");
    let mut m = Machine::new(16 * 1024);
    m.load_firmware(&fw, 0).expect("fits");
    m.run(10_000).expect("halts");
    m.cpu().reg(12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RV32 ALU semantics equal Rust wrapping semantics.
    #[test]
    fn alu_matches_rust(a in any::<i32>(), b in any::<i32>()) {
        prop_assert_eq!(run_binop("add", a, b), a.wrapping_add(b) as u32);
        prop_assert_eq!(run_binop("sub", a, b), a.wrapping_sub(b) as u32);
        prop_assert_eq!(run_binop("xor", a, b), (a ^ b) as u32);
        prop_assert_eq!(run_binop("and", a, b), (a & b) as u32);
        prop_assert_eq!(run_binop("or", a, b), (a | b) as u32);
        prop_assert_eq!(run_binop("slt", a, b), (a < b) as u32);
        prop_assert_eq!(run_binop("sltu", a, b), u32::from((a as u32) < (b as u32)));
    }

    /// M-extension semantics, including the spec's division edge cases.
    #[test]
    fn mul_div_matches_spec(a in any::<i32>(), b in any::<i32>()) {
        prop_assert_eq!(run_binop("mul", a, b), a.wrapping_mul(b) as u32);
        let expected_div = if b == 0 {
            u32::MAX
        } else if a == i32::MIN && b == -1 {
            a as u32
        } else {
            (a / b) as u32
        };
        prop_assert_eq!(run_binop("div", a, b), expected_div);
        let expected_rem = if b == 0 {
            a as u32
        } else if a == i32::MIN && b == -1 {
            0
        } else {
            (a % b) as u32
        };
        prop_assert_eq!(run_binop("rem", a, b), expected_rem);
    }

    /// Shifts use only the low 5 bits of the shift amount.
    #[test]
    fn shifts_mask_amount(a in any::<i32>(), s in 0u32..64) {
        let sh = (s & 31) as i32;
        prop_assert_eq!(run_binop("sll", a, s as i32), (a as u32) << sh);
        prop_assert_eq!(
            run_binop("srl", a, s as i32),
            (a as u32) >> sh
        );
        prop_assert_eq!(run_binop("sra", a, s as i32), (a >> sh) as u32);
    }

    /// Loads after stores round-trip through memory with sign handling.
    #[test]
    fn store_load_round_trip(value in any::<i32>(), offset in 0u32..64) {
        let addr = 0x2000 + offset * 4;
        let src = format!(
            r#"
            li a0, {value}
            li t0, {addr}
            sw a0, 0(t0)
            lw a1, 0(t0)
            lhu a2, 0(t0)
            lbu a3, 0(t0)
            ebreak
        "#
        );
        let fw = assemble(&src).expect("assembles");
        let mut m = Machine::new(32 * 1024);
        m.load_firmware(&fw, 0).expect("fits");
        m.run(10_000).expect("halts");
        prop_assert_eq!(m.cpu().reg(11), value as u32);
        prop_assert_eq!(m.cpu().reg(12), (value as u32) & 0xFFFF);
        prop_assert_eq!(m.cpu().reg(13), (value as u32) & 0xFF);
    }

    /// NAPOT region encode/decode: `set_napot(base, size)` produces a
    /// region whose membership equals the arithmetic definition.
    #[test]
    fn napot_membership(
        base_pow in 3u32..20,
        size_pow in 3u32..16,
        probe in any::<u32>(),
    ) {
        let size = 1u32 << size_pow;
        // Align base to size.
        let base = ((1u32 << base_pow) / size) * size;
        let mut pmp = PmpUnit::new();
        pmp.set_napot(0, base, size, true, false, false);
        let probe = probe % (1 << 24); // keep in a sane range
        let inside = probe >= base && probe.checked_add(4).is_some_and(|end| end <= base + size);
        let allowed = pmp.check(probe, 4, AccessKind::Read, PrivilegeMode::User);
        prop_assert_eq!(
            allowed,
            inside,
            "base={:#x} size={:#x} probe={:#x}",
            base,
            size,
            probe
        );
    }

    /// A write permission never implies read or execute (permission bits
    /// are independent).
    #[test]
    fn pmp_permissions_are_independent(r in any::<bool>(), w in any::<bool>(), x in any::<bool>()) {
        let mut pmp = PmpUnit::new();
        pmp.set_napot(0, 0x4000, 0x1000, r, w, x);
        prop_assert_eq!(pmp.check(0x4000, 4, AccessKind::Read, PrivilegeMode::User), r);
        prop_assert_eq!(pmp.check(0x4000, 4, AccessKind::Write, PrivilegeMode::User), w);
        prop_assert_eq!(pmp.check(0x4000, 4, AccessKind::Execute, PrivilegeMode::User), x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The assembler reads untrusted source: any line drawn from its
    /// mnemonics, registers, digits, commas, parentheses, colons and
    /// spaces assembles or is an error, never a panic.
    #[test]
    fn assemble_never_panics_on_token_soup(
        lines in proptest::collection::vec(
            proptest::collection::vec(0usize..SOUP.len(), 0..8),
            1..4,
        ),
    ) {
        let src: Vec<String> = lines
            .iter()
            .map(|line| line.iter().map(|&t| SOUP[t]).collect())
            .collect();
        let src = src.join("\n");
        match assemble(&src) {
            Ok(bytes) => prop_assert_eq!(bytes.len() % 4, 0),
            Err(e) => prop_assert!(e.line >= 1, "{:?}: {}", src, e),
        }
    }
}

/// What [`assemble_never_panics_on_token_soup`] builds its lines from,
/// the separators over-represented so that short lines often hold
/// nothing else.
const SOUP: [&str; 40] = [
    "lw", "sw", "addi", "slli", "beq", "jal", "jalr", "lui", "li", "la", "csrrw", "csrrwi", "cfu2",
    ".word", "nop", "a0", "x1", "x32", "sp", "mstatus", "loop", "0", "7", "-", "0x", " ", " ", " ",
    ",", ",", ",", "(", "(", "(", ")", ")", ")", ":", "#", " ",
];
