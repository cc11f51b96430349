//! A small two-pass RV32IM assembler.
//!
//! Firmware for the simulator is written as readable assembly source in
//! tests and benchmarks (the Renode workflow runs real software on the
//! simulated SoC). Supports the RV32IM instruction set as implemented by
//! [`crate::cpu`], labels, the usual pseudo-instructions (`li`, `mv`,
//! `j`, `call`, `ret`, `nop`), CSR names, `.word` data and `#` comments.
//!
//! Pseudo-instruction sizes are fixed (`li` always expands to two
//! instructions) so label arithmetic stays trivial.

use std::collections::HashMap;
use std::fmt;

/// Assembly error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn reg(name: &str, line: usize) -> Result<u32, AsmError> {
    let name = name.trim_end_matches(',');
    let abi = [
        ("zero", 0),
        ("ra", 1),
        ("sp", 2),
        ("gp", 3),
        ("tp", 4),
        ("t0", 5),
        ("t1", 6),
        ("t2", 7),
        ("s0", 8),
        ("fp", 8),
        ("s1", 9),
        ("a0", 10),
        ("a1", 11),
        ("a2", 12),
        ("a3", 13),
        ("a4", 14),
        ("a5", 15),
        ("a6", 16),
        ("a7", 17),
        ("s2", 18),
        ("s3", 19),
        ("s4", 20),
        ("s5", 21),
        ("s6", 22),
        ("s7", 23),
        ("s8", 24),
        ("s9", 25),
        ("s10", 26),
        ("s11", 27),
        ("t3", 28),
        ("t4", 29),
        ("t5", 30),
        ("t6", 31),
    ];
    if let Some(rest) = name.strip_prefix('x') {
        if let Ok(n) = rest.parse::<u32>() {
            if n < 32 {
                return Ok(n);
            }
        }
    }
    abi.iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, v)| v)
        .ok_or_else(|| err(line, format!("unknown register '{name}'")))
}

fn csr_addr(name: &str, line: usize) -> Result<u32, AsmError> {
    let named = [
        ("mstatus", 0x300u32),
        ("misa", 0x301),
        ("mie", 0x304),
        ("mtvec", 0x305),
        ("mscratch", 0x340),
        ("mepc", 0x341),
        ("mcause", 0x342),
        ("mtval", 0x343),
        ("mip", 0x344),
        ("mcycle", 0xB00),
        ("mcycleh", 0xB80),
    ];
    let name = name.trim_end_matches(',');
    if let Some(&(_, addr)) = named.iter().find(|&&(n, _)| n == name) {
        return Ok(addr);
    }
    for i in 0..4u32 {
        if name == format!("pmpcfg{i}") {
            return Ok(0x3A0 + i);
        }
    }
    for i in 0..16u32 {
        if name == format!("pmpaddr{i}") {
            return Ok(0x3B0 + i);
        }
    }
    parse_imm(name, line)
        .map(|v| v as u32)
        .map_err(|_| err(line, format!("unknown CSR '{name}'")))
}

fn parse_imm(text: &str, line: usize) -> Result<i64, AsmError> {
    let text = text.trim_end_matches(',');
    let (neg, body) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else if let Some(bin) = body.strip_prefix("0b") {
        i64::from_str_radix(bin, 2)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| err(line, format!("invalid immediate '{text}'")))?;
    if neg {
        // `--9223372036854775808` parses as `i64::MIN`, which has no negation.
        value
            .checked_neg()
            .ok_or_else(|| err(line, format!("invalid immediate '{text}'")))
    } else {
        Ok(value)
    }
}

// Encoders ------------------------------------------------------------

fn enc_r(funct7: u32, rs2: u32, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> u32 {
    (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

fn enc_i(imm: i32, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> u32 {
    ((imm as u32 & 0xFFF) << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

fn enc_s(imm: i32, rs2: u32, rs1: u32, funct3: u32, opcode: u32) -> u32 {
    let imm = imm as u32;
    ((imm >> 5 & 0x7F) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | ((imm & 0x1F) << 7)
        | opcode
}

fn enc_b(imm: i32, rs2: u32, rs1: u32, funct3: u32, opcode: u32) -> u32 {
    let imm = imm as u32;
    ((imm >> 12 & 1) << 31)
        | ((imm >> 5 & 0x3F) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | ((imm >> 1 & 0xF) << 8)
        | ((imm >> 11 & 1) << 7)
        | opcode
}

fn enc_u(imm: u32, rd: u32, opcode: u32) -> u32 {
    (imm & 0xFFFF_F000) | (rd << 7) | opcode
}

fn enc_j(imm: i32, rd: u32, opcode: u32) -> u32 {
    let imm = imm as u32;
    ((imm >> 20 & 1) << 31)
        | ((imm >> 1 & 0x3FF) << 21)
        | ((imm >> 11 & 1) << 20)
        | ((imm >> 12 & 0xFF) << 12)
        | (rd << 7)
        | opcode
}

/// Size in words of one source statement (for label layout).
fn statement_words(mnemonic: &str) -> usize {
    match mnemonic {
        "li" | "la" => 2,
        _ => 1,
    }
}

/// Assembles source into little-endian machine code.
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending line for unknown
/// mnemonics, bad registers, malformed immediates or undefined labels.
pub fn assemble(source: &str) -> Result<Vec<u8>, AsmError> {
    // Pass 1: label addresses.
    let mut labels: HashMap<String, u32> = HashMap::new();
    let mut addr = 0u32;
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut text = raw.split('#').next().unwrap_or("").trim().to_string();
        while let Some(colon) = text.find(':') {
            let label = text[..colon].trim().to_string();
            if label.is_empty() || label.contains(char::is_whitespace) {
                return Err(err(line_no, "malformed label"));
            }
            labels.insert(label, addr);
            text = text[colon + 1..].trim().to_string();
        }
        if text.is_empty() {
            continue;
        }
        let mnemonic = text.split_whitespace().next().unwrap_or("");
        addr += 4 * statement_words(mnemonic) as u32;
    }

    // Pass 2: encoding.
    let mut words: Vec<u32> = Vec::new();
    let mut addr = 0u32;
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut text = raw.split('#').next().unwrap_or("").trim().to_string();
        while let Some(colon) = text.find(':') {
            text = text[colon + 1..].trim().to_string();
        }
        if text.is_empty() {
            continue;
        }
        let tokens: Vec<String> = text
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|t| !t.is_empty())
            .map(str::to_string)
            .collect();
        let Some(m) = tokens.first().map(String::as_str) else {
            return Err(err(line_no, "statement without a mnemonic"));
        };
        let arg = |i: usize| -> Result<&str, AsmError> {
            tokens
                .get(i)
                .map(String::as_str)
                .ok_or_else(|| err(line_no, format!("{m}: missing operand {i}")))
        };
        let label_or_imm = |i: usize, pc: u32| -> Result<i32, AsmError> {
            let t = arg(i)?;
            if let Some(&target) = labels.get(t) {
                Ok(target.wrapping_sub(pc) as i32)
            } else {
                parse_imm(t, line_no).map(|v| v as i32)
            }
        };
        // `off(rs)` memory operand.
        let mem_operand = |i: usize| -> Result<(i32, u32), AsmError> {
            let t = arg(i)?;
            let open = t
                .find('(')
                .ok_or_else(|| err(line_no, format!("expected off(reg), got '{t}'")))?;
            let close = t[open..]
                .find(')')
                .map(|at| open + at)
                .ok_or_else(|| err(line_no, format!("expected off(reg), got '{t}'")))?;
            let off = if open == 0 {
                0
            } else {
                parse_imm(&t[..open], line_no)? as i32
            };
            let r = reg(&t[open + 1..close], line_no)?;
            Ok((off, r))
        };

        let emitted: Vec<u32> = match m {
            // R-type ALU.
            "add" | "sub" | "sll" | "slt" | "sltu" | "xor" | "srl" | "sra" | "or" | "and"
            | "mul" | "mulh" | "mulhsu" | "mulhu" | "div" | "divu" | "rem" | "remu" => {
                let rd = reg(arg(1)?, line_no)?;
                let rs1 = reg(arg(2)?, line_no)?;
                let rs2 = reg(arg(3)?, line_no)?;
                let (funct7, funct3) = match m {
                    "add" => (0b0000000, 0b000),
                    "sub" => (0b0100000, 0b000),
                    "sll" => (0b0000000, 0b001),
                    "slt" => (0b0000000, 0b010),
                    "sltu" => (0b0000000, 0b011),
                    "xor" => (0b0000000, 0b100),
                    "srl" => (0b0000000, 0b101),
                    "sra" => (0b0100000, 0b101),
                    "or" => (0b0000000, 0b110),
                    "and" => (0b0000000, 0b111),
                    "mul" => (0b0000001, 0b000),
                    "mulh" => (0b0000001, 0b001),
                    "mulhsu" => (0b0000001, 0b010),
                    "mulhu" => (0b0000001, 0b011),
                    "div" => (0b0000001, 0b100),
                    "divu" => (0b0000001, 0b101),
                    "rem" => (0b0000001, 0b110),
                    _ => (0b0000001, 0b111),
                };
                vec![enc_r(funct7, rs2, rs1, funct3, rd, 0b0110011)]
            }
            // I-type ALU.
            "addi" | "slti" | "sltiu" | "xori" | "ori" | "andi" => {
                let rd = reg(arg(1)?, line_no)?;
                let rs1 = reg(arg(2)?, line_no)?;
                let imm = parse_imm(arg(3)?, line_no)? as i32;
                let funct3 = match m {
                    "addi" => 0b000,
                    "slti" => 0b010,
                    "sltiu" => 0b011,
                    "xori" => 0b100,
                    "ori" => 0b110,
                    _ => 0b111,
                };
                vec![enc_i(imm, rs1, funct3, rd, 0b0010011)]
            }
            "slli" | "srli" | "srai" => {
                let rd = reg(arg(1)?, line_no)?;
                let rs1 = reg(arg(2)?, line_no)?;
                let shamt = parse_imm(arg(3)?, line_no)? as i32 & 0x1F;
                let imm = if m == "srai" {
                    shamt | (0b0100000 << 5)
                } else {
                    shamt
                };
                let funct3 = if m == "slli" { 0b001 } else { 0b101 };
                vec![enc_i(imm, rs1, funct3, rd, 0b0010011)]
            }
            // Loads / stores.
            "lb" | "lh" | "lw" | "lbu" | "lhu" => {
                let rd = reg(arg(1)?, line_no)?;
                let (off, rs1) = mem_operand(2)?;
                let funct3 = match m {
                    "lb" => 0b000,
                    "lh" => 0b001,
                    "lw" => 0b010,
                    "lbu" => 0b100,
                    _ => 0b101,
                };
                vec![enc_i(off, rs1, funct3, rd, 0b0000011)]
            }
            "sb" | "sh" | "sw" => {
                let rs2 = reg(arg(1)?, line_no)?;
                let (off, rs1) = mem_operand(2)?;
                let funct3 = match m {
                    "sb" => 0b000,
                    "sh" => 0b001,
                    _ => 0b010,
                };
                vec![enc_s(off, rs2, rs1, funct3, 0b0100011)]
            }
            // Branches.
            "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
                let rs1 = reg(arg(1)?, line_no)?;
                let rs2 = reg(arg(2)?, line_no)?;
                let off = label_or_imm(3, addr)?;
                let funct3 = match m {
                    "beq" => 0b000,
                    "bne" => 0b001,
                    "blt" => 0b100,
                    "bge" => 0b101,
                    "bltu" => 0b110,
                    _ => 0b111,
                };
                vec![enc_b(off, rs2, rs1, funct3, 0b1100011)]
            }
            // Jumps.
            "jal" => {
                // jal rd, label  |  jal label (rd = ra)
                if tokens.len() == 2 {
                    let off = label_or_imm(1, addr)?;
                    vec![enc_j(off, 1, 0b1101111)]
                } else {
                    let rd = reg(arg(1)?, line_no)?;
                    let off = label_or_imm(2, addr)?;
                    vec![enc_j(off, rd, 0b1101111)]
                }
            }
            "jalr" => {
                // jalr rd, rs1, imm | jalr rs1
                if tokens.len() == 2 {
                    let rs1 = reg(arg(1)?, line_no)?;
                    vec![enc_i(0, rs1, 0b000, 1, 0b1100111)]
                } else {
                    let rd = reg(arg(1)?, line_no)?;
                    let rs1 = reg(arg(2)?, line_no)?;
                    let imm = parse_imm(arg(3)?, line_no)? as i32;
                    vec![enc_i(imm, rs1, 0b000, rd, 0b1100111)]
                }
            }
            "lui" => {
                let rd = reg(arg(1)?, line_no)?;
                let imm = parse_imm(arg(2)?, line_no)? as u32;
                vec![enc_u(imm << 12, rd, 0b0110111)]
            }
            "auipc" => {
                let rd = reg(arg(1)?, line_no)?;
                let imm = parse_imm(arg(2)?, line_no)? as u32;
                vec![enc_u(imm << 12, rd, 0b0010111)]
            }
            // System.
            "ecall" => vec![0x0000_0073],
            "ebreak" => vec![0x0010_0073],
            "mret" => vec![0x3020_0073],
            "wfi" => vec![0x1050_0073],
            "fence" => vec![0x0000_000F],
            "csrrw" | "csrrs" | "csrrc" => {
                let rd = reg(arg(1)?, line_no)?;
                let csr = csr_addr(arg(2)?, line_no)?;
                let rs1 = reg(arg(3)?, line_no)?;
                let funct3 = match m {
                    "csrrw" => 0b001,
                    "csrrs" => 0b010,
                    _ => 0b011,
                };
                vec![enc_i(csr as i32, rs1, funct3, rd, 0b1110011)]
            }
            "csrrwi" | "csrrsi" | "csrrci" => {
                let rd = reg(arg(1)?, line_no)?;
                let csr = csr_addr(arg(2)?, line_no)?;
                let zimm = (parse_imm(arg(3)?, line_no)? as u32) & 0x1F;
                let funct3 = match m {
                    "csrrwi" => 0b101,
                    "csrrsi" => 0b110,
                    _ => 0b111,
                };
                vec![enc_i(csr as i32, zimm, funct3, rd, 0b1110011)]
            }
            // CFU custom-0 instructions (funct3 from the mnemonic digit).
            "cfu0" | "cfu1" | "cfu2" | "cfu3" => {
                let funct3 = m.as_bytes()[3] as u32 - b'0' as u32;
                let rd = reg(arg(1)?, line_no)?;
                let rs1 = reg(arg(2)?, line_no)?;
                let rs2 = reg(arg(3)?, line_no)?;
                vec![enc_r(0, rs2, rs1, funct3, rd, 0b0001011)]
            }
            // Pseudo-instructions.
            "nop" => vec![enc_i(0, 0, 0b000, 0, 0b0010011)],
            "mv" => {
                let rd = reg(arg(1)?, line_no)?;
                let rs1 = reg(arg(2)?, line_no)?;
                vec![enc_i(0, rs1, 0b000, rd, 0b0010011)]
            }
            "not" => {
                let rd = reg(arg(1)?, line_no)?;
                let rs1 = reg(arg(2)?, line_no)?;
                vec![enc_i(-1, rs1, 0b100, rd, 0b0010011)]
            }
            "j" => {
                let off = label_or_imm(1, addr)?;
                vec![enc_j(off, 0, 0b1101111)]
            }
            "call" => {
                let off = label_or_imm(1, addr)?;
                vec![enc_j(off, 1, 0b1101111)]
            }
            "ret" => vec![enc_i(0, 1, 0b000, 0, 0b1100111)],
            "li" | "la" => {
                let rd = reg(arg(1)?, line_no)?;
                let value = if m == "la" {
                    let t = arg(2)?;
                    *labels
                        .get(t)
                        .ok_or_else(|| err(line_no, format!("undefined label '{t}'")))?
                        as i64
                } else {
                    parse_imm(arg(2)?, line_no)?
                };
                let value = value as i32;
                let hi = ((value as i64 + 0x800) >> 12) as u32;
                let lo = value.wrapping_sub((hi << 12) as i32);
                vec![
                    enc_u(hi << 12, rd, 0b0110111),
                    enc_i(lo, rd, 0b000, rd, 0b0010011),
                ]
            }
            ".word" => vec![parse_imm(arg(1)?, line_no)? as u32],
            other => return Err(err(line_no, format!("unknown mnemonic '{other}'"))),
        };
        for w in emitted {
            words.push(w);
            addr += 4;
        }
    }

    Ok(words.iter().flat_map(|w| w.to_le_bytes()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn run(src: &str) -> Machine {
        let fw = assemble(src).expect("assembles");
        let mut m = Machine::new(64 * 1024);
        m.load_firmware(&fw, 0).unwrap();
        m.run(100_000).expect("halts");
        m
    }

    #[test]
    fn li_handles_large_and_negative_values() {
        let m = run("li a0, 0x12345678\nli a1, -1234\nebreak");
        assert_eq!(m.cpu().reg(10), 0x1234_5678);
        assert_eq!(m.cpu().reg(11) as i32, -1234);
    }

    #[test]
    fn li_handles_values_with_high_low_bit_carry() {
        // lo part is negative: 0x1800 -> hi=2, lo=-0x800.
        let m = run("li a0, 0x1800\nebreak");
        assert_eq!(m.cpu().reg(10), 0x1800);
    }

    #[test]
    fn labels_and_branches() {
        let m = run(r#"
            li   a0, 0
            li   a1, 5
        loop:
            addi a0, a0, 1
            blt  a0, a1, loop
            ebreak
        "#);
        assert_eq!(m.cpu().reg(10), 5);
    }

    #[test]
    fn forward_and_backward_jumps() {
        let m = run(r#"
            j    start
        mid:
            li   a0, 99
            ebreak
        start:
            j    mid
        "#);
        assert_eq!(m.cpu().reg(10), 99);
    }

    #[test]
    fn call_and_ret() {
        let m = run(r#"
            li   sp, 0x8000
            call f
            ebreak
        f:
            li   a0, 7
            ret
        "#);
        assert_eq!(m.cpu().reg(10), 7);
    }

    #[test]
    fn memory_operands() {
        let m = run(r#"
            li   t0, 0x100
            li   t1, 0x55AA
            sw   t1, 4(t0)
            lw   a0, 4(t0)
            lhu  a1, 4(t0)
            lb   a2, 5(t0)
            ebreak
        "#);
        assert_eq!(m.cpu().reg(10), 0x55AA);
        assert_eq!(m.cpu().reg(11), 0x55AA);
        assert_eq!(m.cpu().reg(12), 0x55);
    }

    #[test]
    fn csr_names_resolve() {
        let m = run(r#"
            li   t0, 0x40
            csrrw x0, mscratch, t0
            csrrs a0, mscratch, x0
            ebreak
        "#);
        assert_eq!(m.cpu().reg(10), 0x40);
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = assemble("nop\nbogus a0, a1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn undefined_label_is_an_error() {
        assert!(assemble("j nowhere").is_err());
    }

    #[test]
    fn malformed_statements_are_errors() {
        // A line of separators only, a closing parenthesis before the
        // opening one, and an immediate with no negation.
        for (src, why) in [
            (",", "without a mnemonic"),
            ("nop\n , ,", "without a mnemonic"),
            ("lw a0, )4(a1", "expected off(reg)"),
            ("li a0, --9223372036854775808", "invalid immediate"),
        ] {
            let e = assemble(src).unwrap_err();
            assert!(e.message.contains(why), "{src:?}: {e}");
        }
        assert_eq!(assemble("nop\n , ,").unwrap_err().line, 2);
    }

    #[test]
    fn word_directive_emits_raw_data() {
        let bytes = assemble(".word 0xDEADBEEF").unwrap();
        assert_eq!(bytes, 0xDEAD_BEEFu32.to_le_bytes());
    }

    #[test]
    fn mul_div_encodings_execute() {
        let m = run(r#"
            li   a0, 6
            li   a1, 7
            mul  a2, a0, a1
            div  a3, a2, a0
            rem  a4, a2, a1
            ebreak
        "#);
        assert_eq!(m.cpu().reg(12), 42);
        assert_eq!(m.cpu().reg(13), 7);
        assert_eq!(m.cpu().reg(14), 0);
    }
}
