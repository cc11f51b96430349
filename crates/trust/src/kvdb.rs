//! Embedded key-value store — the SQLite stand-in for the Twine
//! experiment (paper §IV-C / reference \[17\]).
//!
//! "An evaluation shows that SQLite can be fully executed inside an SGX
//! enclave via WebAssembly and existing system interface, with small
//! performance overheads." The experiment needs the same database logic
//! in three configurations:
//!
//! 1. **Native** — [`KvStore`], plain Rust.
//! 2. **Wasm** — [`kv_module`], the identical append-log/scan logic as
//!    a [`crate::wasmlite`] bytecode program.
//! 3. **Wasm in enclave** — the VM run under
//!    [`crate::enclave::Enclave::ecall`] with EPC cost accounting.
//!
//! [`run_workload`] drives all three and reports the overhead ratios.

use crate::enclave::{Enclave, EnclaveConfig};
use crate::wasmlite::{Func, Instance, Instr, Module, VmError};
use serde::{Deserialize, Serialize};

/// Native append-log key-value store (insert wins-last semantics, like a
/// journal table without compaction).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    log: Vec<(i32, i32)>,
}

impl KvStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Appends a key/value pair.
    pub fn insert(&mut self, key: i32, value: i32) {
        self.log.push((key, value));
    }

    /// Latest value for `key`, scanning from the newest entry.
    #[must_use]
    pub fn get(&self, key: i32) -> Option<i32> {
        self.log
            .iter()
            .rev()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// Sum of every stored value (the "full table scan" query).
    #[must_use]
    pub fn scan_sum(&self) -> i64 {
        self.log.iter().map(|&(_, v)| v as i64).sum()
    }

    /// Number of log entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }
}

/// Builds the KV store as a `wasmlite` module.
///
/// Memory layout: `[0..4)` = entry count; entries of 8 bytes (`key`,
/// `value`) starting at address 8.
///
/// Functions: `0 = insert(key, value)`, `1 = get(key) -> value | -1`,
/// `2 = scan_sum() -> i32`.
#[must_use]
pub fn kv_module(memory_pages: u32) -> Module {
    use Instr::*;
    let insert = Func {
        params: 2,
        locals: 1, // local 2 = count
        returns_value: false,
        body: vec![
            // count = mem[0]
            I32Const(0),
            I32Load(0),
            LocalSet(2),
            // mem[8 + count*8] = key
            LocalGet(2),
            I32Const(8),
            I32Mul,
            I32Const(8),
            I32Add,
            LocalGet(0),
            I32Store(0),
            // mem[12 + count*8] = value
            LocalGet(2),
            I32Const(8),
            I32Mul,
            I32Const(12),
            I32Add,
            LocalGet(1),
            I32Store(0),
            // mem[0] = count + 1
            I32Const(0),
            LocalGet(2),
            I32Const(1),
            I32Add,
            I32Store(0),
        ],
    };
    let get = Func {
        params: 1,
        locals: 1, // local 1 = i
        returns_value: true,
        body: vec![
            // i = count
            I32Const(0),
            I32Load(0),
            LocalSet(1),
            Block(vec![Loop(vec![
                // if i == 0 -> not found
                LocalGet(1),
                I32Eqz,
                BrIf(1),
                // i -= 1
                LocalGet(1),
                I32Const(1),
                I32Sub,
                LocalSet(1),
                // if mem[8 + i*8] == key return mem[12 + i*8]
                If(
                    vec![
                        LocalGet(1),
                        I32Const(8),
                        I32Mul,
                        I32Const(12),
                        I32Add,
                        I32Load(0),
                        Return,
                    ],
                    vec![],
                ),
                Br(0),
            ])]),
            I32Const(-1),
        ],
    };
    // The If condition (mem[8+i*8] == key) must be on the stack before If.
    let get = Func {
        body: {
            let mut body = get.body;
            // Splice the comparison before the If inside the loop.
            if let Instr::Block(blocks) = &mut body[3] {
                if let Instr::Loop(loop_body) = &mut blocks[0] {
                    let comparison = vec![
                        LocalGet(1),
                        I32Const(8),
                        I32Mul,
                        I32Const(8),
                        I32Add,
                        I32Load(0),
                        LocalGet(0),
                        I32Eq,
                    ];
                    // Insert before the If (currently at index 7).
                    let Some(if_pos) = loop_body.iter().position(|i| matches!(i, Instr::If(_, _)))
                    else {
                        unreachable!("the generated loop body contains an If")
                    };
                    for (k, ins) in comparison.into_iter().enumerate() {
                        loop_body.insert(if_pos + k, ins);
                    }
                }
            }
            body
        },
        ..get
    };
    let scan_sum = Func {
        params: 0,
        locals: 2, // local 0 = i, local 1 = sum
        returns_value: true,
        body: vec![
            I32Const(0),
            I32Load(0),
            LocalSet(0),
            Block(vec![Loop(vec![
                LocalGet(0),
                I32Eqz,
                BrIf(1),
                LocalGet(0),
                I32Const(1),
                I32Sub,
                LocalSet(0),
                // sum += mem[12 + i*8]
                LocalGet(1),
                LocalGet(0),
                I32Const(8),
                I32Mul,
                I32Const(12),
                I32Add,
                I32Load(0),
                I32Add,
                LocalSet(1),
                Br(0),
            ])]),
            LocalGet(1),
        ],
    };
    Module {
        funcs: vec![insert, get, scan_sum],
        memory_pages,
    }
}

/// Workload parameters for the Twine comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of inserted records.
    pub inserts: usize,
    /// Number of point lookups.
    pub gets: usize,
    /// Number of full scans.
    pub scans: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            inserts: 2_000,
            gets: 200,
            scans: 5,
        }
    }
}

/// Result of one runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeResult {
    /// Wall-clock seconds the workload took.
    pub seconds: f64,
    /// VM instructions executed (0 for native).
    pub vm_instructions: u64,
    /// Simulated enclave overhead seconds (0 outside the enclave).
    pub enclave_overhead_s: f64,
    /// Workload checksum (all configurations must agree).
    pub checksum: i64,
}

/// Results of the three-way Twine comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwineComparison {
    /// Plain Rust.
    pub native: RuntimeResult,
    /// Interpreted in the trusted runtime.
    pub wasm: RuntimeResult,
    /// Interpreted inside the enclave (with transition/paging costs).
    pub wasm_enclave: RuntimeResult,
}

impl TwineComparison {
    /// Wasm-over-native slowdown factor.
    #[must_use]
    pub fn wasm_overhead(&self) -> f64 {
        self.wasm.seconds / self.native.seconds.max(1e-12)
    }

    /// Enclave slowdown factor: (execution + transition/paging cost)
    /// over the execution time of the *same* enclave run — the paper's
    /// "small performance overheads" quantity, immune to cross-run
    /// wall-clock noise.
    #[must_use]
    pub fn enclave_overhead(&self) -> f64 {
        (self.wasm_enclave.seconds + self.wasm_enclave.enclave_overhead_s)
            / self.wasm_enclave.seconds.max(1e-12)
    }
}

fn workload_native(config: &WorkloadConfig) -> (KvStore, i64) {
    let mut store = KvStore::new();
    let mut checksum = 0i64;
    for i in 0..config.inserts {
        store.insert((i % 997) as i32, i as i32);
    }
    for i in 0..config.gets {
        checksum += store.get((i % 997) as i32).unwrap_or(-1) as i64;
    }
    for _ in 0..config.scans {
        checksum += store.scan_sum();
    }
    (store, checksum)
}

fn workload_vm(vm: &mut Instance, config: &WorkloadConfig) -> Result<i64, VmError> {
    let mut checksum = 0i64;
    for i in 0..config.inserts {
        vm.call(0, &[(i % 997) as i32, i as i32])?;
    }
    for i in 0..config.gets {
        checksum += vm.call(1, &[(i % 997) as i32])?.unwrap_or(-1) as i64;
    }
    for _ in 0..config.scans {
        checksum += vm.call(2, &[])?.unwrap_or(0) as i64;
    }
    Ok(checksum)
}

/// Runs the workload in all three configurations and returns the
/// comparison (the E7 experiment).
///
/// # Errors
///
/// Propagates VM traps (cannot occur for in-range workload sizes).
pub fn run_workload(
    config: &WorkloadConfig,
    enclave_config: EnclaveConfig,
) -> Result<TwineComparison, VmError> {
    // Native.
    let t0 = std::time::Instant::now();
    let (_, native_checksum) = workload_native(config);
    let native = RuntimeResult {
        seconds: t0.elapsed().as_secs_f64(),
        vm_instructions: 0,
        enclave_overhead_s: 0.0,
        checksum: native_checksum,
    };

    // Memory must hold 8 + inserts*8 bytes.
    let pages = ((8 + config.inserts * 8) / crate::wasmlite::PAGE_SIZE + 1) as u32;

    // Wasm.
    let mut vm = Instance::new(kv_module(pages))?;
    let t0 = std::time::Instant::now();
    let checksum = workload_vm(&mut vm, config)?;
    let wasm = RuntimeResult {
        seconds: t0.elapsed().as_secs_f64(),
        vm_instructions: vm.instructions,
        enclave_overhead_s: 0.0,
        checksum,
    };

    // Wasm inside the enclave: one ecall per statement batch (Twine
    // batches SQL statements per ecall), working set = VM memory.
    let mut vm = Instance::new(kv_module(pages))?;
    let mut enclave = Enclave::create(b"twine-kv-runtime", enclave_config);
    let working_set_kib = pages as usize * crate::wasmlite::PAGE_SIZE / 1024;
    let t0 = std::time::Instant::now();
    let checksum = {
        let mut total = 0i64;
        // Batch the workload into ecalls of ~100 statements.
        let mut remaining_inserts = config.inserts;
        let mut i = 0usize;
        while remaining_inserts > 0 {
            let batch = remaining_inserts.min(100);
            enclave.ecall(working_set_kib, || -> Result<(), VmError> {
                for _ in 0..batch {
                    vm.call(0, &[(i % 997) as i32, i as i32])?;
                    i += 1;
                }
                Ok(())
            })?;
            remaining_inserts -= batch;
        }
        for g in 0..config.gets {
            total += enclave
                .ecall(working_set_kib, || vm.call(1, &[(g % 997) as i32]))?
                .unwrap_or(-1) as i64;
        }
        for _ in 0..config.scans {
            total += enclave
                .ecall(working_set_kib, || vm.call(2, &[]))?
                .unwrap_or(0) as i64;
        }
        total
    };
    let wasm_enclave = RuntimeResult {
        seconds: t0.elapsed().as_secs_f64(),
        vm_instructions: vm.instructions,
        enclave_overhead_s: enclave.overhead_seconds(),
        checksum,
    };

    Ok(TwineComparison {
        native,
        wasm,
        wasm_enclave,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_store_semantics() {
        let mut kv = KvStore::new();
        assert!(kv.is_empty());
        kv.insert(1, 10);
        kv.insert(2, 20);
        kv.insert(1, 11); // overwrite: latest wins
        assert_eq!(kv.get(1), Some(11));
        assert_eq!(kv.get(2), Some(20));
        assert_eq!(kv.get(3), None);
        assert_eq!(kv.scan_sum(), 41);
        assert_eq!(kv.len(), 3);
    }

    #[test]
    fn vm_store_matches_native() {
        let mut vm = Instance::new(kv_module(1)).unwrap();
        let mut native = KvStore::new();
        for (k, v) in [(5, 50), (9, 90), (5, 55), (3, 30)] {
            vm.call(0, &[k, v]).unwrap();
            native.insert(k, v);
        }
        for k in [5, 9, 3, 4] {
            let vm_result = vm.call(1, &[k]).unwrap().unwrap();
            let native_result = native.get(k).unwrap_or(-1);
            assert_eq!(vm_result, native_result, "key {k}");
        }
        assert_eq!(vm.call(2, &[]).unwrap().unwrap() as i64, native.scan_sum());
    }

    #[test]
    fn three_runtimes_agree_on_checksum() {
        let config = WorkloadConfig {
            inserts: 300,
            gets: 30,
            scans: 2,
        };
        let cmp = run_workload(&config, EnclaveConfig::default()).unwrap();
        assert_eq!(cmp.native.checksum, cmp.wasm.checksum);
        assert_eq!(cmp.native.checksum, cmp.wasm_enclave.checksum);
    }

    #[test]
    fn interpretation_costs_instructions_enclave_costs_transitions() {
        let config = WorkloadConfig {
            inserts: 300,
            gets: 30,
            scans: 2,
        };
        let cmp = run_workload(&config, EnclaveConfig::default()).unwrap();
        assert!(cmp.wasm.vm_instructions > 10_000);
        assert_eq!(cmp.native.vm_instructions, 0);
        assert!(cmp.wasm_enclave.enclave_overhead_s > 0.0);
        // The headline claim: enclave overhead on top of the runtime is
        // small (well under 2x for a batched workload).
        assert!(
            cmp.enclave_overhead() < 3.0,
            "enclave overhead {:.2}x",
            cmp.enclave_overhead()
        );
    }
}
