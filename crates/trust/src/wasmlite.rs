//! A validated, interpreted WebAssembly-like stack VM.
//!
//! Paper §IV-C: VEDLIoT uses "an open-source WebAssembly runtime
//! implementation to build a trusted runtime environment without dealing
//! with language-specific APIs". This module is that runtime's
//! functional core: structured control flow, a typed operand stack,
//! linear memory with bounds-checked access, and a validator that rejects
//! malformed modules before execution — the properties that make Wasm a
//! safe container for code inside an enclave.
//!
//! The instruction set is the i32 subset sufficient for the KV-store
//! workload ([`crate::kvdb`]); executed-instruction counts serve as the
//! interpreter-overhead metric in the Twine experiment.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Linear-memory page size (64 KiB, as in WebAssembly).
pub const PAGE_SIZE: usize = 64 * 1024;

/// VM instruction (i32 subset with structured control flow).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instr {
    /// Push a constant.
    I32Const(i32),
    /// Push local `n`.
    LocalGet(u32),
    /// Pop into local `n`.
    LocalSet(u32),
    /// Store top of stack into local `n` without popping.
    LocalTee(u32),
    /// Arithmetic / bitwise (pop 2, push 1).
    I32Add,
    /// Subtraction.
    I32Sub,
    /// Multiplication (wrapping).
    I32Mul,
    /// Signed division (traps on divide-by-zero / overflow).
    I32DivS,
    /// Signed remainder (traps on divide-by-zero).
    I32RemS,
    /// Bitwise and.
    I32And,
    /// Bitwise or.
    I32Or,
    /// Bitwise xor.
    I32Xor,
    /// Shift left.
    I32Shl,
    /// Arithmetic shift right.
    I32ShrS,
    /// Comparison: top == 0.
    I32Eqz,
    /// Equality.
    I32Eq,
    /// Inequality.
    I32Ne,
    /// Signed less-than.
    I32LtS,
    /// Signed greater-than.
    I32GtS,
    /// Signed less-or-equal.
    I32LeS,
    /// Signed greater-or-equal.
    I32GeS,
    /// Load i32 at `addr + offset`.
    I32Load(u32),
    /// Store i32 at `addr + offset`.
    I32Store(u32),
    /// Load one byte zero-extended.
    I32Load8U(u32),
    /// Store low byte.
    I32Store8(u32),
    /// Structured block (branch target at its end).
    Block(Vec<Instr>),
    /// Structured loop (branch target at its start).
    Loop(Vec<Instr>),
    /// Two-armed conditional.
    If(Vec<Instr>, Vec<Instr>),
    /// Unconditional branch to enclosing block/loop at depth `n`.
    Br(u32),
    /// Conditional branch.
    BrIf(u32),
    /// Call function `n`.
    Call(u32),
    /// Call host import `n` (pops one i32 argument, pushes one i32
    /// result) — the WASI-like system interface boundary. Inside an
    /// enclave each host call is an ocall.
    HostCall(u32),
    /// Return from the current function.
    Return,
    /// Pop and discard.
    Drop,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Func {
    /// Number of i32 parameters.
    pub params: u32,
    /// Number of additional i32 locals (zero-initialized).
    pub locals: u32,
    /// Whether the function returns one i32.
    pub returns_value: bool,
    /// Body instructions.
    pub body: Vec<Instr>,
}

/// A module: functions plus a linear memory size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Module {
    /// Function definitions (index = call target).
    pub funcs: Vec<Func>,
    /// Linear memory size in pages.
    pub memory_pages: u32,
}

/// Validation or execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Static validation failed.
    Validation(String),
    /// Out-of-bounds memory access at the given address.
    MemoryOutOfBounds(u32),
    /// Integer divide by zero (or INT_MIN / -1).
    DivideByZero,
    /// The fuel budget was exhausted.
    OutOfFuel,
    /// Call stack exceeded the depth limit.
    StackOverflow,
    /// Unknown function index at runtime (prevented by validation).
    UnknownFunction(u32),
    /// A host import was called but none is registered at that index.
    UnknownHostCall(u32),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Validation(m) => write!(f, "validation error: {m}"),
            VmError::MemoryOutOfBounds(a) => write!(f, "memory access out of bounds at {a:#x}"),
            VmError::DivideByZero => write!(f, "integer divide by zero"),
            VmError::OutOfFuel => write!(f, "fuel exhausted"),
            VmError::StackOverflow => write!(f, "call stack overflow"),
            VmError::UnknownFunction(i) => write!(f, "unknown function {i}"),
            VmError::UnknownHostCall(i) => write!(f, "unknown host import {i}"),
        }
    }
}

impl std::error::Error for VmError {}

impl Module {
    /// Validates the module: local/function indices in range, branch
    /// depths valid, operand-stack discipline respected in every block.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Validation`] describing the first violation.
    pub fn validate(&self) -> Result<(), VmError> {
        for (fi, func) in self.funcs.iter().enumerate() {
            let (params, locals) = (func.params, func.locals);
            let locals = params.checked_add(locals).ok_or_else(|| {
                VmError::Validation(format!(
                    "function {fi}: {params} params and {locals} locals overflow u32"
                ))
            })?;
            let final_depth = validate_seq(&func.body, locals, self, 0)
                .map_err(|m| VmError::Validation(format!("function {fi}: {m}")))?;
            if func.returns_value && final_depth != Some(1) && final_depth.is_some() {
                return Err(VmError::Validation(format!(
                    "function {fi}: must leave exactly 1 value, leaves {final_depth:?}"
                )));
            }
        }
        Ok(())
    }
}

/// Validates a sequence; returns the resulting stack depth, or `None`
/// when the tail is unreachable (after an unconditional branch/return).
fn validate_seq(
    body: &[Instr],
    locals: u32,
    module: &Module,
    block_depth: u32,
) -> Result<Option<usize>, String> {
    let mut depth: Option<usize> = Some(0);
    for instr in body {
        let Some(d) = depth else {
            // Unreachable code: skip checking (wasm does this with
            // polymorphic typing; skipping is the conservative subset).
            continue;
        };
        let need = |n: usize| -> Result<(), String> {
            if d < n {
                Err(format!("stack underflow at {instr:?}"))
            } else {
                Ok(())
            }
        };
        let local_ok = |i: u32| -> Result<(), String> {
            if i >= locals {
                Err(format!("local {i} out of range"))
            } else {
                Ok(())
            }
        };
        depth = match instr {
            Instr::I32Const(_) => Some(d + 1),
            Instr::LocalGet(i) => {
                local_ok(*i)?;
                Some(d + 1)
            }
            Instr::LocalSet(i) => {
                local_ok(*i)?;
                need(1)?;
                Some(d - 1)
            }
            Instr::LocalTee(i) => {
                local_ok(*i)?;
                need(1)?;
                Some(d)
            }
            Instr::I32Add
            | Instr::I32Sub
            | Instr::I32Mul
            | Instr::I32DivS
            | Instr::I32RemS
            | Instr::I32And
            | Instr::I32Or
            | Instr::I32Xor
            | Instr::I32Shl
            | Instr::I32ShrS
            | Instr::I32Eq
            | Instr::I32Ne
            | Instr::I32LtS
            | Instr::I32GtS
            | Instr::I32LeS
            | Instr::I32GeS => {
                need(2)?;
                Some(d - 1)
            }
            Instr::I32Eqz => {
                need(1)?;
                Some(d)
            }
            Instr::I32Load(_) | Instr::I32Load8U(_) => {
                need(1)?;
                Some(d)
            }
            Instr::I32Store(_) | Instr::I32Store8(_) => {
                need(2)?;
                Some(d - 2)
            }
            Instr::Drop => {
                need(1)?;
                Some(d - 1)
            }
            Instr::Block(inner) | Instr::Loop(inner) => {
                validate_seq(inner, locals, module, block_depth + 1)?;
                Some(d)
            }
            Instr::If(then_b, else_b) => {
                need(1)?;
                validate_seq(then_b, locals, module, block_depth + 1)?;
                validate_seq(else_b, locals, module, block_depth + 1)?;
                Some(d - 1)
            }
            Instr::Br(n) => {
                if *n >= block_depth {
                    return Err(format!("branch depth {n} exceeds nesting {block_depth}"));
                }
                None
            }
            Instr::BrIf(n) => {
                if *n >= block_depth {
                    return Err(format!("branch depth {n} exceeds nesting {block_depth}"));
                }
                need(1)?;
                Some(d - 1)
            }
            Instr::Call(i) => {
                let callee = module
                    .funcs
                    .get(*i as usize)
                    .ok_or(format!("call to unknown function {i}"))?;
                need(callee.params as usize)?;
                Some(d - callee.params as usize + usize::from(callee.returns_value))
            }
            Instr::HostCall(_) => {
                need(1)?;
                Some(d)
            }
            Instr::Return => None,
        };
    }
    Ok(depth)
}

/// Control-flow signal inside the interpreter.
enum Flow {
    Normal,
    Branch(u32),
    Return,
}

/// A VM instance: module + linear memory + fuel + host imports.
pub struct Instance {
    module: Module,
    memory: Vec<u8>,
    /// Executed-instruction counter (the interpreter-overhead metric).
    pub instructions: u64,
    fuel_limit: u64,
    host_imports: Vec<Box<dyn FnMut(i32) -> i32>>,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("memory_bytes", &self.memory.len())
            .field("instructions", &self.instructions)
            .field("host_imports", &self.host_imports.len())
            .finish()
    }
}

impl Instance {
    /// Instantiates a validated module.
    ///
    /// # Errors
    ///
    /// Returns the validation error if the module is malformed.
    pub fn new(module: Module) -> Result<Self, VmError> {
        module.validate()?;
        let memory = vec![0; module.memory_pages as usize * PAGE_SIZE];
        Ok(Instance {
            module,
            memory,
            instructions: 0,
            fuel_limit: u64::MAX,
            host_imports: Vec::new(),
        })
    }

    /// Registers a host import at the next free index and returns that
    /// index. Host imports take one i32 and return one i32 (the
    /// WASI-like boundary; richer signatures marshal through linear
    /// memory).
    pub fn register_host(&mut self, f: impl FnMut(i32) -> i32 + 'static) -> u32 {
        self.host_imports.push(Box::new(f));
        (self.host_imports.len() - 1) as u32
    }

    /// Sets an executed-instruction budget (defense against runaway
    /// payloads inside the trusted runtime).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel_limit = fuel;
    }

    /// Raw view of linear memory.
    #[must_use]
    pub fn memory(&self) -> &[u8] {
        &self.memory
    }

    /// Calls function `index` with i32 arguments, returning its result
    /// (or `None` for a void function).
    ///
    /// # Errors
    ///
    /// Propagates runtime traps ([`VmError`]).
    pub fn call(&mut self, index: u32, args: &[i32]) -> Result<Option<i32>, VmError> {
        self.call_depth(index, args, 0)
    }

    fn call_depth(
        &mut self,
        index: u32,
        args: &[i32],
        depth: usize,
    ) -> Result<Option<i32>, VmError> {
        if depth > 128 {
            return Err(VmError::StackOverflow);
        }
        let func = self
            .module
            .funcs
            .get(index as usize)
            .ok_or(VmError::UnknownFunction(index))?
            .clone();
        let mut locals = vec![0i32; (func.params + func.locals) as usize];
        for (l, &a) in locals.iter_mut().zip(args.iter()) {
            *l = a;
        }
        let mut stack: Vec<i32> = Vec::with_capacity(16);
        self.exec_seq(&func.body, &mut locals, &mut stack, depth)?;
        Ok(if func.returns_value {
            stack.pop()
        } else {
            None
        })
    }

    fn exec_seq(
        &mut self,
        body: &[Instr],
        locals: &mut [i32],
        stack: &mut Vec<i32>,
        depth: usize,
    ) -> Result<Flow, VmError> {
        for instr in body {
            self.instructions += 1;
            if self.instructions > self.fuel_limit {
                return Err(VmError::OutOfFuel);
            }
            macro_rules! pop {
                () => {
                    stack.pop().expect("validated stack")
                };
            }
            macro_rules! binop {
                ($f:expr) => {{
                    let b = pop!();
                    let a = pop!();
                    #[allow(clippy::redundant_closure_call)]
                    stack.push($f(a, b));
                }};
            }
            match instr {
                Instr::I32Const(v) => stack.push(*v),
                Instr::LocalGet(i) => stack.push(locals[*i as usize]),
                Instr::LocalSet(i) => locals[*i as usize] = pop!(),
                Instr::LocalTee(i) => {
                    let Some(&top) = stack.last() else {
                        return Err(VmError::Validation("local.tee on an empty stack".into()));
                    };
                    locals[*i as usize] = top;
                }
                Instr::I32Add => binop!(|a: i32, b: i32| a.wrapping_add(b)),
                Instr::I32Sub => binop!(|a: i32, b: i32| a.wrapping_sub(b)),
                Instr::I32Mul => binop!(|a: i32, b: i32| a.wrapping_mul(b)),
                Instr::I32DivS => {
                    let b = pop!();
                    let a = pop!();
                    if b == 0 || (a == i32::MIN && b == -1) {
                        return Err(VmError::DivideByZero);
                    }
                    stack.push(a / b);
                }
                Instr::I32RemS => {
                    let b = pop!();
                    let a = pop!();
                    if b == 0 {
                        return Err(VmError::DivideByZero);
                    }
                    stack.push(a.wrapping_rem(b));
                }
                Instr::I32And => binop!(|a: i32, b: i32| a & b),
                Instr::I32Or => binop!(|a: i32, b: i32| a | b),
                Instr::I32Xor => binop!(|a: i32, b: i32| a ^ b),
                Instr::I32Shl => binop!(|a: i32, b: i32| a.wrapping_shl(b as u32)),
                Instr::I32ShrS => binop!(|a: i32, b: i32| a.wrapping_shr(b as u32)),
                Instr::I32Eqz => {
                    let a = pop!();
                    stack.push((a == 0) as i32);
                }
                Instr::I32Eq => binop!(|a: i32, b: i32| (a == b) as i32),
                Instr::I32Ne => binop!(|a: i32, b: i32| (a != b) as i32),
                Instr::I32LtS => binop!(|a: i32, b: i32| (a < b) as i32),
                Instr::I32GtS => binop!(|a: i32, b: i32| (a > b) as i32),
                Instr::I32LeS => binop!(|a: i32, b: i32| (a <= b) as i32),
                Instr::I32GeS => binop!(|a: i32, b: i32| (a >= b) as i32),
                Instr::I32Load(off) => {
                    let addr = pop!() as u32 as usize + *off as usize;
                    let bytes = self
                        .memory
                        .get(addr..addr + 4)
                        .ok_or(VmError::MemoryOutOfBounds(addr as u32))?;
                    stack.push(i32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]));
                }
                Instr::I32Store(off) => {
                    let value = pop!();
                    let addr = pop!() as u32 as usize + *off as usize;
                    let slot = self
                        .memory
                        .get_mut(addr..addr + 4)
                        .ok_or(VmError::MemoryOutOfBounds(addr as u32))?;
                    slot.copy_from_slice(&value.to_le_bytes());
                }
                Instr::I32Load8U(off) => {
                    let addr = pop!() as u32 as usize + *off as usize;
                    let byte = *self
                        .memory
                        .get(addr)
                        .ok_or(VmError::MemoryOutOfBounds(addr as u32))?;
                    stack.push(byte as i32);
                }
                Instr::I32Store8(off) => {
                    let value = pop!();
                    let addr = pop!() as u32 as usize + *off as usize;
                    let slot = self
                        .memory
                        .get_mut(addr)
                        .ok_or(VmError::MemoryOutOfBounds(addr as u32))?;
                    *slot = value as u8;
                }
                Instr::Drop => {
                    pop!();
                }
                Instr::Block(inner) => match self.exec_seq(inner, locals, stack, depth)? {
                    Flow::Branch(0) => {}
                    Flow::Branch(n) => return Ok(Flow::Branch(n - 1)),
                    Flow::Return => return Ok(Flow::Return),
                    Flow::Normal => {}
                },
                Instr::Loop(inner) => loop {
                    match self.exec_seq(inner, locals, stack, depth)? {
                        Flow::Branch(0) => continue, // br to loop start
                        Flow::Branch(n) => return Ok(Flow::Branch(n - 1)),
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal => break,
                    }
                },
                Instr::If(then_b, else_b) => {
                    let cond = pop!();
                    let arm = if cond != 0 { then_b } else { else_b };
                    match self.exec_seq(arm, locals, stack, depth)? {
                        Flow::Branch(0) => {}
                        Flow::Branch(n) => return Ok(Flow::Branch(n - 1)),
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal => {}
                    }
                }
                Instr::Br(n) => return Ok(Flow::Branch(*n)),
                Instr::BrIf(n) => {
                    if pop!() != 0 {
                        return Ok(Flow::Branch(*n));
                    }
                }
                Instr::Call(i) => {
                    let callee = self
                        .module
                        .funcs
                        .get(*i as usize)
                        .ok_or(VmError::UnknownFunction(*i))?;
                    let params = callee.params as usize;
                    let returns = callee.returns_value;
                    let args: Vec<i32> = stack.split_off(stack.len() - params);
                    let result = self.call_depth(*i, &args, depth + 1)?;
                    if returns {
                        stack.push(result.ok_or_else(|| {
                            VmError::Validation("void call used as a value".into())
                        })?);
                    }
                }
                Instr::HostCall(i) => {
                    let arg = pop!();
                    let handler = self
                        .host_imports
                        .get_mut(*i as usize)
                        .ok_or(VmError::UnknownHostCall(*i))?;
                    stack.push(handler(arg));
                }
                Instr::Return => return Ok(Flow::Return),
            }
        }
        Ok(Flow::Normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Instr::*;

    fn module_of(func: Func) -> Module {
        Module {
            funcs: vec![func],
            memory_pages: 1,
        }
    }

    #[test]
    fn locals_past_u32_are_a_validation_error() {
        // `call` sizes its frame from the same sum; `Instance::new`
        // validates first.
        let m = module_of(Func {
            params: u32::MAX,
            locals: 1,
            returns_value: false,
            body: vec![],
        });
        let e = m.validate().unwrap_err();
        assert!(
            matches!(&e, VmError::Validation(m) if m.contains("overflow")),
            "{e}"
        );
        assert!(Instance::new(m).is_err());
    }

    #[test]
    fn arithmetic_function() {
        // f(a, b) = (a + b) * 2
        let m = module_of(Func {
            params: 2,
            locals: 0,
            returns_value: true,
            body: vec![LocalGet(0), LocalGet(1), I32Add, I32Const(2), I32Mul],
        });
        let mut vm = Instance::new(m).unwrap();
        assert_eq!(vm.call(0, &[3, 4]).unwrap(), Some(14));
    }

    #[test]
    fn loop_with_branch_computes_sum() {
        // sum 1..=n using local 1 as accumulator.
        let m = module_of(Func {
            params: 1,
            locals: 1,
            returns_value: true,
            body: vec![
                Block(vec![Loop(vec![
                    LocalGet(0),
                    I32Eqz,
                    BrIf(1), // exit the block when n == 0
                    LocalGet(1),
                    LocalGet(0),
                    I32Add,
                    LocalSet(1),
                    LocalGet(0),
                    I32Const(1),
                    I32Sub,
                    LocalSet(0),
                    Br(0), // continue loop
                ])]),
                LocalGet(1),
            ],
        });
        let mut vm = Instance::new(m).unwrap();
        assert_eq!(vm.call(0, &[10]).unwrap(), Some(55));
        assert!(vm.instructions > 10 * 10);
    }

    #[test]
    fn memory_load_store() {
        let m = module_of(Func {
            params: 0,
            locals: 0,
            returns_value: true,
            body: vec![
                I32Const(16),
                I32Const(0x1234),
                I32Store(0),
                I32Const(16),
                I32Load(0),
            ],
        });
        let mut vm = Instance::new(m).unwrap();
        assert_eq!(vm.call(0, &[]).unwrap(), Some(0x1234));
        assert_eq!(&vm.memory()[16..18], &[0x34, 0x12]);
    }

    #[test]
    fn out_of_bounds_memory_traps() {
        let m = module_of(Func {
            params: 0,
            locals: 0,
            returns_value: true,
            body: vec![I32Const((PAGE_SIZE - 2) as i32), I32Load(0)],
        });
        let mut vm = Instance::new(m).unwrap();
        assert!(matches!(
            vm.call(0, &[]),
            Err(VmError::MemoryOutOfBounds(_))
        ));
    }

    #[test]
    fn divide_by_zero_traps() {
        let m = module_of(Func {
            params: 1,
            locals: 0,
            returns_value: true,
            body: vec![I32Const(10), LocalGet(0), I32DivS],
        });
        let mut vm = Instance::new(m).unwrap();
        assert_eq!(vm.call(0, &[2]).unwrap(), Some(5));
        assert_eq!(vm.call(0, &[0]), Err(VmError::DivideByZero));
    }

    #[test]
    fn validation_rejects_stack_underflow() {
        let m = module_of(Func {
            params: 0,
            locals: 0,
            returns_value: false,
            body: vec![I32Add],
        });
        assert!(matches!(Instance::new(m), Err(VmError::Validation(_))));
    }

    #[test]
    fn validation_rejects_bad_local_and_branch() {
        let bad_local = module_of(Func {
            params: 1,
            locals: 0,
            returns_value: false,
            body: vec![LocalGet(3), Drop],
        });
        assert!(Instance::new(bad_local).is_err());
        let bad_branch = module_of(Func {
            params: 0,
            locals: 0,
            returns_value: false,
            body: vec![Br(0)],
        });
        assert!(Instance::new(bad_branch).is_err());
    }

    #[test]
    fn validation_rejects_unknown_call() {
        let m = module_of(Func {
            params: 0,
            locals: 0,
            returns_value: false,
            body: vec![Call(9)],
        });
        assert!(Instance::new(m).is_err());
    }

    #[test]
    fn fuel_limit_stops_infinite_loops() {
        let m = module_of(Func {
            params: 0,
            locals: 0,
            returns_value: false,
            body: vec![Block(vec![Loop(vec![Br(0)])])],
        });
        let mut vm = Instance::new(m).unwrap();
        vm.set_fuel(10_000);
        assert_eq!(vm.call(0, &[]), Err(VmError::OutOfFuel));
    }

    #[test]
    fn cross_function_calls() {
        // f0() = f1(20) + 2 ; f1(x) = x * 2
        let m = Module {
            funcs: vec![
                Func {
                    params: 0,
                    locals: 0,
                    returns_value: true,
                    body: vec![I32Const(20), Call(1), I32Const(2), I32Add],
                },
                Func {
                    params: 1,
                    locals: 0,
                    returns_value: true,
                    body: vec![LocalGet(0), I32Const(2), I32Mul],
                },
            ],
            memory_pages: 1,
        };
        let mut vm = Instance::new(m).unwrap();
        assert_eq!(vm.call(0, &[]).unwrap(), Some(42));
    }

    #[test]
    fn recursion_depth_is_bounded() {
        // f0() calls itself forever.
        let m = module_of(Func {
            params: 0,
            locals: 0,
            returns_value: false,
            body: vec![Call(0)],
        });
        let mut vm = Instance::new(m).unwrap();
        assert_eq!(vm.call(0, &[]), Err(VmError::StackOverflow));
    }
}
