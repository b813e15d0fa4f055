//! SimX64: the simulated x86-64-flavoured target ISA.
//!
//! The MCFI paper instruments real x86 machine code. This crate is the
//! from-scratch substitute: a register machine with a **variable-length
//! byte encoding** (so that mid-instruction ROP gadgets exist, §8.3), an
//! encoder/decoder pair (the decoder doubles as the verifier's
//! disassembler), and a cycle cost model used to measure the execution
//! overhead of instrumentation (Figs. 5/6).
//!
//! The instruction set contains direct analogues of everything the MCFI
//! check sequence needs; [`check`] holds the paper's Fig. 4 table and
//! the one definition of the sequence that every emitter and reader
//! shares.
//!
//! Memory-write sandboxing (§5.1) masks the effective address to the low
//! 4 GiB with `AndImm reg, 0xffff_ffff` immediately before every store,
//! which the verifier checks statically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod cost;
mod encode;
mod inst;
mod reg;

pub use cost::{cost_of, CYCLES_ALU, CYCLES_BRANCH, CYCLES_INDIRECT, CYCLES_LOAD, CYCLES_STORE};
pub use encode::{decode, decode_all, decode_sweep, encode, encode_into, DecodeError, DecodeSweep};
pub use inst::{AluOp, Cond, FaluOp, Inst};
pub use reg::Reg;

/// The sandbox mask: memory writes are confined to `[0, 4 GiB)` on the
/// simulated 64-bit machine, exactly as in the paper's x86-64 design.
pub const SANDBOX_MASK: u64 = 0xffff_ffff;

/// Indirect-branch targets must be aligned to this many bytes so the Tary
/// table needs one entry per aligned address (§5.1).
pub const TARGET_ALIGN: u64 = 4;
