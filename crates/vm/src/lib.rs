//! # goc-vm — an enumerable, total strategy language
//!
//! The proof of Theorem 1 in *A Theory of Goal-Oriented Communication*
//! "enumerates all relevant user strategies". This crate makes that object
//! concrete: a tiny transducer bytecode whose decoding is **total** (every
//! byte string is a valid program), interpreted with a per-round fuel bound
//! (every program is safe to run), so the length-lexicographic enumeration of
//! byte strings *is* an enumeration of the whole strategy class.
//!
//! - [`instr`] — the 16-opcode instruction set (registers, channel I/O,
//!   bounded jumps).
//! - [`program`] — programs, assembler, disassembler.
//! - [`machine`] — the fuel-bounded interpreter: every round runs through a
//!   predecoded ([`DecodedProgram`]) per-opcode dispatch table, which
//!   retires a pure-jump cycle in one step, with the original `match` loop
//!   kept as its executable specification.
//! - [`dispatch`] — the `GOC_DISPATCH` gate selecting between the two
//!   interpreter cores (default: table dispatch).
//! - [`adapter`] — mounting programs as `goc-core` users/servers, plus a
//!   library of small useful programs.
//! - [`enumerate`] — the length-lex [`ProgramEnumerator`], a
//!   [`StrategyEnumerator`](goc_core::enumeration::StrategyEnumerator) over
//!   the full class or any alphabet-restricted subclass, with a
//!   canonical-signature dedup pass for finite classes.
//!
//! ## Quickstart
//!
//! ```
//! use goc_vm::adapter::{programs, VmUser};
//! use goc_vm::enumerate::ProgramEnumerator;
//!
//! // The "say hi to the server" program and its index in the enumeration
//! // over the alphabet it is written in.
//! let p = programs::say_to_peer(b"hi");
//! let class = ProgramEnumerator::over(p.as_bytes().to_vec().into_iter()
//!     .collect::<std::collections::BTreeSet<_>>()
//!     .into_iter().collect::<Vec<_>>());
//! let idx = class.index_of(&p).expect("writable in its own alphabet");
//! assert_eq!(class.program(idx), p);
//! ```

pub mod adapter;
pub mod asm;
pub mod batch;
pub mod cache;
pub mod dispatch;
pub mod enumerate;
pub mod instr;
pub mod machine;
pub mod predict;
pub mod program;

pub use adapter::{VmServer, VmUser};
pub use enumerate::ProgramEnumerator;
pub use instr::{Chan, Instr, Reg};
pub use machine::{DecodedProgram, Machine, RoundIo};
pub use program::Program;
