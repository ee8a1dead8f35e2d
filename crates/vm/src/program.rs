//! Programs: byte strings with a total decoding into instruction sequences.

use crate::instr::Instr;
use std::fmt;

/// A VM program — any byte string.
///
/// # Examples
///
/// ```
/// use goc_vm::program::Program;
/// use goc_vm::instr::Instr;
///
/// // Assemble a program that greets the peer each round.
/// let p = Program::assemble(&[Instr::EmitA(b'h'), Instr::EmitA(b'i'), Instr::EndRound]);
/// assert_eq!(p.disassemble(), "emit.a 0x68\nemit.a 0x69\nend");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Program {
    code: Vec<u8>,
}

impl Program {
    /// Wraps raw bytes as a program (total: any bytes are valid).
    pub fn from_bytes(code: impl Into<Vec<u8>>) -> Self {
        Program { code: code.into() }
    }

    /// Assembles a program from instructions.
    pub fn assemble(instrs: &[Instr]) -> Self {
        let mut code = Vec::new();
        for i in instrs {
            i.encode(&mut code);
        }
        Program { code }
    }

    /// The raw code bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.code
    }

    /// Code length in bytes.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// `true` for the empty program (a no-op strategy).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Decodes the instruction at byte offset `pos`, with its encoded size.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    pub fn decode_at(&self, pos: usize) -> (Instr, usize) {
        Instr::decode(&self.code, pos)
    }

    /// Decodes the whole program front-to-back (the canonical reading; jumps
    /// may land mid-instruction at run time, which is well-defined but not
    /// shown here).
    pub fn instructions(&self) -> Vec<Instr> {
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < self.code.len() {
            let (instr, used) = self.decode_at(pos);
            out.push(instr);
            pos += used;
        }
        out
    }

    /// A human-readable listing of the canonical decoding.
    pub fn disassemble(&self) -> String {
        self.instructions()
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program[{} bytes]", self.code.len())
    }
}

impl From<Vec<u8>> for Program {
    fn from(code: Vec<u8>) -> Self {
        Program::from_bytes(code)
    }
}

impl AsRef<[u8]> for Program {
    fn as_ref(&self) -> &[u8] {
        &self.code
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Reg;

    #[test]
    fn assemble_then_instructions_roundtrip() {
        let instrs = vec![
            Instr::Const(Reg::new(0), 5),
            Instr::EmitAReg(Reg::new(0)),
            Instr::EndRound,
        ];
        let p = Program::assemble(&instrs);
        assert_eq!(p.instructions(), instrs);
    }

    #[test]
    fn arbitrary_bytes_decode() {
        let p = Program::from_bytes(vec![0xde, 0xad, 0xbe, 0xef, 0x01]);
        let instrs = p.instructions();
        assert!(!instrs.is_empty());
        // Decoding consumed all bytes without panicking.
    }

    #[test]
    fn empty_program() {
        let p = Program::default();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert!(p.instructions().is_empty());
        assert_eq!(p.disassemble(), "");
        assert_eq!(p.to_string(), "program[0 bytes]");
    }

    #[test]
    fn conversions() {
        let p: Program = vec![1u8, 2, 3].into();
        assert_eq!(p.as_ref(), &[1, 2, 3]);
        assert_eq!(p.as_bytes(), &[1, 2, 3]);
    }

    #[test]
    fn ordering_is_bytewise() {
        let a = Program::from_bytes(vec![1]);
        let b = Program::from_bytes(vec![2]);
        assert!(a < b);
    }
}
