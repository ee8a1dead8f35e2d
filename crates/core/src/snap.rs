//! Serializable execution checkpoints: a versioned, zero-dependency binary
//! snapshot format.
//!
//! [`Execution::fork`](crate::exec::Execution::fork) deep-checkpoints a run
//! *in memory*; this module makes the checkpoint a byte string, so a session
//! can survive a process restart or migrate across shards (ROADMAP item 1).
//! The soundness bar is the same as fork's: a restored execution must be
//! **bit-identical going forward** — same settle round, same `GOC_TRACE`
//! output, same `SuccessReport` as the uninterrupted run.
//!
//! ## Format
//!
//! A snapshot is `magic ‖ version ‖ fields`, little-endian throughout:
//!
//! | field        | encoding                                             |
//! |--------------|------------------------------------------------------|
//! | magic        | the 4 bytes [`SNAP_MAGIC`] (`"GOCS"`)                |
//! | version      | `u16` ([`SNAP_VERSION`]); unknown versions are errors|
//! | integers     | fixed-width little-endian                            |
//! | byte strings | `u64` length prefix + raw bytes                      |
//! | sequences    | `u64` count prefix + elements                        |
//! | options/enums| `u8` tag + payload                                   |
//! | party blocks | `u64` length prefix + nested fields                  |
//!
//! Decoding is **total and adversarial-input-safe**: every read is bounds
//! checked, every declared length is gated against the bytes actually
//! present (so a hostile length field cannot trigger an allocation, let
//! alone an out-of-bounds read), tags must match exactly, and malformed
//! input yields a [`SnapError`] — never a panic. In `goc-serve` these bytes
//! cross a network; the decoder treats them accordingly.
//!
//! ## Restore model
//!
//! Strategies, channels and sensing are trait objects, often closing over
//! code (closures, enumerator factories) that no byte string can rebuild.
//! Restoring therefore works **in place**: the caller reconstructs the
//! execution skeleton with the *same constructors and seed* as the saved
//! run, then [`Execution::restore`](crate::exec::Execution::restore) loads
//! the saved mutable state into the live objects. Each party block is
//! preceded by the party's diagnostic name, which must match the skeleton's
//! — a cheap integrity check that catches configuration mismatches before
//! they corrupt a session.
//!
//! Parties that cannot be checkpointed surface as
//! [`SnapError::Unsupported`], naming the blocking party — the serialized
//! cousin of [`ForkError`], which [`Execution::try_fork`]
//! (crate::exec::Execution::try_fork) reports for in-memory checkpoints.

use crate::msg::{Message, UserIn, UserOut};
use crate::strategy::Halt;
use std::fmt;

/// The four magic bytes opening every snapshot.
pub const SNAP_MAGIC: [u8; 4] = *b"GOCS";

/// The current snapshot format version. Bump on **any** change to the
/// encoded layout — the golden-vector test in `tests/snap_golden.rs` fails
/// until the bump makes the change intentional.
pub const SNAP_VERSION: u16 = 2;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a snapshot could not be produced or decoded.
///
/// Decoding is total: any byte string maps to either a value or one of
/// these, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before a fixed-width field.
    Truncated {
        /// What was being read.
        context: &'static str,
        /// Bytes the field needs.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The input does not start with [`SNAP_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// Version tag found in the input.
        found: u16,
        /// The version this build reads ([`SNAP_VERSION`]).
        supported: u16,
    },
    /// A declared length exceeds the bytes actually present. Gating lengths
    /// against the remaining buffer is what makes hostile snapshots unable
    /// to force allocations.
    LengthOutOfBounds {
        /// What was being read.
        context: &'static str,
        /// The length the input declared.
        declared: u64,
        /// Bytes actually remaining.
        available: usize,
    },
    /// An enum/option/bool tag byte had no meaning.
    BadTag {
        /// What was being read.
        context: &'static str,
        /// The tag byte found.
        found: u8,
    },
    /// The snapshot disagrees with the skeleton it is being restored into
    /// (wrong party name, wrong program bytes, wrong stage count, …).
    Mismatch {
        /// What was being compared.
        context: &'static str,
        /// What the skeleton expected.
        expected: String,
        /// What the snapshot contained.
        found: String,
    },
    /// A field was syntactically valid but semantically impossible
    /// (non-UTF-8 name, length not fitting `usize`, …).
    Malformed {
        /// What was being read.
        context: &'static str,
    },
    /// A party cannot be checkpointed. Produced by `save`, naming the
    /// blocking party, so callers know *which* part of the execution
    /// prevented the snapshot.
    Unsupported {
        /// The party's role ("user", "server", "world", "channel",
        /// "sensing").
        party: &'static str,
        /// The party's diagnostic name.
        name: String,
    },
    /// Decoding finished but input bytes remain — the snapshot is longer
    /// than the format allows.
    TrailingBytes {
        /// Unconsumed byte count.
        remaining: usize,
    },
}

impl SnapError {
    /// An [`SnapError::Unsupported`] for the given party.
    pub fn unsupported(party: &'static str, name: impl Into<String>) -> Self {
        SnapError::Unsupported { party, name: name.into() }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { context, need, have } => {
                write!(f, "snapshot truncated reading {context}: need {need} bytes, have {have}")
            }
            SnapError::BadMagic { found } => {
                write!(f, "not a snapshot: bad magic {found:02x?}")
            }
            SnapError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported snapshot version {found} (this build reads {supported})")
            }
            SnapError::LengthOutOfBounds { context, declared, available } => write!(
                f,
                "length out of bounds reading {context}: declared {declared}, only {available} bytes available"
            ),
            SnapError::BadTag { context, found } => {
                write!(f, "bad tag byte {found:#04x} reading {context}")
            }
            SnapError::Mismatch { context, expected, found } => write!(
                f,
                "snapshot does not match this execution's {context}: expected {expected:?}, snapshot has {found:?}"
            ),
            SnapError::Malformed { context } => write!(f, "malformed snapshot field: {context}"),
            SnapError::Unsupported { party, name } => {
                write!(f, "checkpoint blocked by {party} {name:?}: it does not support snapshots")
            }
            SnapError::TrailingBytes { remaining } => {
                write!(f, "snapshot has {remaining} trailing bytes after decoding")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Why [`Execution::try_fork`](crate::exec::Execution::try_fork) could not
/// checkpoint a run: one of the parties does not implement `fork`.
///
/// The historical `fork() -> Option<Self>` swallowed this information; the
/// error names the blocking party so callers (and `save`, through
/// [`SnapError::Unsupported`]) can report it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForkError {
    /// The party's role ("user", "server", "up-channel", "down-channel").
    pub party: &'static str,
    /// The party's diagnostic name.
    pub name: String,
}

impl ForkError {
    /// A fork error for the given party.
    pub fn new(party: &'static str, name: impl Into<String>) -> Self {
        ForkError { party, name: name.into() }
    }
}

impl fmt::Display for ForkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint blocked by {} {:?}: it does not support forking", self.party, self.name)
    }
}

impl std::error::Error for ForkError {}

impl From<ForkError> for SnapError {
    fn from(e: ForkError) -> Self {
        // "up-channel"/"down-channel" collapse to the channel role.
        let party = if e.party.ends_with("channel") { "channel" } else { e.party };
        SnapError::Unsupported { party, name: e.name }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends snapshot fields to a byte buffer. Writing is infallible; the
/// `Result` plumbing exists so party hooks that *cannot* snapshot can
/// refuse.
#[derive(Debug)]
pub struct SnapWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> SnapWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        SnapWriter { out }
    }

    /// Bytes written so far (including anything already in the buffer).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// `true` if the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Writes a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128` as two little-endian `u64` halves (low first).
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as a strict 0/1 byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes an `f64` by bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.out.extend_from_slice(b);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes a length-prefixed nested block: the closure's output is
    /// preceded by its byte length, so readers can skip or sandbox it.
    pub fn block<R>(
        &mut self,
        f: impl FnOnce(&mut SnapWriter<'_>) -> Result<R, SnapError>,
    ) -> Result<R, SnapError> {
        let at = self.out.len();
        self.out.extend_from_slice(&0u64.to_le_bytes());
        let r = f(self)?;
        let len = (self.out.len() - at - 8) as u64;
        self.out[at..at + 8].copy_from_slice(&len.to_le_bytes());
        Ok(r)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Reads snapshot fields from a byte slice. Every read is bounds checked;
/// declared lengths are gated against the bytes actually present.
#[derive(Debug, Clone)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Unconsumed byte count.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` if every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated { context, need: n, have: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a raw byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, SnapError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, SnapError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, SnapError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, SnapError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a `u128` written as two little-endian `u64` halves (low first).
    pub fn u128(&mut self, context: &'static str) -> Result<u128, SnapError> {
        let lo = self.u64(context)? as u128;
        let hi = self.u64(context)? as u128;
        Ok(lo | (hi << 64))
    }

    /// Reads a `u64` that must fit a `usize`.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, SnapError> {
        usize::try_from(self.u64(context)?).map_err(|_| SnapError::Malformed { context })
    }

    /// Reads a strict 0/1 bool byte.
    pub fn bool(&mut self, context: &'static str) -> Result<bool, SnapError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            found => Err(SnapError::BadTag { context, found }),
        }
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a length-prefixed byte string. The declared length is gated
    /// against the remaining input, so hostile lengths fail fast.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], SnapError> {
        let declared = self.u64(context)?;
        if declared > self.remaining() as u64 {
            return Err(SnapError::LengthOutOfBounds {
                context,
                declared,
                available: self.remaining(),
            });
        }
        self.take(declared as usize, context)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes(context)?).map_err(|_| SnapError::Malformed { context })
    }

    /// Reads a sequence count. The count is gated against the remaining
    /// input (each element encodes to ≥ 1 byte), so a hostile count cannot
    /// drive an unbounded decode loop or allocation.
    pub fn count(&mut self, context: &'static str) -> Result<usize, SnapError> {
        let declared = self.u64(context)?;
        if declared > self.remaining() as u64 {
            return Err(SnapError::LengthOutOfBounds {
                context,
                declared,
                available: self.remaining(),
            });
        }
        Ok(declared as usize)
    }

    /// Reads a length-prefixed nested block as a sandboxed sub-reader: the
    /// block's decoder cannot read past the block, and the parent resumes
    /// right after it.
    pub fn block(&mut self, context: &'static str) -> Result<SnapReader<'a>, SnapError> {
        Ok(SnapReader::new(self.bytes(context)?))
    }

    /// Succeeds only if every byte was consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() > 0 {
            return Err(SnapError::TrailingBytes { remaining: self.remaining() });
        }
        Ok(())
    }
}

/// Writes the snapshot header (magic + version).
pub fn write_header(w: &mut SnapWriter<'_>) {
    w.out.extend_from_slice(&SNAP_MAGIC);
    w.u16(SNAP_VERSION);
}

/// Reads and validates the snapshot header.
pub fn read_header(r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    let magic = r.take(4, "magic")?;
    if magic != SNAP_MAGIC {
        return Err(SnapError::BadMagic { found: [magic[0], magic[1], magic[2], magic[3]] });
    }
    let found = r.u16("version")?;
    if found != SNAP_VERSION {
        return Err(SnapError::UnsupportedVersion { found, supported: SNAP_VERSION });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The trait pair
// ---------------------------------------------------------------------------

/// Serializes a party's mutable state. Implemented by every forkable party:
/// the execution, both universal users, VM machines, channels, sensing.
pub trait Snapshot {
    /// Appends this value's state to `w`.
    fn snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError>;
}

/// Restores state previously written by [`Snapshot::snap`] into a live
/// value built with the *same configuration* (constructors, seed).
pub trait Restore {
    /// Loads state from `r` into `self`.
    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

// ---------------------------------------------------------------------------
// Plain-data state codec
// ---------------------------------------------------------------------------

/// Encode/decode for plain data — the state inside sensing folds, schedule
/// cursors, counters. Unlike [`Snapshot`]/[`Restore`] (in-place, for parties
/// owning unreconstructable code), `SnapState` values decode from bytes
/// alone.
pub trait SnapState: Sized {
    /// Appends this value to `w`.
    fn encode(&self, w: &mut SnapWriter<'_>);
    /// Decodes a value from `r`.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl SnapState for () {
    fn encode(&self, _w: &mut SnapWriter<'_>) {}
    fn decode(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

impl SnapState for bool {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        w.bool(*self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.bool("bool")
    }
}

macro_rules! snap_state_int {
    ($($ty:ty => $wr:ident),* $(,)?) => {$(
        impl SnapState for $ty {
            fn encode(&self, w: &mut SnapWriter<'_>) {
                w.$wr(*self);
            }
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$wr(stringify!($ty))
            }
        }
    )*};
}

snap_state_int! {
    u8 => u8,
    u16 => u16,
    u32 => u32,
    u64 => u64,
    u128 => u128,
    usize => usize,
    f64 => f64,
}

impl SnapState for i64 {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        w.u64(*self as u64);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.u64("i64")? as i64)
    }
}

impl SnapState for String {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        w.str(self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.str("string")?.to_string())
    }
}

impl<T: SnapState> SnapState for Option<T> {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8("option tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            found => Err(SnapError::BadTag { context: "option tag", found }),
        }
    }
}

impl<T: SnapState> SnapState for Vec<T> {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        w.u64(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.count("vec count")?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: SnapState, B: SnapState> SnapState for (A, B) {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: SnapState, B: SnapState, C: SnapState> SnapState for (A, B, C) {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: SnapState, B: SnapState, C: SnapState, D: SnapState> SnapState for (A, B, C, D) {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
        self.3.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

impl<T: SnapState + Default + Copy, const N: usize> SnapState for [T; N] {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::decode(r)?;
        }
        Ok(out)
    }
}

// --------------------------------------------------------- message types ----

impl SnapState for Message {
    /// Spill-aware only in the sense that it is representation-agnostic:
    /// payloads encode as plain length-prefixed bytes, and decoding through
    /// [`Message::from_bytes`] re-establishes inline or pooled-spill storage
    /// by size, exactly as the original construction did.
    fn encode(&self, w: &mut SnapWriter<'_>) {
        w.bytes(self.as_bytes());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Message::from_bytes(r.bytes("message")?))
    }
}

impl SnapState for UserIn {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        self.from_server.encode(w);
        self.from_world.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(UserIn { from_server: Message::decode(r)?, from_world: Message::decode(r)? })
    }
}

impl SnapState for UserOut {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        self.to_server.encode(w);
        self.to_world.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(UserOut { to_server: Message::decode(r)?, to_world: Message::decode(r)? })
    }
}

impl SnapState for Halt {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        self.output.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Halt { output: Message::decode(r)? })
    }
}

impl SnapState for crate::rng::GocRng {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        for word in self.state() {
            w.u64(word);
        }
        w.u64(self.seed());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let state = <[u64; 4]>::decode(r)?;
        let seed = r.u64("rng seed")?;
        Ok(crate::rng::GocRng::from_state(state, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        let mut w = SnapWriter::new(&mut buf);
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.u128((1u128 << 90) | 3);
        w.bool(true);
        w.f64(0.25);
        w.bytes(b"hello");
        w.str("goc");
        let mut r = SnapReader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert_eq!(r.u128("e").unwrap(), (1u128 << 90) | 3);
        assert!(r.bool("f").unwrap());
        assert_eq!(r.f64("g").unwrap(), 0.25);
        assert_eq!(r.bytes("h").unwrap(), b"hello");
        assert_eq!(r.str("i").unwrap(), "goc");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = SnapReader::new(&[1, 2]);
        assert!(matches!(r.u64("x"), Err(SnapError::Truncated { need: 8, have: 2, .. })));
    }

    #[test]
    fn hostile_length_is_gated() {
        let mut buf = Vec::new();
        SnapWriter::new(&mut buf).u64(u64::MAX); // declared length
        buf.extend_from_slice(&[0u8; 16]);
        let mut r = SnapReader::new(&buf);
        assert!(matches!(
            r.bytes("payload"),
            Err(SnapError::LengthOutOfBounds { declared: u64::MAX, .. })
        ));
    }

    #[test]
    fn hostile_count_is_gated() {
        let mut buf = Vec::new();
        SnapWriter::new(&mut buf).u64(1 << 60);
        let mut r = SnapReader::new(&buf);
        assert!(matches!(
            Vec::<u64>::decode(&mut r),
            Err(SnapError::LengthOutOfBounds { .. })
        ));
    }

    #[test]
    fn bool_tag_is_strict() {
        let mut r = SnapReader::new(&[2]);
        assert!(matches!(r.bool("flag"), Err(SnapError::BadTag { found: 2, .. })));
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let mut buf = Vec::new();
        write_header(&mut SnapWriter::new(&mut buf));
        let mut r = SnapReader::new(&buf);
        read_header(&mut r).unwrap();
        r.finish().unwrap();

        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_header(&mut SnapReader::new(&bad)),
            Err(SnapError::BadMagic { .. })
        ));

        let mut future = buf.clone();
        future[4] = 0xFF;
        future[5] = 0xFF;
        assert!(matches!(
            read_header(&mut SnapReader::new(&future)),
            Err(SnapError::UnsupportedVersion { found: 0xFFFF, .. })
        ));
    }

    #[test]
    fn blocks_sandbox_their_reader() {
        let mut buf = Vec::new();
        let mut w = SnapWriter::new(&mut buf);
        w.block(|w| {
            w.u64(42);
            Ok(())
        })
        .unwrap();
        w.u64(7);
        let mut r = SnapReader::new(&buf);
        let mut inner = r.block("inner").unwrap();
        assert_eq!(inner.u64("x").unwrap(), 42);
        inner.finish().unwrap();
        // The inner reader cannot cross the block boundary.
        assert!(inner.u8("past end").is_err());
        assert_eq!(r.u64("after block").unwrap(), 7);
        r.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = SnapReader::new(&[0u8; 3]);
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes { remaining: 3 }));
    }

    #[test]
    fn compound_state_roundtrips() {
        let value: (Vec<(u64, Option<String>)>, [u64; 4], Message) = (
            vec![(1, None), (2, Some("two".into()))],
            [9, 8, 7, 6],
            Message::from_bytes(b"payload that is long enough to spill the inline buffer"),
        );
        let mut buf = Vec::new();
        value.encode(&mut SnapWriter::new(&mut buf));
        let mut r = SnapReader::new(&buf);
        let back = <(Vec<(u64, Option<String>)>, [u64; 4], Message)>::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn rng_state_roundtrips_mid_stream() {
        let mut rng = crate::rng::GocRng::seed_from_u64(99);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut buf = Vec::new();
        rng.encode(&mut SnapWriter::new(&mut buf));
        let mut r = SnapReader::new(&buf);
        let mut back = crate::rng::GocRng::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.seed(), rng.seed());
        for _ in 0..32 {
            assert_eq!(back.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn fork_error_converts_to_snap_error() {
        let e = ForkError::new("up-channel", "latency(3)");
        assert_eq!(
            SnapError::from(e),
            SnapError::Unsupported { party: "channel", name: "latency(3)".into() }
        );
    }
}
