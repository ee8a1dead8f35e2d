//! The `goc-serve` wire format: length-prefixed frames over a byte stream.
//!
//! The framing reuses the [`goc_core::snap`] codec discipline wholesale:
//! a magic + version handshake opens every connection, every frame body is
//! encoded with [`SnapWriter`] and decoded **totally** with [`SnapReader`]
//! (no panic, no over-allocation, every declared length gated against what
//! is actually present), and decode failures are ordinary values — a hostile
//! peer can at worst earn itself an [`Frame::Error`] reply.
//!
//! Stream layout:
//!
//! ```text
//! handshake  := WIRE_MAGIC (4 bytes) ++ WIRE_VERSION (u16 LE)      // both directions
//! frame      := len (u32 LE, 0 < len <= MAX_FRAME) ++ body[len]
//! body       := tag (u8) ++ fields (SnapWriter encoding) — decoded to exhaustion
//! ```
//!
//! The length prefix is checked against [`MAX_FRAME`] *before* any
//! allocation, so a hostile 4 GiB declaration costs the server 4 bytes of
//! reading, not 4 GiB of memory. Because every body is delimited up front,
//! a frame whose *body* fails to decode never desynchronizes the stream:
//! the connection skips to the next length prefix and keeps serving.

use goc_core::snap::{SnapError, SnapReader, SnapWriter};
use std::io::{Read, Write};

/// First bytes of every connection, both directions: `GOCW`.
pub const WIRE_MAGIC: [u8; 4] = *b"GOCW";
/// Wire format version, bumped on any frame layout change.
pub const WIRE_VERSION: u16 = 1;
/// Hard ceiling on a frame body. Larger declared lengths are rejected
/// before allocation. Snapshots of toy sessions are a few KiB; 16 MiB
/// leaves two orders of magnitude of headroom.
pub const MAX_FRAME: usize = 1 << 24;

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// A frame body failed its total decode.
    Snap(SnapError),
    /// A length prefix declared more than [`MAX_FRAME`] bytes.
    FrameTooLarge(usize),
    /// The peer's handshake did not start with [`WIRE_MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a wire version we do not.
    UnsupportedVersion(u16),
    /// The peer closed the stream cleanly (EOF at a frame boundary).
    Closed,
    /// The peer answered with something the protocol does not allow here
    /// (an `Error` reply, or a response of the wrong shape).
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Snap(e) => write!(f, "decode: {e}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "declared frame of {n} bytes exceeds the {MAX_FRAME} cap")
            }
            WireError::BadMagic(m) => write!(f, "bad handshake magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Closed
        } else {
            WireError::Io(e)
        }
    }
}

impl From<SnapError> for WireError {
    fn from(e: SnapError) -> Self {
        WireError::Snap(e)
    }
}

/// One protocol message. Requests flow client→server, responses
/// server→client; every session-scoped frame carries its session id so
/// many sessions can multiplex over one connection (replies are matched
/// by id, not by order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Create session `session` from `(scenario, seed)`.
    Open { session: u64, scenario: String, seed: u64 },
    /// Step session `session` forward by up to `rounds` rounds (stops
    /// early if a finite-goal user halts). Replies with [`Frame::Status`].
    Drive { session: u64, rounds: u64 },
    /// Serialize session `session`; replies with [`Frame::SnapData`].
    Snap { session: u64 },
    /// Recreate session `session` from `(scenario, seed)` and restore the
    /// `snap` checkpoint into it (the snap discipline: same constructors
    /// and seed as the saved run).
    Restore { session: u64, scenario: String, seed: u64, snap: Vec<u8> },
    /// Discard session `session`. Replies with [`Frame::Closed`].
    Close { session: u64 },
    /// Stop the daemon: drain shards, exit.
    Shutdown,
    /// The deterministic per-session outcome triple (plus the round).
    Status { session: u64, round: u64, halted: bool, heard: u64 },
    /// A serialized session checkpoint.
    SnapData { session: u64, snap: Vec<u8> },
    /// Acknowledges a [`Frame::Close`].
    Closed { session: u64 },
    /// The request for `session` failed; `message` says why. Session 0 is
    /// used when the failure predates knowing a session id (decode errors).
    Error { session: u64, message: String },
    /// Acknowledges a [`Frame::Shutdown`]; the daemon is going down.
    Bye,
}

const TAG_OPEN: u8 = 1;
const TAG_DRIVE: u8 = 2;
const TAG_SNAP: u8 = 3;
const TAG_RESTORE: u8 = 4;
const TAG_CLOSE: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_STATUS: u8 = 7;
const TAG_SNAPDATA: u8 = 8;
const TAG_CLOSED: u8 = 9;
const TAG_ERROR: u8 = 10;
const TAG_BYE: u8 = 11;

impl Frame {
    /// The session id this frame is scoped to, if any.
    pub fn session(&self) -> Option<u64> {
        match self {
            Frame::Open { session, .. }
            | Frame::Drive { session, .. }
            | Frame::Snap { session }
            | Frame::Restore { session, .. }
            | Frame::Close { session }
            | Frame::Status { session, .. }
            | Frame::SnapData { session, .. }
            | Frame::Closed { session }
            | Frame::Error { session, .. } => Some(*session),
            Frame::Shutdown | Frame::Bye => None,
        }
    }

    /// Encodes this frame's body (tag + fields, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = SnapWriter::new(&mut out);
        match self {
            Frame::Open { session, scenario, seed } => {
                w.u8(TAG_OPEN);
                w.u64(*session);
                w.str(scenario);
                w.u64(*seed);
            }
            Frame::Drive { session, rounds } => {
                w.u8(TAG_DRIVE);
                w.u64(*session);
                w.u64(*rounds);
            }
            Frame::Snap { session } => {
                w.u8(TAG_SNAP);
                w.u64(*session);
            }
            Frame::Restore { session, scenario, seed, snap } => {
                w.u8(TAG_RESTORE);
                w.u64(*session);
                w.str(scenario);
                w.u64(*seed);
                w.bytes(snap);
            }
            Frame::Close { session } => {
                w.u8(TAG_CLOSE);
                w.u64(*session);
            }
            Frame::Shutdown => w.u8(TAG_SHUTDOWN),
            Frame::Status { session, round, halted, heard } => {
                w.u8(TAG_STATUS);
                w.u64(*session);
                w.u64(*round);
                w.bool(*halted);
                w.u64(*heard);
            }
            Frame::SnapData { session, snap } => {
                w.u8(TAG_SNAPDATA);
                w.u64(*session);
                w.bytes(snap);
            }
            Frame::Closed { session } => {
                w.u8(TAG_CLOSED);
                w.u64(*session);
            }
            Frame::Error { session, message } => {
                w.u8(TAG_ERROR);
                w.u64(*session);
                w.str(message);
            }
            Frame::Bye => w.u8(TAG_BYE),
        }
        out
    }

    /// Decodes a frame body. Total: any byte string returns `Ok` or a
    /// [`WireError`], never panics, and allocates no more than the body's
    /// own length (every `bytes`/`str` read is gated by the reader).
    pub fn decode(body: &[u8]) -> Result<Frame, WireError> {
        let mut r = SnapReader::new(body);
        let tag = r.u8("frame tag")?;
        let frame = match tag {
            TAG_OPEN => Frame::Open {
                session: r.u64("open session")?,
                scenario: r.str("open scenario")?.to_string(),
                seed: r.u64("open seed")?,
            },
            TAG_DRIVE => {
                Frame::Drive { session: r.u64("drive session")?, rounds: r.u64("drive rounds")? }
            }
            TAG_SNAP => Frame::Snap { session: r.u64("snap session")? },
            TAG_RESTORE => Frame::Restore {
                session: r.u64("restore session")?,
                scenario: r.str("restore scenario")?.to_string(),
                seed: r.u64("restore seed")?,
                snap: r.bytes("restore snap")?.to_vec(),
            },
            TAG_CLOSE => Frame::Close { session: r.u64("close session")? },
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_STATUS => Frame::Status {
                session: r.u64("status session")?,
                round: r.u64("status round")?,
                halted: r.bool("status halted")?,
                heard: r.u64("status heard")?,
            },
            TAG_SNAPDATA => Frame::SnapData {
                session: r.u64("snapdata session")?,
                snap: r.bytes("snapdata snap")?.to_vec(),
            },
            TAG_CLOSED => Frame::Closed { session: r.u64("closed session")? },
            TAG_ERROR => Frame::Error {
                session: r.u64("error session")?,
                message: r.str("error message")?.to_string(),
            },
            TAG_BYE => Frame::Bye,
            other => {
                return Err(WireError::Snap(SnapError::BadTag {
                    context: "frame tag",
                    found: other,
                }))
            }
        };
        // Trailing bytes are as much a decode failure as missing ones:
        // a spliced frame must not round-trip as its prefix.
        r.finish()?;
        Ok(frame)
    }
}

/// Sends our side of the handshake.
pub fn write_handshake(w: &mut impl Write) -> Result<(), WireError> {
    let mut buf = [0u8; 6];
    buf[..4].copy_from_slice(&WIRE_MAGIC);
    buf[4..].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Validates the peer's handshake.
pub fn read_handshake(r: &mut impl Read) -> Result<(), WireError> {
    let mut buf = [0u8; 6];
    r.read_exact(&mut buf)?;
    let magic: [u8; 4] = buf[..4].try_into().expect("4-byte slice");
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(buf[4..].try_into().expect("2-byte slice"));
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Reads one raw frame body. The declared length is gated against
/// [`MAX_FRAME`] before any allocation; zero-length frames are rejected
/// (every body carries at least a tag). EOF *between* frames is
/// [`WireError::Closed`]; EOF mid-frame is a real I/O error.
pub fn read_frame_body(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    // Distinguish a clean close (no bytes of the next frame) from a
    // truncated frame (some bytes, then EOF).
    let mut got = 0;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside a frame length prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Io(e) // mid-frame EOF is not a clean close
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(body)
}

/// Writes one already-encoded frame body with its length prefix. Prefix
/// and body go out in a single write: one syscall, and no small
/// head-of-frame segment for Nagle's algorithm to hold back.
pub fn write_frame_body(w: &mut impl Write, body: &[u8]) -> Result<(), WireError> {
    debug_assert!(!body.is_empty() && body.len() <= MAX_FRAME);
    let len = u32::try_from(body.len()).expect("MAX_FRAME fits in u32");
    let mut framed = Vec::with_capacity(4 + body.len());
    framed.extend_from_slice(&len.to_le_bytes());
    framed.extend_from_slice(body);
    w.write_all(&framed)?;
    w.flush()?;
    Ok(())
}

/// Encodes and writes one frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    write_frame_body(w, &frame.encode())
}

/// Reads and decodes one frame (no chaos middleware in between).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let body = read_frame_body(r)?;
    Frame::decode(&body)
}
