//! Framing and codec negotiation (PROTOCOL.md §§2–4).
//!
//! A connection speaks one of two frame formats, chosen by a first-line
//! hello (§2). The **JSON** frame (§3) is
//!
//! ```text
//! <decimal payload length>\n
//! <payload: exactly that many bytes of UTF-8 JSON>\n
//! ```
//!
//! The length prefix lets the reader slice the payload out of its buffer
//! in one step — no scanning for delimiters inside the JSON — while
//! the newline after the header and after the payload keep a captured
//! stream line-readable (`nc`-friendly, diffable, greppable). The
//! trailing newline doubles as a cheap integrity check: if it is missing
//! the peer and we disagree about the length, and the connection must be
//! dropped rather than resynchronized.
//!
//! The **binary** frame (§4) is a 4-byte little-endian payload length
//! followed by exactly that many payload bytes (a binary envelope,
//! [`crate::binary`]) — no terminator, no text anywhere.
//!
//! There is one decoder per format, and both halves of the transport
//! read through it: the non-consuming `decode_*` functions take whatever
//! bytes are buffered so far and answer "is a complete frame here yet?"
//! (`Ok(None)` = not yet; `Ok(Some((frame, consumed)))` = yes, drop
//! `consumed` bytes). The server's connection core ([`crate::conn`])
//! feeds them from non-blocking sockets, the client core
//! ([`crate::client`]) from a blocking one — where "not yet" at end of
//! stream is what [`FrameError::Truncated`] means.
//!
//! Every malformed input is a typed [`FrameError`] — oversized lengths,
//! non-numeric headers, unparseable hellos — never a panic: these
//! parsers sit on both sides of the wire, where arbitrary bytes arrive.

use std::fmt;
use std::io;

/// Default ceiling on a frame's payload size. A monitoring tick for
/// thousands of tenants batches to well under a megabyte; anything near
/// this limit is a bug or an attack, and is refused before allocation.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// The longest header accepted, in bytes (digits only). 10 digits cover
/// every length up to ~9.9 GB — far beyond any accepted frame — so the
/// header scan is bounded even against a stream of garbage digits.
const MAX_HEADER_DIGITS: usize = 10;

/// Longest accepted hello line, in bytes, `\n` included. The longest
/// legal hello (`SPQ/1 json\n`) is 11 bytes; the bound stops a hostile
/// stream that starts with `S` and never sends a newline.
pub const MAX_HELLO_BYTES: usize = 32;

/// The protocol-version token every hello line leads with (PROTOCOL.md
/// §2.1): bump the digit for a breaking wire revision.
pub const HELLO_PREFIX: &str = "SPQ/1";

/// The frame format of one connection, negotiated by the hello exchange
/// (PROTOCOL.md §2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Newline-JSON frames (§3): human-readable, `nc`-friendly, and the
    /// format legacy no-hello connections get.
    Json,
    /// Length-prefixed binary frames (§4) carrying the compact envelope
    /// encoding of [`crate::binary`].
    Binary,
}

impl Codec {
    /// The codec's token in hello lines (§2.1): `json` or `bin`.
    pub fn wire_name(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "bin",
        }
    }

    /// Parses a hello-line codec token.
    pub fn from_wire_name(name: &str) -> Option<Codec> {
        match name {
            "json" => Some(Codec::Json),
            "bin" => Some(Codec::Binary),
            _ => None,
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The length header is not a bounded decimal number.
    BadHeader(String),
    /// The declared length exceeds the configured maximum.
    TooLarge {
        /// Length the header declared.
        declared: usize,
        /// Maximum the reader accepts.
        max: usize,
    },
    /// The stream ended inside a frame (header or payload).
    Truncated {
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// The byte after the payload was not the `\n` terminator: reader and
    /// writer disagree about the payload length.
    MissingTerminator,
    /// The payload is not valid UTF-8.
    NotUtf8(std::string::FromUtf8Error),
    /// The hello exchange failed: the line is malformed, names an
    /// unknown protocol version or codec, or the server refused it.
    BadHello(String),
    /// A well-framed payload that does not decode as an envelope. The
    /// server answers one with a typed error reply (§7); a client has no
    /// one to tell, and can no longer pair replies with requests.
    BadEnvelope(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o: {e}"),
            FrameError::BadHeader(h) => write!(f, "bad length header {h:?}"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated { context } => {
                write!(f, "stream ended mid-frame (while reading {context})")
            }
            FrameError::MissingTerminator => {
                write!(f, "payload not followed by the `\\n` terminator")
            }
            FrameError::NotUtf8(e) => write!(f, "payload is not UTF-8: {e}"),
            FrameError::BadHello(msg) => write!(f, "hello failed: {msg}"),
            FrameError::BadEnvelope(msg) => write!(f, "bad envelope: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Appends one frame carrying `payload` to `buf` in `codec`'s format —
/// the only frame writer: the server encodes replies straight into a
/// connection's write buffer, and a caller that holds a socket builds the
/// exchange in a buffer and hands it to `write_all` once. Appending to
/// memory cannot fail, so the serving path has no error to `expect` away.
///
/// A JSON payload must be UTF-8 text (the reader rejects anything else).
/// A binary length prefix saturates at `u32::MAX` for payloads the wire
/// format cannot represent — the protocol encoders never produce one
/// (envelopes sit far below [`MAX_FRAME_BYTES`]), and if one ever did the
/// peer's length check would reject the frame instead of this side
/// panicking mid-reactor.
pub fn write_frame(buf: &mut Vec<u8>, codec: Codec, payload: &[u8]) {
    match codec {
        Codec::Json => {
            buf.extend_from_slice(payload.len().to_string().as_bytes());
            buf.push(b'\n');
            buf.extend_from_slice(payload);
            buf.push(b'\n');
        }
        Codec::Binary => {
            let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(payload);
        }
    }
}

fn printable(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Folds a length header's ASCII digits into a `u64` directly — no UTF-8
/// round-trip, no slicing, no panic path. `None` for empty input, any
/// non-digit byte, or more than [`MAX_HEADER_DIGITS`] digits (whose
/// maximum value, 9 999 999 999, cannot overflow the fold).
fn parse_header_digits(header: &[u8]) -> Option<u64> {
    if header.is_empty() || header.len() > MAX_HEADER_DIGITS {
        return None;
    }
    let mut n: u64 = 0;
    for &b in header {
        if !b.is_ascii_digit() {
            return None;
        }
        n = n * 10 + u64::from(b - b'0');
    }
    Some(n)
}

// ---------------------------------------------------------------------------
// Hello negotiation (PROTOCOL.md §2)
// ---------------------------------------------------------------------------

/// The client's hello line for `codec`: `SPQ/1 <codec>\n`.
pub fn hello_line(codec: Codec) -> String {
    format!("{HELLO_PREFIX} {}\n", codec.wire_name())
}

/// The server's acknowledgement line for `codec`: `SPQ/1 ok <codec>\n`.
pub fn hello_ack_line(codec: Codec) -> String {
    format!("{HELLO_PREFIX} ok {}\n", codec.wire_name())
}

/// The server's refusal line: `SPQ/1 err <reason>\n`, written just
/// before the connection is closed.
pub fn hello_err_line(reason: &str) -> String {
    format!("{HELLO_PREFIX} err {reason}\n")
}

/// What the first bytes of a connection turned out to be (PROTOCOL.md
/// §2.2–2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HelloOutcome {
    /// An explicit `SPQ/1 <codec>` hello; the server must acknowledge
    /// with [`hello_ack_line`] before any response frame.
    Hello(Codec),
    /// No hello: the first byte is a decimal digit, i.e. a legacy JSON
    /// frame header. The connection speaks [`Codec::Json`] and gets no
    /// acknowledgement line. Zero bytes are consumed.
    Legacy,
}

/// Incremental hello detection over a connection's first buffered bytes.
///
/// Returns `Ok(None)` while the buffer cannot be classified yet (empty,
/// or a hello line still missing its `\n`), `Ok(Some((outcome, consumed)))`
/// once it can, and [`FrameError::BadHello`] for byte streams that are
/// neither a hello nor a JSON frame header.
pub fn decode_hello(buf: &[u8]) -> Result<Option<(HelloOutcome, usize)>, FrameError> {
    let Some(&first) = buf.first() else {
        return Ok(None);
    };
    if first.is_ascii_digit() {
        return Ok(Some((HelloOutcome::Legacy, 0)));
    }
    if first != b'S' {
        return Err(FrameError::BadHello(format!(
            "connection opened with byte 0x{first:02x}, neither a hello nor a frame header"
        )));
    }
    let Some(newline) = buf.iter().take(MAX_HELLO_BYTES).position(|&b| b == b'\n') else {
        return if buf.len() >= MAX_HELLO_BYTES {
            Err(FrameError::BadHello("unterminated hello line".to_string()))
        } else {
            Ok(None)
        };
    };
    let line = std::str::from_utf8(buf.get(..newline).unwrap_or(buf))
        .map_err(|_| FrameError::BadHello("hello line is not UTF-8".to_string()))?;
    let mut words = line.split(' ');
    match (words.next(), words.next(), words.next()) {
        (Some(HELLO_PREFIX), Some(name), None) => match Codec::from_wire_name(name) {
            Some(codec) => Ok(Some((HelloOutcome::Hello(codec), newline + 1))),
            None => Err(FrameError::BadHello(format!("unknown codec {name:?}"))),
        },
        (Some(version), _, _) if version != HELLO_PREFIX => Err(FrameError::BadHello(format!(
            "unknown protocol version {version:?}"
        ))),
        _ => Err(FrameError::BadHello(format!("unparseable hello {line:?}"))),
    }
}

/// Incremental decode of the server's hello acknowledgement (§2.2), the
/// client-side twin of [`decode_hello`]: `Ok(None)` while the line still
/// misses its `\n`, `Ok(Some((codec, consumed)))` for `SPQ/1 ok <codec>`,
/// and [`FrameError::BadHello`] for a refusal (`SPQ/1 err …`), an unknown
/// codec, anything unparseable, or [`MAX_HELLO_BYTES`] without a newline.
pub fn decode_hello_ack(buf: &[u8]) -> Result<Option<(Codec, usize)>, FrameError> {
    let Some(newline) = buf.iter().take(MAX_HELLO_BYTES).position(|&b| b == b'\n') else {
        return if buf.len() >= MAX_HELLO_BYTES {
            Err(FrameError::BadHello("unterminated ack line".to_string()))
        } else {
            Ok(None)
        };
    };
    let line = std::str::from_utf8(buf.get(..newline).unwrap_or(buf))
        .map_err(|_| FrameError::BadHello("ack line is not UTF-8".to_string()))?;
    let mut words = line.splitn(3, ' ');
    match (words.next(), words.next(), words.next()) {
        (Some(HELLO_PREFIX), Some("ok"), Some(name)) => match Codec::from_wire_name(name) {
            Some(codec) => Ok(Some((codec, newline + 1))),
            None => Err(FrameError::BadHello(format!(
                "ack names unknown codec {name:?}"
            ))),
        },
        (Some(HELLO_PREFIX), Some("err"), reason) => Err(FrameError::BadHello(format!(
            "server refused: {}",
            reason.unwrap_or("(no reason)")
        ))),
        _ => Err(FrameError::BadHello(format!("unparseable ack {line:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Incremental frame decoding (both halves' read path)
// ---------------------------------------------------------------------------

/// Tries to decode one JSON frame (§3) from the front of `buf` without
/// consuming it. `Ok(None)` = the frame is incomplete, keep reading;
/// `Ok(Some((payload, consumed)))` = one frame, drop `consumed` bytes.
pub fn decode_json_frame(buf: &[u8], max: usize) -> Result<Option<(String, usize)>, FrameError> {
    let Some(newline) = buf
        .iter()
        .take(MAX_HEADER_DIGITS + 1)
        .position(|&b| b == b'\n')
    else {
        return if buf.len() > MAX_HEADER_DIGITS {
            let shown = buf.get(..=MAX_HEADER_DIGITS).unwrap_or(buf);
            Err(FrameError::BadHeader(printable(shown)))
        } else {
            Ok(None)
        };
    };
    let header = buf.get(..newline).unwrap_or(buf);
    let declared =
        parse_header_digits(header).ok_or_else(|| FrameError::BadHeader(printable(header)))?;
    let declared = usize::try_from(declared).map_err(|_| FrameError::TooLarge {
        declared: usize::MAX,
        max,
    })?;
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    // header + '\n' + payload + '\n'; `get` returns None while the frame
    // is still incomplete, replacing an explicit length check.
    let total = newline + 1 + declared + 1;
    let Some(frame) = buf.get(..total) else {
        return Ok(None);
    };
    if frame.last() != Some(&b'\n') {
        return Err(FrameError::MissingTerminator);
    }
    let body = frame.get(newline + 1..total - 1).unwrap_or_default();
    let payload = String::from_utf8(body.to_vec()).map_err(FrameError::NotUtf8)?;
    Ok(Some((payload, total)))
}

/// Tries to decode one binary frame (§4) from the front of `buf` without
/// consuming it; same contract as [`decode_json_frame`].
pub fn decode_binary_frame(buf: &[u8], max: usize) -> Result<Option<(Vec<u8>, usize)>, FrameError> {
    let Some(header) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let declared = u32::from_le_bytes(*header) as usize;
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let total = 4 + declared;
    match buf.get(4..total) {
        Some(payload) => Ok(Some((payload.to_vec(), total))),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(payload: &str) -> String {
        let mut buf = Vec::new();
        write_frame(&mut buf, Codec::Json, payload.as_bytes());
        let (frame, consumed) = decode_json_frame(&buf, MAX_FRAME_BYTES)
            .expect("decode")
            .expect("one frame");
        assert_eq!(consumed, buf.len());
        frame
    }

    #[test]
    fn frames_roundtrip() {
        for payload in ["", "{}", "{\"a\":1.0}", "päylöad \u{1F600}", "a\nb\nc"] {
            assert_eq!(roundtrip(payload), payload);
        }
    }

    #[test]
    fn wire_shape_is_length_newline_payload_newline() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Codec::Json, b"{\"x\":1.0}");
        assert_eq!(buf, b"9\n{\"x\":1.0}\n");
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Codec::Json, b"{\"x\":1.0}");
        write_frame(&mut wire, Codec::Json, b"two");
        // Every proper prefix of the first frame is incomplete: never an
        // error, never a frame. (What an end of stream there means is the
        // reader's call — `tests/client_core.rs`.)
        for cut in 0..12 {
            assert_eq!(decode_json_frame(&wire[..cut], 64).unwrap(), None, "{cut}");
        }
        let (payload, consumed) = decode_json_frame(&wire, 64).unwrap().unwrap();
        assert_eq!(payload, "{\"x\":1.0}");
        let (payload2, consumed2) = decode_json_frame(&wire[consumed..], 64).unwrap().unwrap();
        assert_eq!(payload2, "two");
        assert_eq!(consumed + consumed2, wire.len());
        assert_eq!(decode_json_frame(&[], 64).unwrap(), None, "clean end");
    }

    #[test]
    fn oversized_and_garbage_headers_are_rejected() {
        assert!(matches!(
            decode_json_frame(b"999999999999999999999\npayload", 64),
            Err(FrameError::BadHeader(_))
        ));
        assert!(matches!(
            decode_json_frame(b"12a\npayload", 64),
            Err(FrameError::BadHeader(_))
        ));
        assert!(matches!(
            decode_json_frame(b"\npayload", 64),
            Err(FrameError::BadHeader(_))
        ));
        assert!(matches!(
            decode_json_frame(b"100\nxxx", 64),
            Err(FrameError::TooLarge {
                declared: 100,
                max: 64
            })
        ));
    }

    #[test]
    fn length_mismatch_is_detected() {
        // Header says 2 bytes but the payload is 3: the terminator check
        // catches the disagreement.
        assert!(matches!(
            decode_json_frame(b"2\nabc\n", 64),
            Err(FrameError::MissingTerminator)
        ));
    }

    #[test]
    fn non_utf8_payloads_error() {
        assert!(matches!(
            decode_json_frame(b"2\n\xff\xfe\n", 64),
            Err(FrameError::NotUtf8(_))
        ));
    }

    // --- binary framing (PROTOCOL.md §4) ---

    #[test]
    fn binary_frames_roundtrip_and_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Codec::Binary, b"");
        write_frame(&mut wire, Codec::Binary, &[0xff, 0x00, 0x7f]);
        assert_eq!(&wire[..4], &[0, 0, 0, 0], "little-endian length prefix");
        assert_eq!(&wire[4..8], &[3, 0, 0, 0]);
        let (payload, consumed) = decode_binary_frame(&wire, 64).unwrap().unwrap();
        assert_eq!(payload, b"");
        let (payload2, consumed2) = decode_binary_frame(&wire[consumed..], 64).unwrap().unwrap();
        assert_eq!(payload2, vec![0xff, 0x00, 0x7f]);
        assert_eq!(consumed + consumed2, wire.len());
        assert_eq!(decode_binary_frame(&[], 64).unwrap(), None, "clean end");
    }

    #[test]
    fn binary_truncation_and_oversize_error() {
        let mut full = Vec::new();
        write_frame(&mut full, Codec::Binary, b"payload");
        for cut in 0..full.len() {
            assert_eq!(
                decode_binary_frame(&full[..cut], 64).unwrap(),
                None,
                "a prefix of {cut} bytes is incomplete, never a frame"
            );
        }
        assert!(matches!(
            decode_binary_frame(&100u32.to_le_bytes(), 64),
            Err(FrameError::TooLarge {
                declared: 100,
                max: 64
            })
        ));
    }

    // --- hello negotiation (PROTOCOL.md §2) ---

    #[test]
    fn hello_lines_are_the_documented_bytes() {
        assert_eq!(hello_line(Codec::Json), "SPQ/1 json\n");
        assert_eq!(hello_line(Codec::Binary), "SPQ/1 bin\n");
        assert_eq!(hello_ack_line(Codec::Binary), "SPQ/1 ok bin\n");
        assert_eq!(
            hello_err_line("unsupported-codec"),
            "SPQ/1 err unsupported-codec\n"
        );
    }

    #[test]
    fn decode_hello_classifies_hello_legacy_and_garbage() {
        // Explicit hellos, both codecs.
        assert_eq!(
            decode_hello(b"SPQ/1 bin\n0000").unwrap(),
            Some((HelloOutcome::Hello(Codec::Binary), 10))
        );
        assert_eq!(
            decode_hello(b"SPQ/1 json\n").unwrap(),
            Some((HelloOutcome::Hello(Codec::Json), 11))
        );
        // A legacy connection's first byte is a JSON frame header digit:
        // classified without consuming anything (§2.3).
        assert_eq!(
            decode_hello(b"9\n{\"x\":1.0}\n").unwrap(),
            Some((HelloOutcome::Legacy, 0))
        );
        // Not classifiable yet: empty, or a hello missing its newline.
        assert_eq!(decode_hello(b"").unwrap(), None);
        assert_eq!(decode_hello(b"SPQ/1 bi").unwrap(), None);
        // Garbage first bytes, unknown codecs and versions are errors.
        assert!(matches!(
            decode_hello(b"not a frame at all\n"),
            Err(FrameError::BadHello(_))
        ));
        assert!(matches!(
            decode_hello(b"SPQ/1 gzip\n"),
            Err(FrameError::BadHello(_))
        ));
        assert!(matches!(
            decode_hello(b"SPQ/9 json\n"),
            Err(FrameError::BadHello(_))
        ));
        // An unterminated "hello" cannot grow forever.
        let endless = vec![b'S'; MAX_HELLO_BYTES + 4];
        assert!(matches!(
            decode_hello(&endless),
            Err(FrameError::BadHello(_))
        ));
    }

    #[test]
    fn hello_ack_decoder_accepts_ok_and_rejects_err() {
        assert_eq!(
            decode_hello_ack(b"SPQ/1 ok bin\n\x05\0\0\0").unwrap(),
            Some((Codec::Binary, 13)),
            "the ack consumes itself exactly, ignoring the frames behind it"
        );
        assert!(matches!(
            decode_hello_ack(hello_err_line("unsupported-codec").as_bytes()),
            Err(FrameError::BadHello(_))
        ));
        assert!(matches!(
            decode_hello_ack(b"SPQ/1 ok gzip\n"),
            Err(FrameError::BadHello(_))
        ));
        assert!(matches!(
            decode_hello_ack(b"HTTP/1.1 200 OK\n"),
            Err(FrameError::BadHello(_))
        ));
        // Not decidable yet: empty, or a line still missing its newline…
        assert_eq!(decode_hello_ack(b"").unwrap(), None);
        assert_eq!(decode_hello_ack(b"SPQ/1 ok bi").unwrap(), None);
        // …but an unterminated "ack" cannot grow forever.
        assert!(matches!(
            decode_hello_ack(&[b'S'; MAX_HELLO_BYTES]),
            Err(FrameError::BadHello(_))
        ));
    }
}
