//! The sans-I/O connection core: everything one protocol connection
//! does between the socket and the service, with no socket and no
//! service in it.
//!
//! A [`Conn`] owns a connection's read and write buffers and the
//! PROTOCOL.md rules that govern them — the hello phase (§2, legacy
//! digit-first JSON included), frame decoding under the frame-size
//! bound, the typed reply to a well-framed bad envelope (§7), half-close
//! drain (§1), refusal-then-close (§2.2) and byte-denominated
//! backpressure (§9). Its whole surface is five steps:
//!
//! 1. [`Conn::fill`] — pull bytes from any `Read` until it would block;
//! 2. [`Conn::decode_next`] — the next decoded request, a typed bad-envelope
//!    reply, "nothing complete yet", or the verdict that framing broke;
//! 3. [`Conn::push_reply`] — encode a reply in the negotiated codec;
//! 4. [`Conn::flush`] — push bytes to any `Write` until it would block;
//! 5. [`Conn::wants_read`] / [`Conn::wants_write`] / [`Conn::drained`] —
//!    what to wait for next, or that the connection is finished.
//!
//! The shard reactor and the accept-and-route thread
//! ([`crate::shard`]) wrap this one type around their sockets; nothing
//! else in the crate reads, decodes, encodes or flushes on the serving
//! side. Because the core never touches a socket, tests drive it with
//! in-memory streams split at arbitrary byte boundaries
//! (`tests/conn_core.rs`).

use crate::binary;
use crate::frame::{self, Codec, FrameError, HelloOutcome};
use crate::server::ServerConfig;
use crate::wire::{peek_id, RequestEnvelope, ResponseEnvelope};
use spequlos::protocol::{RequestError, Response};
use std::io::{self, Read, Write};

/// The connection is over: the peer vanished, or the byte stream broke
/// framing and reader and writer can no longer agree where a frame
/// starts (no resync, §3). Drop it now — queued replies included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dead;

/// One complete frame, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum Decoded {
    /// A request to execute.
    Request(RequestEnvelope),
    /// A well-framed payload that is not an envelope. The stream itself
    /// is still healthy, so it is answered, not dropped (§7): this is the
    /// typed error reply, echoing whatever id could be recovered.
    BadEnvelope(ResponseEnvelope),
}

fn bad_envelope(id: Option<u64>, why: impl std::fmt::Display) -> Decoded {
    Decoded::BadEnvelope(ResponseEnvelope {
        id: id.unwrap_or(0),
        response: Response::Error(RequestError::Invalid(format!("bad envelope: {why}"))),
    })
}

/// One connection's protocol state; see the [module docs](self).
#[derive(Debug)]
pub struct Conn {
    /// `None` until the first bytes are classified as a hello line or a
    /// legacy JSON frame header (§2); every further frame uses the codec.
    codec: Option<Codec>,
    /// Bytes read but not yet decoded. `rpos` marks how much of the
    /// front has been consumed; the buffer compacts once per
    /// [`Conn::decode_next`] run, so serving N buffered frames costs one
    /// memmove, not N.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Encoded replies not yet accepted by the peer, `wpos` sent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// A JSON reply's text, kept between replies: its length heads the
    /// frame (§3), so it is written here first and then framed into
    /// `wbuf`. Binary replies need no such stop.
    text: String,
    /// Drain `wbuf`, then close (a hello refusal, §2.2).
    close_after_flush: bool,
    /// The peer half-closed its write side (§1): serve what is buffered,
    /// flush every reply, then close — a client may pipeline its whole
    /// workload and shut down its write half to ask for exactly this.
    read_closed: bool,
    max_frame: usize,
    highwater: usize,
}

impl Conn {
    /// A fresh connection awaiting its hello, bounded by `config`.
    pub fn new(config: &ServerConfig) -> Conn {
        Conn {
            codec: None,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            text: String::new(),
            close_after_flush: false,
            read_closed: false,
            max_frame: config.max_frame_bytes,
            highwater: config.write_highwater.max(1),
        }
    }

    /// The negotiated codec, once the hello phase is over.
    pub fn codec(&self) -> Option<Codec> {
        self.codec
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Unsent replies have reached the high-water mark (§9): stop
    /// reading and serving this connection until the peer drains them.
    fn backpressured(&self) -> bool {
        self.pending_write() >= self.highwater
    }

    /// Reads `src` dry — until it would block, reaches end of stream
    /// (recorded as a half-close), backpressure says stop, or the
    /// frame-size bound says the peer is sending garbage.
    pub fn fill(&mut self, src: &mut impl Read) -> Result<(), Dead> {
        if self.close_after_flush || self.read_closed {
            return Ok(());
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            // A well-formed frame fits in max_frame + header slack; a
            // buffer beyond that holds garbage the decoder will reject —
            // stop amplifying it.
            if self.rbuf.len() - self.rpos > self.max_frame.saturating_add(64)
                || self.backpressured()
            {
                return Ok(());
            }
            match src.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return Ok(());
                }
                Ok(n) => self
                    .rbuf
                    .extend_from_slice(chunk.get(..n).unwrap_or(&chunk)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(Dead),
            }
        }
    }

    /// Decodes the next complete frame buffered, running the hello
    /// exchange first when it is still owed. `Ok(None)` = nothing to
    /// serve right now: the next frame is incomplete, the connection is
    /// backpressured, or it is closing.
    pub fn decode_next(&mut self) -> Result<Option<Decoded>, Dead> {
        while !self.backpressured() && !self.close_after_flush {
            let buf = self.rbuf.get(self.rpos..).unwrap_or_default();
            let Some(codec) = self.codec else {
                match frame::decode_hello(buf) {
                    Ok(None) => break,
                    Ok(Some((outcome, consumed))) => {
                        self.rpos += consumed;
                        self.codec = Some(match outcome {
                            HelloOutcome::Legacy => Codec::Json,
                            HelloOutcome::Hello(codec) => {
                                self.wbuf
                                    .extend_from_slice(frame::hello_ack_line(codec).as_bytes());
                                codec
                            }
                        });
                    }
                    // A recognizable-but-wrong hello gets a refusal line
                    // before the close (§2.2); arbitrary garbage gets
                    // nothing.
                    Err(FrameError::BadHello(reason)) if buf.first() == Some(&b'S') => {
                        self.wbuf
                            .extend_from_slice(frame::hello_err_line(&reason).as_bytes());
                        self.close_after_flush = true;
                    }
                    Err(_) => return Err(Dead),
                }
                continue;
            };
            // The payload is decoded where it lies in `rbuf`.
            let (decoded, consumed) = match codec {
                Codec::Json => {
                    let Some((payload, consumed)) =
                        frame::split_json_frame(buf, self.max_frame).map_err(|_| Dead)?
                    else {
                        break;
                    };
                    let decoded = match RequestEnvelope::from_json(payload) {
                        Ok(envelope) => Decoded::Request(envelope),
                        Err(e) => bad_envelope(peek_id(payload), e),
                    };
                    (decoded, consumed)
                }
                Codec::Binary => {
                    let Some((payload, consumed)) =
                        frame::split_binary_frame(buf, self.max_frame).map_err(|_| Dead)?
                    else {
                        break;
                    };
                    let decoded = match binary::decode_request(payload) {
                        Ok(envelope) => Decoded::Request(envelope),
                        Err(e) => bad_envelope(binary::peek_id(payload), e),
                    };
                    (decoded, consumed)
                }
            };
            self.rpos += consumed;
            return Ok(Some(decoded));
        }
        if self.rpos > 0 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        Ok(None)
    }

    /// Queues `reply` for the peer, encoded in the negotiated codec. A
    /// reply can only answer a decoded request, so the codec is known.
    /// Once the buffers have grown to the connection's traffic, this
    /// allocates nothing (`tests/zero_alloc.rs`).
    pub fn push_reply(&mut self, reply: &ResponseEnvelope) {
        match self.codec {
            Some(Codec::Json) => {
                self.text.clear();
                reply.write_json(&mut self.text);
                frame::write_frame(&mut self.wbuf, Codec::Json, self.text.as_bytes());
            }
            Some(Codec::Binary) => frame::write_binary_frame_with(&mut self.wbuf, |buf| {
                binary::encode_response_into(buf, reply)
            }),
            None => {}
        }
    }

    /// Writes queued replies to `dst` until it would block or the buffer
    /// drains.
    pub fn flush(&mut self, dst: &mut impl Write) -> Result<(), Dead> {
        while self.wpos < self.wbuf.len() {
            match dst.write(self.wbuf.get(self.wpos..).unwrap_or_default()) {
                Ok(0) => return Err(Dead),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(Dead),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }

    /// Wait for readability: not closing, and not backpressured (§9 —
    /// while this is false the kernel buffers fill and TCP flow control
    /// pushes back on this one peer).
    pub fn wants_read(&self) -> bool {
        !self.close_after_flush && !self.read_closed && !self.backpressured()
    }

    /// Wait for writability: replies are queued.
    pub fn wants_write(&self) -> bool {
        self.pending_write() > 0
    }

    /// The connection has nothing left to do — refused or half-closed,
    /// and every owed byte flushed. The caller closes it once no reply is
    /// still on its way into [`Conn::push_reply`].
    pub fn drained(&self) -> bool {
        (self.close_after_flush || self.read_closed) && self.pending_write() == 0
    }
}
