//! The client half of the transport, in two layers that mirror the
//! serving half ([`crate::conn`] under [`crate::shard`]):
//!
//! * [`ClientCore`] — the sans-I/O core: one connection's read buffer,
//!   negotiated [`Codec`] and next correlation id. It *queues* bytes (the
//!   hello line, request frames) into a buffer the caller writes out, and
//!   *reads replies* from any `Read` through the same incremental
//!   decoders the server uses ([`frame::decode_hello_ack`],
//!   [`frame::split_json_frame`], [`frame::split_binary_frame`]). It
//!   never touches a socket, so tests feed it hostile byte streams split
//!   at arbitrary boundaries (`tests/client_core.rs`).
//! * [`RemoteService`] — a socket plus a core: a connection to a protocol
//!   server that *is* an [`SpqService`], the drop-in remote counterpart
//!   of an in-process [`spequlos::SpeQuloS`].
//!
//! Nothing a server sends can make either layer panic or buffer without
//! bound (`spq-lint` holds this file to the wire-decode rules): every
//! malformed byte stream is a typed [`FrameError`], which `RemoteService`
//! surfaces as [`Response::Error`]`(`[`RequestError::Transport`]`)`,
//! keeping the `SpqService` contract («must never panic on any request
//! stream») intact across the network boundary. After the first failure
//! the connection is *poisoned*: every further call answers with the same
//! transport error instead of writing to a stream in an unknown state —
//! reconnect to recover.

use crate::binary;
use crate::frame::{self, Codec, FrameError, MAX_FRAME_BYTES};
use crate::wire::{RequestEnvelope, ResponseEnvelope};
use simcore::SimTime;
use spequlos::protocol::{Request, RequestError, Response, SpqService};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// One client connection's protocol state; see the [module docs](self).
#[derive(Debug)]
pub struct ClientCore {
    codec: Codec,
    next_id: u64,
    /// A hello was queued and its acknowledgement not yet read: the next
    /// bytes from the server are the ack line, not a frame.
    ack_owed: bool,
    /// Bytes read but not yet decoded; `rpos` marks how much of the
    /// front has been consumed. Compacted before every read.
    rbuf: Vec<u8>,
    rpos: usize,
    /// A JSON request's text, kept between requests (see `Conn`'s twin).
    text: String,
}

impl ClientCore {
    /// A connection that will speak `codec`. Queue the hello first
    /// ([`ClientCore::queue_hello`]); a core that never does talks to the
    /// server's hello-less legacy path (PROTOCOL.md §2.3), JSON only.
    pub fn new(codec: Codec) -> ClientCore {
        ClientCore {
            codec,
            next_id: 0,
            ack_owed: false,
            rbuf: Vec::new(),
            rpos: 0,
            text: String::new(),
        }
    }

    /// Appends the hello line (§2.1) to `out`; the server's
    /// acknowledgement is then read — and checked against the codec asked
    /// for — ahead of the first reply.
    pub fn queue_hello(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(frame::hello_line(self.codec).as_bytes());
        self.ack_owed = true;
    }

    /// Appends `request` to `out` as one frame and returns the
    /// correlation id it travels under (0, 1, 2, … per connection).
    pub fn queue_request(&mut self, out: &mut Vec<u8>, request: Request, at: SimTime) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let envelope = RequestEnvelope { id, at, request };
        match self.codec {
            Codec::Json => {
                self.text.clear();
                envelope.write_json(&mut self.text);
                frame::write_frame(out, Codec::Json, self.text.as_bytes());
            }
            Codec::Binary => frame::write_binary_frame_with(out, |buf| {
                binary::encode_request_into(buf, &envelope)
            }),
        }
        id
    }

    fn buffered(&self) -> &[u8] {
        self.rbuf.get(self.rpos..).unwrap_or_default()
    }

    /// One `read` from `src` into the buffer; `Ok(0)` is end of stream.
    /// An error leaves the core as it was, so a caller whose `src` can
    /// time out or would block just calls again.
    fn fill(&mut self, src: &mut impl Read) -> Result<usize, FrameError> {
        self.rbuf.drain(..self.rpos);
        self.rpos = 0;
        // The bound `Conn::fill` enforces: a frame the decoders accept
        // fits in MAX_FRAME_BYTES + header slack, so more than that
        // undecoded is garbage — stop buffering it.
        if self.rbuf.len() > MAX_FRAME_BYTES.saturating_add(64) {
            return Err(FrameError::TooLarge {
                declared: self.rbuf.len(),
                max: MAX_FRAME_BYTES,
            });
        }
        // Replies are small and read one exchange at a time: a chunk a
        // quarter of `Conn::fill`'s keeps the per-read zeroing negligible.
        let mut chunk = [0u8; 4 * 1024];
        loop {
            match src.read(&mut chunk) {
                Ok(n) => {
                    self.rbuf
                        .extend_from_slice(chunk.get(..n).unwrap_or(&chunk));
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Reads until the acknowledgement owed to a queued hello has arrived
    /// and names the codec asked for; a no-op when none is owed.
    /// [`ClientCore::read_reply`] does this itself — call it directly to
    /// learn of a refusal before sending anything else.
    pub fn read_ack(&mut self, src: &mut impl Read) -> Result<(), FrameError> {
        while self.ack_owed {
            match frame::decode_hello_ack(self.buffered())? {
                Some((granted, consumed)) if granted == self.codec => {
                    self.rpos += consumed;
                    self.ack_owed = false;
                }
                Some((granted, _)) => {
                    return Err(FrameError::BadHello(format!(
                        "asked for codec {}, server granted {granted}",
                        self.codec
                    )))
                }
                None if self.fill(src)? == 0 => {
                    return Err(FrameError::Truncated {
                        context: "hello ack",
                    })
                }
                None => {}
            }
        }
        Ok(())
    }

    /// The next reply, reading `src` as needed (the hello ack first, when
    /// one is owed). `Ok(None)` is a clean end of stream *at a frame
    /// boundary* — no more replies; an end anywhere inside a frame is
    /// [`FrameError::Truncated`]. After [`FrameError::BadEnvelope`] the
    /// stream is still in step (the frame was consumed); after any other
    /// decode error it is not, and the connection must be dropped.
    pub fn read_reply(
        &mut self,
        src: &mut impl Read,
    ) -> Result<Option<ResponseEnvelope>, FrameError> {
        self.read_ack(src)?;
        loop {
            let buf = self.buffered();
            let decoded = match self.codec {
                Codec::Json => frame::split_json_frame(buf, MAX_FRAME_BYTES)?
                    .map(|(p, n)| (ResponseEnvelope::from_json(p), n)),
                Codec::Binary => frame::split_binary_frame(buf, MAX_FRAME_BYTES)?
                    .map(|(p, n)| (binary::decode_response(p).map_err(|e| e.to_string()), n)),
            };
            if let Some((reply, consumed)) = decoded {
                self.rpos += consumed;
                return reply.map(Some).map_err(FrameError::BadEnvelope);
            }
            if self.fill(src)? == 0 {
                return if self.buffered().is_empty() {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated { context: "frame" })
                };
            }
        }
    }
}

/// A connection to a `spq-server`: a socket and the [`ClientCore`] that
/// frames what crosses it, over a negotiated codec (PROTOCOL.md §2).
/// Implements [`SpqService`], so any `&mut dyn SpqService` seam accepts
/// it in place of the in-process service.
///
/// [`SpqService::handle`] is one [`RemoteService::send`] plus one
/// [`RemoteService::recv`]; a caller that wants several requests in
/// flight uses the pair directly — `send` buffers, `flush` (or the next
/// `recv`) writes everything queued in one `write_all`, and replies come
/// back in request order (§6).
pub struct RemoteService {
    socket: TcpStream,
    core: ClientCore,
    /// Frames queued by `send` and not yet written.
    wbuf: Vec<u8>,
    /// First transport failure; sticky (see module docs).
    poisoned: Option<String>,
}

impl RemoteService {
    /// Connects to a protocol server, negotiating the default JSON codec
    /// with a hello exchange. Shorthand for
    /// [`RemoteService::connect_with`]`(addr, Codec::Json)`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<RemoteService> {
        Self::connect_with(addr, Codec::Json)
    }

    /// Connects and negotiates `codec`: sends the hello line
    /// (PROTOCOL.md §2.1) and waits for the server's acknowledgement
    /// (§2.2). A refusal, an unparseable acknowledgement or a codec other
    /// than the one asked for is an `InvalidData` error — the server does
    /// not speak this protocol revision or codec.
    pub fn connect_with(addr: impl ToSocketAddrs, codec: Codec) -> io::Result<RemoteService> {
        let mut socket = TcpStream::connect(addr)?;
        socket.set_nodelay(true)?;
        let mut core = ClientCore::new(codec);
        let mut wbuf = Vec::new();
        core.queue_hello(&mut wbuf);
        socket.write_all(&wbuf)?;
        wbuf.clear();
        core.read_ack(&mut socket).map_err(|e| match e {
            FrameError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        })?;
        Ok(RemoteService {
            socket,
            core,
            wbuf,
            poisoned: None,
        })
    }

    /// The frame codec this connection negotiated.
    pub fn codec(&self) -> Codec {
        self.core.codec
    }

    /// The server address this client is connected to.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.socket.peer_addr()
    }

    /// Poisons the connection with its first failure and returns it.
    fn fail(&mut self, why: String) -> RequestError {
        RequestError::Transport(self.poisoned.get_or_insert(why).clone())
    }

    /// Queues `request` (handled at service time `now`) and returns its
    /// correlation id. Nothing is written until [`RemoteService::flush`]
    /// or the next [`RemoteService::recv`].
    pub fn send(&mut self, request: Request, now: SimTime) -> u64 {
        self.core.queue_request(&mut self.wbuf, request, now)
    }

    /// Writes every queued request to the socket in one `write_all`.
    pub fn flush(&mut self) -> Result<(), RequestError> {
        let written = match &self.poisoned {
            Some(why) => Err(why.clone()),
            None if self.wbuf.is_empty() => Ok(()),
            None => self
                .socket
                .write_all(&self.wbuf)
                .map_err(|e| format!("send: {e}")),
        };
        self.wbuf.clear();
        written.map_err(|why| self.fail(why))
    }

    /// Flushes, then blocks for the next reply. Replies arrive in request
    /// order; pairing them with the ids `send` returned is the caller's
    /// check to make ([`SpqService::handle`] makes it).
    pub fn recv(&mut self) -> Result<ResponseEnvelope, RequestError> {
        self.flush()?;
        match self.core.read_reply(&mut self.socket) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err(self.fail("server closed the connection".to_string())),
            Err(e) => Err(self.fail(format!("receive: {e}"))),
        }
    }

    /// Pipelines `requests` as one [`Request::Batch`] frame and returns
    /// one response per request — one round trip instead of
    /// `requests.len()`. A transport failure (or a server that answers
    /// with something other than a well-sized batch) yields the matching
    /// error in every slot, so callers can still zip responses with
    /// requests.
    pub fn handle_batch(&mut self, requests: Vec<Request>, now: SimTime) -> Vec<Response> {
        let n = requests.len();
        if n == 0 {
            return Vec::new();
        }
        let error = match self.handle(Request::Batch(requests), now) {
            Response::Batch(items) if items.len() == n => return items,
            Response::Batch(items) => self.fail(format!(
                "batch answered {} responses for {n} requests",
                items.len()
            )),
            Response::Error(e) => e,
            other => self.fail(format!("non-batch response to a batch: {other:?}")),
        };
        vec![Response::Error(error); n]
    }
}

impl SpqService for RemoteService {
    fn handle(&mut self, request: Request, now: SimTime) -> Response {
        let id = self.send(request, now);
        Response::Error(match self.recv() {
            Ok(reply) if reply.id == id => return reply.response,
            Ok(reply) => self.fail(format!(
                "correlation mismatch: sent id {id}, got id {}",
                reply.id
            )),
            Err(e) => e,
        })
    }
}

impl std::fmt::Debug for RemoteService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteService")
            .field("peer", &self.socket.peer_addr().ok())
            .field("codec", &self.core.codec)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use botwork::BotId;
    use spequlos::{SpeQuloS, StrategyCombo, UserId};

    #[test]
    fn remote_batch_equals_sequential_requests() {
        let session: Vec<Request> = vec![
            Request::Deposit {
                user: UserId(1),
                credits: 500.0,
            },
            Request::RegisterQos {
                user: UserId(1),
                env: "env".into(),
                size: 10,
            },
            Request::OrderQos {
                bot: BotId(0),
                credits: 100.0,
                strategy: Some(StrategyCombo::paper_default()),
            },
        ];

        let sequential = Server::spawn_loopback(SpeQuloS::new()).expect("bind");
        let mut one_by_one = RemoteService::connect(sequential.addr()).expect("connect");
        let singles: Vec<Response> = session
            .iter()
            .map(|r| one_by_one.handle(r.clone(), SimTime::ZERO))
            .collect();

        let batched = Server::spawn_loopback(SpeQuloS::new()).expect("bind");
        let mut pipeline = RemoteService::connect(batched.addr()).expect("connect");
        let grouped = pipeline.handle_batch(session, SimTime::ZERO);

        assert_eq!(grouped, singles);
        drop(one_by_one);
        drop(pipeline);
        let a = sequential.into_service();
        let b = batched.into_service();
        assert_eq!(a.log(), b.log(), "same protocol log either way");
    }

    #[test]
    fn transport_failures_poison_instead_of_panicking() {
        let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind");
        let mut remote = RemoteService::connect(handle.addr()).expect("connect");
        // Kill the server out from under the client.
        drop(handle);
        let r = remote.handle(
            Request::Deposit {
                user: UserId(1),
                credits: 1.0,
            },
            SimTime::ZERO,
        );
        assert!(
            matches!(r, Response::Error(RequestError::Transport(_))),
            "{r:?}"
        );
        // Sticky: the next call reports the same failure, without touching
        // the dead socket.
        let r2 = remote.handle(Request::Predict { bot: BotId(0) }, SimTime::ZERO);
        assert!(matches!(r2, Response::Error(RequestError::Transport(_))));
        // Batches degrade the same way: one error per slot.
        let rs = remote.handle_batch(
            vec![
                Request::Predict { bot: BotId(0) },
                Request::Predict { bot: BotId(1) },
            ],
            SimTime::ZERO,
        );
        assert_eq!(rs.len(), 2);
        assert!(rs
            .iter()
            .all(|r| matches!(r, Response::Error(RequestError::Transport(_)))));
    }

    #[test]
    fn empty_batch_needs_no_round_trip() {
        let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind");
        let mut remote = RemoteService::connect(handle.addr()).expect("connect");
        assert!(remote.handle_batch(Vec::new(), SimTime::ZERO).is_empty());
    }
}
