//! The client half of the transport: a [`RemoteService`] is a connection
//! to a protocol server that *is* an [`SpqService`] — the drop-in remote
//! counterpart of an in-process [`spequlos::SpeQuloS`].
//!
//! Transport failures are surfaced as
//! [`Response::Error`]`(`[`RequestError::Transport`]`)` values, never
//! panics, keeping the `SpqService` contract («must never panic on any
//! request stream») intact across the network boundary. After the first
//! failure the connection is *poisoned*: every further call answers with
//! the same transport error instead of writing to a stream in an unknown
//! state — reconnect to recover.

use crate::binary;
use crate::frame::{
    read_binary_frame, read_frame, read_hello_ack, write_frame, write_hello, Codec, FrameError,
    MAX_FRAME_BYTES,
};
use crate::wire::{RequestEnvelope, ResponseEnvelope};
use simcore::SimTime;
use spequlos::protocol::{Request, RequestError, Response, SpqService};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// A connection to a `spq-server`, speaking framed request/response
/// envelopes over a negotiated codec (PROTOCOL.md §2). Implements
/// [`SpqService`], so any `&mut dyn SpqService` seam accepts it in place
/// of the in-process service.
pub struct RemoteService {
    reader: BufReader<TcpStream>,
    /// The write half, and the buffer each outgoing frame is built in:
    /// one buffer, one `write_all` per exchange.
    writer: TcpStream,
    wbuf: Vec<u8>,
    codec: Codec,
    next_id: u64,
    max_frame_bytes: usize,
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
    /// (§2.2). A refusal or an unparseable acknowledgement is an
    /// `InvalidData` error — the server does not speak this protocol
    /// revision or codec.
    pub fn connect_with(addr: impl ToSocketAddrs, codec: Codec) -> io::Result<RemoteService> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let mut reader = BufReader::new(writer.try_clone()?);
        write_hello(&mut writer, codec)?;
        let granted = read_hello_ack(&mut reader).map_err(|e| match e {
            FrameError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        })?;
        if granted != codec {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("asked for codec {codec}, server granted {granted}"),
            ));
        }
        Ok(RemoteService {
            reader,
            writer,
            wbuf: Vec::new(),
            codec,
            next_id: 0,
            max_frame_bytes: MAX_FRAME_BYTES,
            poisoned: None,
        })
    }

    /// The frame codec this connection negotiated.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// The server address this client is connected to.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.reader.get_ref().peer_addr()
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
        match self.handle(Request::Batch(requests), now) {
            Response::Batch(items) if items.len() == n => items,
            Response::Batch(items) => {
                let e = Response::Error(RequestError::Transport(format!(
                    "batch answered {} responses for {n} requests",
                    items.len()
                )));
                self.poisoned = Some("desynchronized batch response".to_string());
                vec![e; n]
            }
            error @ Response::Error(_) => vec![error; n],
            other => {
                self.poisoned = Some("non-batch response to a batch".to_string());
                vec![
                    Response::Error(RequestError::Transport(format!(
                        "non-batch response to a batch: {other:?}"
                    )));
                    n
                ]
            }
        }
    }

    fn exchange(&mut self, request: Request, now: SimTime) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let envelope = RequestEnvelope {
            id,
            at: now,
            request,
        };
        self.wbuf.clear();
        match self.codec {
            Codec::Json => write_frame(&mut self.wbuf, Codec::Json, envelope.to_json().as_bytes()),
            Codec::Binary => write_frame(
                &mut self.wbuf,
                Codec::Binary,
                &binary::encode_request(&envelope),
            ),
        }
        self.writer
            .write_all(&self.wbuf)
            .map_err(|e| format!("send: {e}"))?;
        let reply = match self.codec {
            Codec::Json => {
                let payload = match read_frame(&mut self.reader, self.max_frame_bytes) {
                    Ok(Some(payload)) => payload,
                    Ok(None) => return Err("server closed the connection".to_string()),
                    Err(FrameError::Io(e)) => return Err(format!("receive: {e}")),
                    Err(e) => return Err(format!("receive: {e}")),
                };
                ResponseEnvelope::from_json(&payload).map_err(|e| format!("decode: {e}"))?
            }
            Codec::Binary => {
                let payload = match read_binary_frame(&mut self.reader, self.max_frame_bytes) {
                    Ok(Some(payload)) => payload,
                    Ok(None) => return Err("server closed the connection".to_string()),
                    Err(FrameError::Io(e)) => return Err(format!("receive: {e}")),
                    Err(e) => return Err(format!("receive: {e}")),
                };
                binary::decode_response(&payload).map_err(|e| format!("decode: {e}"))?
            }
        };
        if reply.id != id {
            return Err(format!(
                "correlation mismatch: sent id {id}, got id {}",
                reply.id
            ));
        }
        Ok(reply.response)
    }
}

impl SpqService for RemoteService {
    fn handle(&mut self, request: Request, now: SimTime) -> Response {
        if let Some(e) = &self.poisoned {
            return Response::Error(RequestError::Transport(e.clone()));
        }
        match self.exchange(request, now) {
            Ok(response) => response,
            Err(e) => {
                self.poisoned = Some(e.clone());
                Response::Error(RequestError::Transport(e))
            }
        }
    }
}

impl std::fmt::Debug for RemoteService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteService")
            .field("peer", &self.reader.get_ref().peer_addr().ok())
            .field("next_id", &self.next_id)
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
