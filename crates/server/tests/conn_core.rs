//! Tests the sans-I/O connection core makes possible.
//!
//! [`spq_server::conn::Conn`] never touches a socket, so its contract —
//! *how the bytes arrive must not matter* — can be pinned directly: the
//! same byte stream fed whole, or split at arbitrary boundaries with
//! `WouldBlock`s interleaved on both the read and the write side, must
//! decode the same requests and emit the same reply bytes.
//!
//! And because `Server::spawn` is the one-shard configuration of the
//! engine behind `ShardedServer`, one transcript replayed against both
//! must produce identical reply bytes and identical recovered state.

use proptest::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig};
use simcore::SimTime;
use spequlos::protocol::{Request, RequestError, Response, SpqService};
use spequlos::{encode_state_json, BotProgress, SpeQuloS, StrategyCombo, UserId};
use spq_server::conn::{Conn, Dead, Decoded};
use spq_server::frame::{hello_line, write_frame, Codec};
use spq_server::{
    binary, RequestEnvelope, ResponseEnvelope, Server, ServerConfig, ShardConfig, ShardedServer,
};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};

use botwork::BotId;

// ---------------------------------------------------------------------------
// Recorded streams
// ---------------------------------------------------------------------------

/// A short session touching every request kind, a batch included.
fn session() -> Vec<Request> {
    let progress = |completed| BotProgress {
        now: SimTime::from_secs(60),
        size: 10,
        completed,
        dispatched: 10,
        queued: 0,
        running: 10 - completed,
        cloud_running: 0,
    };
    vec![
        Request::Deposit {
            user: UserId(1),
            credits: 500.0,
        },
        Request::RegisterQos {
            user: UserId(1),
            env: "t/XWHEP/CORE ⊕".into(),
            size: 10,
        },
        Request::OrderQos {
            bot: BotId(0),
            credits: 100.0,
            strategy: Some(StrategyCombo::paper_default()),
        },
        Request::Batch(vec![
            Request::ReportProgress {
                bot: BotId(0),
                progress: progress(4),
            },
            Request::Predict { bot: BotId(0) },
        ]),
        Request::ReportProgress {
            bot: BotId(0),
            progress: progress(10),
        },
        Request::Complete { bot: BotId(0) },
    ]
}

/// The bytes one client puts on the wire: an optional hello line (none =
/// the legacy digit-first JSON start, PROTOCOL.md §2.3), the session's
/// frames in `codec`, and a well-framed bad envelope in the middle. The
/// stream's end is the client's half-close.
fn recorded_stream(hello: bool, codec: Codec) -> Vec<u8> {
    let mut wire = Vec::new();
    if hello {
        wire.extend_from_slice(hello_line(codec).as_bytes());
    }
    for (id, request) in session().into_iter().enumerate() {
        let envelope = RequestEnvelope {
            id: id as u64,
            at: SimTime::from_secs(id as u64),
            request,
        };
        match codec {
            Codec::Json => write_frame(&mut wire, codec, envelope.to_json().as_bytes()),
            Codec::Binary => write_frame(&mut wire, codec, &binary::encode_request(&envelope)),
        }
        if id == 2 {
            match codec {
                Codec::Json => write_frame(&mut wire, codec, br#"{"id":77.0,"wat":true}"#),
                Codec::Binary => {
                    let mut junk = 77u64.to_le_bytes().to_vec();
                    junk.extend_from_slice(&[0xEE; 5]);
                    write_frame(&mut wire, codec, &junk);
                }
            }
        }
    }
    wire
}

/// Every stream the proptest replays: the three ways a connection can
/// open, a refused hello, and a session that ends in a framing violation.
fn streams() -> Vec<Vec<u8>> {
    let mut broken = recorded_stream(true, Codec::Json);
    broken.extend_from_slice(b"not a frame at all\n");
    vec![
        recorded_stream(true, Codec::Json),
        recorded_stream(true, Codec::Binary),
        recorded_stream(false, Codec::Json),
        b"SPQ/1 gzip\n".to_vec(),
        broken,
    ]
}

// ---------------------------------------------------------------------------
// An in-memory peer that delivers and accepts bytes piecemeal
// ---------------------------------------------------------------------------

/// The other end of the connection, as a non-blocking socket sees it:
/// `incoming` arrives, and `sent` is accepted, in pieces sized by `cuts`
/// (cycled) — a cut of 0 is one `WouldBlock`, anything else that many
/// bytes at most. The end of `incoming` is the peer's half-close.
struct Peer<'a> {
    incoming: &'a [u8],
    sent: Vec<u8>,
    cuts: &'a [u8],
    turn: usize,
    blocked: bool,
}

impl Peer<'_> {
    /// The next transfer size, or `None` to block — never twice in a
    /// row, so every run makes progress.
    fn cut(&mut self) -> Option<usize> {
        let cut = self.cuts[self.turn % self.cuts.len()] as usize;
        self.turn += 1;
        self.blocked = cut == 0 && !self.blocked;
        (!self.blocked).then_some(cut.max(1))
    }
}

impl Read for Peer<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.incoming.is_empty() {
            return Ok(0);
        }
        let cut = self.cut().ok_or(io::ErrorKind::WouldBlock)?;
        let (piece, rest) = self
            .incoming
            .split_at(cut.min(buf.len()).min(self.incoming.len()));
        buf[..piece.len()].copy_from_slice(piece);
        self.incoming = rest;
        Ok(piece.len())
    }
}

impl Write for Peer<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let cut = self.cut().ok_or(io::ErrorKind::WouldBlock)?;
        let piece = &buf[..cut.min(buf.len())];
        self.sent.extend_from_slice(piece);
        Ok(piece.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What one run of the core over one stream produced.
#[derive(Debug, PartialEq)]
struct Outcome {
    decoded: Vec<Decoded>,
    sent: Vec<u8>,
    verdict: Result<(), Dead>,
}

/// Drives a fresh core over `stream` the way a shard does — fill, serve
/// what is buffered against a real service, flush, serve again — until
/// the core reports the connection finished or dead.
fn run(stream: &[u8], cuts: &[u8], highwater: usize) -> Outcome {
    let config = ServerConfig {
        write_highwater: highwater,
        ..ServerConfig::default()
    };
    let mut conn = Conn::new(&config);
    let mut service = SpeQuloS::new();
    let mut peer = Peer {
        incoming: stream,
        sent: Vec::new(),
        cuts,
        turn: 0,
        blocked: false,
    };
    let mut decoded = Vec::new();
    let mut serve = |conn: &mut Conn, decoded: &mut Vec<Decoded>| -> Result<(), Dead> {
        while let Some(frame) = conn.decode_next()? {
            let reply = match frame.clone() {
                Decoded::Request(RequestEnvelope { id, at, request }) => ResponseEnvelope {
                    id,
                    response: service.handle(request, at),
                },
                Decoded::BadEnvelope(reply) => reply,
            };
            decoded.push(frame);
            conn.push_reply(&reply);
        }
        Ok(())
    };
    let mut turns = 0;
    let verdict = loop {
        turns += 1;
        assert!(turns < 100_000, "the core stopped making progress");
        let step = conn
            .fill(&mut peer)
            .and_then(|()| serve(&mut conn, &mut decoded))
            .and_then(|()| conn.flush(&mut peer))
            .and_then(|()| serve(&mut conn, &mut decoded));
        match step {
            Err(dead) => break Err(dead),
            Ok(()) if conn.drained() => break Ok(()),
            Ok(()) => assert!(
                conn.wants_read() || conn.wants_write(),
                "a live connection always waits on something"
            ),
        }
    };
    Outcome {
        decoded,
        sent: peer.sent,
        verdict,
    }
}

#[test]
fn the_recorded_streams_exercise_what_they_claim() {
    let whole = |stream: &[u8]| run(stream, &[255], 256 * 1024);
    let streams = streams();
    for stream in &streams[..3] {
        let out = whole(stream);
        assert_eq!(out.verdict, Ok(()));
        assert_eq!(out.decoded.len(), session().len() + 1);
        let bad = out
            .decoded
            .iter()
            .filter(|d| matches!(d, Decoded::BadEnvelope(r) if r.id == 77))
            .count();
        assert_eq!(bad, 1, "the bad envelope is answered with its id echoed");
    }
    // Hello streams open with the ack line; the legacy start gets none.
    assert!(whole(&streams[0]).sent.starts_with(b"SPQ/1 ok json\n"));
    assert!(whole(&streams[1]).sent.starts_with(b"SPQ/1 ok bin\n"));
    assert!(
        whole(&streams[2]).sent[0].is_ascii_digit(),
        "a frame header"
    );
    // A refusal is flushed, then the connection is finished (§2.2).
    let refused = whole(&streams[3]);
    assert!(refused.sent.starts_with(b"SPQ/1 err"), "{refused:?}");
    assert_eq!((refused.decoded.len(), refused.verdict), (0, Ok(())));
    // Broken framing is fatal, after the healthy frames were decoded.
    let broken = whole(&streams[4]);
    assert_eq!(broken.verdict, Err(Dead));
    assert_eq!(broken.decoded.len(), session().len() + 1);
}

/// A bad peer costs one connection's time, never the reactor's (ROADMAP
/// aim 3): a `max_frame_bytes`-class frame that is mostly one string
/// body is decoded — and, being a bad envelope, scanned once more for
/// its id — in time linear in its length. The decoder this replaced
/// re-validated the rest of the payload once per character and would
/// have held the reactor thread for minutes on this frame; the budget is
/// two orders of magnitude short of that and generous for an
/// unoptimised build.
#[test]
fn an_eight_mebibyte_string_body_costs_one_typed_reply_and_not_the_connection() {
    let body = "é".repeat(4 << 20);
    let hostile =
        format!(r#"{{"id":5.0,"t":0.0,"req":"register_quality","user":1.0,"env":"{body}"}}"#);
    assert!(hostile.len() > 8 << 20);
    let healthy = RequestEnvelope {
        id: 6,
        at: SimTime::ZERO,
        request: Request::Deposit {
            user: UserId(1),
            credits: 1.0,
        },
    };
    let mut wire = hello_line(Codec::Json).into_bytes();
    write_frame(&mut wire, Codec::Json, hostile.as_bytes());
    write_frame(&mut wire, Codec::Json, healthy.to_json().as_bytes());

    let start = std::time::Instant::now();
    let out = run(&wire, &[255], 256 * 1024);
    let took = start.elapsed();

    assert_eq!(out.verdict, Ok(()), "the stream itself was healthy");
    let [Decoded::BadEnvelope(reply), Decoded::Request(served)] = &out.decoded[..] else {
        panic!(
            "one typed reply, then the next request: {:?}",
            out.decoded.len()
        );
    };
    assert_eq!(reply.id, 5, "the id is echoed");
    assert_eq!(
        reply.response,
        Response::Error(RequestError::Invalid(
            "bad envelope: unknown request `register_quality`".into()
        ))
    );
    assert_eq!(served, &healthy, "the connection lives on");
    assert!(
        took < std::time::Duration::from_secs(5),
        "decoding must be linear in the frame length: {took:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// However the bytes are split, and however often either side would
    /// block, the core decodes the same requests and — unless framing
    /// broke, which drops unflushed replies by design — sends the same
    /// bytes as when the stream arrives whole.
    #[test]
    fn prop_splitting_the_stream_changes_nothing(
        which in 0usize..5,
        cuts in proptest::collection::vec(any::<u8>(), 1..24),
        tiny_highwater in any::<bool>(),
    ) {
        let stream = &streams()[which];
        let whole = run(stream, &[255], 256 * 1024);
        // A 48-byte high-water mark forces the backpressure path on
        // nearly every reply (PROTOCOL.md §9); it may delay, never alter.
        let highwater = if tiny_highwater { 48 } else { 256 * 1024 };
        let split = run(stream, &cuts, highwater);
        prop_assert_eq!(&split.decoded, &whole.decoded);
        prop_assert_eq!(split.verdict, whole.verdict);
        if whole.verdict.is_ok() {
            prop_assert_eq!(&split.sent, &whole.sent);
        } else {
            prop_assert!(whole.sent.is_empty(), "dead before the first flush");
        }
    }
}

// ---------------------------------------------------------------------------
// Server::spawn ≡ ShardedServer with one shard
// ---------------------------------------------------------------------------

/// Plays `stream` over a fresh connection, half-closes, and returns every
/// byte the server sent back before closing.
fn replay(addr: std::net::SocketAddr, stream: &[u8]) -> Vec<u8> {
    let mut socket = TcpStream::connect(addr).expect("connect");
    socket.write_all(stream).expect("send transcript");
    socket.shutdown(Shutdown::Write).expect("half-close");
    let mut replies = Vec::new();
    socket.read_to_end(&mut replies).expect("drain replies");
    replies
}

#[test]
fn one_transcript_replays_identically_on_server_and_one_shard_sharded_server() {
    // A pooled template: the sharded spawn path leases the pool through
    // the quota ledger, `Server::spawn` serves the service as it is — at
    // one shard the two must be indistinguishable.
    let template = || SpeQuloS::with_pool(8);
    // Three connections, one per way of opening; each later session sees
    // the state the earlier ones built (fresh BoT ids, a running balance).
    let transcript = [
        recorded_stream(true, Codec::Json),
        recorded_stream(true, Codec::Binary),
        recorded_stream(false, Codec::Json),
    ];

    let single = Server::spawn_loopback(template()).expect("bind loopback");
    let single_replies: Vec<Vec<u8>> = transcript
        .iter()
        .map(|stream| replay(single.addr(), stream))
        .collect();
    let single_state = encode_state_json(&single.into_service()).expect("encodes");

    let sharded = ShardedServer::spawn_loopback(template(), ShardConfig::deterministic(1, 3))
        .expect("bind loopback");
    let sharded_replies: Vec<Vec<u8>> = transcript
        .iter()
        .map(|stream| replay(sharded.addr(), stream))
        .collect();
    let mut services = sharded.into_services();
    assert_eq!(services.len(), 1);
    let sharded_state = encode_state_json(&services.remove(0)).expect("encodes");

    assert!(single_replies.iter().all(|r| !r.is_empty()));
    assert_eq!(single_replies, sharded_replies, "identical reply bytes");
    assert_eq!(single_state, sharded_state, "identical recovered state");
}
