//! Tests the sans-I/O client core makes possible — the client-side twin
//! of `conn_core.rs`.
//!
//! [`spq_server::ClientCore`] never touches a socket, so what a server
//! may do to a client can be pinned directly: the same reply stream fed
//! whole, or split at arbitrary boundaries with `WouldBlock`s and
//! `Interrupted`s interleaved, must yield the same envelopes; a stream
//! that ends anywhere but a frame boundary is `Truncated`; and hostile
//! bytes — refusals, wrong codecs, endless acks, oversize declarations,
//! soup — are typed errors, never panics.
//!
//! And because both cores are bytes-in/bytes-out, a whole connection
//! runs with no socket at all: client core → `Conn` → service → `Conn`
//! → client core.

use proptest::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig};
use simcore::SimTime;
use spequlos::protocol::{Request, RequestError, Response, SpqService};
use spequlos::{CloudAction, SpeQuloS, StrategyCombo, UserId};
use spq_server::conn::{Conn, Decoded};
use spq_server::frame::{hello_ack_line, write_frame, MAX_FRAME_BYTES};
use spq_server::{
    binary, ClientCore, Codec, FrameError, RequestEnvelope, ResponseEnvelope, ServerConfig,
};
use std::io::{self, Read};

use botwork::BotId;

// ---------------------------------------------------------------------------
// A recorded reply stream
// ---------------------------------------------------------------------------

/// Replies of every shape: plain ones, a 64-item batch and an error.
fn replies() -> Vec<ResponseEnvelope> {
    let batch = (0..64)
        .map(|k| Response::Action {
            bot: BotId(k),
            action: CloudAction::Start(k as u32),
        })
        .collect();
    [
        Response::Deposited {
            user: UserId(1),
            balance: 500.0,
        },
        Response::Registered { bot: BotId(0) },
        Response::Batch(batch),
        Response::Error(RequestError::Invalid("bad envelope: ⊕".into())),
        Response::Completed {
            bot: BotId(0),
            spent: 12.5,
            refund: 87.5,
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(id, response)| ResponseEnvelope {
        id: id as u64,
        response,
    })
    .collect()
}

fn push_reply(wire: &mut Vec<u8>, codec: Codec, reply: &ResponseEnvelope) {
    match codec {
        Codec::Json => write_frame(wire, codec, reply.to_json().as_bytes()),
        Codec::Binary => write_frame(wire, codec, &binary::encode_response(reply)),
    }
}

/// What the server puts on the wire for [`replies`] — the ack line, then
/// one frame each — and the offsets at which the stream may end cleanly
/// (after the ack, after each frame).
fn recorded_stream(codec: Codec) -> (Vec<u8>, Vec<usize>) {
    let mut wire = hello_ack_line(codec).into_bytes();
    let mut boundaries = vec![wire.len()];
    for reply in replies() {
        push_reply(&mut wire, codec, &reply);
        boundaries.push(wire.len());
    }
    (wire, boundaries)
}

// ---------------------------------------------------------------------------
// An in-memory server end that delivers bytes piecemeal
// ---------------------------------------------------------------------------

/// `incoming` arrives in pieces sized by `cuts` (cycled): a cut of 0 is
/// one `WouldBlock`, a cut of 1 one `Interrupted`, anything else that
/// many bytes at most. The end of `incoming` is the server's close.
struct Peer<'a> {
    incoming: &'a [u8],
    cuts: &'a [u8],
    turn: usize,
    stalled: bool,
}

impl<'a> Peer<'a> {
    fn new(incoming: &'a [u8], cuts: &'a [u8]) -> Self {
        Peer {
            incoming,
            cuts,
            turn: 0,
            stalled: false,
        }
    }
}

impl Read for Peer<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.incoming.is_empty() {
            return Ok(0);
        }
        let cut = self.cuts[self.turn % self.cuts.len()] as usize;
        self.turn += 1;
        // Never stall twice in a row, so every run makes progress.
        self.stalled = cut < 2 && !self.stalled;
        if self.stalled {
            return Err(if cut == 0 {
                io::ErrorKind::WouldBlock.into()
            } else {
                io::ErrorKind::Interrupted.into()
            });
        }
        let (piece, rest) = self
            .incoming
            .split_at(cut.max(1).min(buf.len()).min(self.incoming.len()));
        buf[..piece.len()].copy_from_slice(piece);
        self.incoming = rest;
        Ok(piece.len())
    }
}

/// Reads replies until the stream ends or breaks, calling again after a
/// `WouldBlock` the way a caller with a read timeout would. A bad
/// envelope leaves the stream in step, so it is skipped and counted.
/// The ending is `"Clean"`, or the name of the [`FrameError`] variant.
fn drain(core: &mut ClientCore, src: &mut impl Read) -> (Vec<ResponseEnvelope>, usize, String) {
    let (mut got, mut bad) = (Vec::new(), 0);
    loop {
        let end = match core.read_reply(src) {
            Ok(Some(reply)) => {
                got.push(reply);
                continue;
            }
            Err(FrameError::BadEnvelope(_)) => {
                bad += 1;
                continue;
            }
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => continue,
            Ok(None) => "Clean".to_string(),
            Err(e) => format!("{e:?}"),
        };
        let variant = end.split(|c: char| !c.is_alphanumeric()).next();
        return (got, bad, variant.unwrap_or_default().to_string());
    }
}

/// A core that sent its hello and is owed the ack.
fn greeted(codec: Codec) -> ClientCore {
    let mut core = ClientCore::new(codec);
    let mut hello = Vec::new();
    core.queue_hello(&mut hello);
    assert_eq!(hello, format!("SPQ/1 {codec}\n").into_bytes());
    core
}

/// Runs a greeted core over `stream`, whole.
fn whole(codec: Codec, stream: &[u8]) -> (Vec<ResponseEnvelope>, usize, String) {
    drain(&mut greeted(codec), &mut Peer::new(stream, &[255]))
}

// ---------------------------------------------------------------------------
// (a) How the bytes arrive must not matter; where they stop must
// ---------------------------------------------------------------------------

#[test]
fn the_recorded_stream_reads_back_whole() {
    for codec in [Codec::Json, Codec::Binary] {
        let (wire, _) = recorded_stream(codec);
        assert_eq!(
            whole(codec, &wire),
            (replies(), 0, "Clean".into()),
            "{codec}"
        );
    }
}

#[test]
fn every_strict_prefix_is_truncated_except_at_frame_boundaries() {
    for codec in [Codec::Json, Codec::Binary] {
        let (wire, boundaries) = recorded_stream(codec);
        for cut in 0..wire.len() {
            let (got, bad, end) = whole(codec, &wire[..cut]);
            // Complete frames before the cut are served either way.
            let complete = boundaries.iter().filter(|&&b| b <= cut).count();
            assert_eq!(got.len(), complete.saturating_sub(1), "{codec} cut {cut}");
            assert_eq!(got, replies()[..got.len()], "{codec} cut {cut}");
            let expected = if boundaries.contains(&cut) {
                "Clean"
            } else {
                "Truncated"
            };
            assert_eq!((bad, end.as_str()), (0, expected), "{codec} cut {cut}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// However the reply stream is split, and however often the read
    /// stalls, the core yields the envelopes of the unsplit run.
    #[test]
    fn prop_splitting_the_stream_changes_nothing(
        binary in any::<bool>(),
        cuts in proptest::collection::vec(any::<u8>(), 1..24),
        stop in any::<u16>(),
    ) {
        let codec = if binary { Codec::Binary } else { Codec::Json };
        let (wire, _) = recorded_stream(codec);
        // A prefix as often as the whole stream: truncation is split too.
        let stream = &wire[..wire.len().min(stop as usize)];
        let split = drain(&mut greeted(codec), &mut Peer::new(stream, &cuts));
        prop_assert_eq!(split, whole(codec, stream));
    }

    /// Arbitrary bytes, with or without an ack in front: any typed
    /// ending is fine, a panic or a livelock is not.
    #[test]
    fn prop_byte_soup_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        binary in any::<bool>(),
        acked in any::<bool>(),
        cuts in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let codec = if binary { Codec::Binary } else { Codec::Json };
        let mut stream = if acked { hello_ack_line(codec).into_bytes() } else { Vec::new() };
        stream.extend_from_slice(&bytes);
        let (got, bad, end) = drain(&mut greeted(codec), &mut Peer::new(&stream, &cuts));
        prop_assert!(got.len() + bad <= bytes.len(), "every reply consumed bytes");
        prop_assert!(end != "Io", "an in-memory stream has no i/o errors");
    }
}

// ---------------------------------------------------------------------------
// Hostile servers get typed errors
// ---------------------------------------------------------------------------

#[test]
fn a_bad_ack_is_bad_hello_whatever_is_wrong_with_it() {
    let unterminated = [b'S'; 33];
    let hostile: [(&str, &[u8]); 5] = [
        ("a refusal", b"SPQ/1 err unsupported-codec\n"),
        ("an unknown codec", b"SPQ/1 ok gzip\n"),
        ("a codec nobody asked for", b"SPQ/1 ok bin\n"),
        ("another protocol", b"HTTP/1.1 200 OK\n"),
        ("33 bytes and no newline", &unterminated),
    ];
    for (what, ack) in hostile {
        assert_eq!(
            whole(Codec::Json, ack),
            (vec![], 0, "BadHello".into()),
            "{what}"
        );
    }
    // An ack that stops short is a truncation, at any length.
    assert_eq!(whole(Codec::Json, b"").2, "Truncated");
    assert_eq!(whole(Codec::Json, b"SPQ/1 ok js").2, "Truncated");
    // `read_ack` alone surfaces the same verdicts before any reply is due.
    let mut core = greeted(Codec::Binary);
    assert!(matches!(
        core.read_ack(&mut &b"SPQ/1 err no\n"[..]),
        Err(FrameError::BadHello(_))
    ));
    assert!(greeted(Codec::Binary)
        .read_ack(&mut &b"SPQ/1 ok bin\n"[..])
        .is_ok());
}

#[test]
fn malformed_frames_are_the_decoders_typed_errors() {
    // The cases the blocking readers used to own, through the core: the
    // incremental decoders reject what those rejected.
    let ack = hello_ack_line(Codec::Json);
    let json: [(&[u8], &str); 7] = [
        (b"999999999999999999999\nx", "BadHeader"),
        (b"12a\nx", "BadHeader"),
        (b"\nx", "BadHeader"),
        (b"16777217\n", "TooLarge"),
        (b"2\nabc\n", "MissingTerminator"),
        (b"2\n\xff\xfe\n", "NotUtf8"),
        (b"7\n{\"id\"", "Truncated"),
    ];
    for (frame, expected) in json {
        let stream = [ack.as_bytes(), frame].concat();
        assert_eq!(
            whole(Codec::Json, &stream),
            (vec![], 0, expected.into()),
            "{frame:?}"
        );
    }
    assert_eq!(
        MAX_FRAME_BYTES + 1,
        16_777_217,
        "the max+1 JSON header above"
    );
    let mut oversize = hello_ack_line(Codec::Binary).into_bytes();
    oversize.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
    assert_eq!(whole(Codec::Binary, &oversize).2, "TooLarge");
}

#[test]
fn a_bad_envelope_is_typed_and_leaves_the_stream_in_step() {
    for codec in [Codec::Json, Codec::Binary] {
        let good = &replies()[0];
        let mut wire = hello_ack_line(codec).into_bytes();
        match codec {
            Codec::Json => write_frame(&mut wire, codec, br#"{"id":7.0,"wat":true}"#),
            Codec::Binary => write_frame(&mut wire, codec, &[0xEE; 13]),
        }
        push_reply(&mut wire, codec, good);
        assert_eq!(
            whole(codec, &wire),
            (vec![good.clone()], 1, "Clean".into()),
            "{codec}"
        );
    }
}

#[test]
fn without_a_hello_no_ack_is_expected() {
    // The server's legacy path (PROTOCOL.md §2.3): digit-first JSON, no
    // ack line — replies start at byte 0.
    let mut wire = Vec::new();
    push_reply(&mut wire, Codec::Json, &replies()[1]);
    let mut core = ClientCore::new(Codec::Json);
    let out = drain(&mut core, &mut Peer::new(&wire, &[3]));
    assert_eq!(out, (vec![replies()[1].clone()], 0, "Clean".into()));
}

// ---------------------------------------------------------------------------
// (b) A whole connection with no socket in it
// ---------------------------------------------------------------------------

/// One BoT's life in four frames, a batch among them.
fn session() -> Vec<Request> {
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
        Request::Batch(vec![
            Request::OrderQos {
                bot: BotId(0),
                credits: 100.0,
                strategy: Some(StrategyCombo::paper_default()),
            },
            Request::Predict { bot: BotId(0) },
        ]),
        Request::Complete { bot: BotId(0) },
    ]
}

#[test]
fn client_core_and_connection_core_talk_without_a_socket() {
    for codec in [Codec::Json, Codec::Binary] {
        // Client → bytes.
        let mut client = ClientCore::new(codec);
        let mut upstream = Vec::new();
        client.queue_hello(&mut upstream);
        let sent: Vec<u64> = session()
            .into_iter()
            .enumerate()
            .map(|(k, request)| {
                client.queue_request(&mut upstream, request, SimTime::from_secs(k as u64))
            })
            .collect();
        assert_eq!(sent, (0..session().len() as u64).collect::<Vec<_>>());

        // Bytes → connection core → service → connection core → bytes.
        let mut conn = Conn::new(&ServerConfig::default());
        let mut service = SpeQuloS::new();
        conn.fill(&mut &upstream[..]).expect("fill");
        assert_eq!(conn.codec(), None, "nothing decoded yet");
        let mut served = Vec::new();
        while let Some(frame) = conn.decode_next().expect("healthy framing") {
            let Decoded::Request(RequestEnvelope { id, at, request }) = frame else {
                panic!("the client core only sends envelopes: {frame:?}");
            };
            assert_eq!(at, SimTime::from_secs(id));
            served.push(request.clone());
            let response = service.handle(request, at);
            conn.push_reply(&ResponseEnvelope { id, response });
        }
        assert_eq!(conn.codec(), Some(codec));
        assert_eq!(served, session(), "{codec}: requests round-trip");
        let mut downstream = Vec::new();
        conn.flush(&mut downstream).expect("flush");
        assert!(conn.drained(), "half-closed and flushed");

        // Bytes → client: ids in order, responses those of a direct call.
        let (got, bad, end) = drain(&mut client, &mut Peer::new(&downstream, &[7, 0, 1]));
        assert_eq!((bad, end.as_str()), (0, "Clean"), "{codec}");
        let mut oracle = SpeQuloS::new();
        let expected: Vec<ResponseEnvelope> = session()
            .into_iter()
            .zip(&sent)
            .map(|(request, &id)| ResponseEnvelope {
                id,
                response: oracle.handle(request, SimTime::from_secs(id)),
            })
            .collect();
        assert_eq!(got, expected, "{codec}: ids and responses round-trip");
    }
}
