//! The serving path's codec layer allocates nothing per request.
//!
//! A monitoring tick is one `ReportProgress` per BoT (PROTOCOL.md §8),
//! the bulk of all traffic. Once a connection's buffers have grown to
//! its traffic, taking such a frame out of the read buffer, decoding it,
//! and encoding its reply into the write buffer must not touch the heap:
//! frames are decoded where they lie and replies encoded in place. This
//! file counts every allocation its own thread makes, through a global
//! allocator that forwards to the system one.
//!
//! The in-place encoders must also write exactly the bytes the owned
//! ones do; every `Response` variant is checked in both codecs.

use botwork::BotId;
use simcore::SimTime;
use spequlos::oracle::Prediction;
use spequlos::protocol::{Request, RequestError, Response};
use spequlos::{BotProgress, CloudAction, CreditError, UserId};
use spq_server::conn::{Conn, Decoded};
use spq_server::frame::{hello_line, write_frame, Codec};
use spq_server::{binary, RequestEnvelope, ResponseEnvelope, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read};

thread_local! {
    /// Allocations made by this thread (reallocations included).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a const thread-local
// that neither allocates nor registers a destructor.
#[allow(unsafe_code)]
// spq-lint: allow(unsafe-outside-polling) — `GlobalAlloc` is an unsafe trait, and counting allocations needs one
unsafe impl GlobalAlloc for Counting {
    // spq-lint: allow(unsafe-outside-polling) — one of the two methods `GlobalAlloc` requires; it counts, then forwards
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // spq-lint: allow(unsafe-outside-polling) — the other method `GlobalAlloc` requires; it only forwards
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A non-blocking source: hands out what it holds, then would block —
/// never end of stream, which `Conn` would take for a half-close.
struct Pipe<'a>(&'a [u8]);

impl Read for Pipe<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.0.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.0.read(buf)
    }
}

/// A client's window of 32 pipelined monitoring reports, in `codec`.
fn window(codec: Codec, first_id: u64) -> Vec<u8> {
    let mut wire = Vec::new();
    for id in first_id..first_id + 32 {
        let envelope = RequestEnvelope {
            id,
            at: SimTime::from_secs(id * 60),
            request: Request::ReportProgress {
                bot: BotId(id % 8),
                progress: BotProgress {
                    now: SimTime::from_secs(id * 60),
                    size: 1000,
                    completed: (id % 1000) as u32,
                    dispatched: 1000,
                    queued: 0,
                    running: 1000 - (id % 1000) as u32,
                    cloud_running: 2,
                },
            },
        };
        match codec {
            Codec::Json => write_frame(&mut wire, codec, envelope.to_json().as_bytes()),
            Codec::Binary => write_frame(&mut wire, codec, &binary::encode_request(&envelope)),
        }
    }
    wire
}

/// Serves `windows` through `conn` — fill, decode, reply, flush, as the
/// shard reactor does — and returns the allocations that took.
fn serve(conn: &mut Conn, windows: &[Vec<u8>]) -> u64 {
    let before = allocations();
    for wire in windows {
        conn.fill(&mut Pipe(wire)).expect("fill");
        while let Some(decoded) = conn.decode_next().expect("framing holds") {
            let Decoded::Request(envelope) = decoded else {
                panic!("a well-formed request came back as {decoded:?}");
            };
            let Request::ReportProgress { bot, .. } = envelope.request else {
                panic!("decoded {:?}", envelope.request);
            };
            conn.push_reply(&ResponseEnvelope {
                id: envelope.id,
                response: Response::Action {
                    bot,
                    action: CloudAction::Start(3),
                },
            });
        }
        conn.flush(&mut io::sink()).expect("flush");
    }
    allocations() - before
}

/// A connection past its hello, with nothing queued.
fn negotiated(codec: Codec) -> Conn {
    let mut conn = Conn::new(&ServerConfig::default());
    conn.fill(&mut Pipe(hello_line(codec).as_bytes()))
        .expect("hello");
    assert!(conn.decode_next().expect("hello").is_none());
    conn.flush(&mut io::sink()).expect("ack");
    assert_eq!(conn.codec(), Some(codec));
    conn
}

/// Every `Response` variant, nested and non-finite values and strings
/// that need escaping included.
fn every_response() -> Vec<Response> {
    let prediction = Prediction {
        completion_secs: 1234.5,
        success_rate: Some(0.75),
        alpha: 1.1,
    };
    let errors = vec![
        RequestError::Credit(CreditError::InsufficientCredits),
        RequestError::Credit(CreditError::NoOrder),
        RequestError::Credit(CreditError::DuplicateOrder),
        RequestError::Credit(CreditError::OrderClosed),
        RequestError::Credit(CreditError::PoolSaturated),
        RequestError::UnknownBot(BotId(9)),
        RequestError::Invalid("bad \"envelope\"\n\t⊕".into()),
        RequestError::Transport("connection reset".into()),
    ];
    let mut responses = vec![
        Response::Deposited {
            user: UserId(u64::MAX),
            balance: 3.25,
        },
        Response::Deposited {
            user: UserId(1),
            balance: f64::NAN,
        },
        Response::Registered { bot: BotId(7) },
        Response::Ordered {
            bot: BotId(1 << 60),
        },
        Response::Predicted {
            bot: BotId(7),
            prediction: Some(prediction),
        },
        Response::Predicted {
            bot: BotId(7),
            prediction: Some(Prediction {
                success_rate: None,
                ..prediction
            }),
        },
        Response::Predicted {
            bot: BotId(7),
            prediction: None,
        },
        Response::Action {
            bot: BotId(7),
            action: CloudAction::None,
        },
        Response::Action {
            bot: BotId(7),
            action: CloudAction::Start(5),
        },
        Response::Action {
            bot: BotId(7),
            action: CloudAction::StopAll,
        },
        Response::Completed {
            bot: BotId(7),
            spent: 62.5,
            refund: -0.0,
        },
        Response::Batch(vec![]),
    ];
    responses.extend(errors.into_iter().map(Response::Error));
    let nested = Response::Batch(responses.clone());
    responses.push(Response::Batch(vec![nested]));
    responses
}

#[test]
fn steady_state_requests_allocate_nothing_in_the_codec_layer() {
    for codec in [Codec::Binary, Codec::Json] {
        let mut conn = negotiated(codec);
        let warm: Vec<Vec<u8>> = (0..8).map(|w| window(codec, w * 32)).collect();
        let steady: Vec<Vec<u8>> = (8..8 + 63).map(|w| window(codec, w * 32)).collect();
        serve(&mut conn, &warm);
        let requests = steady.len() * 32;
        assert!(requests >= 2_000);
        let made = serve(&mut conn, &steady);
        assert_eq!(
            made, 0,
            "{codec}: {made} allocations over {requests} steady-state requests"
        );
    }

    // In-place replies are the owned encodings' frames, byte for byte.
    for codec in [Codec::Binary, Codec::Json] {
        for (i, response) in every_response().into_iter().enumerate() {
            let reply = ResponseEnvelope {
                id: i as u64,
                response,
            };
            let mut conn = negotiated(codec);
            conn.push_reply(&reply);
            let mut in_place = Vec::new();
            conn.flush(&mut in_place).expect("flush");
            let mut owned = Vec::new();
            match codec {
                Codec::Json => write_frame(&mut owned, codec, reply.to_json().as_bytes()),
                Codec::Binary => write_frame(&mut owned, codec, &binary::encode_response(&reply)),
            }
            assert_eq!(in_place, owned, "{codec}: {reply:?}");
        }
    }
}
