//! Property coverage for the wire codecs (PROTOCOL.md §§2–5).
//!
//! The binary envelope codec ([`spq_server::binary`]) is hand-rolled and
//! sits on the listening side of the wire, so its contract is pinned
//! adversarially here:
//!
//! * decode(encode(x)) == x for arbitrary envelopes, and the decoded
//!   value re-encodes **bit-identically** (§5);
//! * the decoded value is *value-identical* to what the JSON path would
//!   have carried — `to_json()` of the round-tripped envelope equals
//!   `to_json()` of the original (the ISSUE's cross-codec equivalence);
//! * every truncation of a valid payload is a typed error, never a
//!   panic, and arbitrary byte soup never panics any decoder — envelope
//!   (§5), frame (§§3–4), or hello (§2);
//! * the streaming JSON decoders never panic on mutated payloads and
//!   refuse exactly the documents `json::parse` refuses, with its
//!   message (§§3, 6);
//! * garbage hellos are classified without panicking, and a valid hello
//!   classifies identically no matter what bytes follow it (§2.1);
//! * a live server serves interleaved JSON and binary connections to
//!   the same state (§2), and max-size payloads are the boundary: a
//!   frame at `max_frame_bytes` is served, one past it drops the
//!   connection (§9).

use proptest::{any, prop_assert, prop_assert_eq, prop_oneof, proptest, ProptestConfig, Strategy};
use simcore::SimTime;
use spequlos::credit::CreditError;
use spequlos::oracle::{DeployMode, Prediction, Provisioning, StrategyCombo, Trigger};
use spequlos::protocol::{self, Request, RequestError, Response, SpqService};
use spequlos::scheduler::CloudAction;
use spequlos::{BotProgress, SpeQuloS, UserId};
use spq_server::binary::{self, BinError, MAX_BATCH_DEPTH};
use spq_server::frame::{
    decode_binary_frame, decode_hello, decode_json_frame, hello_line, Codec, HelloOutcome,
    MAX_FRAME_BYTES,
};
use spq_server::{wire, RemoteService, RequestEnvelope, ResponseEnvelope, Server, ServerConfig};

use botwork::BotId;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Strings exercising length prefixes (§5.1): empty, ASCII, multi-byte
/// UTF-8 whose byte length differs from its char count.
fn arb_env() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..24).prop_map(|bytes| {
        const PALETTE: [char; 8] = ['a', 'Z', '0', '_', '/', 'é', '⊕', '😀'];
        bytes
            .into_iter()
            .map(|b| PALETTE[(b % PALETTE.len() as u8) as usize])
            .collect()
    })
}

fn arb_trigger() -> impl Strategy<Value = Trigger> {
    (0u8..4, 0.0f64..1.0).prop_map(|(tag, x)| match tag {
        0 => Trigger::CompletionThreshold(x),
        1 => Trigger::AssignmentThreshold(x),
        2 => Trigger::ExecutionVariance,
        _ => Trigger::RateDrop { fraction: x },
    })
}

fn arb_combo() -> impl Strategy<Value = StrategyCombo> {
    (arb_trigger(), any::<bool>(), 0u8..3).prop_map(|(trigger, greedy, d)| StrategyCombo {
        trigger,
        provisioning: if greedy {
            Provisioning::Greedy
        } else {
            Provisioning::Conservative
        },
        deployment: match d {
            0 => DeployMode::Flat,
            1 => DeployMode::Reschedule,
            _ => DeployMode::CloudDuplication,
        },
    })
}

fn arb_progress() -> impl Strategy<Value = BotProgress> {
    (
        any::<u32>(),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>(), any::<u32>()),
    )
        .prop_map(
            |(now_ms, (size, completed, dispatched), (queued, running, cloud_running))| {
                BotProgress {
                    now: SimTime::from_millis(now_ms as u64),
                    size,
                    completed,
                    dispatched,
                    queued,
                    running,
                    cloud_running,
                }
            },
        )
}

fn arb_leaf_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u64>(), 0.0f64..1e12).prop_map(|(u, credits)| Request::Deposit {
            user: UserId(u),
            credits,
        }),
        (any::<u64>(), arb_env(), any::<u32>()).prop_map(|(u, env, size)| Request::RegisterQos {
            user: UserId(u),
            env,
            size,
        }),
        (any::<u64>(), 0.0f64..1e12, arb_combo()).prop_map(|(b, credits, combo)| {
            Request::OrderQos {
                bot: BotId(b),
                credits,
                // Alternate Some/None deterministically off the bot id so
                // both Option arms (§5.1) stay covered.
                strategy: if b % 2 == 0 { Some(combo) } else { None },
            }
        }),
        any::<u64>().prop_map(|b| Request::Predict { bot: BotId(b) }),
        (any::<u64>(), arb_progress()).prop_map(|(b, progress)| Request::ReportProgress {
            bot: BotId(b),
            progress,
        }),
        any::<u64>().prop_map(|b| Request::Complete { bot: BotId(b) }),
    ]
}

/// `inner` wrapped in `wraps` more one-item batches.
fn nest<T>(inner: T, wraps: usize, batch: fn(Vec<T>) -> T) -> T {
    (0..wraps).fold(inner, |inner, _| batch(vec![inner]))
}

/// A leaf, or a batch of leaves wrapped in up to `MAX_BATCH_DEPTH + 2`
/// more batches: some nest past the bound both codecs share (§5.3).
fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        arb_leaf_request(),
        (
            proptest::collection::vec(arb_leaf_request(), 0..5),
            0..=MAX_BATCH_DEPTH + 2
        )
            .prop_map(|(items, wraps)| nest(Request::Batch(items), wraps, Request::Batch)),
    ]
}

fn arb_request_envelope() -> impl Strategy<Value = RequestEnvelope> {
    (any::<u64>(), any::<u32>(), arb_request()).prop_map(|(id, at_ms, request)| RequestEnvelope {
        id,
        at: SimTime::from_millis(at_ms as u64),
        request,
    })
}

fn arb_prediction() -> impl Strategy<Value = Prediction> {
    (0.0f64..1e9, 0.0f64..1.0, any::<bool>()).prop_map(|(completion_secs, rate, some)| Prediction {
        completion_secs,
        success_rate: if some { Some(rate) } else { None },
        alpha: rate,
    })
}

fn arb_request_error() -> impl Strategy<Value = RequestError> {
    prop_oneof![
        (0u8..5).prop_map(|c| RequestError::Credit(match c {
            0 => CreditError::InsufficientCredits,
            1 => CreditError::NoOrder,
            2 => CreditError::DuplicateOrder,
            3 => CreditError::OrderClosed,
            _ => CreditError::PoolSaturated,
        })),
        any::<u64>().prop_map(|b| RequestError::UnknownBot(BotId(b))),
        arb_env().prop_map(RequestError::Invalid),
        arb_env().prop_map(RequestError::Transport),
    ]
}

fn arb_leaf_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any::<u64>(), 0.0f64..1e12).prop_map(|(u, balance)| Response::Deposited {
            user: UserId(u),
            balance,
        }),
        any::<u64>().prop_map(|b| Response::Registered { bot: BotId(b) }),
        any::<u64>().prop_map(|b| Response::Ordered { bot: BotId(b) }),
        (any::<u64>(), arb_prediction(), any::<bool>()).prop_map(|(b, p, some)| {
            Response::Predicted {
                bot: BotId(b),
                prediction: if some { Some(p) } else { None },
            }
        }),
        (any::<u64>(), 0u8..3, any::<u32>()).prop_map(|(b, tag, n)| Response::Action {
            bot: BotId(b),
            action: match tag {
                0 => CloudAction::None,
                1 => CloudAction::Start(n),
                _ => CloudAction::StopAll,
            },
        }),
        (any::<u64>(), (0.0f64..1e12, 0.0f64..1e12)).prop_map(|(b, (spent, refund))| {
            Response::Completed {
                bot: BotId(b),
                spent,
                refund,
            }
        }),
        arb_request_error().prop_map(Response::Error),
    ]
}

fn arb_response_envelope() -> impl Strategy<Value = ResponseEnvelope> {
    (
        any::<u64>(),
        prop_oneof![
            arb_leaf_response(),
            (
                proptest::collection::vec(arb_leaf_response(), 0..5),
                0..=MAX_BATCH_DEPTH + 2
            )
                .prop_map(|(items, wraps)| nest(
                    Response::Batch(items),
                    wraps,
                    Response::Batch
                )),
        ],
    )
        .prop_map(|(id, response)| ResponseEnvelope { id, response })
}

// ---------------------------------------------------------------------------
// §5: binary envelopes round-trip, re-encode bit-identically, and agree
// with the JSON path value-for-value
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn prop_request_roundtrip_binary_and_json_identity(env in arb_request_envelope()) {
        let bytes = binary::encode_request(&env);
        let json = RequestEnvelope::from_json(&env.to_json());
        let Ok(decoded) = binary::decode_request(&bytes) else {
            prop_assert_eq!(binary::decode_request(&bytes), Err(BinError::TooDeep));
            prop_assert!(json.is_err(), "JSON refuses what binary refuses: {:?}", json);
            return Ok(());
        };
        prop_assert!(json.is_ok(), "JSON accepts what binary accepts: {:?}", json);
        prop_assert_eq!(&decoded, &env);
        prop_assert_eq!(binary::encode_request(&decoded), bytes, "re-encode is bit-identical");
        prop_assert_eq!(decoded.to_json(), env.to_json(), "binary carries what JSON carries");
        prop_assert_eq!(binary::peek_id(&binary::encode_request(&env)), Some(env.id));
    }

    #[test]
    fn prop_response_roundtrip_binary_and_json_identity(env in arb_response_envelope()) {
        let bytes = binary::encode_response(&env);
        let json = ResponseEnvelope::from_json(&env.to_json());
        let Ok(decoded) = binary::decode_response(&bytes) else {
            prop_assert_eq!(binary::decode_response(&bytes), Err(BinError::TooDeep));
            prop_assert!(json.is_err(), "JSON refuses what binary refuses: {:?}", json);
            return Ok(());
        };
        prop_assert!(json.is_ok(), "JSON accepts what binary accepts: {:?}", json);
        prop_assert_eq!(&decoded, &env);
        prop_assert_eq!(binary::encode_response(&decoded), bytes, "re-encode is bit-identical");
        prop_assert_eq!(decoded.to_json(), env.to_json(), "binary carries what JSON carries");
        prop_assert_eq!(binary::peek_id(&bytes), Some(env.id));
    }

    #[test]
    fn prop_every_truncation_is_a_typed_error(env in arb_request_envelope()) {
        let bytes = binary::encode_request(&env);
        for cut in 0..bytes.len() {
            prop_assert!(
                binary::decode_request(&bytes[..cut]).is_err(),
                "a strict prefix ({cut}/{} bytes) must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn prop_trailing_bytes_are_rejected(env in arb_response_envelope(), junk in 1usize..9) {
        let mut bytes = binary::encode_response(&env);
        // Too deep is found before the end of the envelope is reached.
        let expected = match binary::decode_response(&bytes) {
            Ok(_) => BinError::Trailing(junk),
            Err(e) => e,
        };
        bytes.extend(std::iter::repeat_n(0xAA, junk));
        prop_assert_eq!(binary::decode_response(&bytes), Err(expected));
    }
}

// ---------------------------------------------------------------------------
// §§2–5: no decoder panics on byte soup
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn prop_byte_soup_never_panics_any_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Outcomes are irrelevant; surviving the call is the property.
        let _ = binary::decode_request(&bytes);
        let _ = binary::decode_response(&bytes);
        let _ = binary::peek_id(&bytes);
        let _ = decode_hello(&bytes);
        let _ = decode_json_frame(&bytes, 4096);
        let _ = decode_binary_frame(&bytes, 4096);
        prop_assert!(true);
    }

    #[test]
    fn prop_hello_classifies_regardless_of_what_follows(
        json in any::<bool>(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let codec = if json { Codec::Json } else { Codec::Binary };
        let line = hello_line(codec);
        let mut buf = line.clone().into_bytes();
        buf.extend(&junk);
        let classified = decode_hello(&buf).expect("a complete hello is never an error");
        prop_assert_eq!(
            classified,
            Some((HelloOutcome::Hello(codec), line.len())),
            "§2.1: a complete hello line consumes itself exactly, ignoring the tail"
        );
        // §2.3: a leading ASCII digit is a legacy JSON frame header and
        // consumes nothing.
        let mut legacy = vec![b'0' + (junk.len() % 10) as u8];
        legacy.extend(&junk);
        let classified = decode_hello(&legacy).expect("a digit first byte is never an error");
        prop_assert_eq!(classified, Some((HelloOutcome::Legacy, 0)));
    }
}

// ---------------------------------------------------------------------------
// §3/§6: the streaming JSON decoders against the document parser
// ---------------------------------------------------------------------------

/// Applies byte-level edits to a valid payload: delete, overwrite or
/// insert a byte from a palette of structural, string and number
/// characters, double a slice, or cut the tail. `None` when the result is
/// not UTF-8 (a frame like that never reaches the envelope decoder).
fn mutate(payload: &str, edits: &[(u8, u16, u8)]) -> Option<String> {
    const PALETTE: &[u8] = b"\"\\{}[],:0123456789.-+eE truefalsn\n\tu/d8\xc3\xa9";
    let mut bytes = payload.as_bytes().to_vec();
    for &(op, at, pick) in edits {
        let at = at as usize % (bytes.len() + 1);
        let byte = PALETTE[pick as usize % PALETTE.len()];
        match op % 5 {
            0 if at < bytes.len() => drop(bytes.remove(at)),
            1 if at < bytes.len() => bytes[at] = byte,
            2 => bytes.insert(at, byte),
            3 => {
                let end = (at + pick as usize).min(bytes.len());
                let slice = bytes[at..end].to_vec();
                bytes.splice(at..at, slice);
            }
            4 => bytes.truncate(at),
            _ => {}
        }
    }
    String::from_utf8(bytes).ok()
}

fn arb_edits() -> impl Strategy<Value = Vec<(u8, u16, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 0..4)
}

/// What every streaming decoder owes the document parser, which stays the
/// reference for what is well-formed JSON (`json::parse` builds the tree
/// telemetry and tests read): the same texts are refused as malformed,
/// with the same message, and a well-formed text is then judged on its
/// fields alone.
fn check_against_the_document_parser(text: &str) -> Result<(), proptest::TestCaseError> {
    let tree = simcore::json::parse(text);
    let request = RequestEnvelope::from_json(text);
    let response = ResponseEnvelope::from_json(text);
    let decoded = [
        request.as_ref().err(),
        response.as_ref().err(),
        Request::from_json(text).as_ref().err(),
        Response::from_json(text).as_ref().err(),
        protocol::decode_session_entry(text).as_ref().err(),
        protocol::decode_session(text).as_ref().err(),
        protocol::decode_responses(text).as_ref().err(),
    ]
    .map(|e| e.cloned());
    match &tree {
        Err(syntax) => {
            for e in &decoded {
                prop_assert_eq!(e.as_ref(), Some(syntax), "document: {}", text);
            }
        }
        Ok(_) => {
            // Not both an envelope of a request and of a response.
            prop_assert!(request.is_err() || response.is_err(), "{}", text);
        }
    }
    // The id an error reply echoes is the tree's first `"id"` member.
    let first_id = tree.as_ref().ok().and_then(|v| v.get("id")?.as_u64());
    prop_assert_eq!(wire::peek_id(text), first_id, "{}", text);
    // What was accepted re-encodes to something that decodes to itself.
    if let Ok(envelope) = request {
        prop_assert_eq!(
            RequestEnvelope::from_json(&envelope.to_json()),
            Ok(envelope)
        );
    }
    if let Ok(envelope) = response {
        prop_assert_eq!(
            ResponseEnvelope::from_json(&envelope.to_json()),
            Ok(envelope)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn prop_mutated_request_payloads_decode_like_the_document_parser(
        env in arb_request_envelope(),
        edits in arb_edits(),
    ) {
        if let Some(text) = mutate(&env.to_json(), &edits) {
            check_against_the_document_parser(&text)?;
        }
    }

    #[test]
    fn prop_mutated_response_payloads_decode_like_the_document_parser(
        env in arb_response_envelope(),
        edits in arb_edits(),
    ) {
        if let Some(text) = mutate(&env.to_json(), &edits) {
            check_against_the_document_parser(&text)?;
        }
    }
}

// ---------------------------------------------------------------------------
// §2: interleaved codecs against one live server
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_interleaved_codecs_share_one_service(
        ops in proptest::collection::vec((any::<bool>(), 1u32..1000), 1..24)
    ) {
        let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind");
        let mut json = RemoteService::connect_with(handle.addr(), Codec::Json).expect("json");
        let mut bin = RemoteService::connect_with(handle.addr(), Codec::Binary).expect("binary");
        let mut expected = 0.0f64;
        for (use_json, amount) in ops {
            let conn: &mut RemoteService = if use_json { &mut json } else { &mut bin };
            let r = conn.handle(
                Request::Deposit { user: UserId(7), credits: amount as f64 },
                SimTime::ZERO,
            );
            expected += amount as f64;
            prop_assert_eq!(
                r,
                Response::Deposited { user: UserId(7), balance: expected },
                "both codecs observe the same running balance"
            );
        }
        drop(json);
        drop(bin);
        let service = handle.into_service();
        prop_assert_eq!(service.credits.balance(UserId(7)), expected);
    }
}

// ---------------------------------------------------------------------------
// §9: max-size payloads are served at the limit, dropped past it
// ---------------------------------------------------------------------------

/// A `RegisterQos` whose *binary* payload (§5) is exactly `target` bytes:
/// fixed fields cost 33 bytes (8 id + 8 t + 1 tag + 8 user + 4 strlen
/// + 4 size), the env string supplies the rest.
fn register_sized_for_binary(target: usize) -> RequestEnvelope {
    let env = "e".repeat(target - 33);
    let envelope = RequestEnvelope {
        id: 0,
        at: SimTime::ZERO,
        request: Request::RegisterQos {
            user: UserId(1),
            env,
            size: 1,
        },
    };
    assert_eq!(binary::encode_request(&envelope).len(), target);
    envelope
}

#[test]
fn a_binary_frame_at_the_limit_is_served_and_one_past_it_drops_the_conn() {
    let limit = 4096;
    let config = ServerConfig {
        max_frame_bytes: limit,
        ..ServerConfig::default()
    };
    let handle = Server::spawn(SpeQuloS::new(), "127.0.0.1:0", config).expect("bind");

    let mut remote = RemoteService::connect_with(handle.addr(), Codec::Binary).expect("connect");
    let at_limit = register_sized_for_binary(limit);
    let r = remote.handle(at_limit.request, SimTime::ZERO);
    assert!(
        matches!(r, Response::Registered { .. }),
        "a frame of exactly max_frame_bytes must be served: {r:?}"
    );

    let over = register_sized_for_binary(limit + 1);
    let r = remote.handle(over.request, SimTime::ZERO);
    assert!(
        matches!(r, Response::Error(RequestError::Transport(_))),
        "one byte past the limit drops the connection (§9): {r:?}"
    );

    // The server itself survives: a fresh connection still works.
    let mut fresh = RemoteService::connect_with(handle.addr(), Codec::Binary).expect("reconnect");
    let r = fresh.handle(
        Request::Deposit {
            user: UserId(1),
            credits: 1.0,
        },
        SimTime::ZERO,
    );
    assert!(matches!(r, Response::Deposited { .. }), "{r:?}");
}

#[test]
fn an_oversized_json_frame_drops_the_conn_but_not_the_server() {
    let limit = 4096;
    let config = ServerConfig {
        max_frame_bytes: limit,
        ..ServerConfig::default()
    };
    let handle = Server::spawn(SpeQuloS::new(), "127.0.0.1:0", config).expect("bind");

    let mut remote = RemoteService::connect_with(handle.addr(), Codec::Json).expect("connect");
    let r = remote.handle(
        Request::RegisterQos {
            user: UserId(1),
            env: "e".repeat(2 * limit),
            size: 1,
        },
        SimTime::ZERO,
    );
    assert!(
        matches!(r, Response::Error(RequestError::Transport(_))),
        "{r:?}"
    );

    let mut fresh = RemoteService::connect_with(handle.addr(), Codec::Json).expect("reconnect");
    let r = fresh.handle(
        Request::Deposit {
            user: UserId(1),
            credits: 1.0,
        },
        SimTime::ZERO,
    );
    assert!(matches!(r, Response::Deposited { .. }), "{r:?}");
}

/// The default 16 MiB ceiling (§3) is comfortably larger than any real
/// envelope; sanity-pin that a large-but-legal batch travels under both
/// codecs and answers value-identically.
#[test]
fn a_large_batch_travels_under_both_codecs_identically() {
    let batch: Vec<Request> = (0..500)
        .map(|i| Request::Deposit {
            user: UserId(i % 7),
            credits: 1.0,
        })
        .collect();
    let envelope = RequestEnvelope {
        id: 9,
        at: SimTime::ZERO,
        request: Request::Batch(batch.clone()),
    };
    assert!(binary::encode_request(&envelope).len() < MAX_FRAME_BYTES);

    let replies: Vec<Vec<Response>> = [Codec::Json, Codec::Binary]
        .iter()
        .map(|&codec| {
            let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind");
            let mut remote = RemoteService::connect_with(handle.addr(), codec).expect("connect");
            remote.handle_batch(batch.clone(), SimTime::ZERO)
        })
        .collect();
    assert_eq!(replies[0], replies[1], "codec must not change semantics");
    assert_eq!(replies[0].len(), 500);
}
