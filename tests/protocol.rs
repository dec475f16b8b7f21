//! Wire-protocol integration: the quickstart request sequence replayed
//! through `SpqService::handle`, with the JSON session transcript pinned
//! to round-trip bit-identically, plus the protocol error paths and a
//! proptest fuzz of request/response/frame round-trips (arbitrary
//! strings, huge and NaN-adjacent numbers, truncated frames).

use botwork::BotId;
use simcore::SimTime;
use spequlos::protocol::{
    self, decode_responses, decode_session, encode_responses, encode_session, replay, Request,
    RequestError, Response, SpqService,
};
use spequlos::{BotProgress, CloudAction, CreditError, SpeQuloS, StrategyCombo, UserId};

fn progress(secs: u64, done: u32, cloud: u32) -> BotProgress {
    BotProgress {
        now: SimTime::from_secs(secs),
        size: 100,
        completed: done,
        dispatched: 100,
        queued: 0,
        running: 100 - done,
        cloud_running: cloud,
    }
}

/// The quickstart flow (examples/quickstart.rs and the `SpeQuloS`
/// doctest) as a request sequence: deposit → register → order → 89 steady
/// minutes → predict → trigger at 90% → completion.
fn quickstart_session() -> Vec<(SimTime, Request)> {
    let user = UserId(1);
    let bot = BotId(0); // first registration on a fresh service
    let mut session = vec![
        (
            SimTime::ZERO,
            Request::Deposit {
                user,
                credits: 1_000.0,
            },
        ),
        (
            SimTime::ZERO,
            Request::RegisterQos {
                user,
                env: "seti/XWHEP/SMALL".into(),
                size: 100,
            },
        ),
        (
            SimTime::ZERO,
            Request::OrderQos {
                bot,
                credits: 150.0,
                strategy: Some(StrategyCombo::paper_default()),
            },
        ),
    ];
    for minute in 1..=89u64 {
        session.push((
            SimTime::from_secs(minute * 60),
            Request::ReportProgress {
                bot,
                progress: progress(minute * 60, minute as u32, 0),
            },
        ));
    }
    session.push((SimTime::from_secs(5_340), Request::Predict { bot }));
    session.push((
        SimTime::from_secs(5_400),
        Request::ReportProgress {
            bot,
            progress: progress(5_400, 90, 0),
        },
    ));
    session
}

#[test]
fn quickstart_transcript_replays_and_roundtrips_bit_identically() {
    let session = quickstart_session();

    // The JSON transcript is a lossless, stable encoding: decoding yields
    // the identical request sequence, re-encoding the identical bytes.
    let text = encode_session(&session);
    let decoded = decode_session(&text).expect("own transcript decodes");
    assert_eq!(decoded, session, "decoded session == original requests");
    assert_eq!(encode_session(&decoded), text, "re-encode bit-identical");

    // Replaying the decoded transcript behaves exactly like the original
    // sequence — and like the façade API the quickstart doctest uses.
    let mut live = SpeQuloS::new();
    let responses = replay(&mut live, &decoded);
    assert_eq!(responses.len(), session.len());

    let bot = BotId(0);
    assert_eq!(
        responses[0],
        Response::Deposited {
            user: UserId(1),
            balance: 1_000.0
        }
    );
    assert_eq!(responses[1], Response::Registered { bot });
    assert_eq!(responses[2], Response::Ordered { bot });
    // 89 steady minutes: monitoring only, no cloud.
    for r in &responses[3..92] {
        assert_eq!(
            *r,
            Response::Action {
                bot,
                action: CloudAction::None
            }
        );
    }
    let Response::Predicted {
        prediction: Some(p),
        ..
    } = &responses[92]
    else {
        panic!("prediction expected past 50%: {:?}", responses[92]);
    };
    assert!(p.completion_secs > 0.0);
    let Response::Action {
        action: CloudAction::Start(n),
        ..
    } = responses[93]
    else {
        panic!("90% trigger must start the fleet: {:?}", responses[93]);
    };
    assert!(n >= 1);

    // Responses serialize with the same guarantees as requests.
    let resp_text = encode_responses(&responses);
    let resp_decoded = decode_responses(&resp_text).expect("responses decode");
    assert_eq!(resp_decoded, responses);
    assert_eq!(encode_responses(&resp_decoded), resp_text);

    // And the service's own protocol log is a transcript too.
    let log_text = protocol::encode_log(live.log());
    let log_decoded = protocol::decode_log(&log_text).expect("log decodes");
    assert_eq!(log_decoded.as_slice(), live.log());
    assert_eq!(protocol::encode_log(&log_decoded), log_text);
}

#[test]
fn golden_transcript_bytes_are_pinned() {
    // The first lines of the quickstart transcript, pinned literally: a
    // change here means the wire format changed and every stored
    // transcript in the wild silently broke. Bump deliberately or not at
    // all.
    let text = encode_session(&quickstart_session());
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("["));
    assert_eq!(
        lines.next(),
        Some(r#"{"t":0.0,"req":"deposit","user":1.0,"credits":1000.0},"#)
    );
    assert_eq!(
        lines.next(),
        Some(r#"{"t":0.0,"req":"register_qos","user":1.0,"env":"seti/XWHEP/SMALL","size":100.0},"#)
    );
    assert_eq!(
        lines.next(),
        Some(
            r#"{"t":0.0,"req":"order_qos","bot":0.0,"credits":150.0,"strategy":{"trigger":"completion","threshold":0.9,"provisioning":"conservative","deployment":"reschedule"}},"#
        )
    );
    assert_eq!(
        lines.next(),
        Some(
            r#"{"t":60000.0,"req":"report_progress","bot":0.0,"progress":{"now":60000.0,"size":100.0,"completed":1.0,"dispatched":100.0,"queued":0.0,"running":99.0,"cloud_running":0.0}},"#
        )
    );
}

#[test]
fn order_qos_on_unknown_bot_is_a_typed_error() {
    let mut spq = SpeQuloS::new();
    let ghost = BotId(7);
    let r = spq.handle(
        Request::OrderQos {
            bot: ghost,
            credits: 100.0,
            strategy: None,
        },
        SimTime::ZERO,
    );
    assert_eq!(r, Response::Error(RequestError::UnknownBot(ghost)));
    // The error response serializes and parses back identically.
    let text = r.to_json();
    assert_eq!(Response::from_json(&text).unwrap(), r);
    assert_eq!(text, r#"{"resp":"error","error":"unknown_bot","bot":7.0}"#);
}

#[test]
fn order_qos_on_saturated_pool_is_refused_with_pool_saturated() {
    // Pool of 2 workers: the third concurrent order fails admission
    // control through the protocol exactly as through the façade.
    let mut spq = SpeQuloS::with_pool(2);
    let mut bots = vec![];
    for i in 0..3u64 {
        let user = UserId(i);
        assert!(matches!(
            spq.handle(
                Request::Deposit {
                    user,
                    credits: 200.0
                },
                SimTime::ZERO
            ),
            Response::Deposited { .. }
        ));
        let Response::Registered { bot } = spq.handle(
            Request::RegisterQos {
                user,
                env: "env".into(),
                size: 100,
            },
            SimTime::ZERO,
        ) else {
            panic!("registration is unconditional");
        };
        bots.push(bot);
    }
    for &bot in &bots[..2] {
        assert_eq!(
            spq.handle(
                Request::OrderQos {
                    bot,
                    credits: 200.0,
                    strategy: None
                },
                SimTime::ZERO
            ),
            Response::Ordered { bot }
        );
    }
    let refused = spq.handle(
        Request::OrderQos {
            bot: bots[2],
            credits: 200.0,
            strategy: None,
        },
        SimTime::ZERO,
    );
    assert_eq!(
        refused,
        Response::Error(RequestError::Credit(CreditError::PoolSaturated))
    );
    assert_eq!(
        refused.to_json(),
        r#"{"resp":"error","error":"pool_saturated"}"#
    );
    // The refused tenant kept its credits and can retry after a slot
    // frees.
    assert_eq!(spq.credits.balance(UserId(2)), 200.0);
    assert_eq!(
        spq.handle(Request::Complete { bot: bots[0] }, SimTime::from_secs(60)),
        Response::Completed {
            bot: bots[0],
            spent: 0.0,
            refund: 200.0, // nothing billed: the full order refunds
        }
    );
    assert_eq!(
        spq.handle(
            Request::OrderQos {
                bot: bots[2],
                credits: 200.0,
                strategy: None
            },
            SimTime::from_secs(60)
        ),
        Response::Ordered { bot: bots[2] }
    );
}

#[test]
fn builder_default_strategy_applies_to_protocol_orders() {
    let strategy = StrategyCombo::parse("9A-G-D").unwrap();
    let mut spq = SpeQuloS::builder().default_strategy(strategy).build();
    let user = UserId(1);
    spq.handle(
        Request::Deposit {
            user,
            credits: 100.0,
        },
        SimTime::ZERO,
    );
    let Response::Registered { bot } = spq.handle(
        Request::RegisterQos {
            user,
            env: "env".into(),
            size: 10,
        },
        SimTime::ZERO,
    ) else {
        panic!();
    };
    assert_eq!(
        spq.handle(
            Request::OrderQos {
                bot,
                credits: 50.0,
                strategy: None
            },
            SimTime::ZERO
        ),
        Response::Ordered { bot }
    );
    assert_eq!(spq.strategy(bot), Some(strategy));
}

#[test]
fn non_finite_numbers_reject_cleanly_on_decode() {
    // JSON cannot carry NaN/∞: the encoder writes `null`, so the document
    // always parses — and the decoder reports a typed field error rather
    // than panicking or inventing a value.
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let text = Request::Deposit {
            user: UserId(1),
            credits: v,
        }
        .to_json();
        simcore::json::parse(&text).expect("document must stay parseable");
        let err = Request::from_json(&text).expect_err("null credits rejected");
        assert_eq!(err, "request `deposit`: missing or invalid `credits`");
    }
}

// ---------------------------------------------------------------------------
// Proptest fuzz: arbitrary values through the codec and the framing
// ---------------------------------------------------------------------------

mod fuzz {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use spequlos::{CloudAction, Prediction};
    use spq_server::frame::decode_json_frame;
    use spq_server::{write_frame, Codec, FrameError, MAX_FRAME_BYTES};
    use std::io::Cursor;

    /// The next frame of a complete byte string, through the incremental
    /// decoder: `None` at its clean end, `Truncated` if it ends mid-frame
    /// — what a blocking reader makes of "incomplete" at end of stream.
    fn read_frame(r: &mut Cursor<Vec<u8>>, max: usize) -> Result<Option<String>, FrameError> {
        let at = r.position() as usize;
        let rest = &r.get_ref()[at..];
        if rest.is_empty() {
            return Ok(None);
        }
        let (payload, consumed) =
            decode_json_frame(rest, max)?.ok_or(FrameError::Truncated { context: "frame" })?;
        r.set_position((at + consumed) as u64);
        Ok(Some(payload))
    }

    /// Strings exercising every escape class the JSON writer knows:
    /// quotes, backslashes, control characters, non-ASCII, non-BMP.
    fn wild_string() -> impl Strategy<Value = String> {
        vec(
            prop_oneof![
                Just('a'),
                Just('"'),
                Just('\\'),
                Just('\n'),
                Just('\r'),
                Just('\t'),
                Just('\u{1}'),
                Just('é'),
                Just('\u{1F600}'),
                Just('{'),
                Just('['),
                (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("printable ASCII")),
            ],
            0..24,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    /// Finite floats spanning tiny, huge, negative and integral-boundary
    /// values (non-finite floats are covered by the decode-reject test —
    /// they are unrepresentable in JSON by design).
    fn wild_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(1.5e-300),
            Just(1.0e300),
            Just(f64::MAX),
            Just(f64::MIN_POSITIVE),
            Just(4_503_599_627_370_495.5), // largest fractional step
            -1.0e9..1.0e9,
        ]
    }

    /// Ids and millisecond timestamps travel as JSON numbers: exact below
    /// 2^53 (the documented protocol limit).
    fn wild_id() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..16, Just((1u64 << 53) - 1), 0u64..(1 << 53)]
    }

    fn wild_progress() -> impl Strategy<Value = BotProgress> {
        (wild_id(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(millis, size, completed, cloud)| BotProgress {
                now: SimTime::from_millis(millis),
                size,
                completed,
                dispatched: completed / 2,
                queued: completed % 7,
                running: size.saturating_sub(completed),
                cloud_running: cloud,
            },
        )
    }

    fn leaf_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            (wild_id(), wild_f64()).prop_map(|(u, c)| Request::Deposit {
                user: UserId(u),
                credits: c,
            }),
            (wild_id(), wild_string(), any::<u32>()).prop_map(|(u, env, size)| {
                Request::RegisterQos {
                    user: UserId(u),
                    env,
                    size,
                }
            }),
            (wild_id(), wild_f64(), any::<bool>()).prop_map(|(b, c, with_strategy)| {
                Request::OrderQos {
                    bot: BotId(b),
                    credits: c,
                    strategy: with_strategy.then(StrategyCombo::paper_default),
                }
            }),
            wild_id().prop_map(|b| Request::Predict { bot: BotId(b) }),
            (wild_id(), wild_progress()).prop_map(|(b, progress)| Request::ReportProgress {
                bot: BotId(b),
                progress,
            }),
            wild_id().prop_map(|b| Request::Complete { bot: BotId(b) }),
        ]
    }

    fn wild_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            leaf_request(),
            vec(leaf_request(), 0..4).prop_map(Request::Batch),
        ]
    }

    fn leaf_response() -> impl Strategy<Value = Response> {
        prop_oneof![
            (wild_id(), wild_f64()).prop_map(|(u, balance)| Response::Deposited {
                user: UserId(u),
                balance,
            }),
            wild_id().prop_map(|b| Response::Registered { bot: BotId(b) }),
            wild_id().prop_map(|b| Response::Ordered { bot: BotId(b) }),
            (wild_id(), wild_f64(), wild_f64(), any::<bool>()).prop_map(
                |(b, completion, alpha, with)| Response::Predicted {
                    bot: BotId(b),
                    prediction: with.then(|| Prediction {
                        completion_secs: completion,
                        alpha,
                        success_rate: (alpha > 0.0).then_some(0.75),
                    }),
                }
            ),
            (wild_id(), any::<u32>(), any::<bool>()).prop_map(|(b, n, stop)| Response::Action {
                bot: BotId(b),
                action: if stop {
                    CloudAction::StopAll
                } else {
                    CloudAction::Start(n)
                },
            }),
            (wild_id(), wild_f64(), wild_f64()).prop_map(|(b, spent, refund)| {
                Response::Completed {
                    bot: BotId(b),
                    spent,
                    refund,
                }
            }),
            wild_string().prop_map(|m| Response::Error(RequestError::Invalid(m))),
            wild_string().prop_map(|m| Response::Error(RequestError::Transport(m))),
            wild_id().prop_map(|b| Response::Error(RequestError::UnknownBot(BotId(b)))),
            Just(Response::Error(RequestError::Credit(
                CreditError::PoolSaturated
            ))),
        ]
    }

    fn wild_response() -> impl Strategy<Value = Response> {
        prop_oneof![
            leaf_response(),
            vec(leaf_response(), 0..4).prop_map(Response::Batch),
        ]
    }

    proptest! {
        /// Every request the protocol can express round-trips through its
        /// JSON encoding bit-identically.
        #[test]
        fn prop_requests_roundtrip(req in wild_request()) {
            let text = req.to_json();
            let back = Request::from_json(&text)
                .map_err(|e| TestCaseError::fail(format!("{e} for {text}")))?;
            prop_assert_eq!(&back, &req, "{}", text);
            prop_assert_eq!(back.to_json(), text, "re-encode bit-identical");
        }

        /// Same for responses, including nested batch responses.
        #[test]
        fn prop_responses_roundtrip(resp in wild_response()) {
            let text = resp.to_json();
            let back = Response::from_json(&text)
                .map_err(|e| TestCaseError::fail(format!("{e} for {text}")))?;
            prop_assert_eq!(&back, &resp, "{}", text);
            prop_assert_eq!(back.to_json(), text, "re-encode bit-identical");
        }

        /// Any payload survives the framing; a stream of several frames
        /// reads back in order with a clean EOF.
        #[test]
        fn prop_frames_roundtrip(payloads in vec(wild_string(), 0..5)) {
            let mut buf = Vec::new();
            for p in &payloads {
                write_frame(&mut buf, Codec::Json, p.as_bytes());
            }
            let mut r = Cursor::new(buf);
            for p in &payloads {
                let frame = read_frame(&mut r, MAX_FRAME_BYTES)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(frame.as_deref(), Some(p.as_str()));
            }
            prop_assert!(read_frame(&mut r, MAX_FRAME_BYTES).expect("eof").is_none());
        }

        /// Every proper prefix of a frame errors — truncation can never
        /// panic, hang, or yield a frame.
        #[test]
        fn prop_truncated_frames_error(payload in wild_string(), cut_seed in any::<u64>()) {
            let mut buf = Vec::new();
            write_frame(&mut buf, Codec::Json, payload.as_bytes());
            let cut = 1 + (cut_seed as usize) % (buf.len() - 1); // 1..len
            let mut r = Cursor::new(buf[..cut].to_vec());
            prop_assert!(
                read_frame(&mut r, MAX_FRAME_BYTES).is_err(),
                "prefix of {} bytes must error",
                cut
            );
        }

        /// Arbitrary bytes through the frame reader and the decoders:
        /// errors allowed, panics not.
        #[test]
        fn prop_garbage_never_panics(bytes in vec(any::<u8>(), 0..64)) {
            let mut r = Cursor::new(bytes.clone());
            match read_frame(&mut r, 1024) {
                Ok(Some(payload)) => {
                    // A lucky frame: the decoders must still not panic.
                    let _ = Request::from_json(&payload);
                    let _ = Response::from_json(&payload);
                }
                Ok(None) => prop_assert!(bytes.is_empty()),
                Err(FrameError::Io(_)) => {
                    return Err(TestCaseError::fail("no I/O errors on a Cursor"));
                }
                Err(_) => {}
            }
            let text = String::from_utf8_lossy(&bytes);
            let _ = Request::from_json(&text);
            let _ = Response::from_json(&text);
        }
    }
}
