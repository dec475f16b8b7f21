//! Golden corpus for the JSON codec (PROTOCOL.md §§3, 6).
//!
//! The literals below are the bytes and error strings the `Value`-tree
//! codec produced before the request path moved onto
//! `simcore::json::{Reader, Writer}`: that decoder is the oracle, this
//! file is what is left of it. Every `Request`, `Response` and
//! `RequestError` variant is pinned byte for byte on the encode side; the
//! decode table pins the rules a peer may rely on — member order is
//! free, the first of duplicated members wins, unknown members are
//! ignored, `"req"`/`"resp"` may sit anywhere — and the exact message of
//! every missing or ill-typed field.

use botwork::BotId;
use simcore::SimTime;
use spequlos::oracle::{DeployMode, Prediction, Provisioning, StrategyCombo, Trigger};
use spequlos::protocol::{
    decode_session_entry, encode_session_entry, Request, RequestError, Response,
};
use spequlos::{BotProgress, CloudAction, CreditError, UserId};
use spq_server::{RequestEnvelope, ResponseEnvelope};

fn progress() -> BotProgress {
    BotProgress {
        now: SimTime::from_millis(61_500),
        size: 100,
        completed: 7,
        dispatched: 90,
        queued: 10,
        running: 83,
        cloud_running: 2,
    }
}

fn combo(trigger: Trigger, provisioning: Provisioning, deployment: DeployMode) -> StrategyCombo {
    StrategyCombo {
        trigger,
        provisioning,
        deployment,
    }
}

const PROGRESS: &str = r#"{"now":61500.0,"size":100.0,"completed":7.0,"dispatched":90.0,"queued":10.0,"running":83.0,"cloud_running":2.0}"#;

/// Every request variant with the bytes `Request::to_json` must produce.
fn request_corpus() -> Vec<(Request, String)> {
    let order = |strategy| Request::OrderQos {
        bot: BotId(3),
        credits: 150.0,
        strategy,
    };
    vec![
        (
            Request::Deposit {
                user: UserId(1),
                credits: 1000.5,
            },
            r#"{"req":"deposit","user":1.0,"credits":1000.5}"#.into(),
        ),
        (
            // Non-finite credits have no JSON spelling: `null`, which the
            // decoder then reports as a missing field.
            Request::Deposit {
                user: UserId(1),
                credits: f64::NAN,
            },
            r#"{"req":"deposit","user":1.0,"credits":null}"#.into(),
        ),
        (
            Request::Deposit {
                user: UserId(1),
                credits: f64::NEG_INFINITY,
            },
            r#"{"req":"deposit","user":1.0,"credits":null}"#.into(),
        ),
        (
            // Ids are `f64` on the wire: from 1e15 up they print the
            // shortest digits that name the nearest double, zero-padded
            // and without the `.0` (2^64 and 2^60 here).
            Request::Deposit {
                user: UserId(u64::MAX),
                credits: 1e300,
            },
            format!(
                r#"{{"req":"deposit","user":18446744073709552000,"credits":1{}}}"#,
                "0".repeat(300)
            ),
        ),
        (
            Request::RegisterQos {
                user: UserId(1 << 60),
                env: "q\"uote\\ tab\t nl\n cr\r bell\u{7} del\u{7f} é ⊕ 😀".into(),
                size: u32::MAX,
            },
            "{\"req\":\"register_qos\",\"user\":1152921504606847000,\"env\":\"q\\\"uote\\\\ tab\\t nl\\n cr\\r bell\\u0007 del\u{7f} é ⊕ 😀\",\"size\":4294967295.0}".into(),
        ),
        (
            order(None),
            r#"{"req":"order_qos","bot":3.0,"credits":150.0}"#.into(),
        ),
        (
            order(Some(combo(
                Trigger::CompletionThreshold(0.9),
                Provisioning::Greedy,
                DeployMode::Flat,
            ))),
            r#"{"req":"order_qos","bot":3.0,"credits":150.0,"strategy":{"trigger":"completion","threshold":0.9,"provisioning":"greedy","deployment":"flat"}}"#.into(),
        ),
        (
            order(Some(combo(
                Trigger::AssignmentThreshold(0.5),
                Provisioning::Conservative,
                DeployMode::Reschedule,
            ))),
            r#"{"req":"order_qos","bot":3.0,"credits":150.0,"strategy":{"trigger":"assignment","threshold":0.5,"provisioning":"conservative","deployment":"reschedule"}}"#.into(),
        ),
        (
            order(Some(combo(
                Trigger::ExecutionVariance,
                Provisioning::Greedy,
                DeployMode::CloudDuplication,
            ))),
            r#"{"req":"order_qos","bot":3.0,"credits":150.0,"strategy":{"trigger":"variance","provisioning":"greedy","deployment":"cloud_duplication"}}"#.into(),
        ),
        (
            order(Some(combo(
                Trigger::RateDrop { fraction: 0.25 },
                Provisioning::Conservative,
                DeployMode::Flat,
            ))),
            r#"{"req":"order_qos","bot":3.0,"credits":150.0,"strategy":{"trigger":"rate_drop","threshold":0.25,"provisioning":"conservative","deployment":"flat"}}"#.into(),
        ),
        (
            Request::Predict { bot: BotId(0) },
            r#"{"req":"predict","bot":0.0}"#.into(),
        ),
        (
            Request::ReportProgress {
                bot: BotId(4),
                progress: progress(),
            },
            format!(r#"{{"req":"report_progress","bot":4.0,"progress":{PROGRESS}}}"#),
        ),
        (
            Request::Complete { bot: BotId(4) },
            r#"{"req":"complete","bot":4.0}"#.into(),
        ),
        (
            Request::Batch(vec![]),
            r#"{"req":"batch","items":[]}"#.into(),
        ),
        (
            Request::Batch(vec![
                Request::Predict { bot: BotId(0) },
                Request::ReportProgress {
                    bot: BotId(4),
                    progress: progress(),
                },
                // Nested batches encode and decode; the service refuses them.
                Request::Batch(vec![Request::Complete { bot: BotId(1) }]),
            ]),
            format!(
                r#"{{"req":"batch","items":[{{"req":"predict","bot":0.0}},{{"req":"report_progress","bot":4.0,"progress":{PROGRESS}}},{{"req":"batch","items":[{{"req":"complete","bot":1.0}}]}}]}}"#
            ),
        ),
    ]
}

/// Every response and error variant with its `Response::to_json` bytes.
fn response_corpus() -> Vec<(Response, String)> {
    let error = |e| Response::Error(e);
    let credit = |e| Response::Error(RequestError::Credit(e));
    vec![
        (
            Response::Deposited {
                user: UserId(1),
                balance: 0.1 + 0.2,
            },
            r#"{"resp":"deposited","user":1.0,"balance":0.30000000000000004}"#.into(),
        ),
        (
            Response::Registered { bot: BotId(7) },
            r#"{"resp":"registered","bot":7.0}"#.into(),
        ),
        (
            Response::Ordered { bot: BotId(7) },
            r#"{"resp":"ordered","bot":7.0}"#.into(),
        ),
        (
            Response::Predicted {
                bot: BotId(7),
                prediction: Some(Prediction {
                    completion_secs: 1234.5,
                    success_rate: Some(0.75),
                    alpha: 1.1,
                }),
            },
            r#"{"resp":"predicted","bot":7.0,"prediction":{"completion_secs":1234.5,"alpha":1.1,"success_rate":0.75}}"#.into(),
        ),
        (
            Response::Predicted {
                bot: BotId(7),
                prediction: Some(Prediction {
                    completion_secs: 1e21,
                    success_rate: None,
                    alpha: -0.0,
                }),
            },
            r#"{"resp":"predicted","bot":7.0,"prediction":{"completion_secs":1000000000000000000000,"alpha":-0.0}}"#.into(),
        ),
        (
            Response::Predicted {
                bot: BotId(7),
                prediction: None,
            },
            r#"{"resp":"predicted","bot":7.0,"prediction":null}"#.into(),
        ),
        (
            Response::Action {
                bot: BotId(7),
                action: CloudAction::None,
            },
            r#"{"resp":"action","bot":7.0,"action":"none"}"#.into(),
        ),
        (
            Response::Action {
                bot: BotId(7),
                action: CloudAction::Start(5),
            },
            r#"{"resp":"action","bot":7.0,"action":{"start":5.0}}"#.into(),
        ),
        (
            Response::Action {
                bot: BotId(7),
                action: CloudAction::StopAll,
            },
            r#"{"resp":"action","bot":7.0,"action":"stop_all"}"#.into(),
        ),
        (
            Response::Completed {
                bot: BotId(7),
                spent: 62.5,
                refund: 87.5,
            },
            r#"{"resp":"completed","bot":7.0,"spent":62.5,"refund":87.5}"#.into(),
        ),
        (
            Response::Completed {
                bot: BotId(7),
                spent: f64::INFINITY,
                refund: 1e-7,
            },
            r#"{"resp":"completed","bot":7.0,"spent":null,"refund":0.0000001}"#.into(),
        ),
        (
            Response::Batch(vec![]),
            r#"{"resp":"batch","items":[]}"#.into(),
        ),
        (
            Response::Batch(vec![
                Response::Ordered { bot: BotId(7) },
                credit(CreditError::NoOrder),
                Response::Batch(vec![Response::Registered { bot: BotId(1) }]),
            ]),
            r#"{"resp":"batch","items":[{"resp":"ordered","bot":7.0},{"resp":"error","error":"no_order"},{"resp":"batch","items":[{"resp":"registered","bot":1.0}]}]}"#.into(),
        ),
        (
            credit(CreditError::InsufficientCredits),
            r#"{"resp":"error","error":"insufficient_credits"}"#.into(),
        ),
        (
            credit(CreditError::NoOrder),
            r#"{"resp":"error","error":"no_order"}"#.into(),
        ),
        (
            credit(CreditError::DuplicateOrder),
            r#"{"resp":"error","error":"duplicate_order"}"#.into(),
        ),
        (
            credit(CreditError::OrderClosed),
            r#"{"resp":"error","error":"order_closed"}"#.into(),
        ),
        (
            credit(CreditError::PoolSaturated),
            r#"{"resp":"error","error":"pool_saturated"}"#.into(),
        ),
        (
            error(RequestError::UnknownBot(BotId(9))),
            r#"{"resp":"error","error":"unknown_bot","bot":9.0}"#.into(),
        ),
        (
            error(RequestError::Invalid("bad \"envelope\"\n\u{1f}😀".into())),
            "{\"resp\":\"error\",\"error\":\"invalid\",\"message\":\"bad \\\"envelope\\\"\\n\\u001f😀\"}".into(),
        ),
        (
            error(RequestError::Transport("connection reset".into())),
            r#"{"resp":"error","error":"transport","message":"connection reset"}"#.into(),
        ),
    ]
}

fn finite(text: &str) -> bool {
    !text.contains("null")
}

#[test]
fn every_request_variant_encodes_to_its_golden_bytes() {
    for (i, (request, golden)) in request_corpus().into_iter().enumerate() {
        assert_eq!(request.to_json(), golden, "request #{i}");
        // The session entry and the envelope flatten the same members
        // behind their own head.
        let members = golden.strip_prefix('{').expect("an object");
        let at = SimTime::from_millis(61_000);
        assert_eq!(
            encode_session_entry(at, &request),
            format!(r#"{{"t":61000.0,{members}"#),
            "session entry #{i}"
        );
        let envelope = RequestEnvelope {
            id: 42 + i as u64,
            at,
            request: request.clone(),
        };
        let text = envelope.to_json();
        assert_eq!(
            text,
            format!(r#"{{"id":{}.0,"t":61000.0,{members}"#, 42 + i),
            "envelope #{i}"
        );
        if finite(&golden) {
            assert_eq!(Request::from_json(&golden).as_ref(), Ok(&request), "#{i}");
            assert_eq!(RequestEnvelope::from_json(&text), Ok(envelope), "#{i}");
            assert_eq!(
                decode_session_entry(&format!(r#"{{"t":61000.0,{members}"#)),
                Ok((at, request)),
                "#{i}"
            );
        }
    }
}

#[test]
fn every_response_variant_encodes_to_its_golden_bytes() {
    for (i, (response, golden)) in response_corpus().into_iter().enumerate() {
        assert_eq!(response.to_json(), golden, "response #{i}");
        let members = golden.strip_prefix('{').expect("an object");
        let envelope = ResponseEnvelope {
            id: u64::MAX - 1,
            response: response.clone(),
        };
        let text = envelope.to_json();
        assert_eq!(
            text,
            format!(r#"{{"id":18446744073709552000,{members}"#),
            "envelope #{i}"
        );
        if finite(&golden) {
            assert_eq!(Response::from_json(&golden).as_ref(), Ok(&response), "#{i}");
            // 2^64 saturates back to `u64::MAX`: ids are exact below 2^53.
            assert_eq!(
                ResponseEnvelope::from_json(&text),
                Ok(ResponseEnvelope {
                    id: u64::MAX,
                    response
                }),
                "#{i}"
            );
        }
    }
}

#[test]
fn request_decoding_follows_the_pinned_rules() {
    let report = Request::ReportProgress {
        bot: BotId(4),
        progress: progress(),
    };
    let predict = Request::Predict { bot: BotId(1) };
    let accepted: Vec<(String, Request)> = vec![
        // Member order is free, at both levels, and `"req"` may come last.
        (
            r#"{"progress":{"cloud_running":2,"running":83,"queued":10,"dispatched":90,"completed":7,"size":100,"now":61500},"bot":4,"req":"report_progress"}"#.into(),
            report.clone(),
        ),
        // Whitespace between tokens; integers need no `.0`.
        (
            " {\n\t\"req\" : \"predict\" ,\r\n \"bot\" : 1e0 } \n".into(),
            predict.clone(),
        ),
        // The first of duplicated members wins — tag, scalar and nested.
        (
            r#"{"req":"predict","req":"complete","bot":1,"bot":2,"bot":"x"}"#.into(),
            predict.clone(),
        ),
        (
            format!(r#"{{"req":"report_progress","bot":4,"progress":{PROGRESS},"progress":{{"now":"never"}}}}"#),
            report.clone(),
        ),
        // Unknown members are ignored whatever they hold, and so are
        // members that belong to another request.
        (
            r#"{"zzz":{"deep":[1,[2,{"x":null}],"sé"]},"req":"predict","items":7,"progress":false,"strategy":"-","credits":"free","bot":1,"":true}"#.into(),
            predict.clone(),
        ),
        // An absent strategy is the default one.
        (
            r#"{"req":"order_qos","credits":150.0,"bot":3.0}"#.into(),
            Request::OrderQos {
                bot: BotId(3),
                credits: 150.0,
                strategy: None,
            },
        ),
        // Strategy members in any order; a threshold on `variance` is ignored.
        (
            r#"{"req":"order_qos","strategy":{"deployment":"flat","threshold":0.5,"provisioning":"greedy","trigger":"variance"},"credits":1,"bot":3}"#.into(),
            Request::OrderQos {
                bot: BotId(3),
                credits: 1.0,
                strategy: Some(combo(
                    Trigger::ExecutionVariance,
                    Provisioning::Greedy,
                    DeployMode::Flat,
                )),
            },
        ),
        // Escapes: the short forms, `\/`, BMP `\u` and a surrogate pair.
        (
            r#"{"req":"register_qos","user":1,"size":2,"env":"\"\\\/\b\f\n\r\té⊕😀 raw é😀"}"#.into(),
            Request::RegisterQos {
                user: UserId(1),
                env: "\"\\/\u{8}\u{c}\n\r\té⊕😀 raw é😀".into(),
                size: 2,
            },
        ),
        // Items decode in place; `"items"` may precede the tag.
        (
            r#"{"items":[{"bot":1,"req":"predict"},{"req":"batch","items":[]}],"req":"batch"}"#.into(),
            Request::Batch(vec![predict.clone(), Request::Batch(vec![])]),
        ),
    ];
    for (text, expected) in accepted {
        assert_eq!(Request::from_json(&text), Ok(expected), "{text}");
    }

    let rejected: &[(&str, &str)] = &[
        // Not an object, or no usable tag.
        (r#"[]"#, "missing or invalid `req`"),
        (r#"7"#, "missing or invalid `req`"),
        (r#"{}"#, "missing or invalid `req`"),
        (r#"{"req":7,"req":"predict","bot":1}"#, "missing or invalid `req`"),
        (r#"{"req":"frobnicate","bot":1}"#, "unknown request `frobnicate`"),
        (r#"{"req":"","bot":1}"#, "unknown request ``"),
        // Missing or ill-typed scalars, in field order.
        (
            r#"{"req":"deposit","credits":1}"#,
            "request `deposit`: missing or invalid `user`",
        ),
        (
            r#"{"req":"deposit","user":1}"#,
            "request `deposit`: missing or invalid `credits`",
        ),
        (
            r#"{"req":"deposit","user":1,"credits":null}"#,
            "request `deposit`: missing or invalid `credits`",
        ),
        (
            r#"{"req":"deposit","user":-1,"credits":1}"#,
            "request `deposit`: missing or invalid `user`",
        ),
        (
            r#"{"req":"deposit","user":1.5,"credits":1}"#,
            "request `deposit`: missing or invalid `user`",
        ),
        (
            r#"{"req":"deposit","user":"1","user":1,"credits":1}"#,
            "request `deposit`: missing or invalid `user`",
        ),
        (
            r#"{"req":"register_qos","user":1,"env":7,"size":1}"#,
            "request `register_qos`: missing or invalid `env`",
        ),
        (
            r#"{"req":"register_qos","user":1,"env":"e","size":4294967296}"#,
            "request `register_qos`: missing or invalid `size`",
        ),
        (
            r#"{"req":"order_qos","bot":1.0}"#,
            "request `order_qos`: missing or invalid `credits`",
        ),
        (r#"{"req":"predict"}"#, "request `predict`: missing or invalid `bot`"),
        (
            r#"{"req":"complete","bot":[1]}"#,
            "request `complete`: missing or invalid `bot`",
        ),
        // Strategy: present means decoded, whatever it holds.
        (
            r#"{"req":"order_qos","bot":1,"credits":1,"strategy":null}"#,
            "request `order_qos`: strategy: strategy needs a `trigger`",
        ),
        (
            r#"{"req":"order_qos","bot":1,"credits":1,"strategy":{"trigger":"completion","provisioning":"greedy","deployment":"flat"}}"#,
            "request `order_qos`: strategy: trigger `completion` needs a `threshold`",
        ),
        (
            r#"{"req":"order_qos","bot":1,"credits":1,"strategy":{"trigger":"sometimes","threshold":1,"provisioning":"greedy","deployment":"flat"}}"#,
            "request `order_qos`: strategy: unknown trigger `sometimes`",
        ),
        (
            r#"{"req":"order_qos","bot":1,"credits":1,"strategy":{"trigger":"variance","provisioning":"lavish","deployment":"flat"}}"#,
            "request `order_qos`: strategy: unknown provisioning Some(\"lavish\")",
        ),
        (
            r#"{"req":"order_qos","bot":1,"credits":1,"strategy":{"trigger":"variance","provisioning":"greedy"}}"#,
            "request `order_qos`: strategy: unknown deployment None",
        ),
        // Progress: absent, not an object, and each counter.
        (
            r#"{"req":"report_progress","bot":1}"#,
            "request `report_progress`: progress: missing `progress`",
        ),
        (
            r#"{"req":"report_progress","bot":1,"progress":[]}"#,
            "request `report_progress`: progress: missing or invalid `now`",
        ),
        (
            r#"{"req":"report_progress","bot":1,"progress":{"now":1,"size":1,"completed":1,"dispatched":1,"queued":1,"running":-1,"cloud_running":1}}"#,
            "request `report_progress`: progress: missing or invalid `running`",
        ),
        (
            r#"{"req":"report_progress","progress":{}}"#,
            "request `report_progress`: missing or invalid `bot`",
        ),
        // Batches: the items array, then the first bad item by index.
        (r#"{"req":"batch"}"#, "request `batch`: missing or invalid `items`"),
        (
            r#"{"req":"batch","items":{}}"#,
            "request `batch`: missing or invalid `items`",
        ),
        (
            r#"{"req":"batch","items":[{"req":"predict","bot":1},7]}"#,
            "request `batch`: items[1]: missing or invalid `req`",
        ),
        (
            r#"{"req":"batch","items":[{"req":"predict","bot":1},{"req":"nope"},{"req":"predict"}]}"#,
            "request `batch`: items[1]: unknown request `nope`",
        ),
        (
            r#"{"req":"batch","items":[{"req":"report_progress","bot":0.0,"progress":{"now":1.0}}]}"#,
            "request `batch`: items[0]: request `report_progress`: progress: missing or invalid `size`",
        ),
        (
            r#"{"req":"batch","items":[{"req":"batch","items":[{"req":"complete"}]}]}"#,
            "request `batch`: items[0]: request `batch`: items[0]: request `complete`: missing or invalid `bot`",
        ),
        // Nine batches deep is one more than either codec takes (§5.3).
        (
            r#"{"req":"batch","items":[{"req":"batch","items":[{"req":"batch","items":[{"req":"batch","items":[{"req":"batch","items":[{"req":"batch","items":[{"req":"batch","items":[{"req":"batch","items":[{"req":"batch","items":[{"req":"complete","bot":1}]}]}]}]}]}]}]}]}]}"#,
            "request `batch`: items[0]: request `batch`: items[0]: request `batch`: items[0]: request `batch`: items[0]: request `batch`: items[0]: request `batch`: items[0]: request `batch`: items[0]: request `batch`: items[0]: request `batch`: items[0]: batches nest deeper than 8",
        ),
        // Malformed documents report the parser's position, and win over
        // any field error before them.
        (r#"{"req":"predict","bot":1"#, "expected `,` or `}` at byte 24"),
        (r#"{"req":"predict","bot":1}}"#, "trailing garbage at byte 25"),
        (r#"{"req":"predict" "bot":1}"#, "expected `,` or `}` at byte 17"),
        (r#"{"req":"predict","bot":1,}"#, "expected `\"` at byte 25"),
        (r#"{"req":"predict","bot"}"#, "expected `:` at byte 22"),
        (r#"{"req":"predict","bot":}"#, "invalid number at byte 23"),
        (r#"{"req":"predict","bot":01x}"#, "expected `,` or `}` at byte 25"),
        (r#"{"req":"predict","bot":tru}"#, "invalid literal at byte 23"),
        (r#"{"req":"predict","bot":1,"x":"\q"}"#, "bad escape `\\q`"),
        (r#"{"req":"predict","bot":1,"x":"\ud83d"}"#, "lone high surrogate at byte 36"),
        (r#"{"req":"predict","bot":1,"x":"\ude00"}"#, "lone low surrogate at byte 36"),
        (r#"{"req":"predict","bot":1,"x":"\u12"}"#, "bad \\u escape at byte 32"),
        (r#"{"req":"predict","bot":1,"x":"abc"#, "unterminated string"),
        (r#"{"req":"frobnicate","x":[1,}"#, "invalid number at byte 27"),
        (r#""#, "unexpected end of input"),
    ];
    for (text, expected) in rejected {
        assert_eq!(
            Request::from_json(text).as_ref().map_err(String::as_str),
            Err(*expected),
            "{text}"
        );
    }
    let deep = format!(r#"{{"req":"predict","bot":1,"x":{}}}"#, "[".repeat(200));
    assert_eq!(
        Request::from_json(&deep),
        Err("nesting deeper than 128 at byte 156".into())
    );
}

#[test]
fn response_decoding_follows_the_pinned_rules() {
    let accepted: Vec<(&str, Response)> = vec![
        (
            r#"{"refund":87.5,"spent":62.5,"bot":7,"resp":"completed","extra":[{}]}"#,
            Response::Completed {
                bot: BotId(7),
                spent: 62.5,
                refund: 87.5,
            },
        ),
        (
            r#"{"resp":"ordered","resp":"registered","bot":7,"bot":8}"#,
            Response::Ordered { bot: BotId(7) },
        ),
        // A prediction that is absent or `null` is "none yet"; an
        // ill-typed success rate is dropped, not an error.
        (
            r#"{"resp":"predicted","bot":7}"#,
            Response::Predicted {
                bot: BotId(7),
                prediction: None,
            },
        ),
        (
            r#"{"resp":"predicted","bot":7,"prediction":null,"prediction":{"alpha":1}}"#,
            Response::Predicted {
                bot: BotId(7),
                prediction: None,
            },
        ),
        (
            r#"{"prediction":{"success_rate":"high","alpha":1.5,"alpha":2,"completion_secs":10,"more":1},"resp":"predicted","bot":7}"#,
            Response::Predicted {
                bot: BotId(7),
                prediction: Some(Prediction {
                    completion_secs: 10.0,
                    success_rate: None,
                    alpha: 1.5,
                }),
            },
        ),
        (
            r#"{"action":{"stop":1,"start":5,"start":6},"resp":"action","bot":7}"#,
            Response::Action {
                bot: BotId(7),
                action: CloudAction::Start(5),
            },
        ),
        (
            r#"{"resp":"error","bot":9,"message":"m","error":"unknown_bot"}"#,
            Response::Error(RequestError::UnknownBot(BotId(9))),
        ),
        (
            r#"{"resp":"error","bot":9,"message":"m A","error":"invalid"}"#,
            Response::Error(RequestError::Invalid("m A".into())),
        ),
        (
            r#"{"items":[{"resp":"error","error":"no_order"},{"items":[],"resp":"batch"}],"resp":"batch"}"#,
            Response::Batch(vec![
                Response::Error(RequestError::Credit(CreditError::NoOrder)),
                Response::Batch(vec![]),
            ]),
        ),
    ];
    for (text, expected) in accepted {
        assert_eq!(Response::from_json(text), Ok(expected), "{text}");
    }

    let rejected: &[(&str, &str)] = &[
        (r#"{}"#, "missing or invalid `resp`"),
        (r#"null"#, "missing or invalid `resp`"),
        (r#"{"resp":"shrug"}"#, "unknown response `shrug`"),
        (
            r#"{"resp":"deposited","balance":1}"#,
            "response `deposited`: missing or invalid `user`",
        ),
        (
            r#"{"resp":"deposited","user":1,"balance":"1"}"#,
            "response `deposited`: missing or invalid `balance`",
        ),
        (
            r#"{"resp":"registered"}"#,
            "response `registered`: missing or invalid `bot`",
        ),
        (
            r#"{"resp":"ordered","bot":-7}"#,
            "response `ordered`: missing or invalid `bot`",
        ),
        (
            r#"{"resp":"predicted","prediction":null}"#,
            "response `predicted`: missing or invalid `bot`",
        ),
        (
            r#"{"resp":"predicted","bot":7,"prediction":{"alpha":1}}"#,
            "response `predicted`: prediction: missing or invalid `completion_secs`",
        ),
        (
            r#"{"resp":"predicted","bot":7,"prediction":7}"#,
            "response `predicted`: prediction: missing or invalid `completion_secs`",
        ),
        (
            r#"{"resp":"predicted","bot":7,"prediction":{"completion_secs":1}}"#,
            "response `predicted`: prediction: missing or invalid `alpha`",
        ),
        (
            r#"{"resp":"action","bot":7}"#,
            "response `action`: action: missing `action`",
        ),
        (
            r#"{"resp":"action","bot":7.0,"action":42.0}"#,
            "response `action`: action: invalid cloud action Num(42.0)",
        ),
        (
            r#"{"resp":"action","bot":7,"action":"explode"}"#,
            "response `action`: action: invalid cloud action Str(\"explode\")",
        ),
        (
            r#"{"resp":"action","bot":7,"action":[true,null]}"#,
            "response `action`: action: invalid cloud action Arr([Bool(true), Null])",
        ),
        (
            r#"{"resp":"action","bot":7,"action":{"start":-1}}"#,
            "response `action`: action: missing or invalid `start`",
        ),
        (
            r#"{"resp":"completed","bot":7.0}"#,
            "response `completed`: missing or invalid `spent`",
        ),
        (
            r#"{"resp":"completed","bot":7.0,"spent":1}"#,
            "response `completed`: missing or invalid `refund`",
        ),
        (
            r#"{"resp":"batch","items":7}"#,
            "response `batch`: missing or invalid `items`",
        ),
        (
            r#"{"resp":"batch","items":[{"resp":"ordered","bot":1},{"resp":"ordered"}]}"#,
            "response `batch`: items[1]: response `ordered`: missing or invalid `bot`",
        ),
        (
            r#"{"resp":"batch","items":[{"resp":"batch","items":[{"resp":"batch","items":[{"resp":"batch","items":[{"resp":"batch","items":[{"resp":"batch","items":[{"resp":"batch","items":[{"resp":"batch","items":[{"resp":"batch","items":[{"resp":"ordered","bot":1}]}]}]}]}]}]}]}]}]}"#,
            "response `batch`: items[0]: response `batch`: items[0]: response `batch`: items[0]: response `batch`: items[0]: response `batch`: items[0]: response `batch`: items[0]: response `batch`: items[0]: response `batch`: items[0]: response `batch`: items[0]: batches nest deeper than 8",
        ),
        (
            r#"{"resp":"error"}"#,
            "response `error`: missing or invalid `error`",
        ),
        (
            r#"{"resp":"error","error":"boom"}"#,
            "unknown error code `boom`",
        ),
        (
            r#"{"resp":"error","error":"credit"}"#,
            "unknown error code `credit`",
        ),
        (
            r#"{"resp":"error","error":"unknown_bot"}"#,
            "response `error`: missing or invalid `bot`",
        ),
        (
            r#"{"resp":"error","error":"invalid","message":7}"#,
            "response `error`: missing or invalid `message`",
        ),
        (
            r#"{"resp":"error","error":"transport"}"#,
            "response `error`: missing or invalid `message`",
        ),
        (
            r#"{"resp":"ordered","bot":7"#,
            "expected `,` or `}` at byte 25",
        ),
        (r#"{"resp":"shrug","x":nul}"#, "invalid literal at byte 20"),
    ];
    for (text, expected) in rejected {
        assert_eq!(
            Response::from_json(text).as_ref().map_err(String::as_str),
            Err(*expected),
            "{text}"
        );
    }
}

#[test]
fn envelope_heads_are_checked_before_the_payload() {
    let ok = RequestEnvelope {
        id: 9,
        at: SimTime::from_millis(5),
        request: Request::Predict { bot: BotId(1) },
    };
    for text in [
        r#"{"id":9.0,"t":5.0,"req":"predict","bot":1.0}"#,
        r#"{"bot":1,"req":"predict","t":5,"id":9,"t":6,"id":10}"#,
    ] {
        assert_eq!(RequestEnvelope::from_json(text), Ok(ok.clone()), "{text}");
    }
    let rejected: &[(&str, &str)] = &[
        (r#"{"t":0.0,"req":"nope"}"#, "missing or invalid `id`"),
        (
            r#"{"id":-1,"t":0.0,"req":"nope"}"#,
            "missing or invalid `id`",
        ),
        (
            r#"{"id":"9","id":9,"t":0.0,"req":"nope"}"#,
            "missing or invalid `id`",
        ),
        (r#"{"id":9,"req":"nope"}"#, "missing or invalid `t`"),
        (r#"{"id":9,"t":0.5,"req":"nope"}"#, "missing or invalid `t`"),
        (r#"{"id":9,"t":0}"#, "missing or invalid `req`"),
        (r#"{"id":9,"t":0,"req":"nope"}"#, "unknown request `nope`"),
        (
            r#"{"id":9,"t":0,"req":"predict"}"#,
            "request `predict`: missing or invalid `bot`",
        ),
        (r#"[{"id":9}]"#, "missing or invalid `id`"),
        (r#"{"req":"nope"} x"#, "trailing garbage at byte 15"),
    ];
    for (text, expected) in rejected {
        assert_eq!(
            RequestEnvelope::from_json(text)
                .as_ref()
                .map_err(String::as_str),
            Err(*expected),
            "{text}"
        );
    }
    let rejected: &[(&str, &str)] = &[
        (r#"{"resp":"ordered","bot":1.0}"#, "missing or invalid `id`"),
        (r#"{"id":1}"#, "missing or invalid `resp`"),
        (
            r#"{"id":1,"resp":"ordered"}"#,
            "response `ordered`: missing or invalid `bot`",
        ),
    ];
    for (text, expected) in rejected {
        assert_eq!(
            ResponseEnvelope::from_json(text)
                .as_ref()
                .map_err(String::as_str),
            Err(*expected),
            "{text}"
        );
    }
    assert_eq!(
        ResponseEnvelope::from_json(r#"{"bot":1,"resp":"ordered","id":3}"#),
        Ok(ResponseEnvelope {
            id: 3,
            response: Response::Ordered { bot: BotId(1) },
        })
    );
    // A session entry is the envelope without the id.
    assert_eq!(
        decode_session_entry(r#"{"req":"predict","bot":1,"t":5}"#),
        Ok((SimTime::from_millis(5), Request::Predict { bot: BotId(1) }))
    );
    assert_eq!(
        decode_session_entry(r#"{"req":"nope"}"#),
        Err("missing or invalid `t`".into())
    );
}
