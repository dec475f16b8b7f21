//! The compact binary envelope encoding (PROTOCOL.md §5).
//!
//! This is the payload format of binary frames ([`crate::frame`] §4): an
//! envelope head — the correlation id, and a request's service time —
//! then one message body, whose codec is `spequlos::protocol`'s message
//! table, the same one the JSON path is derived from. No field names
//! travel on the wire; layout is fixed per tag, which is what makes it
//! roughly an order of magnitude cheaper to encode/decode than the JSON
//! path.
//!
//! Equivalence contract: for every envelope the JSON codec can carry,
//! `decode(encode(x)) == x`, and the decoded value re-encodes through
//! the JSON path **bit-identically** to the original's JSON — the
//! `codec_fuzz` suite pins this, batch nesting depth included. The one
//! divergence is deliberate: binary `f64`s preserve exact bits, so
//! non-finite floats survive here while the JSON path turns them into
//! `null` (§5.1); the service rejects them either way.
//!
//! Every malformed input is a typed [`BinError`] — truncation, unknown
//! tags, trailing bytes, over-deep batch nesting — never a panic: this
//! decoder sits on the listening side of the wire.

use crate::wire::{RequestEnvelope, ResponseEnvelope};
use simcore::SimTime;
use spequlos::protocol::{Binary, Rd, Request, Response};

pub use spequlos::protocol::{BinError, MAX_BATCH_DEPTH};

// ---------------------------------------------------------------------------
// Envelopes (§5.2, §5.4)
// ---------------------------------------------------------------------------

/// Appends one request envelope to `out`: `id:u64 · t:u64 (ms) ·
/// request` (§5.2).
pub fn encode_request_into(out: &mut Vec<u8>, envelope: &RequestEnvelope) {
    out.extend_from_slice(&envelope.id.to_le_bytes());
    out.extend_from_slice(&envelope.at.as_millis().to_le_bytes());
    envelope.request.encode_binary(out);
}

/// [`encode_request_into`] a fresh buffer.
pub fn encode_request(envelope: &RequestEnvelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_request_into(&mut out, envelope);
    out
}

/// Decodes a request envelope; the payload must hold exactly one (§5.2).
pub fn decode_request(payload: &[u8]) -> Result<RequestEnvelope, BinError> {
    let mut rd = Rd::new(payload);
    let envelope = RequestEnvelope {
        id: rd.u64("envelope.id")?,
        at: SimTime::from_millis(rd.u64("envelope.t")?),
        request: Request::decode_binary(&mut rd)?,
    };
    rd.finish()?;
    Ok(envelope)
}

/// Appends one response envelope to `out`: `id:u64 · response` (§5.4).
/// The server encodes replies through this straight into a connection's
/// write buffer ([`crate::frame::write_binary_frame_with`]).
pub fn encode_response_into(out: &mut Vec<u8>, envelope: &ResponseEnvelope) {
    out.extend_from_slice(&envelope.id.to_le_bytes());
    envelope.response.encode_binary(out);
}

/// [`encode_response_into`] a fresh buffer.
pub fn encode_response(envelope: &ResponseEnvelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_response_into(&mut out, envelope);
    out
}

/// Decodes a response envelope; the payload must hold exactly one (§5.4).
pub fn decode_response(payload: &[u8]) -> Result<ResponseEnvelope, BinError> {
    let mut rd = Rd::new(payload);
    let envelope = ResponseEnvelope {
        id: rd.u64("envelope.id")?,
        response: Response::decode_binary(&mut rd)?,
    };
    rd.finish()?;
    Ok(envelope)
}

/// Best-effort correlation id of a binary payload that failed to decode
/// — the envelope id travels first (§5.2), so eight readable bytes are
/// enough. The binary twin of [`crate::wire::peek_id`].
pub fn peek_id(payload: &[u8]) -> Option<u64> {
    payload.first_chunk::<8>().map(|b| u64::from_le_bytes(*b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwork::BotId;
    use spequlos::credit::CreditError;
    use spequlos::oracle::{Prediction, StrategyCombo};
    use spequlos::protocol::RequestError;
    use spequlos::{BotProgress, UserId};

    // The documented tag bytes (§5.3), independent of the message table.
    const REQ_DEPOSIT: u8 = 0x01;
    const REQ_PREDICT: u8 = 0x04;
    const REQ_BATCH: u8 = 0x07;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Deposit {
                user: UserId(1),
                credits: 1000.5,
            },
            Request::RegisterQos {
                user: UserId(u64::MAX),
                env: "g5klyo/XWHEP/BIG ünïcodé".into(),
                size: 1000,
            },
            Request::OrderQos {
                bot: BotId(0),
                credits: 150.0,
                strategy: Some(StrategyCombo::parse("9A-G-D").unwrap()),
            },
            Request::OrderQos {
                bot: BotId(1),
                credits: 10.0,
                strategy: None,
            },
            Request::Predict { bot: BotId(0) },
            Request::ReportProgress {
                bot: BotId(3),
                progress: BotProgress {
                    now: SimTime::from_secs(61),
                    size: 100,
                    completed: 7,
                    dispatched: 100,
                    queued: 2,
                    running: 91,
                    cloud_running: 2,
                },
            },
            Request::Complete { bot: BotId(0) },
            Request::Batch(vec![
                Request::Predict { bot: BotId(0) },
                Request::Complete { bot: BotId(1) },
            ]),
            Request::Batch(vec![]),
        ]
    }

    fn sample_responses() -> Vec<Response> {
        use spequlos::scheduler::CloudAction;
        vec![
            Response::Deposited {
                user: UserId(1),
                balance: 3.25,
            },
            Response::Registered { bot: BotId(7) },
            Response::Ordered { bot: BotId(7) },
            Response::Predicted {
                bot: BotId(7),
                prediction: Some(Prediction {
                    completion_secs: 1234.5,
                    success_rate: Some(0.75),
                    alpha: 1.1,
                }),
            },
            Response::Predicted {
                bot: BotId(7),
                prediction: None,
            },
            Response::Action {
                bot: BotId(7),
                action: CloudAction::Start(5),
            },
            Response::Action {
                bot: BotId(7),
                action: CloudAction::StopAll,
            },
            Response::Action {
                bot: BotId(7),
                action: CloudAction::None,
            },
            Response::Completed {
                bot: BotId(7),
                spent: 62.5,
                refund: 87.5,
            },
            Response::Batch(vec![
                Response::Ordered { bot: BotId(7) },
                Response::Error(RequestError::Credit(CreditError::NoOrder)),
            ]),
            Response::Batch(vec![]),
            Response::Error(RequestError::Credit(CreditError::PoolSaturated)),
            Response::Error(RequestError::UnknownBot(BotId(9))),
            Response::Error(RequestError::Invalid("bad".into())),
            Response::Error(RequestError::Transport("connection reset".into())),
        ]
    }

    #[test]
    fn request_envelopes_roundtrip() {
        for (i, request) in sample_requests().into_iter().enumerate() {
            let envelope = RequestEnvelope {
                id: i as u64 * 7919,
                at: SimTime::from_millis(i as u64 * 61_000),
                request,
            };
            let bytes = encode_request(&envelope);
            let back = decode_request(&bytes).expect("decodes");
            assert_eq!(back, envelope);
            assert_eq!(encode_request(&back), bytes, "re-encode bit-identical");
        }
    }

    #[test]
    fn response_envelopes_roundtrip() {
        for (i, response) in sample_responses().into_iter().enumerate() {
            let envelope = ResponseEnvelope {
                id: i as u64,
                response,
            };
            let bytes = encode_response(&envelope);
            let back = decode_response(&bytes).expect("decodes");
            assert_eq!(back, envelope);
            assert_eq!(encode_response(&back), bytes, "re-encode bit-identical");
        }
    }

    #[test]
    fn decoded_binary_reencodes_json_identically() {
        // The §5 equivalence contract: going through the binary codec
        // must not perturb what the JSON codec would have carried.
        for (i, request) in sample_requests().into_iter().enumerate() {
            let envelope = RequestEnvelope {
                id: i as u64,
                at: SimTime::from_secs(i as u64),
                request,
            };
            let json_direct = envelope.to_json();
            let through_binary = decode_request(&encode_request(&envelope)).expect("decodes");
            assert_eq!(through_binary.to_json(), json_direct);
        }
        for (i, response) in sample_responses().into_iter().enumerate() {
            let envelope = ResponseEnvelope {
                id: i as u64,
                response,
            };
            let json_direct = envelope.to_json();
            let through_binary = decode_response(&encode_response(&envelope)).expect("decodes");
            assert_eq!(through_binary.to_json(), json_direct);
        }
    }

    #[test]
    fn layout_is_the_documented_bytes() {
        // §5.2/§5.3 worked example: Deposit{user:2, credits:1.0} at id 1,
        // t 1000 ms. 8 id bytes, 8 t bytes, tag 0x01, 8 user bytes,
        // 8 credit bytes = 33 bytes total.
        let envelope = RequestEnvelope {
            id: 1,
            at: SimTime::from_millis(1000),
            request: Request::Deposit {
                user: UserId(2),
                credits: 1.0,
            },
        };
        let bytes = encode_request(&envelope);
        assert_eq!(bytes.len(), 33);
        assert_eq!(&bytes[..8], &1u64.to_le_bytes());
        assert_eq!(&bytes[8..16], &1000u64.to_le_bytes());
        assert_eq!(bytes[16], REQ_DEPOSIT);
        assert_eq!(&bytes[17..25], &2u64.to_le_bytes());
        assert_eq!(&bytes[25..33], &1.0f64.to_bits().to_le_bytes());
    }

    #[test]
    fn truncations_error_never_panic() {
        for request in sample_requests() {
            let bytes = encode_request(&RequestEnvelope {
                id: 9,
                at: SimTime::from_secs(1),
                request,
            });
            for cut in 0..bytes.len() {
                assert!(decode_request(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
        for response in sample_responses() {
            let bytes = encode_response(&ResponseEnvelope { id: 9, response });
            for cut in 0..bytes.len() {
                assert!(decode_response(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_unknown_tags_and_lying_counts_are_rejected() {
        let mut bytes = encode_request(&RequestEnvelope {
            id: 1,
            at: SimTime::ZERO,
            request: Request::Predict { bot: BotId(2) },
        });
        bytes.push(0x00);
        assert_eq!(decode_request(&bytes), Err(BinError::Trailing(1)));

        let mut bad_tag = vec![0u8; 16];
        bad_tag.push(0xee);
        assert_eq!(
            decode_request(&bad_tag),
            Err(BinError::BadTag("request", 0xee))
        );

        // A batch claiming 4 billion items is refused before allocation.
        let mut lying = vec![0u8; 16];
        lying.push(REQ_BATCH);
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_request(&lying),
            Err(BinError::Oversized("batch.items"))
        );
    }

    #[test]
    fn over_deep_batch_nesting_is_refused() {
        // A hostile frame of nested batch tags must hit the depth cap,
        // not the stack guard (§5.3).
        let mut bytes = vec![0u8; 16];
        for _ in 0..(MAX_BATCH_DEPTH + 2) {
            bytes.push(REQ_BATCH);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(REQ_PREDICT);
        bytes.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(decode_request(&bytes), Err(BinError::TooDeep));
    }

    #[test]
    fn peek_id_reads_the_leading_eight_bytes() {
        let envelope = RequestEnvelope {
            id: 0xDEAD_BEEF,
            at: SimTime::ZERO,
            request: Request::Predict { bot: BotId(0) },
        };
        assert_eq!(peek_id(&encode_request(&envelope)), Some(0xDEAD_BEEF));
        assert_eq!(peek_id(&[1, 2, 3]), None);
    }

    #[test]
    fn non_finite_floats_survive_binary_but_not_json() {
        // §5.1: binary carries exact bits; the JSON path nulls them out.
        let envelope = RequestEnvelope {
            id: 1,
            at: SimTime::ZERO,
            request: Request::Deposit {
                user: UserId(1),
                credits: f64::INFINITY,
            },
        };
        let back = decode_request(&encode_request(&envelope)).expect("decodes");
        assert_eq!(back, envelope);
        assert!(RequestEnvelope::from_json(&envelope.to_json()).is_err());
    }
}
