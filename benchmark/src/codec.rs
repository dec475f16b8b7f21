//! The benchmark's side of the wire: it frames its own request bytes
//! (PROTOCOL.md §3–§4) and splits reply frames without decoding them, so
//! the timed loop costs the generator as little as possible.
//!
//! Payloads are produced and checked by the server crate's public
//! codecs (`binary::encode_*`, envelope `to_json`); only the framing is
//! reimplemented here, and it is pinned against `decode_*_frame` by test.

use spq_server::{binary, Codec, RequestEnvelope, ResponseEnvelope};

/// Appends one frame holding `payload` to `out`.
pub fn frame_into(codec: Codec, payload: &[u8], out: &mut Vec<u8>) {
    match codec {
        Codec::Binary => {
            let len = u32::try_from(payload.len()).expect("frame payload fits u32");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(payload);
        }
        Codec::Json => {
            out.extend_from_slice(payload.len().to_string().as_bytes());
            out.push(b'\n');
            out.extend_from_slice(payload);
            out.push(b'\n');
        }
    }
}

/// Appends the frame of one request envelope to `out`.
pub fn request_frame_into(codec: Codec, envelope: &RequestEnvelope, out: &mut Vec<u8>) {
    match codec {
        Codec::Binary => frame_into(codec, &binary::encode_request(envelope), out),
        Codec::Json => frame_into(codec, envelope.to_json().as_bytes(), out),
    }
}

/// Appends the frame the server sends for one response envelope.
pub fn response_frame_into(codec: Codec, envelope: &ResponseEnvelope, out: &mut Vec<u8>) {
    match codec {
        Codec::Binary => frame_into(codec, &binary::encode_response(envelope), out),
        Codec::Json => frame_into(codec, envelope.to_json().as_bytes(), out),
    }
}

/// One reply frame found at the front of a read buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    /// Bytes the whole frame occupies.
    pub len: usize,
    /// The correlation id the reply echoes.
    pub id: u64,
    /// Whether the reply is, or for a batch contains, an error response.
    pub is_error: bool,
}

/// Why a reply stream could not be split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Malformed;

const RESP_ERROR_TAG: u8 = 0x88; // PROTOCOL.md §5.5
const RESP_BATCH_TAG: u8 = 0x87;
const JSON_ID_PREFIX: &[u8] = b"{\"id\":";
const JSON_ERROR_MARK: &[u8] = b"\"resp\":\"error\"";

/// Splits the first complete reply frame off `buf`; `Ok(None)` while the
/// frame is still incomplete.
pub fn split_reply(codec: Codec, buf: &[u8]) -> Result<Option<Reply>, Malformed> {
    match codec {
        Codec::Binary => split_binary(buf),
        Codec::Json => split_json(buf),
    }
}

fn split_binary(buf: &[u8]) -> Result<Option<Reply>, Malformed> {
    let Some(header) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = 4 + u32::from_le_bytes(*header) as usize;
    let Some(frame) = buf.get(..len) else {
        return Ok(None);
    };
    // Envelope: id u64, then the response tag (§5.4).
    let (Some(id), Some(&tag)) = (frame[4..].first_chunk::<8>(), frame.get(12)) else {
        return Err(Malformed);
    };
    // A batch reply carries its items' tags inside; this benchmark sends
    // binary batches nowhere, so a batch tag only needs to be refused.
    if tag == RESP_BATCH_TAG {
        return Err(Malformed);
    }
    Ok(Some(Reply {
        len,
        id: u64::from_le_bytes(*id),
        is_error: tag == RESP_ERROR_TAG,
    }))
}

fn split_json(buf: &[u8]) -> Result<Option<Reply>, Malformed> {
    let Some(newline) = buf.iter().take(11).position(|&b| b == b'\n') else {
        return if buf.len() > 10 {
            Err(Malformed)
        } else {
            Ok(None)
        };
    };
    let mut declared = 0usize;
    for &b in &buf[..newline] {
        if !b.is_ascii_digit() {
            return Err(Malformed);
        }
        declared = declared * 10 + usize::from(b - b'0');
    }
    if newline == 0 {
        return Err(Malformed);
    }
    let len = newline + 1 + declared + 1;
    let Some(frame) = buf.get(..len) else {
        return Ok(None);
    };
    let payload = &frame[newline + 1..len - 1];
    if frame[len - 1] != b'\n' || !payload.starts_with(JSON_ID_PREFIX) {
        return Err(Malformed);
    }
    // The id is written as a float with a zero fraction: `{"id":42.0,`.
    let mut id = 0u64;
    for &b in &payload[JSON_ID_PREFIX.len()..] {
        if !b.is_ascii_digit() {
            break;
        }
        id = id * 10 + u64::from(b - b'0');
    }
    let is_error = payload
        .windows(JSON_ERROR_MARK.len())
        .any(|w| w == JSON_ERROR_MARK);
    Ok(Some(Reply { len, id, is_error }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spequlos::protocol::{RequestError, Response};
    use spequlos::UserId;
    use spq_server::frame::{decode_binary_frame, decode_json_frame, MAX_FRAME_BYTES};

    fn replies() -> Vec<ResponseEnvelope> {
        vec![
            ResponseEnvelope {
                id: 0,
                response: Response::Deposited {
                    user: UserId(1),
                    balance: 12.5,
                },
            },
            ResponseEnvelope {
                id: 41,
                response: Response::Error(RequestError::Invalid("nope".into())),
            },
            ResponseEnvelope {
                id: 1_000_000,
                response: Response::Ordered {
                    bot: botwork::BotId(7),
                },
            },
        ]
    }

    #[test]
    fn the_splitter_agrees_with_the_servers_frame_decoders() {
        for codec in [Codec::Binary, Codec::Json] {
            let mut stream = Vec::new();
            for env in replies() {
                response_frame_into(codec, &env, &mut stream);
            }
            let mut at = 0;
            for env in replies() {
                let reply = split_reply(codec, &stream[at..])
                    .expect("well formed")
                    .expect("complete");
                let consumed = match codec {
                    Codec::Binary => {
                        decode_binary_frame(&stream[at..], MAX_FRAME_BYTES)
                            .expect("decodes")
                            .expect("complete")
                            .1
                    }
                    Codec::Json => {
                        decode_json_frame(&stream[at..], MAX_FRAME_BYTES)
                            .expect("decodes")
                            .expect("complete")
                            .1
                    }
                };
                assert_eq!(reply.len, consumed, "{codec}");
                assert_eq!(reply.id, env.id, "{codec}");
                assert_eq!(
                    reply.is_error,
                    matches!(env.response, Response::Error(_)),
                    "{codec}"
                );
                // Every strict prefix of the frame is "incomplete", never
                // a shorter frame.
                for cut in 0..reply.len {
                    assert_eq!(split_reply(codec, &stream[at..at + cut]), Ok(None));
                }
                at += reply.len;
            }
            assert_eq!(at, stream.len());
        }
    }

    #[test]
    fn a_json_batch_reply_with_one_failed_item_counts_as_an_error() {
        let env = ResponseEnvelope {
            id: 3,
            response: Response::Batch(vec![
                Response::Ordered {
                    bot: botwork::BotId(1),
                },
                Response::Error(RequestError::UnknownBot(botwork::BotId(9))),
            ]),
        };
        let mut stream = Vec::new();
        response_frame_into(Codec::Json, &env, &mut stream);
        let reply = split_reply(Codec::Json, &stream).unwrap().unwrap();
        assert!(reply.is_error);
        assert_eq!(reply.id, 3);
    }

    #[test]
    fn garbage_is_malformed_not_a_frame() {
        assert_eq!(split_reply(Codec::Json, b"xx\n{}\n"), Err(Malformed));
        assert_eq!(split_reply(Codec::Json, b"12345678901"), Err(Malformed));
        assert_eq!(
            split_reply(Codec::Binary, &[2, 0, 0, 0, 1, 2]),
            Err(Malformed)
        );
    }
}
