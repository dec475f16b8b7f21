//! Correlation envelopes: one request/response per frame, tagged with an
//! `id` the response echoes.
//!
//! Ids let a client pipeline several frames before reading any reply and
//! still pair replies with requests (the server answers FIFO per
//! connection, so ids double as a protocol self-check: a mismatch means
//! the stream is desynchronized and the connection must be dropped). The
//! envelope flattens into the request object — `{"id":…,"t":…,"req":…}` —
//! exactly like `spequlos::protocol::encode_session` flattens its `t`
//! tag, so envelope payloads stay line-diffable against stored session
//! transcripts.

use simcore::json::{self, Reader, Token, Writer};
use simcore::SimTime;
use spequlos::protocol::{claim_whole, claimed_whole, Request, Response};

/// One request on the wire: correlation id, service time, payload.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestEnvelope {
    /// Correlation id, echoed by the response. Client-chosen; unique per
    /// connection (monotonically increasing in [`crate::RemoteService`]).
    pub id: u64,
    /// Service time the request is handled at (`SpqService::handle`'s
    /// `now`).
    pub at: SimTime,
    /// The request itself.
    pub request: Request,
}

/// One response on the wire: the request's id plus the payload.
#[derive(Clone, Debug, PartialEq)]
pub struct ResponseEnvelope {
    /// Correlation id of the request this answers.
    pub id: u64,
    /// The response itself.
    pub response: Response,
}

impl RequestEnvelope {
    fn write_members(&self, w: &mut Writer<'_>) {
        w.key("id").num(self.id as f64);
        w.key("t").num(self.at.as_millis() as f64);
        self.request.write_members(w);
    }

    /// Appends the envelope to `out` as one JSON object (one frame
    /// payload).
    pub fn write_json(&self, out: &mut String) {
        json::write_object(out, |w| self.write_members(w));
    }

    /// [`RequestEnvelope::write_json`] into a fresh `String`.
    pub fn to_json(&self) -> String {
        json::object(|w| self.write_members(w))
    }

    /// Parses a frame payload produced by [`RequestEnvelope::to_json`].
    pub fn from_json(text: &str) -> Result<RequestEnvelope, String> {
        let (mut id, mut t) = (None, None);
        let mut claims = |key: &str, r: &mut Reader<'_>| match key {
            "id" => claim_whole(&mut id, r),
            "t" => claim_whole(&mut t, r),
            _ => false,
        };
        let request = json::read(text, |r| Request::read(r, &mut claims))?;
        Ok(RequestEnvelope {
            id: claimed_whole(id, "id")?,
            at: SimTime::from_millis(claimed_whole(t, "t")?),
            request: request?,
        })
    }
}

impl ResponseEnvelope {
    fn write_members(&self, w: &mut Writer<'_>) {
        w.key("id").num(self.id as f64);
        self.response.write_members(w);
    }

    /// Appends the envelope to `out` as one JSON object (one frame
    /// payload). The server writes replies through this into a string it
    /// keeps per connection.
    pub fn write_json(&self, out: &mut String) {
        json::write_object(out, |w| self.write_members(w));
    }

    /// [`ResponseEnvelope::write_json`] into a fresh `String`.
    pub fn to_json(&self) -> String {
        json::object(|w| self.write_members(w))
    }

    /// Parses a frame payload produced by [`ResponseEnvelope::to_json`].
    pub fn from_json(text: &str) -> Result<ResponseEnvelope, String> {
        let mut id = None;
        let mut claims = |key: &str, r: &mut Reader<'_>| key == "id" && claim_whole(&mut id, r);
        let response = json::read(text, |r| Response::read(r, &mut claims))?;
        Ok(ResponseEnvelope {
            id: claimed_whole(id, "id")?,
            response: response?,
        })
    }
}

/// Best-effort correlation id of a frame payload that failed to decode as
/// a full envelope — lets the server echo the id on its error reply so
/// the client's pairing survives a bad request. Only a payload that is
/// one well-formed JSON object has an id: after a syntax error nothing in
/// it can be trusted. One scan of the top level, nothing built.
pub fn peek_id(text: &str) -> Option<u64> {
    let mut id = None;
    let scan = json::read(text, |r| {
        let head = r.token();
        if head != Token::Obj {
            return r.skip_from(&head);
        }
        while let Some(key) = r.next_key() {
            if key != "id" || !claim_whole(&mut id, r) {
                r.skip_value();
            }
        }
    });
    scan.ok().and(id.flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spequlos::protocol::RequestError;
    use spequlos::UserId;

    #[test]
    fn request_envelopes_roundtrip_bit_identically() {
        let env = RequestEnvelope {
            id: 42,
            at: SimTime::from_secs(61),
            request: Request::Deposit {
                user: UserId(7),
                credits: 12.5,
            },
        };
        let text = env.to_json();
        assert_eq!(
            text,
            r#"{"id":42.0,"t":61000.0,"req":"deposit","user":7.0,"credits":12.5}"#
        );
        let back = RequestEnvelope::from_json(&text).expect("parses");
        assert_eq!(back, env);
        assert_eq!(back.to_json(), text, "re-encode bit-identical");
    }

    #[test]
    fn response_envelopes_roundtrip_bit_identically() {
        let env = ResponseEnvelope {
            id: 43,
            response: Response::Error(RequestError::Invalid("nope".into())),
        };
        let text = env.to_json();
        let back = ResponseEnvelope::from_json(&text).expect("parses");
        assert_eq!(back, env);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn missing_id_or_time_is_an_error_not_a_panic() {
        assert!(RequestEnvelope::from_json(r#"{"t":0.0,"req":"predict","bot":1.0}"#).is_err());
        assert!(RequestEnvelope::from_json(r#"{"id":1.0,"req":"predict","bot":1.0}"#).is_err());
        assert!(ResponseEnvelope::from_json(r#"{"resp":"ordered","bot":1.0}"#).is_err());
        assert!(RequestEnvelope::from_json("not json").is_err());
    }

    #[test]
    fn peek_id_recovers_ids_from_broken_envelopes() {
        assert_eq!(peek_id(r#"{"id":9.0,"req":"unknown_kind"}"#), Some(9));
        assert_eq!(peek_id(r#"{"req":"predict"}"#), None);
        assert_eq!(peek_id("garbage"), None);
        // The id is a member like any other: anywhere in the object, the
        // first of its name, whatever stands around it.
        let anywhere = r#"{"req":7,"x":{"id":1,"y":["\u00e9",{}]},"id":9,"id":10,"t":"never"}"#;
        assert_eq!(peek_id(anywhere), Some(9));
        assert_eq!(peek_id(r#"{"id":"9","id":9}"#), None, "first wins");
        assert_eq!(peek_id(r#"{"id":-9}"#), None);
        assert_eq!(peek_id(r#"{"id":9.5}"#), None);
    }

    /// The contract `Conn` answers bad envelopes under (PROTOCOL.md §7): a
    /// payload that is not *one well-formed JSON object* has no id — the
    /// reply then carries id 0 — however plausible an `"id"` it shows
    /// before the point where it breaks.
    #[test]
    fn only_a_well_formed_object_has_an_id() {
        for payload in [
            r#"{"id":9"#,
            r#"{"id":9,}"#,
            r#"{"id":9} trailing"#,
            r#"{"id":9}{"id":9}"#,
            r#"{"id":9,"x":"\ud800"}"#,
            r#"{"id":9,"x":[1,}"#,
            r#"{"id":9,"x":tru}"#,
            r#"{"id":9,"x":"unterminated}"#,
            r#"[{"id":9}]"#,
            r#"9"#,
            r#""id""#,
            "",
        ] {
            assert_eq!(peek_id(payload), None, "{payload}");
            assert!(RequestEnvelope::from_json(payload).is_err(), "{payload}");
        }
        let deep = format!(r#"{{"id":9,"x":{}}}"#, "[".repeat(4096));
        assert_eq!(peek_id(&deep), None, "nesting past the limit");
    }
}
