//! The versioned wire protocol — **one** definition of the request,
//! response and error shapes every transport speaks.
//!
//! The JSON-lines stdin CLI and the TCP/HTTP front-end ([`crate::net`])
//! both encode and decode through this module, so they produce
//! byte-identical bodies for the same request stream (asserted by the
//! conformance test) and the CLI is a thin transport around the same
//! protocol the network tier serves.
//!
//! ## Shapes (protocol version 1)
//!
//! Request — one JSON object per line/body:
//!
//! ```text
//! {"user": 17, "m": 5}            warm user by internal row index
//! {"basket": [0, 4, 9], "m": 5}   cold-start basket of internal items
//! {"user_id": 90210}              warm user by external id
//! {"basket_ids": [1193, 661]}     cold-start basket of external ids
//! ```
//!
//! plus an optional `"v": 1` version pin. Exactly one addressing key is
//! required; unknown fields are rejected (`bad_request`), and a `v` other
//! than [`PROTOCOL_VERSION`] is rejected (`unsupported_version`) — the
//! versioning rule is that v1 shapes never change, and any breaking
//! revision bumps the version and keeps decoding pinned v1 requests.
//!
//! Success response — request echo, then the served list:
//!
//! ```text
//! {"user":17,"items":[3,9],"item_ids":[503,527],"probs":[0.91,0.83],
//!  "scored":104,"fallback":false}
//! ```
//!
//! (`item_ids` present exactly when the engine has id maps; cold requests
//! echo `"cold":true`, external warm requests echo `"user_id"`.)
//!
//! Three v1-additive trailing fields carry live-refresh telemetry:
//! `"folded_in":true` when a warm user newer than the active snapshot was
//! served by request-time fold-in (absent means false), and
//! `"model_generation"` / `"kind"` identify the model that answered —
//! what lets a client observe a hot swap land. A fourth additive field,
//! `"dtype"`, names the quantized scoring representation (`"f32"` /
//! `"int8"`) when the engine serves one; absent means the f64 master.
//! Additive means the v1 shape is unchanged: decoders that ignore unknown
//! fields keep working, and the version stays `"v": 1`.
//!
//! Error response — a typed taxonomy mapped from
//! [`OcularError`], message first for human eyes, machine-readable code
//! second:
//!
//! ```text
//! {"error":"unknown user 99 (model has 4 users)","code":"unknown_user"}
//! ```

use crate::engine::{Request, ServedList};
use crate::json::{obj, Json};
use ocular_api::OcularError;

/// The current wire-protocol version; requests may pin it with `"v"`.
pub const PROTOCOL_VERSION: u64 = 1;

/// The machine-readable error taxonomy of the wire protocol.
///
/// Request-shape failures get [`ErrorCode::BadRequest`] /
/// [`ErrorCode::UnsupportedVersion`], admission control sheds load with
/// [`ErrorCode::Overloaded`], and engine failures map from
/// [`OcularError`] (see [`WireError::from`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The request line/body was not a valid v1 request object.
    BadRequest,
    /// The request pinned a `"v"` this server does not speak.
    UnsupportedVersion,
    /// A warm request named a user the model does not have.
    UnknownUser,
    /// A request named an item outside the catalog.
    UnknownItem,
    /// An external id was never seen at ingestion time.
    UnknownId,
    /// A cold-start basket was unusable (out of range, duplicates).
    BadBasket,
    /// The model kind lacks the requested capability (e.g. fold-in).
    Unsupported,
    /// Admission control shed the request: the pending queue was full.
    Overloaded,
    /// A control-plane reload is already in flight (one at a time).
    Reloading,
    /// Any other engine failure (I/O, corruption, shape mismatch).
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownUser => "unknown_user",
            ErrorCode::UnknownItem => "unknown_item",
            ErrorCode::UnknownId => "unknown_id",
            ErrorCode::BadBasket => "bad_basket",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Reloading => "reloading",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire spelling back (decode side).
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "unknown_user" => ErrorCode::UnknownUser,
            "unknown_item" => ErrorCode::UnknownItem,
            "unknown_id" => ErrorCode::UnknownId,
            "bad_basket" => ErrorCode::BadBasket,
            "unsupported" => ErrorCode::Unsupported,
            "overloaded" => ErrorCode::Overloaded,
            "reloading" => ErrorCode::Reloading,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// The HTTP status the TCP front-end answers this code with (the
    /// stdin CLI has no status line — the body alone is the contract).
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::BadRequest | ErrorCode::UnsupportedVersion | ErrorCode::BadBasket => 400,
            ErrorCode::UnknownUser | ErrorCode::UnknownItem | ErrorCode::UnknownId => 404,
            ErrorCode::Unsupported => 501,
            ErrorCode::Overloaded => 429,
            ErrorCode::Reloading => 503,
            ErrorCode::Internal => 500,
        }
    }
}

/// A typed wire error: taxonomy code plus the human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Machine-readable taxonomy entry.
    pub code: ErrorCode,
    /// Human-readable description (for engine failures, the rendered
    /// [`OcularError`]).
    pub message: String,
}

impl WireError {
    /// A malformed-request error.
    pub fn bad_request(message: impl Into<String>) -> WireError {
        WireError {
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }

    /// The control-plane busy response: a reload is already in flight.
    pub fn reloading() -> WireError {
        WireError {
            code: ErrorCode::Reloading,
            message: "reload already in flight; retry after it completes".into(),
        }
    }

    /// The admission-control shed response.
    pub fn overloaded(pending: usize, cap: usize) -> WireError {
        WireError {
            code: ErrorCode::Overloaded,
            message: format!(
                "overloaded: admission queue full ({pending} pending, capacity {cap})"
            ),
        }
    }

    /// Encodes as the wire JSON object.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("error", Json::Str(self.message.clone())),
            ("code", Json::Str(self.code.as_str().to_string())),
        ])
    }

    /// Decodes the wire JSON object (tests, the repo benchmark's client).
    pub fn from_json(v: &Json) -> Result<WireError, String> {
        let message = v
            .get("error")
            .and_then(Json::as_str)
            .ok_or("error object needs a string `error` field")?
            .to_string();
        let code = v
            .get("code")
            .and_then(Json::as_str)
            .ok_or("error object needs a string `code` field")?;
        Ok(WireError {
            code: ErrorCode::parse(code).ok_or_else(|| format!("unknown error code `{code}`"))?,
            message,
        })
    }
}

impl From<&OcularError> for WireError {
    /// The one taxonomy mapping from engine errors to wire codes.
    fn from(e: &OcularError) -> WireError {
        let code = match e {
            OcularError::UnknownUser { .. } => ErrorCode::UnknownUser,
            OcularError::UnknownItem { .. } => ErrorCode::UnknownItem,
            OcularError::UnknownExternalId { .. } => ErrorCode::UnknownId,
            OcularError::BadBasket(_) => ErrorCode::BadBasket,
            OcularError::Unsupported { .. } => ErrorCode::Unsupported,
            // InvalidConfig / ShapeMismatch / Corrupt / Io / … cannot be
            // provoked by a well-formed request, so they are server faults
            _ => ErrorCode::Internal,
        };
        WireError {
            code,
            message: e.to_string(),
        }
    }
}

/// A decoded v1 request (the engine [`Request`] plus nothing — the wire
/// shape carries no transport concerns).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// The engine-level request.
    pub request: Request,
}

impl WireRequest {
    /// Decodes one request line/body. `m` defaults to 0, which the engine
    /// resolves to its configured `default_m`.
    pub fn decode(text: &str) -> Result<WireRequest, WireError> {
        let v = Json::parse(text).map_err(WireError::bad_request)?;
        let fields = match &v {
            Json::Obj(fields) => fields,
            _ => return Err(WireError::bad_request("request must be a JSON object")),
        };
        // strict v1: unknown fields are rejected so typos fail loudly
        // instead of silently serving defaults
        for (key, _) in fields {
            match key.as_str() {
                "v" | "m" | "user" | "basket" | "user_id" | "basket_ids" => {}
                other => {
                    return Err(WireError::bad_request(format!(
                        "unknown request field `{other}`"
                    )))
                }
            }
        }
        if let Some(ver) = v.get("v") {
            let ver = ver
                .as_u64()
                .ok_or_else(|| WireError::bad_request("`v` must be a non-negative integer"))?;
            if ver != PROTOCOL_VERSION {
                return Err(WireError {
                    code: ErrorCode::UnsupportedVersion,
                    message: format!(
                        "protocol version {ver} not supported (this server speaks v{PROTOCOL_VERSION})"
                    ),
                });
            }
        }
        let m = match v.get("m") {
            None => 0,
            Some(j) => j
                .as_usize()
                .ok_or_else(|| WireError::bad_request("`m` must be a non-negative integer"))?,
        };
        let keys = [
            v.get("user"),
            v.get("basket"),
            v.get("user_id"),
            v.get("basket_ids"),
        ];
        if keys.iter().filter(|k| k.is_some()).count() != 1 {
            return Err(WireError::bad_request(
                "request needs exactly one of `user`, `basket`, `user_id` or `basket_ids`",
            ));
        }
        let request = if let Some(u) = v.get("user") {
            Request::Warm {
                user: u.as_usize().ok_or_else(|| {
                    WireError::bad_request("`user` must be a non-negative integer")
                })?,
                m,
            }
        } else if let Some(b) = v.get("basket") {
            let items = b
                .as_array()
                .ok_or_else(|| WireError::bad_request("`basket` must be an array"))?;
            Request::Cold {
                basket: items
                    .iter()
                    .map(|j| {
                        j.as_usize().ok_or_else(|| {
                            WireError::bad_request("basket items must be non-negative integers")
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                m,
            }
        } else if let Some(u) = v.get("user_id") {
            Request::WarmExternal {
                user: u.as_u64().ok_or_else(|| {
                    WireError::bad_request("`user_id` must be a non-negative integer below 2^53")
                })?,
                m,
            }
        } else {
            let b = v.get("basket_ids").expect("one key is present");
            let items = b
                .as_array()
                .ok_or_else(|| WireError::bad_request("`basket_ids` must be an array"))?;
            Request::ColdExternal {
                basket: items
                    .iter()
                    .map(|j| {
                        j.as_u64().ok_or_else(|| {
                            WireError::bad_request(
                                "basket ids must be non-negative integers below 2^53",
                            )
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                m,
            }
        };
        Ok(WireRequest { request })
    }

    /// Encodes back to the v1 wire shape (round-trip tests). Always pins `"v"` and spells `m` explicitly.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("v", Json::Int(PROTOCOL_VERSION))];
        let m = match &self.request {
            Request::Warm { user, m } => {
                fields.push(("user", Json::Num(*user as f64)));
                *m
            }
            Request::Cold { basket, m } => {
                fields.push((
                    "basket",
                    Json::Arr(basket.iter().map(|&i| Json::Num(i as f64)).collect()),
                ));
                *m
            }
            Request::WarmExternal { user, m } => {
                fields.push(("user_id", Json::Int(*user)));
                *m
            }
            Request::ColdExternal { basket, m } => {
                fields.push((
                    "basket_ids",
                    Json::Arr(basket.iter().map(|&i| Json::Int(i)).collect()),
                ));
                *m
            }
        };
        fields.push(("m", Json::Num(m as f64)));
        obj(fields)
    }

    /// [`WireRequest::to_json`] as a single line.
    pub fn encode(&self) -> String {
        self.to_json().to_string()
    }
}

/// What a success response echoes about the request it answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Echo {
    /// Warm request by internal row: `"user": n`.
    User(usize),
    /// Warm request by external id: `"user_id": n`.
    UserId(u64),
    /// Cold-start request: `"cold": true`.
    Cold,
}

/// A decoded success response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The request echo.
    pub echo: Echo,
    /// Served items as internal indices, score descending.
    pub items: Vec<usize>,
    /// Served items as external ids — present exactly when the serving
    /// dataset carries id maps.
    pub item_ids: Option<Vec<u64>>,
    /// Membership probabilities, aligned with `items`.
    pub probs: Vec<f64>,
    /// How many items were scored for this request.
    pub scored: usize,
    /// Whether candidate generation fell back to the full catalog.
    pub fallback: bool,
    /// Whether a warm request was answered by request-time fold-in
    /// because the user is newer than the active snapshot. Encoded only
    /// when true (v1 additive field — absent means false).
    pub folded_in: bool,
    /// Generation of the model that served this request (v1 additive
    /// field, present when the engine knows it).
    pub model_generation: Option<u64>,
    /// Kind tag of the model that served this request (v1 additive
    /// field, present when the engine knows it).
    pub kind: Option<String>,
    /// Quantized scoring dtype (`"f32"` / `"int8"`) that answered this
    /// request (v1 additive field, present only when the engine scores
    /// through a quantized representation — absent means the f64 master).
    pub dtype: Option<String>,
}

impl WireResponse {
    /// Builds the response for a served request. `external_item` supplies
    /// the internal→external translation when the engine has id maps.
    pub fn new(
        req: &Request,
        list: &ServedList,
        external_item: Option<&dyn Fn(usize) -> u64>,
    ) -> WireResponse {
        let echo = match req {
            Request::Warm { user, .. } => Echo::User(*user),
            Request::WarmExternal { user, .. } => Echo::UserId(*user),
            Request::Cold { .. } | Request::ColdExternal { .. } => Echo::Cold,
        };
        let items: Vec<usize> = list.items.iter().map(|r| r.item).collect();
        WireResponse {
            echo,
            item_ids: external_item.map(|f| items.iter().map(|&i| f(i)).collect()),
            probs: list.items.iter().map(|r| r.probability).collect(),
            items,
            scored: list.scored,
            fallback: list.fell_back,
            folded_in: list.folded_in,
            model_generation: None,
            kind: None,
            dtype: None,
        }
    }

    /// Stamps the serving engine's identity — model generation and kind —
    /// into the response (what lets clients observe a hot swap land).
    pub fn with_model(mut self, generation: u64, kind: &str) -> WireResponse {
        self.model_generation = Some(generation);
        self.kind = Some(kind.to_string());
        self
    }

    /// Stamps the engine's quantized scoring dtype into the response
    /// (`None` — the f64 path — leaves the field off the wire).
    pub fn with_dtype(mut self, dtype: Option<&str>) -> WireResponse {
        self.dtype = dtype.map(str::to_string);
        self
    }

    /// Encodes as the wire JSON object (field order is part of the
    /// format: echo, items, item_ids?, probs, scored, fallback).
    pub fn to_json(&self) -> Json {
        let mut fields = match self.echo {
            Echo::User(u) => vec![("user", Json::Num(u as f64))],
            Echo::UserId(u) => vec![("user_id", Json::Int(u))],
            Echo::Cold => vec![("cold", Json::Bool(true))],
        };
        fields.push((
            "items",
            Json::Arr(self.items.iter().map(|&i| Json::Num(i as f64)).collect()),
        ));
        if let Some(ids) = &self.item_ids {
            fields.push((
                "item_ids",
                Json::Arr(ids.iter().map(|&i| Json::Int(i)).collect()),
            ));
        }
        fields.push((
            "probs",
            Json::Arr(self.probs.iter().map(|&p| Json::Num(p)).collect()),
        ));
        fields.push(("scored", Json::Num(self.scored as f64)));
        fields.push(("fallback", Json::Bool(self.fallback)));
        if self.folded_in {
            fields.push(("folded_in", Json::Bool(true)));
        }
        if let Some(g) = self.model_generation {
            fields.push(("model_generation", Json::Int(g)));
        }
        if let Some(kind) = &self.kind {
            fields.push(("kind", Json::Str(kind.clone())));
        }
        if let Some(dtype) = &self.dtype {
            fields.push(("dtype", Json::Str(dtype.clone())));
        }
        obj(fields)
    }

    /// Decodes the wire JSON object (tests, the repo benchmark's client). External ids
    /// at or above 2^53 cannot be recovered from JSON numbers and are
    /// rejected, mirroring the request-side rule.
    pub fn from_json(v: &Json) -> Result<WireResponse, String> {
        let echo = if let Some(u) = v.get("user") {
            Echo::User(u.as_usize().ok_or("`user` echo must be an integer")?)
        } else if let Some(u) = v.get("user_id") {
            Echo::UserId(u.as_u64().ok_or("`user_id` echo must be an integer")?)
        } else if v.get("cold").is_some() {
            Echo::Cold
        } else {
            return Err("response echoes none of `user`, `user_id`, `cold`".into());
        };
        let items = v
            .get("items")
            .and_then(Json::as_array)
            .ok_or("response needs an `items` array")?
            .iter()
            .map(|j| j.as_usize().ok_or("`items` entries must be integers"))
            .collect::<Result<Vec<_>, _>>()?;
        let item_ids = match v.get("item_ids") {
            None => None,
            Some(ids) => Some(
                ids.as_array()
                    .ok_or("`item_ids` must be an array")?
                    .iter()
                    .map(|j| j.as_u64().ok_or("`item_ids` entries must be integers"))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        let probs = v
            .get("probs")
            .and_then(Json::as_array)
            .ok_or("response needs a `probs` array")?
            .iter()
            .map(|j| j.as_f64().ok_or("`probs` entries must be numbers"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(WireResponse {
            echo,
            items,
            item_ids,
            probs,
            scored: v
                .get("scored")
                .and_then(Json::as_usize)
                .ok_or("response needs an integer `scored`")?,
            fallback: match v.get("fallback") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("response needs a boolean `fallback`".into()),
            },
            folded_in: match v.get("folded_in") {
                None => false,
                Some(Json::Bool(b)) => *b,
                _ => return Err("`folded_in` must be a boolean".into()),
            },
            model_generation: match v.get("model_generation") {
                None => None,
                Some(g) => Some(g.as_u64().ok_or("`model_generation` must be an integer")?),
            },
            kind: match v.get("kind") {
                None => None,
                Some(k) => Some(k.as_str().ok_or("`kind` must be a string")?.to_string()),
            },
            dtype: match v.get("dtype") {
                None => None,
                Some(d) => Some(d.as_str().ok_or("`dtype` must be a string")?.to_string()),
            },
        })
    }
}

/// One wire reply — success or typed error — with a single encoding used
/// by every transport.
#[derive(Debug, Clone, PartialEq)]
pub enum WireReply {
    /// A served list.
    Ok(WireResponse),
    /// A typed failure.
    Err(WireError),
}

impl WireReply {
    /// The one-line JSON encoding (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            WireReply::Ok(r) => r.to_json().to_string(),
            WireReply::Err(e) => e.to_json().to_string(),
        }
    }

    /// Decodes a reply line: objects with an `error` field are errors,
    /// everything else must parse as a success response.
    pub fn decode(text: &str) -> Result<WireReply, String> {
        let v = Json::parse(text)?;
        if v.get("error").is_some() {
            Ok(WireReply::Err(WireError::from_json(&v)?))
        } else {
            Ok(WireReply::Ok(WireResponse::from_json(&v)?))
        }
    }

    /// The HTTP status the TCP front-end pairs with this body.
    pub fn http_status(&self) -> u16 {
        match self {
            WireReply::Ok(_) => 200,
            WireReply::Err(e) => e.code.http_status(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_core::Recommendation;

    #[test]
    fn decodes_all_request_shapes() {
        let r = WireRequest::decode(r#"{"user": 17, "m": 5}"#).unwrap();
        assert_eq!(r.request, Request::Warm { user: 17, m: 5 });
        let r = WireRequest::decode(r#"{"basket": [0, 4, 9]}"#).unwrap();
        assert_eq!(
            r.request,
            Request::Cold {
                basket: vec![0, 4, 9],
                m: 0
            }
        );
        let r = WireRequest::decode(r#"{"v": 1, "user_id": 90210}"#).unwrap();
        assert_eq!(r.request, Request::WarmExternal { user: 90210, m: 0 });
        let r = WireRequest::decode(r#"{"basket_ids": [1193, 661], "m": 2}"#).unwrap();
        assert_eq!(
            r.request,
            Request::ColdExternal {
                basket: vec![1193, 661],
                m: 2
            }
        );
    }

    #[test]
    fn rejects_malformed_requests_with_typed_codes() {
        for (text, code) in [
            ("{", ErrorCode::BadRequest),
            ("[]", ErrorCode::BadRequest),
            (r#"{"user": 1, "basket": [2]}"#, ErrorCode::BadRequest),
            (r#"{"m": 3}"#, ErrorCode::BadRequest),
            (r#"{"user": -1}"#, ErrorCode::BadRequest),
            (r#"{"user": 1, "extra": true}"#, ErrorCode::BadRequest),
            (r#"{"v": 2, "user": 1}"#, ErrorCode::UnsupportedVersion),
            (r#"{"v": "x", "user": 1}"#, ErrorCode::BadRequest),
        ] {
            let err = WireRequest::decode(text).unwrap_err();
            assert_eq!(err.code, code, "`{text}`");
        }
    }

    #[test]
    fn request_encode_decode_round_trips() {
        for req in [
            Request::Warm { user: 3, m: 7 },
            Request::Cold {
                basket: vec![1, 5],
                m: 0,
            },
            Request::WarmExternal {
                user: (1 << 53) - 1,
                m: 1,
            },
            Request::ColdExternal {
                basket: vec![0, 99],
                m: 4,
            },
        ] {
            let wire = WireRequest {
                request: req.clone(),
            };
            assert_eq!(WireRequest::decode(&wire.encode()).unwrap().request, req);
        }
    }

    #[test]
    fn response_round_trips_and_orders_fields() {
        let list = ServedList {
            items: vec![
                Recommendation {
                    item: 9,
                    probability: 0.75,
                },
                Recommendation {
                    item: 3,
                    probability: 0.25,
                },
            ],
            scored: 42,
            fell_back: true,
            folded_in: false,
        };
        let resp = WireResponse::new(&Request::Warm { user: 7, m: 2 }, &list, None);
        let line = WireReply::Ok(resp.clone()).encode();
        assert_eq!(
            line,
            r#"{"user":7,"items":[9,3],"probs":[0.75,0.25],"scored":42,"fallback":true}"#
        );
        assert_eq!(WireReply::decode(&line).unwrap(), WireReply::Ok(resp));

        // with id maps: item_ids appear between items and probs
        let resp = WireResponse::new(
            &Request::WarmExternal { user: 1007, m: 2 },
            &list,
            Some(&|i| 500 + 3 * i as u64),
        );
        let line = WireReply::Ok(resp.clone()).encode();
        assert_eq!(
            line,
            r#"{"user_id":1007,"items":[9,3],"item_ids":[527,509],"probs":[0.75,0.25],"scored":42,"fallback":true}"#
        );
        assert_eq!(WireReply::decode(&line).unwrap(), WireReply::Ok(resp));
    }

    #[test]
    fn error_taxonomy_maps_and_round_trips() {
        let cases = [
            (
                OcularError::UnknownUser {
                    user: 9,
                    n_users: 4,
                },
                ErrorCode::UnknownUser,
                404,
            ),
            (
                OcularError::UnknownExternalId {
                    external: 7,
                    entity: "user",
                },
                ErrorCode::UnknownId,
                404,
            ),
            (
                OcularError::BadBasket("duplicate items".into()),
                ErrorCode::BadBasket,
                400,
            ),
            (
                OcularError::Unsupported {
                    kind: "user-knn",
                    capability: "cold-start fold-in",
                },
                ErrorCode::Unsupported,
                501,
            ),
            (
                OcularError::Io("disk on fire".into()),
                ErrorCode::Internal,
                500,
            ),
        ];
        for (engine_err, code, status) in cases {
            let wire = WireError::from(&engine_err);
            assert_eq!(wire.code, code);
            assert_eq!(wire.message, engine_err.to_string());
            assert_eq!(wire.code.http_status(), status);
            let line = WireReply::Err(wire.clone()).encode();
            assert_eq!(WireReply::decode(&line).unwrap(), WireReply::Err(wire));
        }
        let shed = WireError::overloaded(128, 128);
        assert_eq!(shed.code.http_status(), 429);
        assert!(shed.message.contains("128 pending"));
    }

    #[test]
    fn live_refresh_fields_are_additive_and_round_trip() {
        let list = ServedList {
            items: vec![Recommendation {
                item: 4,
                probability: 0.5,
            }],
            scored: 10,
            fell_back: false,
            folded_in: true,
        };
        let resp = WireResponse::new(&Request::Warm { user: 91, m: 1 }, &list, None)
            .with_model(7, "ocular");
        let line = WireReply::Ok(resp.clone()).encode();
        assert_eq!(
            line,
            r#"{"user":91,"items":[4],"probs":[0.5],"scored":10,"fallback":false,"folded_in":true,"model_generation":7,"kind":"ocular"}"#
        );
        assert_eq!(WireReply::decode(&line).unwrap(), WireReply::Ok(resp));

        // absent fields decode to their defaults — pre-refresh responses
        // still parse
        let old = r#"{"user":91,"items":[4],"probs":[0.5],"scored":10,"fallback":false}"#;
        let WireReply::Ok(decoded) = WireReply::decode(old).unwrap() else {
            panic!("expected success reply");
        };
        assert!(!decoded.folded_in);
        assert_eq!(decoded.model_generation, None);
        assert_eq!(decoded.kind, None);
        assert_eq!(decoded.dtype, None);
    }

    #[test]
    fn dtype_field_is_additive_and_round_trips() {
        let list = ServedList {
            items: vec![Recommendation {
                item: 2,
                probability: 0.5,
            }],
            scored: 10,
            fell_back: false,
            folded_in: false,
        };
        let resp = WireResponse::new(&Request::Warm { user: 1, m: 1 }, &list, None)
            .with_model(4, "ocular")
            .with_dtype(Some("int8"));
        let line = WireReply::Ok(resp.clone()).encode();
        assert_eq!(
            line,
            r#"{"user":1,"items":[2],"probs":[0.5],"scored":10,"fallback":false,"model_generation":4,"kind":"ocular","dtype":"int8"}"#
        );
        assert_eq!(
            WireReply::decode(&line).unwrap(),
            WireReply::Ok(resp.clone())
        );
        // the f64 path leaves the field off the wire entirely
        let bare = resp.with_dtype(None);
        assert!(!WireReply::Ok(bare).encode().contains("dtype"));
    }

    #[test]
    fn reloading_code_maps_to_503_and_round_trips() {
        let busy = WireError::reloading();
        assert_eq!(busy.code, ErrorCode::Reloading);
        assert_eq!(busy.code.http_status(), 503);
        assert_eq!(ErrorCode::parse("reloading"), Some(ErrorCode::Reloading));
        let line = WireReply::Err(busy.clone()).encode();
        assert_eq!(WireReply::decode(&line).unwrap(), WireReply::Err(busy));
    }

    #[test]
    fn error_encoding_keeps_error_field_first() {
        // jq consumers key on `.error` being the message string
        let line = WireReply::Err(WireError::bad_request("nope")).encode();
        assert_eq!(line, r#"{"error":"nope","code":"bad_request"}"#);
    }
}
