//! A minimal HTTP/1.1 codec for the serving tier — request parsing on the
//! server side, response parsing on the client side (conformance tests),
//! and response formatting shared by both.
//!
//! Deliberately small: methods/paths/headers the wire protocol needs
//! (`Content-Length` framing, `Connection` keep-alive negotiation), hard
//! limits on head and body size, no chunked encoding, no multipart. The
//! interesting bytes — the request and response bodies — are entirely
//! owned by [`crate::protocol`].

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request head plus its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target, e.g. `/recommend`.
    pub path: String,
    /// Whether the connection stays open after the response
    /// (HTTP/1.1 default yes, HTTP/1.0 default no, `Connection` header
    /// overrides either way).
    pub keep_alive: bool,
    /// The request body (`Content-Length` framed; empty when absent).
    pub body: Vec<u8>,
}

/// A framing-level failure: the HTTP status to answer with before closing
/// the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Status code (400 malformed, 413 too large, 505 bad version).
    pub status: u16,
    /// Human-readable description, sent as the response body.
    pub message: String,
}

impl HttpError {
    fn bad(message: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }
}

/// Outcome of an incremental parse attempt over a connection's read
/// buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseOutcome {
    /// The buffer does not yet hold a complete request; read more.
    Incomplete,
    /// One complete request, consuming the first `usize` buffer bytes.
    Complete(HttpRequest, usize),
}

/// Attempts to parse one request from the front of `buf`. Returns
/// [`ParseOutcome::Incomplete`] until a full head (and `Content-Length`
/// body) is buffered; pipelined requests parse one call at a time.
pub fn parse_request(buf: &[u8]) -> Result<ParseOutcome, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError {
                status: 431,
                message: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            });
        }
        return Ok(ParseOutcome::Incomplete);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError {
            status: 431,
            message: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
        });
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::bad("request head is not valid UTF-8"))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::bad("request line has no target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad("request line has no HTTP version"))?;
    let mut keep_alive = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError {
                status: 505,
                message: format!("unsupported HTTP version `{other}`"),
            })
        }
    };
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::bad(format!("malformed header line `{line}`")))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::bad(format!("bad Content-Length `{value}`")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError {
                status: 501,
                message: "transfer encodings are not supported; use Content-Length".into(),
            });
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError {
            status: 413,
            message: format!("request body exceeds {MAX_BODY_BYTES} bytes"),
        });
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return Ok(ParseOutcome::Incomplete);
    }
    Ok(ParseOutcome::Complete(
        HttpRequest {
            method,
            path,
            keep_alive,
            body: buf[head_end..total].to_vec(),
        },
        total,
    ))
}

/// Byte offset just past the `\r\n\r\n` (or lenient `\n\n`) head
/// terminator, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        match buf[i] {
            b'\n' if buf.get(i + 1) == Some(&b'\n') => return Some(i + 2),
            b'\n' if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') => {
                return Some(i + 3)
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// The reason phrase for the status codes this tier emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Formats a complete response: status line, `Content-Type:
/// application/json`, explicit `Content-Length` and `Connection` headers,
/// then the body.
pub fn format_response(status: u16, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
    out
}

/// Formats a request (client side — conformance and hot-swap tests).
pub fn format_request(method: &str, path: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
    out
}

/// A parsed response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
    /// The response body.
    pub body: Vec<u8>,
}

/// Reads one full response from a blocking reader (client side).
pub fn read_response<R: std::io::BufRead>(reader: &mut R) -> std::io::Result<HttpResponse> {
    use std::io::{Error, ErrorKind};
    let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.is_empty() {
        return Err(Error::new(ErrorKind::UnexpectedEof, "connection closed"));
    }
    let mut parts = line.split(' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad("not an HTTP response"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut keep_alive = true;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed response header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| bad("bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(HttpResponse {
        status,
        keep_alive,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_complete_post() {
        let raw = b"POST /recommend HTTP/1.1\r\nContent-Length: 12\r\n\r\n{\"user\": 17}";
        let ParseOutcome::Complete(req, consumed) = parse_request(raw).unwrap() else {
            panic!("complete request must parse");
        };
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/recommend");
        assert!(req.keep_alive);
        assert_eq!(req.body, b"{\"user\": 17}");
    }

    #[test]
    fn incremental_parse_waits_for_head_and_body() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..raw.len() {
            assert_eq!(
                parse_request(&raw[..cut]).unwrap(),
                ParseOutcome::Incomplete,
                "cut at {cut}"
            );
        }
        assert!(matches!(
            parse_request(raw).unwrap(),
            ParseOutcome::Complete(_, n) if n == raw.len()
        ));
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let raw = b"GET /stats HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n";
        let ParseOutcome::Complete(first, n) = parse_request(raw).unwrap() else {
            panic!("first request");
        };
        assert_eq!(first.path, "/stats");
        let ParseOutcome::Complete(second, n2) = parse_request(&raw[n..]).unwrap() else {
            panic!("second request");
        };
        assert_eq!(second.path, "/healthz");
        assert_eq!(n + n2, raw.len());
    }

    #[test]
    fn keep_alive_negotiation() {
        let close = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let ParseOutcome::Complete(req, _) = parse_request(close).unwrap() else {
            panic!();
        };
        assert!(!req.keep_alive);
        let old = b"GET / HTTP/1.0\r\n\r\n";
        let ParseOutcome::Complete(req, _) = parse_request(old).unwrap() else {
            panic!();
        };
        assert!(!req.keep_alive);
        let old_ka = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let ParseOutcome::Complete(req, _) = parse_request(old_ka).unwrap() else {
            panic!();
        };
        assert!(req.keep_alive);
    }

    #[test]
    fn framing_violations_carry_statuses() {
        let huge_head = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "x".repeat(9000));
        assert_eq!(parse_request(huge_head.as_bytes()).unwrap_err().status, 431);
        let huge_body = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert_eq!(parse_request(huge_body).unwrap_err().status, 413);
        let bad_version = b"GET / HTTP/2\r\n\r\n";
        assert_eq!(parse_request(bad_version).unwrap_err().status, 505);
        let chunked = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert_eq!(parse_request(chunked).unwrap_err().status, 501);
        let garbled = b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n";
        assert_eq!(parse_request(garbled).unwrap_err().status, 400);
    }

    #[test]
    fn response_round_trips_through_client_parser() {
        let body = br#"{"user":1,"items":[2]}"#;
        let raw = format_response(200, body, true);
        let mut reader = std::io::BufReader::new(&raw[..]);
        let resp = read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.keep_alive);
        assert_eq!(resp.body, body);

        let raw = format_response(429, b"{}", false);
        let mut reader = std::io::BufReader::new(&raw[..]);
        let resp = read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 429);
        assert!(!resp.keep_alive);
    }
}
