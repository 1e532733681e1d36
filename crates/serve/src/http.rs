//! Hand-rolled HTTP/1.1 over [`std::net::TcpStream`].
//!
//! The server speaks the minimal subset a JSON job API needs: request
//! line, case-insensitive headers, `Content-Length` bodies, keep-alive.
//! No chunked encoding, no TLS, no HTTP/2 — clients that need those sit
//! behind a real reverse proxy; this is the in-process protocol in the
//! same no-new-deps spirit as the JSONL telemetry sink.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest request body the server will read; a JSON gate list for any
/// admissible circuit fits comfortably.
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Path only — query strings are not part of this API.
    pub path: String,
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Read one request off the stream. `Ok(None)` means the peer closed
/// the connection cleanly before sending another request (normal end of
/// a keep-alive session); `Err` covers malformed or oversized requests.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> std::io::Result<Option<Request>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(bad("malformed request line"));
    }
    // HTTP/1.1 defaults to keep-alive; "Connection: close" opts out.
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| bad("unparseable content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("request body is not utf-8"))?;
    Ok(Some(Request { method, path, body, keep_alive }))
}

/// Canonical reason phrases for the statuses this API emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one JSON response: head and body leave in one `write_all`, so
/// a reply never waits on the peer's delayed ACK between the two.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reply = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(reply.as_bytes())?;
    stream.flush()
}

fn bad(why: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn over_socket(raw: &[u8]) -> std::io::Result<Option<Request>> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        tx.write_all(raw).unwrap();
        drop(tx);
        let (rx, _) = listener.accept().unwrap();
        read_request(&mut BufReader::new(rx))
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            over_socket(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "{\"a\":1}");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_is_honoured() {
        let req =
            over_socket(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_err() {
        assert!(over_socket(b"").unwrap().is_none());
        assert!(over_socket(b"NOT-HTTP\r\n\r\n").is_err());
        assert!(over_socket(b"GET / HTTP/1.1\r\nContent-Length: zap\r\n\r\n").is_err());
    }
}
