//! A hand-rolled HTTP/1.1 codec over std TCP.
//!
//! No external web framework is available offline, and the service needs
//! only a sliver of the protocol: one request per connection
//! (`Connection: close`), `Content-Length` bodies, and a handful of
//! status codes.  The parser is strict about what it accepts and bounds
//! every input (request-line, header block, body) so a misbehaving
//! client cannot balloon the daemon's memory.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body (scenario files are a few KiB).
pub(crate) const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Largest accepted header block.
pub(crate) const MAX_HEADER_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub(crate) struct Request {
    /// The request method (uppercase, e.g. `GET`).
    pub method: String,
    /// The request path (query strings are not used by this service and
    /// arrive verbatim).
    pub path: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// A request that could not be read: the status code to answer with and
/// a human-readable reason.
#[derive(Debug)]
pub(crate) struct HttpError {
    /// Response status for the failure (400, 413, …).
    pub status: u16,
    /// Human-readable reason, sent as the response body.
    pub message: String,
}

impl HttpError {
    fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }
}

/// Reads one HTTP/1.1 request from the stream.
pub(crate) fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .by_ref()
        .take(MAX_HEADER_BYTES as u64)
        .read_line(&mut line)
        .map_err(|e| HttpError::bad_request(format!("reading request line: {e}")))?;
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_uppercase(), p.to_string(), v),
        _ => {
            return Err(HttpError::bad_request(format!(
                "malformed request line {line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad_request(format!(
            "unsupported version {version}"
        )));
    }

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let mut line = String::new();
        // One byte past the remaining budget is enough to overflow it, so
        // a line with no newline cannot grow without bound.
        reader
            .by_ref()
            .take((MAX_HEADER_BYTES - header_bytes + 1) as u64)
            .read_line(&mut line)
            .map_err(|e| HttpError::bad_request(format!("reading headers: {e}")))?;
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError {
                status: 431,
                message: "header block too large".to_string(),
            });
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_lowercase(), value.trim().to_string()))
            }
            None => return Err(HttpError::bad_request(format!("malformed header {line:?}"))),
        }
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|e| HttpError::bad_request(format!("bad content-length: {e}")))?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError {
            status: 413,
            message: format!("body of {content_length} bytes exceeds {MAX_BODY_BYTES}"),
        });
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| HttpError::bad_request(format!("reading body: {e}")))?;

    Ok(Request { method, path, body })
}

/// An HTTP response under construction.
#[derive(Debug)]
pub(crate) struct Response {
    /// Status code.
    pub status: u16,
    /// Extra `(name, value)` headers beyond the defaults.
    pub headers: Vec<(String, String)>,
    /// Content type of the body.
    pub content_type: &'static str,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a text body.
    pub(crate) fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// A response with a JSON body.
    pub(crate) fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A response with a JSON-lines body (one JSON object per line).
    pub(crate) fn jsonl(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "application/x-ndjson",
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header.
    pub(crate) fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// The standard reason phrase for the status.
    pub(crate) fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "",
        }
    }
}

/// Writes a response and flushes the stream.  Write errors are returned
/// for logging; the connection is closed either way.
pub(crate) fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// What the blocking client returns for one exchange: status code,
/// lowercased `(name, value)` headers, and the response body.
pub type ClientResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// A minimal blocking HTTP client for the ctl binary, the smoke driver
/// and the integration tests: one request, `Connection: close`, whole
/// response buffered.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: std::time::Duration,
) -> Result<ClientResponse, String> {
    // `connect_timeout` rather than `connect`: a plain connect blocks
    // for the kernel's own (minutes-long) timeout on a dead or
    // firewalled address, which made `campaignctl wait-healthy` ignore
    // its deadline entirely.
    let socket_addr = std::net::ToSocketAddrs::to_socket_addrs(addr)
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no addresses"))?;
    let mut stream = TcpStream::connect_timeout(&socket_addr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send {method} {path}: {e}"))?;

    let mut raw = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut raw).map_err(|e| format!("read response: {e}"))?;
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..header_end]).map_err(|e| format!("bad header: {e}"))?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or("empty response")?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(n, v)| (n.trim().to_lowercase(), v.trim().to_string()))
        })
        .collect();
    Ok((status, headers, raw[header_end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_and_response_round_trip_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = read_request(&mut stream).unwrap();
            assert_eq!(request.method, "POST");
            assert_eq!(request.path, "/echo");
            assert_eq!(request.body, b"hello");
            write_response(
                &mut stream,
                &Response::text(200, "world").with_header("x-cells", "8"),
            )
            .unwrap();
        });
        let (status, headers, body) = http_request(
            &addr,
            "POST",
            "/echo",
            b"hello",
            std::time::Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"world");
        assert_eq!(headers.iter().find(|(n, _)| n == "x-cells").unwrap().1, "8");
        server.join().unwrap();
    }

    #[test]
    fn oversized_bodies_are_rejected_with_413() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let err = read_request(&mut stream).unwrap_err();
            assert_eq!(err.status, 413);
            write_response(&mut stream, &Response::text(err.status, err.message)).unwrap();
        });
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(
                format!(
                    "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                )
                .as_bytes(),
            )
            .unwrap();
        let mut out = Vec::new();
        std::io::Read::read_to_end(&mut stream, &mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 413"));
        server.join().unwrap();
    }

    /// A header line with no newline ends in 431 once it passes the
    /// header budget, instead of growing until the client gives up.
    #[test]
    fn overlong_header_lines_are_rejected_with_431() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            read_request(&mut stream).unwrap_err().status
        });
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut request = b"GET /x HTTP/1.1\r\nx-long: ".to_vec();
        request.resize(request.len() + 64 * 1024, b'a');
        // The server may stop reading and close before all of it is sent.
        let _ = stream.write_all(&request);
        // The socket stays open, the line unterminated, until the server
        // has answered.
        assert_eq!(server.join().unwrap(), 431);
        drop(stream);
    }
}
