//! A minimal keep-alive HTTP/1.1 client for the query workloads: one
//! persistent connection, reopened (and counted) whenever the server
//! closes it or the transport fails.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-operation socket timeout; a request that exceeds it fails.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Response {
    pub status: u16,
    pub body: String,
}

pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    /// Connections opened so far (the first one included).
    pub opened: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None, opened: 0 }
    }

    fn connect(&mut self) -> Result<&mut BufReader<TcpStream>, String> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)
                .map_err(|e| format!("connect: {e}"))?;
            s.set_read_timeout(Some(IO_TIMEOUT)).ok();
            s.set_write_timeout(Some(IO_TIMEOUT)).ok();
            s.set_nodelay(true).ok();
            self.opened += 1;
            self.stream = Some(BufReader::new(s));
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends one request and reads its response. Any transport error
    /// drops the connection so the next request starts a fresh one.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<Response, String> {
        let out = self.exchange(method, target, body);
        if !matches!(out, Ok((_, false))) {
            self.stream = None;
        }
        out.map(|(r, _)| r)
    }

    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<(Response, bool), String> {
        let mut req = format!("{method} {target} HTTP/1.1\r\nHost: flatbench\r\n");
        match body {
            Some(b) => req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            )),
            None => req.push_str("\r\n"),
        }
        let r = self.connect()?;
        r.get_mut().write_all(req.as_bytes()).map_err(|e| format!("write: {e}"))?;
        read_response(r)
    }

    /// Closes the connection (the server sees a clean EOF).
    pub fn close(&mut self) {
        self.stream = None;
    }
}

/// Reads one framed response: status line, headers, then a
/// `Content-Length` or chunked body. Returns it with whether the server
/// announced it will close the connection.
fn read_response<R: BufRead>(r: &mut R) -> Result<(Response, bool), String> {
    let mut line = String::new();
    if r.read_line(&mut line).map_err(|e| format!("read status: {e}"))? == 0 {
        return Err("connection closed before the response".into());
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut length = 0usize;
    let mut chunked = false;
    let mut close = false;
    loop {
        line.clear();
        if r.read_line(&mut line).map_err(|e| format!("read header: {e}"))? == 0 {
            return Err("connection closed in the headers".into());
        }
        let t = line.trim_end();
        if t.is_empty() {
            break;
        }
        if let Some((k, v)) = t.split_once(':') {
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                length = v.parse().map_err(|e| format!("bad Content-Length: {e}"))?;
            } else if k.eq_ignore_ascii_case("transfer-encoding") {
                chunked = v.eq_ignore_ascii_case("chunked");
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            line.clear();
            r.read_line(&mut line).map_err(|e| format!("read chunk size: {e}"))?;
            let size = usize::from_str_radix(line.trim(), 16)
                .map_err(|_| format!("bad chunk size {line:?}"))?;
            let start = body.len();
            body.resize(start + size + 2, 0); // payload + CRLF
            r.read_exact(&mut body[start..]).map_err(|e| format!("read chunk: {e}"))?;
            body.truncate(start + size);
            if size == 0 {
                break;
            }
        }
    } else {
        body.resize(length, 0);
        r.read_exact(&mut body).map_err(|e| format!("read body: {e}"))?;
    }
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok((Response { status, body }, close))
}
