//! A blocking keep-alive HTTP/1.1 client for the session server, and the
//! serve probe: the same warm tick sent over TCP, through
//! `Gateway::handle_bytes`, and through the engine, so the traced run can
//! split a tick into wire, gateway, parse, engine and render time.

use crate::ops::{Tally, OPEN_K};
use crate::trace::{self, timed};
use qagview_common::json::{self, Json};
use qagview_interactive::{Explorer, SessionSpec};
use qagview_serve::{parse_command, view_json, Gateway};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One request/response exchange: (status, body).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            if self.reader.read_line(&mut h)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().map_err(|_| bad("content length"))?;
            }
        }
        let mut buf = vec![0u8; content_length];
        self.reader.read_exact(&mut buf)?;
        let body = String::from_utf8(buf).map_err(|_| bad("non-UTF-8 body"))?;
        Ok((status, body))
    }

    /// Create a session (`body` is the creation spec, possibly empty) and
    /// return its id.
    pub fn create(&mut self, body: &[u8]) -> std::io::Result<String> {
        let (status, resp) = self.request("POST", "/api/session", body)?;
        session_id(status, &resp).ok_or_else(|| bad(&format!("create refused: {status} {resp}")))
    }
}

fn session_id(status: u16, body: &str) -> Option<String> {
    (status == 200).then_some(())?;
    json::parse(body)
        .ok()?
        .get("session")?
        .as_str()
        .map(str::to_string)
}

/// A raw HTTP request for `Gateway::handle_bytes`.
pub fn frame(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Split a raw HTTP response into (status, body).
pub fn unframe(raw: &[u8]) -> (u16, &str) {
    let text = std::str::from_utf8(raw).unwrap_or("");
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    (status, body)
}

pub fn set_query_body(sql: &str) -> String {
    Json::obj([("cmd", Json::from("set_query")), ("sql", Json::from(sql))]).to_text()
}

pub fn digest_of(body: &str) -> Option<String> {
    json::parse(body)
        .ok()?
        .get("digest")?
        .as_str()
        .map(str::to_string)
}

/// The serve probe: open `sql` on one TCP session, one gateway session
/// and one engine session, then send `ticks` alternating `set_k` moves to
/// all three. Spans: `serve.tcp_tick`, `serve.gateway`,
/// `serve.parse_command`, `explore.apply`, `serve.view_json`. The TCP and
/// gateway responses must carry the same digest.
pub fn serve_probe(
    gateway: &Gateway,
    engine: &Arc<Explorer>,
    addr: SocketAddr,
    sql: &str,
    ticks: usize,
    tally: &Tally,
) -> std::io::Result<()> {
    let mut client = Client::connect(addr)?;
    let tcp_path = format!("/api/session/{}/command", client.create(b"")?);
    let created = gateway.handle_bytes(&frame("POST", "/api/session", ""));
    let (status, created) = unframe(&created);
    let gw_id = session_id(status, created).ok_or_else(|| bad("gateway create refused"))?;
    let gw_path = format!("/api/session/{gw_id}/command");
    let mut session = engine
        .open_session(SessionSpec {
            sql: Some(sql.to_string()),
            ..SessionSpec::default()
        })
        .map_err(|e| bad(&e.to_string()))?;
    let open = set_query_body(sql);
    client.request("POST", &tcp_path, open.as_bytes())?;
    gateway.handle_bytes(&frame("POST", &gw_path, &open));
    for i in 0..ticks {
        let body = format!(r#"{{"cmd":"set_k","value":{}}}"#, OPEN_K - i % 2);
        trace::begin_request();
        let (tcp, _) = timed("serve.tcp_tick", || {
            client.request("POST", &tcp_path, body.as_bytes())
        });
        let (tcp_status, tcp_body) = tcp?;
        let raw = frame("POST", &gw_path, &body);
        let (gw_raw, _) = timed("serve.gateway", || gateway.handle_bytes(&raw));
        let (gw_status, gw_body) = unframe(&gw_raw);
        let tcp_digest = digest_of(&tcp_body);
        tally.check(
            tcp_status == 200
                && gw_status == 200
                && tcp_digest.is_some()
                && tcp_digest == digest_of(gw_body),
            || format!("serve probe tick {i}: TCP and gateway responses differ"),
        );
        let (cmd, _) = timed("serve.parse_command", || parse_command(body.as_bytes()));
        let cmd = cmd.map_err(|e| bad(&e.message()))?;
        let (resp, _) = timed("explore.apply", || session.apply(cmd));
        let resp = resp.map_err(|e| bad(&e.to_string()))?;
        timed("serve.view_json", || view_json(&resp));
    }
    Ok(())
}
