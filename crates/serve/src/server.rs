//! The gateway (routing + dispatch) and the TCP server shell around it.
//!
//! [`Gateway`] is the protocol-agnostic core: it owns the shared
//! [`Explorer`], the [`SessionStore`], and the [`Metrics`], and maps one
//! [`Request`] to one [`Response`]. The TCP [`Server`] and the in-process
//! [`Gateway::handle_bytes`] entry point (used by the load generator's
//! latency baseline and the fuzz tests) drive the **same** parsing,
//! routing, and serialization code — the only difference over the wire is
//! the socket.
//!
//! # Endpoints
//!
//! | Method · path                         | Does                                        |
//! |---------------------------------------|---------------------------------------------|
//! | `POST /api/session`                   | create a session (optional `budget_bytes`, `fidelity`) |
//! | `POST /api/session/{id}/command`      | apply one command, returns view + provenance|
//! | `GET /api/session/{id}`               | session stats (resident or checkpointed)    |
//! | `POST /api/session/{id}/checkpoint`   | checkpoint now (session stays resident)     |
//! | `DELETE /api/session/{id}`            | drop the session and its checkpoint         |
//! | `GET /api/metrics`                    | gateway counters + engine cache stats       |
//! | `GET /healthz` (or `/api/healthz`)    | readiness: 200 serving / 503 draining       |
//!
//! # Deadlines and hostile clients
//!
//! Every connection runs under [`ServerConfig`] budgets. An idle
//! keep-alive connection is closed silently at
//! [`ServerConfig::read_timeout`]; once the first byte of a request
//! arrives, the whole request — parse, session-lock wait, command
//! execution — must finish within [`ServerConfig::request_deadline`]. A
//! mid-request read timeout (slow-loris) is answered with a typed 408 and
//! the connection closes; a budget that expires before the command
//! executes is a typed 503 `deadline_exceeded` with `Retry-After` that
//! leaves session state untouched. Response writes are bounded by
//! [`ServerConfig::write_timeout`] and buffered into a single frame, so a
//! slow reader costs one bounded write, never a wedged thread.
//!
//! # Graceful drain
//!
//! [`Server::drain`] (also run by [`Server::shutdown`] and on drop) stops
//! accepting, refuses new mutations with a typed 503 `draining`, closes
//! idle connections immediately, gives in-flight requests until
//! [`ServerConfig::drain_deadline`] to finish, then checkpoints **every**
//! resident session through the engine's own `StoreIo`. A server
//! restarted over the same directories restores each of them
//! bit-identically. [`Server::kill`] is the non-graceful twin (the crash
//! the chaos harness injects): connections die, nothing is checkpointed.

use crate::api::{self, ServeError};
use crate::http::{read_request, write_response, ReadOutcome, Request, Response};
use crate::metrics::Metrics;
use crate::net::{Deadline, FaultStream, NetScript};
use crate::sessions::{DrainOutcome, SessionConfig, SessionStore};
use qagview_common::json::Json;
use qagview_interactive::{Explorer, ExplorerStats, SessionSpec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Session-store knobs (shards, resident cap, checkpoint directory).
    pub sessions: SessionConfig,
    /// Cap on a request body's declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            sessions: SessionConfig::default(),
            max_body_bytes: 1 << 20,
        }
    }
}

/// The routing core shared by the TCP server and in-process callers.
#[derive(Debug)]
pub struct Gateway {
    engine: Arc<Explorer>,
    sessions: SessionStore,
    metrics: Arc<Metrics>,
    cfg: GatewayConfig,
    draining: AtomicBool,
}

impl Gateway {
    /// Build a gateway over a shared engine (warm-start the engine from a
    /// `.qag` store directory by configuring
    /// [`ExplorerConfig::store_dir`](qagview_interactive::ExplorerConfig)
    /// before constructing it).
    pub fn new(engine: Arc<Explorer>, cfg: GatewayConfig) -> Self {
        let metrics = Arc::new(Metrics::default());
        let sessions = SessionStore::new(
            Arc::clone(&engine),
            cfg.sessions.clone(),
            Arc::clone(&metrics),
        );
        Gateway {
            engine,
            sessions,
            metrics,
            cfg,
            draining: AtomicBool::new(false),
        }
    }

    /// The gateway's metrics counters.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The session store (exposed for tests and the load generator).
    pub fn sessions(&self) -> &SessionStore {
        &self.sessions
    }

    /// The configured body cap.
    pub fn max_body_bytes(&self) -> usize {
        self.cfg.max_body_bytes
    }

    /// Enter draining: new mutations are refused with a typed 503,
    /// `/healthz` flips to 503 so load balancers rotate, and read-only
    /// endpoints keep answering. Idempotent.
    pub fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            Metrics::bump(&self.metrics.drains);
        }
    }

    /// Whether [`Gateway::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Checkpoint every resident session (the drain sweep); see
    /// [`SessionStore::drain_to_checkpoints`].
    pub fn drain_sessions(&self, deadline: Deadline) -> DrainOutcome {
        self.sessions.drain_to_checkpoints(deadline)
    }

    /// Serve one parsed request with no deadline budget (in-process
    /// callers; the TCP loop uses [`Gateway::handle_deadline`]).
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_deadline(req, None)
    }

    /// Serve one parsed request under an optional deadline budget. The
    /// budget covers session-lock wait and command admission; a refusal
    /// is typed and never mutates session state.
    pub fn handle_deadline(&self, req: &Request, deadline: Option<Deadline>) -> Response {
        Metrics::bump(&self.metrics.requests);
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        // Health is answered before routing so its status can reflect the
        // serving/draining state instead of the Ok-is-200 convention.
        if req.method == "GET" && matches!(segments.as_slice(), ["healthz"] | ["api", "healthz"]) {
            let resp = self.healthz_response();
            self.metrics.count_status(resp.status);
            return resp;
        }
        let resp = match self.route(req, deadline) {
            Ok(body) => Response::json(200, body.to_text().into_bytes()),
            Err(e) => {
                match e {
                    ServeError::DeadlineExceeded { .. } => {
                        Metrics::bump(&self.metrics.deadline_exceeded);
                    }
                    ServeError::Draining => Metrics::bump(&self.metrics.refused_draining),
                    _ => {}
                }
                Response::json(e.status(), e.to_json().to_text().into_bytes())
                    .with_retry_after(e.retry_after())
            }
        };
        self.metrics.count_status(resp.status);
        resp
    }

    /// Parse and serve one raw HTTP request from bytes, returning the raw
    /// HTTP response — the in-process twin of one TCP exchange. Framing
    /// errors produce the same 4xx/5xx bytes the server would send.
    pub fn handle_bytes(&self, raw: &[u8]) -> Vec<u8> {
        let mut cursor = std::io::Cursor::new(raw);
        let outcome = read_request(&mut cursor, self.cfg.max_body_bytes)
            .expect("in-memory reads cannot fail");
        let resp = match outcome {
            ReadOutcome::Eof => return Vec::new(),
            ReadOutcome::Error(e) => self.protocol_error_response(e),
            ReadOutcome::Request(req) => self.handle(&req),
        };
        let mut out = Vec::with_capacity(resp.body.len() + 128);
        write_response(&mut out, &resp).expect("in-memory writes cannot fail");
        out
    }

    fn protocol_error_response(&self, e: crate::http::HttpError) -> Response {
        Metrics::bump(&self.metrics.protocol_errors);
        let err = ServeError::Protocol(e);
        let resp = Response::json(err.status(), err.to_json().to_text().into_bytes()).closing();
        self.metrics.count_status(resp.status);
        resp
    }

    /// The typed 408 a mid-request read timeout answers with.
    fn request_timeout_response(&self) -> Response {
        Metrics::bump(&self.metrics.request_timeouts);
        let err = ServeError::RequestTimeout;
        let resp = Response::json(err.status(), err.to_json().to_text().into_bytes()).closing();
        self.metrics.count_status(resp.status);
        resp
    }

    /// The readiness body: serving/draining state, resident sessions, and
    /// a metrics snapshot. 503 while draining so load balancers rotate.
    fn healthz_response(&self) -> Response {
        let draining = self.is_draining();
        let body = Json::obj([
            ("ok", Json::from(!draining)),
            (
                "state",
                Json::from(if draining { "draining" } else { "serving" }),
            ),
            ("resident_sessions", Json::from(self.sessions.resident())),
            ("metrics", self.metrics.to_json()),
        ]);
        let status = if draining { 503 } else { 200 };
        Response::json(status, body.to_text().into_bytes()).with_retry_after(draining.then_some(2))
    }

    fn route(&self, req: &Request, deadline: Option<Deadline>) -> Result<Json, ServeError> {
        // While draining, reads (stats, metrics) keep answering but every
        // mutation is refused before it touches a session.
        if self.is_draining() && req.method != "GET" {
            return Err(ServeError::Draining);
        }
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["api", "metrics"]) => Ok(self.metrics_json()),
            ("POST", ["api", "session"]) => self.create_session(&req.body),
            (method, ["api", "session", id]) => {
                let id = parse_id(id)?;
                match method {
                    "GET" => self.session_info(id),
                    "DELETE" => {
                        self.sessions.delete(id)?;
                        Ok(Json::obj([
                            ("session", Json::from(hex(id))),
                            ("deleted", Json::from(true)),
                        ]))
                    }
                    _ => Err(ServeError::MethodNotAllowed(format!(
                        "{method} is not served on /api/session/{{id}}"
                    ))),
                }
            }
            ("POST", ["api", "session", id, "command"]) => {
                let id = parse_id(id)?;
                let cmd = api::parse_command(&req.body)?;
                let outcome = self.sessions.command_deadline(id, cmd, deadline)?;
                Ok(api::response_json(
                    &hex(id),
                    outcome.seq,
                    outcome.restored,
                    &outcome.response,
                ))
            }
            ("POST", ["api", "session", id, "checkpoint"]) => {
                let id = parse_id(id)?;
                self.sessions.checkpoint(id)?;
                Ok(Json::obj([
                    ("session", Json::from(hex(id))),
                    ("checkpointed", Json::from(true)),
                ]))
            }
            (method, ["api", "session"]) => Err(ServeError::MethodNotAllowed(format!(
                "{method} is not served on /api/session"
            ))),
            _ => Err(ServeError::UnknownRoute(req.path.clone())),
        }
    }

    fn create_session(&self, body: &[u8]) -> Result<Json, ServeError> {
        let mut spec = SessionSpec::default();
        if !body.is_empty() {
            let text = std::str::from_utf8(body)
                .map_err(|_| ServeError::BadJson("body is not UTF-8".into()))?;
            let doc = qagview_common::json::parse(text)
                .map_err(|e| ServeError::BadJson(e.to_string()))?;
            spec.budget_bytes = match doc.get("budget_bytes") {
                None | Some(Json::Null) => None,
                Some(v) => Some(Some(v.as_u64().ok_or_else(|| {
                    ServeError::BadCommand("\"budget_bytes\" must be a non-negative integer".into())
                })?)),
            };
            // v2 field; absent (a v1 client) means exact — the v1 behavior.
            if let Some(v) = doc.get("fidelity") {
                let mode = v.as_str().ok_or_else(|| {
                    ServeError::BadCommand("\"fidelity\" must be a string".into())
                })?;
                spec.fidelity = crate::api::parse_fidelity_mode(mode)?;
            }
        }
        let id = self.sessions.create(spec)?;
        Ok(Json::obj([("session", Json::from(hex(id)))]))
    }

    fn session_info(&self, id: u64) -> Result<Json, ServeError> {
        let info = self.sessions.info(id)?;
        Ok(Json::obj([
            ("session", Json::from(hex(id))),
            ("resident", Json::from(info.resident)),
            ("seq", info.seq.map_or(Json::Null, Json::from)),
            (
                "state",
                info.state.as_ref().map_or(Json::Null, |s| {
                    Json::obj([
                        ("sql", Json::from(s.sql.as_str())),
                        ("k", Json::from(s.k)),
                        ("l", Json::from(s.l)),
                        ("d", Json::from(s.d)),
                    ])
                }),
            ),
            ("retained_bytes", Json::from(info.retained_bytes)),
            (
                "budget_bytes",
                info.budget_bytes.map_or(Json::Null, Json::from),
            ),
        ]))
    }

    fn metrics_json(&self) -> Json {
        let mut doc = self.metrics.to_json();
        doc.set("resident_sessions", Json::from(self.sessions.resident()));
        doc.set("engine", engine_stats_json(&self.engine.stats()));
        doc
    }
}

fn hex(id: u64) -> String {
    format!("{id:016x}")
}

fn parse_id(s: &str) -> Result<u64, ServeError> {
    if s.is_empty() || s.len() > 16 {
        return Err(ServeError::UnknownSession(s.to_string()));
    }
    u64::from_str_radix(s, 16).map_err(|_| ServeError::UnknownSession(s.to_string()))
}

fn engine_stats_json(stats: &ExplorerStats) -> Json {
    let layer = |l: &qagview_interactive::LayerStats| {
        Json::obj([
            ("hits", Json::from(l.hits)),
            ("misses", Json::from(l.misses)),
            ("evictions", Json::from(l.evictions)),
            ("entries", Json::from(l.entries)),
        ])
    };
    let store_kind = |k: &qagview_interactive::StoreKindStats| {
        Json::obj([
            ("loads", Json::from(k.loads)),
            ("probe_misses", Json::from(k.probe_misses)),
            ("writes", Json::from(k.writes)),
        ])
    };
    Json::obj([
        ("group_phase", layer(&stats.group_phase)),
        ("answers", layer(&stats.answers)),
        ("planes", layer(&stats.planes)),
        ("summarizers", layer(&stats.summarizers)),
        (
            "store",
            Json::obj([
                ("answers", store_kind(&stats.store.answers)),
                ("planes", store_kind(&stats.store.planes)),
                ("write_errors", Json::from(stats.store.write_errors)),
                ("retries", Json::from(stats.store.retries)),
                ("gc_evictions", Json::from(stats.store.gc_evictions)),
                ("gc_bytes_freed", Json::from(stats.store.gc_bytes_freed)),
            ]),
        ),
        ("poison_recoveries", Json::from(stats.poison.total())),
    ])
}

/// TCP shell knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-connection cap; excess connections get an immediate
    /// 503 and are closed.
    pub max_connections: usize,
    /// Idle keep-alive timeout: a connection with **no** request byte in
    /// flight is closed silently after this long (also the per-read
    /// stall bound mid-request, whichever of the two is tighter).
    pub read_timeout: Duration,
    /// Per-request budget, armed when the first byte of a request
    /// arrives: parse, session-lock wait, and command execution must all
    /// finish inside it (408 mid-parse, 503 `deadline_exceeded` later).
    pub request_deadline: Duration,
    /// Bound on writing one response; a slower reader loses the
    /// connection (the response is one bounded buffered frame).
    pub write_timeout: Duration,
    /// How long a graceful drain waits for in-flight requests (and then
    /// again for the checkpoint sweep).
    pub drain_deadline: Duration,
    /// Deterministic network-fault script; `None` (production) serves
    /// bare sockets, `Some` wraps every connection in a
    /// [`FaultStream`] so chaos tests drive the same code path.
    pub net_script: Option<Arc<NetScript>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 1024,
            read_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            net_script: None,
        }
    }
}

/// What [`Server::drain`] accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Resident sessions checkpointed to disk by the sweep.
    pub checkpointed: usize,
    /// Sessions the sweep could not checkpoint (left resident, not lost).
    pub checkpoint_failures: usize,
    /// Connections force-closed at the drain deadline with a request
    /// still in flight.
    pub forced_connections: usize,
}

/// One registered connection: a duplicate handle for force-close plus the
/// in-flight marker the drain loop consults.
#[derive(Debug)]
struct ConnHandle {
    stream: TcpStream,
    busy: Arc<AtomicBool>,
}

type ConnRegistry = Arc<Mutex<HashMap<u64, ConnHandle>>>;

/// A running TCP server: one accept thread, one thread per connection.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    gateway: Arc<Gateway>,
    cfg: ServerConfig,
    conns: ConnRegistry,
    drained: bool,
}

impl Server {
    /// Bind `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `gateway`.
    pub fn start(
        gateway: Arc<Gateway>,
        bind: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let conns: ConnRegistry = Arc::default();
        let accept_conns = Arc::clone(&conns);
        let accept_gateway = Arc::clone(&gateway);
        let accept_cfg = cfg.clone();
        let accept_thread = std::thread::Builder::new()
            .name("qagview-serve-accept".into())
            .spawn(move || {
                let mut next_id = 0u64;
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let registry = Arc::clone(&accept_conns);
                    if registry.lock().expect("conn registry").len() >= accept_cfg.max_connections {
                        refuse_connection(&accept_gateway, stream);
                        continue;
                    }
                    // Register a duplicate handle so a drain can see (and
                    // force-close) this connection; without one the
                    // connection cannot be managed, so it is dropped.
                    let busy = Arc::new(AtomicBool::new(false));
                    let Ok(dup) = stream.try_clone() else {
                        continue;
                    };
                    let id = next_id;
                    next_id += 1;
                    registry.lock().expect("conn registry").insert(
                        id,
                        ConnHandle {
                            stream: dup,
                            busy: Arc::clone(&busy),
                        },
                    );
                    let gw = Arc::clone(&accept_gateway);
                    let conn_cfg = accept_cfg.clone();
                    let spawned = std::thread::Builder::new()
                        .name("qagview-serve-conn".into())
                        .spawn(move || {
                            serve_connection(&gw, stream, &conn_cfg, &busy);
                            registry.lock().expect("conn registry").remove(&id);
                        });
                    if spawned.is_err() {
                        accept_conns.lock().expect("conn registry").remove(&id);
                    }
                }
            })?;
        Ok(Server {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            gateway,
            cfg,
            conns,
            drained: false,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently registered (serving or between requests).
    pub fn active_connections(&self) -> usize {
        self.conns.lock().expect("conn registry").len()
    }

    /// Gracefully drain and stop: refuse new work, close idle
    /// connections at once, give in-flight requests until the drain
    /// deadline, then checkpoint every resident session. Idempotent —
    /// later calls (including the drop hook) return an empty report.
    pub fn drain(&mut self) -> DrainReport {
        if self.drained {
            return DrainReport::default();
        }
        self.drained = true;
        self.gateway.begin_drain();
        self.stop_accepting();
        let deadline = Deadline::after(self.cfg.drain_deadline);
        let mut forced = 0usize;
        loop {
            {
                let conns = self.conns.lock().expect("conn registry");
                if conns.is_empty() {
                    break;
                }
                // Idle connections close now; busy ones get the deadline.
                for h in conns.values() {
                    if !h.busy.load(Ordering::Acquire) {
                        let _ = h.stream.shutdown(std::net::Shutdown::Both);
                    }
                }
            }
            if deadline.expired() {
                let conns = self.conns.lock().expect("conn registry");
                forced = conns.len();
                for h in conns.values() {
                    let _ = h.stream.shutdown(std::net::Shutdown::Both);
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Give force-closed threads a moment to unwind off their sockets
        // (and release their session locks) before the checkpoint sweep.
        let grace = Deadline::after(Duration::from_millis(250));
        while !self.conns.lock().expect("conn registry").is_empty() && !grace.expired() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let swept = self
            .gateway
            .drain_sessions(Deadline::after(self.cfg.drain_deadline));
        DrainReport {
            checkpointed: swept.checkpointed,
            checkpoint_failures: swept.failures,
            forced_connections: forced,
        }
    }

    /// Stop the server (graceful): runs a full [`Server::drain`].
    pub fn shutdown(&mut self) {
        let _ = self.drain();
    }

    /// Kill the server abruptly — the process-crash analogue the chaos
    /// harness drives. Connections are severed mid-whatever and **no**
    /// session is checkpointed; only checkpoints already on disk survive
    /// into a restart.
    pub fn kill(&mut self) {
        self.drained = true;
        self.stop_accepting();
        let conns = self.conns.lock().expect("conn registry");
        for h in conns.values() {
            let _ = h.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    fn stop_accepting(&mut self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn refuse_connection(gateway: &Gateway, mut stream: TcpStream) {
    Metrics::bump(&gateway.metrics.refused_connections);
    let err = ServeError::Overloaded("connection cap reached; retry".into());
    let resp = Response::json(err.status(), err.to_json().to_text().into_bytes())
        .closing()
        .with_retry_after(err.retry_after());
    gateway.metrics.count_status(resp.status);
    let _ = write_response(&mut stream, &resp);
}

fn serve_connection(gateway: &Gateway, stream: TcpStream, cfg: &ServerConfig, busy: &AtomicBool) {
    // Nagle off: every exchange here is one small write the client is
    // actively waiting on; coalescing would serialize ticks at ~40 ms.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    // `ctrl` re-arms the read timeout per fill; try_clone'd streams share
    // one socket, so arming either half arms them all.
    let Ok(ctrl) = stream.try_clone() else {
        return;
    };
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    match &cfg.net_script {
        Some(script) => drive_connection(
            gateway,
            FaultStream::new(read_half, Arc::clone(script)),
            FaultStream::new(stream, Arc::clone(script)),
            ctrl,
            cfg,
            busy,
        ),
        None => drive_connection(gateway, read_half, stream, ctrl, cfg, busy),
    }
}

fn drive_connection<R: Read, W: Write>(
    gateway: &Gateway,
    read_half: R,
    mut writer: W,
    ctrl: TcpStream,
    cfg: &ServerConfig,
    busy: &AtomicBool,
) {
    let mut reader = ConnReader::new(read_half, ctrl, cfg.read_timeout, cfg.request_deadline);
    loop {
        reader.begin_request();
        busy.store(false, Ordering::Release);
        let outcome = read_request(&mut reader, gateway.max_body_bytes());
        busy.store(true, Ordering::Release);
        match outcome {
            Err(e) => {
                match e.kind() {
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                        if reader.mid_request() {
                            // The client started a request and stalled —
                            // slow-loris or a lost peer: typed 408, close.
                            let resp = gateway.request_timeout_response();
                            let _ = write_response(&mut writer, &resp);
                        } else {
                            // Idle keep-alive expiry: silent close.
                            Metrics::bump(&gateway.metrics.idle_closes);
                        }
                    }
                    _ => Metrics::bump(&gateway.metrics.net_errors),
                }
                break;
            }
            Ok(ReadOutcome::Eof) => break, // clean hangup between requests
            Ok(ReadOutcome::Error(e)) => {
                // Answer, then close: after a framing error there is no
                // reliable next-request boundary in the stream.
                let resp = gateway.protocol_error_response(e);
                let _ = write_response(&mut writer, &resp);
                break;
            }
            Ok(ReadOutcome::Request(req)) => {
                let mut resp = gateway.handle_deadline(&req, reader.deadline());
                if req.wants_close() || gateway.is_draining() {
                    resp.close = true;
                }
                if let Err(e) = write_response(&mut writer, &resp) {
                    match e.kind() {
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                            Metrics::bump(&gateway.metrics.write_timeouts);
                        }
                        _ => Metrics::bump(&gateway.metrics.net_errors),
                    }
                    break;
                }
                if resp.close {
                    break;
                }
            }
        }
    }
    let _ = writer.flush();
}

/// The connection's buffered reader, tracking request progress so the
/// loop can tell an idle keep-alive timeout from a mid-request stall,
/// and re-arming the socket read timeout against the per-request
/// deadline once the first byte of a request has arrived.
struct ConnReader<R: Read> {
    inner: BufReader<R>,
    ctrl: TcpStream,
    idle_timeout: Duration,
    request_budget: Duration,
    deadline: Option<Deadline>,
    consumed: u64,
}

impl<R: Read> ConnReader<R> {
    fn new(
        read_half: R,
        ctrl: TcpStream,
        idle_timeout: Duration,
        request_budget: Duration,
    ) -> Self {
        ConnReader {
            inner: BufReader::new(read_half),
            ctrl,
            idle_timeout,
            request_budget,
            deadline: None,
            consumed: 0,
        }
    }

    /// Reset per-request state; the deadline re-arms on the next byte.
    fn begin_request(&mut self) {
        self.deadline = None;
        self.consumed = 0;
    }

    /// Whether any byte of the current request has been consumed.
    fn mid_request(&self) -> bool {
        self.consumed > 0
    }

    /// The current request's deadline (armed at its first byte).
    fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }
}

impl<R: Read> Read for ConnReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<R: Read> BufRead for ConnReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.inner.buffer().is_empty() {
            // About to touch the socket: arm its timeout with whatever is
            // tighter — the idle bound or the request's remaining budget.
            let timeout = match &self.deadline {
                None => self.idle_timeout,
                Some(d) => match d.remaining() {
                    None => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "request deadline exhausted",
                        ))
                    }
                    Some(rem) => rem.min(self.idle_timeout).max(Duration::from_millis(1)),
                },
            };
            let _ = self.ctrl.set_read_timeout(Some(timeout));
        }
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        if amt > 0 {
            self.consumed += amt as u64;
            if self.deadline.is_none() {
                self.deadline = Some(Deadline::after(self.request_budget));
            }
        }
        self.inner.consume(amt);
    }
}
