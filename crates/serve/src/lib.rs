//! The serving layer: a multi-threaded session server over the owned
//! [`Explorer`](qagview_interactive::Explorer) engine.
//!
//! The paper's premise is *interactive* exploration — every slider or
//! knob tick in QAGView is a user-facing round-trip — and everything
//! below this crate is already built for it: the engine is `Send + Sync`
//! with bounded shared caches, warm-starts from a `.qag` store, carries
//! per-session memory budgets, and degrades typed-and-provenanced under
//! faults. This crate is the missing shell that turns that engine into a
//! service:
//!
//! * [`http`] — a minimal, strict, property-tested HTTP/1.1 framing
//!   layer over `std::net` (the build box is offline: no tokio/hyper);
//! * [`api`] — the JSON command/response vocabulary, the deterministic
//!   view serialization whose bytes the correctness tests compare, and
//!   the typed refusal model ([`ServeError`]) where every failure maps
//!   to one status + machine-checkable kind and **never corrupts
//!   session state**;
//! * [`sessions`] — the sharded [`SessionStore`]: id → live
//!   [`ExploreSession`](qagview_interactive::ExploreSession) behind
//!   per-session locks, a resident cap with LRU eviction to
//!   checkpoints, and transparent restore (including across process
//!   restarts) via [`qagview_interactive::SessionCheckpoint`];
//! * [`server`] — the [`Gateway`] routing core shared by TCP and
//!   in-process callers, and the thread-per-connection [`Server`] with
//!   a connection cap, per-request deadline budgets, and graceful
//!   drain-to-checkpoint shutdown;
//! * [`net`] — deterministic network fault injection ([`NetScript`] +
//!   [`FaultStream`]) and the [`Deadline`] budget type, mirroring the
//!   engine's `FaultIo` pattern at the connection layer;
//! * [`metrics`] — atomic counters behind `GET /api/metrics`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod http;
pub mod metrics;
pub mod net;
pub mod server;
pub mod sessions;

pub use api::{parse_command, response_text, view_digest, view_json, ServeError};
pub use http::{HttpError, Request, Response};
pub use metrics::Metrics;
pub use net::{
    Deadline, FaultStream, NetEvent, NetFaultKind, NetFaultPlan, NetOp, NetScript,
    ALL_NET_FAULT_KINDS,
};
pub use server::{DrainReport, Gateway, GatewayConfig, Server, ServerConfig};
pub use sessions::{CommandOutcome, DrainOutcome, SessionConfig, SessionInfo, SessionStore};
