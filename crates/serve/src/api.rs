//! The JSON command/response vocabulary and the typed refusal model.
//!
//! Commands mirror [`ExploreCommand`] one-to-one; responses split into a
//! **deterministic view object** — state, summary, guidance plot,
//! transition, all floats printed via shortest-round-trip formatting so
//! equal `f64` bits always produce equal text — and per-request metadata
//! (session id, sequence number, restore marker, cache provenance). The
//! correctness tests hinge on that split: a view served over TCP by a
//! warm process and the same state computed on a bare
//! [`Explorer`](qagview_interactive::Explorer) must serialize to
//! **byte-identical** view text (and therefore an identical
//! [`view_digest`]), while provenance is allowed to differ.
//!
//! [`ServeError`] is the single refusal type. Every failure a request can
//! hit — framing, JSON, unknown route or session, admission refusals,
//! engine rejections — maps to one status and one machine-checkable
//! `kind` slug, and *refusals never mutate session state*: the engine
//! already guarantees a failed command leaves the session untouched, and
//! the serving layer keeps that contract for its own refusals.

use crate::http::HttpError;
use qagview_common::json::Json;
use qagview_common::wire::checksum64;
use qagview_common::QagError;
use qagview_interactive::{
    CacheLayer, CacheOutcome, CacheProvenance, Degradation, ExploreCommand, ExploreResponse,
    ExploreState, Fidelity, FidelityMode, StoreFileKind, SummaryView,
};
use qagview_lattice::{Pattern, STAR};

/// Wire protocol version stamped on every command response (`"v"`).
///
/// * **v1** — the original schema: state/summary/plot/transition view,
///   digest, provenance. Implicitly exact-only.
/// * **v2** — progressive mode: responses carry a top-level `"fidelity"`
///   object and the view's state/summary gained `fidelity` fields; new
///   commands `set_fidelity` and `await_exact`; session creation accepts
///   a `"fidelity"` field. Later v2 additions are optional provenance
///   fields only: `answers_store` (the store's relation tier, `null` when
///   not consulted), the `"skipped"` value of `group_phase` (the relation
///   was served without a scan), and the `store_file_rejected`
///   degradation. Parsing stays field-tolerant in both directions, so a
///   v1-shaped client that ignores unknown fields keeps working against
///   exact-mode sessions (see the compat tests).
pub const PROTOCOL_VERSION: u64 = 2;

/// Every way a request can be refused, with its HTTP status and a stable
/// machine-checkable `kind` slug.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bytes were not a well-formed request (400/413/501).
    Protocol(HttpError),
    /// The body was not valid JSON.
    BadJson(String),
    /// The JSON was valid but not a command this API defines.
    BadCommand(String),
    /// No resident session and no restorable checkpoint under this id.
    UnknownSession(String),
    /// No such endpoint.
    UnknownRoute(String),
    /// The endpoint exists but not for this method.
    MethodNotAllowed(String),
    /// Admission control refused a new (or restoring) session: the
    /// resident cap is reached and no idle session could be evicted.
    SessionLimit {
        /// Sessions currently resident.
        resident: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The server is at its connection cap.
    Overloaded(String),
    /// The client did not deliver its request within the per-request
    /// deadline (408); the connection is closed after this answer.
    RequestTimeout,
    /// The request's deadline budget ran out before the named stage
    /// (session-lock wait, command execution) started real work — the
    /// session state is untouched and the command was **not** applied.
    DeadlineExceeded {
        /// Which stage exhausted the budget (`"session_lock"`, `"execute"`).
        stage: &'static str,
    },
    /// The server is draining: it finishes in-flight work and checkpoints
    /// sessions, but accepts no new mutations.
    Draining,
    /// The engine rejected the command (bad SQL, knob violation, memory
    /// budget, internal fault) — the session state is unchanged.
    Engine(QagError),
}

impl ServeError {
    /// The HTTP status this refusal answers with.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::Protocol(e) => e.status(),
            ServeError::BadJson(_) | ServeError::BadCommand(_) => 400,
            ServeError::UnknownSession(_) | ServeError::UnknownRoute(_) => 404,
            ServeError::MethodNotAllowed(_) => 405,
            ServeError::SessionLimit { .. } => 429,
            ServeError::RequestTimeout => 408,
            ServeError::Overloaded(_)
            | ServeError::DeadlineExceeded { .. }
            | ServeError::Draining => 503,
            ServeError::Engine(e) => match e {
                QagError::BudgetExceeded { .. } => 429,
                QagError::Parse { .. }
                | QagError::Binding(_)
                | QagError::Execution(_)
                | QagError::InvalidParameter(_)
                | QagError::SchemaMismatch(_) => 422,
                QagError::Internal(_) | QagError::Store { .. } => 500,
            },
        }
    }

    /// A stable slug naming the refusal class.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Protocol(HttpError::BadRequest(_)) => "bad_request",
            ServeError::Protocol(HttpError::PayloadTooLarge(_)) => "payload_too_large",
            ServeError::Protocol(HttpError::NotImplemented(_)) => "not_implemented",
            ServeError::BadJson(_) => "bad_json",
            ServeError::BadCommand(_) => "bad_command",
            ServeError::UnknownSession(_) => "unknown_session",
            ServeError::UnknownRoute(_) => "unknown_route",
            ServeError::MethodNotAllowed(_) => "method_not_allowed",
            ServeError::SessionLimit { .. } => "session_limit",
            ServeError::Overloaded(_) => "overloaded",
            ServeError::RequestTimeout => "request_timeout",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Draining => "draining",
            ServeError::Engine(QagError::BudgetExceeded { .. }) => "budget_exceeded",
            ServeError::Engine(_) => "command_rejected",
        }
    }

    /// The human-readable detail.
    pub fn message(&self) -> String {
        match self {
            ServeError::Protocol(e) => e.message().to_string(),
            ServeError::BadJson(m) | ServeError::BadCommand(m) | ServeError::Overloaded(m) => {
                m.clone()
            }
            ServeError::UnknownSession(id) => format!("no session or checkpoint under id {id:?}"),
            ServeError::UnknownRoute(path) => format!("no endpoint at {path:?}"),
            ServeError::MethodNotAllowed(m) => m.clone(),
            ServeError::SessionLimit { resident, cap } => format!(
                "session cap reached ({resident}/{cap} resident, none evictable); retry later"
            ),
            ServeError::RequestTimeout => {
                "the request was not delivered within the per-request deadline".into()
            }
            ServeError::DeadlineExceeded { stage } => format!(
                "the request deadline expired before the {stage} stage; the command was not applied"
            ),
            ServeError::Draining => "the server is draining; no new work is accepted".into(),
            ServeError::Engine(e) => e.to_string(),
        }
    }

    /// The `Retry-After` hint (seconds) for refusals a client should
    /// retry, `None` for the rest.
    pub fn retry_after(&self) -> Option<u64> {
        match self {
            ServeError::SessionLimit { .. }
            | ServeError::Overloaded(_)
            | ServeError::DeadlineExceeded { .. } => Some(1),
            ServeError::Draining => Some(2),
            _ => None,
        }
    }

    /// The refusal as a JSON body: `{"error":{status, kind, message}}`.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "error",
            Json::obj([
                ("status", Json::from(u64::from(self.status()))),
                ("kind", Json::from(self.kind())),
                ("message", Json::from(self.message())),
            ]),
        )])
    }
}

/// Decode a request body into an [`ExploreCommand`].
///
/// The schema is one object with a `cmd` discriminator:
///
/// | `cmd`           | payload                                         |
/// |-----------------|-------------------------------------------------|
/// | `set_query`     | `"sql"`: string                                 |
/// | `set_threshold` | `"value"`: number                               |
/// | `set_k` / `set_l` / `set_d` | `"value"`: non-negative integer     |
/// | `drill_down`    | `"pattern"`: array of code-or-`null` (`null` = ∗) |
/// | `set_fidelity`  | `"mode"`: `"exact"` or `"approximate"` (v2)     |
/// | `await_exact`   | — (v2)                                          |
///
/// Unknown *fields* are ignored (tolerant parsing); an unknown `cmd` is
/// a typed refusal.
pub fn parse_command(body: &[u8]) -> Result<ExploreCommand, ServeError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ServeError::BadJson("body is not UTF-8".into()))?;
    let doc = qagview_common::json::parse(text).map_err(|e| ServeError::BadJson(e.to_string()))?;
    let cmd = doc
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadCommand("missing string field \"cmd\"".into()))?;
    let knob = |doc: &Json| -> Result<usize, ServeError> {
        doc.get("value")
            .and_then(Json::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| {
                ServeError::BadCommand(format!("{cmd:?} needs an integer field \"value\""))
            })
    };
    match cmd {
        "set_query" => {
            let sql = doc.get("sql").and_then(Json::as_str).ok_or_else(|| {
                ServeError::BadCommand("\"set_query\" needs a string field \"sql\"".into())
            })?;
            Ok(ExploreCommand::SetQuery(sql.to_string()))
        }
        "set_threshold" => {
            let v = doc.get("value").and_then(Json::as_f64).ok_or_else(|| {
                ServeError::BadCommand("\"set_threshold\" needs a number field \"value\"".into())
            })?;
            Ok(ExploreCommand::SetThreshold(v))
        }
        "set_k" => Ok(ExploreCommand::SetK(knob(&doc)?)),
        "set_l" => Ok(ExploreCommand::SetL(knob(&doc)?)),
        "set_d" => Ok(ExploreCommand::SetD(knob(&doc)?)),
        "drill_down" => {
            let arr = doc.get("pattern").and_then(|p| match p {
                Json::Arr(items) => Some(items.as_slice()),
                _ => None,
            });
            let items = arr.ok_or_else(|| {
                ServeError::BadCommand("\"drill_down\" needs an array field \"pattern\"".into())
            })?;
            let mut slots = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Json::Null => slots.push(STAR),
                    other => {
                        let code =
                            other
                                .as_u64()
                                .filter(|&c| c < u64::from(STAR))
                                .ok_or_else(|| {
                                    ServeError::BadCommand(
                                        "pattern slots are null (∗) or attribute codes".into(),
                                    )
                                })?;
                        slots.push(code as u32);
                    }
                }
            }
            Ok(ExploreCommand::DrillDown(Pattern::new(slots)))
        }
        "set_fidelity" => {
            let mode = doc.get("mode").and_then(Json::as_str).ok_or_else(|| {
                ServeError::BadCommand("\"set_fidelity\" needs a string field \"mode\"".into())
            })?;
            Ok(ExploreCommand::SetFidelity(parse_fidelity_mode(mode)?))
        }
        "await_exact" => Ok(ExploreCommand::AwaitExact),
        other => Err(ServeError::BadCommand(format!("unknown cmd {other:?}"))),
    }
}

/// Decode a fidelity-mode string (session creation, `set_fidelity`).
pub fn parse_fidelity_mode(mode: &str) -> Result<FidelityMode, ServeError> {
    match mode {
        "exact" => Ok(FidelityMode::Exact),
        "approximate" => Ok(FidelityMode::Approximate),
        other => Err(ServeError::BadCommand(format!(
            "fidelity mode {other:?} is not \"exact\" or \"approximate\""
        ))),
    }
}

fn fidelity_mode_str(mode: FidelityMode) -> &'static str {
    match mode {
        FidelityMode::Exact => "exact",
        FidelityMode::Approximate => "approximate",
    }
}

/// A fidelity as its wire object: `{"mode": ...}` plus the error
/// envelope in approximate mode.
pub fn fidelity_json(f: Fidelity) -> Json {
    match f {
        Fidelity::Exact => Json::obj([("mode", Json::from("exact"))]),
        Fidelity::Approximate {
            rel_err,
            confidence,
        } => Json::obj([
            ("mode", Json::from("approximate")),
            ("rel_err", Json::from(rel_err)),
            ("confidence", Json::from(confidence)),
        ]),
        Fidelity::Refined => Json::obj([("mode", Json::from("refined"))]),
    }
}

fn pattern_json(p: &Pattern) -> Json {
    Json::Arr(
        p.slots()
            .iter()
            .map(|&s| {
                if s == STAR {
                    Json::Null
                } else {
                    Json::from(u64::from(s))
                }
            })
            .collect(),
    )
}

fn state_json(state: &ExploreState) -> Json {
    Json::obj([
        ("sql", Json::from(state.sql.as_str())),
        ("k", Json::from(state.k)),
        ("l", Json::from(state.l)),
        ("d", Json::from(state.d)),
        ("threshold", state.threshold.map_or(Json::Null, Json::from)),
        (
            "drill",
            state.drill.as_ref().map_or(Json::Null, pattern_json),
        ),
        ("fidelity", Json::from(fidelity_mode_str(state.fidelity))),
    ])
}

fn summary_json(s: &SummaryView) -> Json {
    Json::obj([
        (
            "attr_names",
            Json::Arr(
                s.attr_names
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect(),
            ),
        ),
        (
            "clusters",
            Json::Arr(
                s.clusters
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("pattern", pattern_json(&c.pattern)),
                            ("label", Json::from(c.label.as_str())),
                            ("size", Json::from(c.size)),
                            ("top_l", Json::from(c.top_l)),
                            ("sum", Json::from(c.sum)),
                            ("avg", Json::from(c.avg)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("covered", Json::from(s.covered)),
        ("total", Json::from(s.total)),
        ("avg", Json::from(s.avg)),
        ("k", Json::from(s.k)),
        ("l", Json::from(s.l)),
        ("d", Json::from(s.d)),
        ("fidelity", fidelity_json(s.fidelity)),
    ])
}

fn usizes(vs: &[usize]) -> Json {
    Json::Arr(vs.iter().map(|&v| Json::from(v)).collect())
}

/// The deterministic view object of a response: state, summary, plot,
/// transition. Equal engine views serialize to equal bytes.
pub fn view_json(resp: &ExploreResponse) -> Json {
    let plot = Json::obj([
        ("l", Json::from(resp.plot.l)),
        ("k_values", usizes(&resp.plot.k_values)),
        (
            "series",
            Json::Arr(
                resp.plot
                    .series
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("d", Json::from(s.d)),
                            (
                                "avg_by_k",
                                Json::Arr(s.avg_by_k.iter().map(|&v| Json::from(v)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let transition = resp.transition.as_ref().map_or(Json::Null, |t| {
        Json::obj([
            (
                "left_labels",
                Json::Arr(
                    t.left_labels
                        .iter()
                        .map(|l| Json::from(l.as_str()))
                        .collect(),
                ),
            ),
            (
                "right_labels",
                Json::Arr(
                    t.right_labels
                        .iter()
                        .map(|l| Json::from(l.as_str()))
                        .collect(),
                ),
            ),
            ("left_sizes", usizes(&t.left_sizes)),
            ("right_sizes", usizes(&t.right_sizes)),
            ("left_top", usizes(&t.left_top)),
            ("right_top", usizes(&t.right_top)),
            (
                "overlaps",
                Json::Arr(t.overlaps.iter().map(|row| usizes(row)).collect()),
            ),
        ])
    });
    Json::obj([
        ("state", state_json(&resp.state)),
        ("summary", summary_json(&resp.summary)),
        ("plot", plot),
        ("transition", transition),
    ])
}

/// A 64-bit digest of the serialized view text — the quantity the
/// byte-identity tests (and the loadgen's zero-divergence check) compare.
pub fn view_digest(resp: &ExploreResponse) -> u64 {
    checksum64(view_json(resp).to_text().as_bytes())
}

fn outcome_str(o: CacheOutcome) -> &'static str {
    match o {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Miss => "miss",
        CacheOutcome::Skipped => "skipped",
    }
}

fn store_file_str(kind: StoreFileKind) -> &'static str {
    match kind {
        StoreFileKind::Answers => "answers",
        StoreFileKind::Plane => "plane",
    }
}

fn optional_outcome(o: Option<CacheOutcome>) -> Json {
    o.map_or(Json::Null, |o| Json::from(outcome_str(o)))
}

fn layer_str(layer: CacheLayer) -> &'static str {
    match layer {
        CacheLayer::GroupPhase => "group_phase",
        CacheLayer::Answers => "answers",
        CacheLayer::Planes => "planes",
        CacheLayer::Summarizers => "summarizers",
        CacheLayer::Store => "store",
    }
}

fn degradation_json(d: &Degradation) -> Json {
    match d {
        Degradation::StoreRetried { attempts } => Json::obj([
            ("kind", Json::from("store_retried")),
            ("attempts", Json::from(u64::from(*attempts))),
        ]),
        Degradation::StoreWriteBackDropped { attempts } => Json::obj([
            ("kind", Json::from("store_write_back_dropped")),
            ("attempts", Json::from(u64::from(*attempts))),
        ]),
        Degradation::StoreFileRejected { file, error } => Json::obj([
            ("kind", Json::from("store_file_rejected")),
            ("file", Json::from(store_file_str(*file))),
            ("error", Json::from(error.to_string())),
        ]),
        Degradation::PlaneShed { needed, budget } => Json::obj([
            ("kind", Json::from("plane_shed")),
            ("needed", Json::from(*needed)),
            ("budget", Json::from(*budget)),
        ]),
        Degradation::PoisonRecovered { layer } => Json::obj([
            ("kind", Json::from("poison_recovered")),
            ("layer", Json::from(layer_str(*layer))),
        ]),
        Degradation::RefinementFailed { reason } => Json::obj([
            ("kind", Json::from("refinement_failed")),
            ("reason", Json::from(reason.as_str())),
        ]),
    }
}

/// The provenance object of one response: which cache layer answered each
/// stage, every degradation taken, and whether this command transparently
/// restored the session from a checkpoint.
pub fn provenance_json(p: &CacheProvenance, restored: bool) -> Json {
    Json::obj([
        ("group_phase", Json::from(outcome_str(p.group_phase))),
        ("answers", Json::from(outcome_str(p.answers))),
        ("answers_store", optional_outcome(p.answers_store)),
        ("plane", Json::from(outcome_str(p.plane))),
        ("plane_store", optional_outcome(p.plane_store)),
        ("summarizer", optional_outcome(p.summarizer)),
        (
            "degradations",
            Json::Arr(p.degradations.iter().map(degradation_json).collect()),
        ),
        ("fidelity", fidelity_json(p.fidelity)),
        ("restored", Json::from(restored)),
    ])
}

/// The full command-response body.
pub fn response_json(session_hex: &str, seq: u64, restored: bool, resp: &ExploreResponse) -> Json {
    let view = view_json(resp);
    let digest = checksum64(view.to_text().as_bytes());
    Json::obj([
        ("v", Json::from(PROTOCOL_VERSION)),
        ("session", Json::from(session_hex)),
        ("seq", Json::from(seq)),
        ("digest", Json::from(format!("{digest:016x}"))),
        ("fidelity", fidelity_json(resp.fidelity)),
        ("provenance", provenance_json(&resp.provenance, restored)),
        ("view", view),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse() {
        assert_eq!(
            parse_command(br#"{"cmd":"set_query","sql":"SELECT 1"}"#).unwrap(),
            ExploreCommand::SetQuery("SELECT 1".into())
        );
        assert_eq!(
            parse_command(br#"{"cmd":"set_threshold","value":12.5}"#).unwrap(),
            ExploreCommand::SetThreshold(12.5)
        );
        assert_eq!(
            parse_command(br#"{"cmd":"set_k","value":3}"#).unwrap(),
            ExploreCommand::SetK(3)
        );
        assert_eq!(
            parse_command(br#"{"cmd":"drill_down","pattern":[3,null,7]}"#).unwrap(),
            ExploreCommand::DrillDown(Pattern::new(vec![3, STAR, 7]))
        );
    }

    #[test]
    fn fidelity_commands_parse() {
        assert_eq!(
            parse_command(br#"{"cmd":"set_fidelity","mode":"approximate"}"#).unwrap(),
            ExploreCommand::SetFidelity(FidelityMode::Approximate)
        );
        assert_eq!(
            parse_command(br#"{"cmd":"set_fidelity","mode":"exact"}"#).unwrap(),
            ExploreCommand::SetFidelity(FidelityMode::Exact)
        );
        assert_eq!(
            parse_command(br#"{"cmd":"await_exact"}"#).unwrap(),
            ExploreCommand::AwaitExact
        );
        let err = parse_command(br#"{"cmd":"set_fidelity","mode":"fuzzy"}"#).unwrap_err();
        assert_eq!(err.kind(), "bad_command");
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        // Tolerant parsing is the forward-compat contract: a v3 client may
        // attach fields this server has never heard of.
        assert_eq!(
            parse_command(br#"{"cmd":"set_k","value":3,"hint":"fast","v":3}"#).unwrap(),
            ExploreCommand::SetK(3)
        );
        assert_eq!(
            parse_command(br#"{"cmd":"await_exact","deadline_ms":250}"#).unwrap(),
            ExploreCommand::AwaitExact
        );
    }

    #[test]
    fn fidelity_json_shapes() {
        assert_eq!(
            fidelity_json(Fidelity::Exact).to_text(),
            r#"{"mode":"exact"}"#
        );
        assert_eq!(
            fidelity_json(Fidelity::Refined).to_text(),
            r#"{"mode":"refined"}"#
        );
        let approx = fidelity_json(Fidelity::Approximate {
            rel_err: 0.25,
            confidence: 0.95,
        })
        .to_text();
        assert!(approx.contains(r#""mode":"approximate""#), "{approx}");
        assert!(approx.contains(r#""rel_err":0.25"#), "{approx}");
        assert!(approx.contains(r#""confidence":0.95"#), "{approx}");
    }

    #[test]
    fn refusals_are_typed() {
        for (body, kind) in [
            (&b"not json"[..], "bad_json"),
            (b"\xff\xfe", "bad_json"),
            (br#"{"cmd":"warp"}"#, "bad_command"),
            (br#"{"cmd":"set_k"}"#, "bad_command"),
            (br#"{"cmd":"set_k","value":-1}"#, "bad_command"),
            (br#"{"cmd":"set_k","value":1.5}"#, "bad_command"),
            (br#"{"cmd":"set_query"}"#, "bad_command"),
            (
                br#"{"cmd":"drill_down","pattern":[4294967295]}"#,
                "bad_command",
            ),
            (br#"{"cmd":"drill_down","pattern":"x"}"#, "bad_command"),
            (br#"[]"#, "bad_command"),
        ] {
            let err = parse_command(body).unwrap_err();
            assert_eq!(err.kind(), kind, "{}", String::from_utf8_lossy(body));
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn error_bodies_carry_status_kind_message() {
        let e = ServeError::SessionLimit {
            resident: 4,
            cap: 4,
        };
        assert_eq!(e.status(), 429);
        let body = e.to_json();
        assert_eq!(body.path("error.status").unwrap().as_u64(), Some(429));
        assert_eq!(
            body.path("error.kind").unwrap().as_str(),
            Some("session_limit")
        );
        let budget = ServeError::Engine(QagError::BudgetExceeded {
            needed: 10,
            budget: 5,
        });
        assert_eq!(budget.status(), 429);
        assert_eq!(budget.kind(), "budget_exceeded");
    }

    #[test]
    fn deadline_refusals_are_typed_and_retryable() {
        let t = ServeError::RequestTimeout;
        assert_eq!(
            (t.status(), t.kind(), t.retry_after()),
            (408, "request_timeout", None)
        );
        let d = ServeError::DeadlineExceeded {
            stage: "session_lock",
        };
        assert_eq!((d.status(), d.kind()), (503, "deadline_exceeded"));
        assert_eq!(d.retry_after(), Some(1));
        assert!(d.message().contains("session_lock"));
        let dr = ServeError::Draining;
        assert_eq!(
            (dr.status(), dr.kind(), dr.retry_after()),
            (503, "draining", Some(2))
        );
    }
}
