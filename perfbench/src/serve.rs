//! The `serve_sessions` workload: the session server runs in the
//! benchmark process, bound to 127.0.0.1, and one client drives it in a
//! closed loop over one keep-alive connection.
//!
//! The client owns [`SLOTS`] scripted sessions, four times the server's
//! resident cap, so eviction to a checkpoint and restore churn
//! constantly. Each visit to a slot sends a burst of up to [`BURST`]
//! script steps; the first step of a burst usually finds its session
//! evicted and restores it. A visit that ends a script deletes the
//! session; a slot without a session then opens its next script (create,
//! then the opening commands back to back). Every response's digest must
//! equal a sequential in-process replay of its script.
//!
//! One client, and no approximate sessions over TCP: a second client, or
//! the refinement worker an approximate server session starts, makes the
//! cache hits and misses of the ticks depend on thread timing, and on two
//! cores that moved the tails by a third from run to run. First paints
//! are measured in-process instead, between rounds over the slots.

use crate::client::{serve_probe, set_query_body, Client};
use crate::metrics::{self, LayerInputs, Samples};
use crate::ops::{self, replay_open, same_view_bits, EngineTotals, Scratch, Tally};
use crate::stats::windowed_percentile;
use crate::trace::{self, timed};
use crate::Result;
use crate::{Args, Outcome};
use qagview_common::io::RealIo;
use qagview_common::json::{self, Json};
use qagview_interactive::{
    checkpoint_file_name, ExploreCommand, ExploreResponse, Explorer, SessionCheckpoint, SessionSpec,
};
use qagview_lattice::Pattern;
use qagview_serve::{
    parse_command, view_digest, Gateway, GatewayConfig, Server, ServerConfig, SessionConfig,
};
use qagview_storage::Catalog;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's Example 1.1 query.
pub const SQL: &str =
    "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable \
                       GROUP BY hdec, agegrp, gender, occupation \
                       HAVING count(*) > 10 ORDER BY val DESC";
const ARITY: usize = 4;
/// The `L` a script's open moves to.
const OPEN_L: usize = 40;
/// Steps sent back to back as the open: the query, `k`, `L`.
const OPEN_STEPS: usize = 3;
const RESIDENT: usize = 8;
const SLOTS: usize = 4 * RESIDENT;
const BURST: usize = 3;
/// A set-up takes about 0.1 s, short enough to land in one fast or slow
/// spell of the host; the median of nine spans several.
const SETUP_REPS: usize = 9;
const PROBE_TICKS: usize = 200;
const REPLAYS: usize = 20;
/// In-process restore ticks after each round; they move `k` over
/// `1..=RESTORE_KS`, all within the plane.
const RESTORES_PER_ROUND: usize = 4;
const RESTORE_KS: usize = 12;
/// `ticks_per_s` is the median over windows of this much wall time.
const THROUGHPUT_WINDOW: Duration = Duration::from_secs(1);
/// Each percentile is the median over up to this many windows of its
/// samples, so a stall of the host moves a few windows, not the figure.
const WINDOWS: usize = 30;

#[derive(Clone)]
enum Step {
    Body(String),
    /// Drill into the first cluster of the previous view.
    DrillFirst,
    /// Back to the overview.
    DrillBack,
}

type Script = Vec<Step>;

fn set(cmd: &str, value: impl std::fmt::Display) -> Step {
    Step::Body(format!(r#"{{"cmd":"{cmd}","value":{value}}}"#))
}

/// Eight scripts. Threshold moves to 20.5 and 30.5 change the answer
/// relation; 20.0 and 30.0 keep it.
fn scripts() -> Vec<Script> {
    use Step::{DrillBack as Back, DrillFirst as Drill};
    let th = |v: f64| set("set_threshold", v);
    let exact = |tail: Vec<Step>| {
        let mut steps = vec![
            Step::Body(set_query_body(SQL)),
            set("set_k", 6),
            set("set_l", OPEN_L),
        ];
        steps.extend(tail);
        steps
    };
    vec![
        exact(vec![
            th(20.5),
            th(20.0),
            set("set_k", 4),
            set("set_d", 1),
            set("set_k", 8),
            th(10.5),
            set("set_l", 60),
            set("set_k", 5),
        ]),
        exact(vec![
            set("set_d", 1),
            Drill,
            Back,
            set("set_k", 8),
            set("set_d", 2),
            Drill,
            set("set_k", 4),
            Back,
        ]),
        exact(vec![
            set("set_k", 8),
            set("set_l", 60),
            set("set_k", 5),
            set("set_d", 3),
            set("set_l", 40),
            set("set_k", 12),
            set("set_d", 0),
            set("set_k", 6),
        ]),
        exact(vec![
            th(30.5),
            Drill,
            Back,
            set("set_k", 3),
            th(30.0),
            set("set_d", 1),
            th(10.5),
            set("set_k", 7),
        ]),
        exact(vec![
            set("set_d", 2),
            th(20.5),
            set("set_d", 1),
            set("set_k", 9),
            Drill,
            Back,
            th(10.0),
            set("set_d", 3),
        ]),
        exact(vec![
            Drill,
            set("set_k", 4),
            Back,
            set("set_l", 60),
            set("set_k", 10),
            Drill,
            set("set_d", 0),
            Back,
        ]),
        exact(vec![
            set("set_l", 60),
            th(30.5),
            th(30.0),
            set("set_k", 4),
            set("set_l", 8),
            set("set_d", 2),
            th(20.5),
            set("set_k", 6),
        ]),
        exact(vec![
            set("set_k", 3),
            set("set_d", 1),
            Drill,
            set("set_k", 5),
            Back,
            set("set_l", 60),
            set("set_d", 4),
            set("set_k", 2),
        ]),
    ]
}

/// The command a step sends, given the previous view.
fn command(step: &Step, prev: Option<&ExploreResponse>) -> Result<ExploreCommand> {
    Ok(match step {
        Step::Body(body) => parse_command(body.as_bytes()).map_err(|e| e.message())?,
        Step::DrillFirst => ExploreCommand::DrillDown(
            prev.and_then(|r| r.summary.clusters.first())
                .map(|c| c.pattern.clone())
                .ok_or("no cluster to drill into")?,
        ),
        Step::DrillBack => ExploreCommand::DrillDown(Pattern::all_star(ARITY)),
    })
}

/// The request body a step sends, given the previous response body.
fn body(step: &Step, prev: Option<&str>) -> Option<String> {
    Some(match step {
        Step::Body(b) => b.clone(),
        Step::DrillFirst => {
            let doc = json::parse(prev?).ok()?;
            let pattern = doc
                .path("view.summary.clusters")?
                .items()
                .first()?
                .get("pattern")?
                .to_text();
            format!(r#"{{"cmd":"drill_down","pattern":{pattern}}}"#)
        }
        Step::DrillBack => {
            let stars = ["null"; ARITY].join(",");
            format!(r#"{{"cmd":"drill_down","pattern":[{stars}]}}"#)
        }
    })
}

/// The sequential replay every served response is checked against.
struct Oracle {
    /// Per script, per step: the view digest.
    digests: Vec<Vec<String>>,
    /// The first script's responses at `k = 6` and after `L` moved.
    at_k: ExploreResponse,
    at_l: ExploreResponse,
}

/// Replay every script on a fresh session of `engine`; with `trace` on,
/// each step is a span `explore.apply` and each script ends with a
/// checkpoint round trip through `dir`.
fn replay(engine: &Arc<Explorer>, scripts: &[Script], dir: &Path) -> Result<Oracle> {
    let mut digests = Vec::new();
    let mut opened = Vec::new();
    for (v, script) in scripts.iter().enumerate() {
        let mut session = engine.open_session(SessionSpec::default())?;
        let mut prev: Option<ExploreResponse> = None;
        let mut ds = Vec::new();
        for step in script {
            let cmd = command(step, prev.as_ref())?;
            trace::begin_request();
            let (r, _) = timed("explore.apply", || session.apply(cmd));
            let r = r?;
            ds.push(format!("{:016x}", view_digest(&r)));
            if v == 0 && opened.len() < 3 {
                opened.push(r.clone());
            }
            prev = Some(r);
        }
        if trace::enabled() {
            let path = dir.join(checkpoint_file_name(v as u64));
            let cp = session.checkpoint();
            timed("checkpoint.save", || cp.save_io(&RealIo, &path)).0?;
            trace::count("checkpoint.bytes", std::fs::metadata(&path)?.len() as f64);
            timed("checkpoint.load", || {
                SessionCheckpoint::load_io(&RealIo, &path).map(|cp| cp.resume(Arc::clone(engine)))
            })
            .0?;
        }
        digests.push(ds);
    }
    let at_l = opened
        .pop()
        .expect("the first script opens with three steps");
    let at_k = opened
        .pop()
        .expect("the first script opens with three steps");
    Ok(Oracle {
        digests,
        at_k,
        at_l,
    })
}

/// What the client measured.
#[derive(Default)]
struct ClientSamples {
    open: Vec<f64>,
    /// Script steps after the open whose session was resident.
    tick: Vec<f64>,
    /// Script steps whose response reports `restored`.
    restore: Vec<f64>,
    traced_ticks: Vec<f64>,
    plain_ticks: Vec<f64>,
}

struct Slot {
    id: usize,
    scripts_run: usize,
    path: Option<String>,
    step: usize,
    prev: Option<String>,
}

impl Slot {
    fn variant(&self, n: usize) -> usize {
        (self.id + self.scripts_run) % n
    }
}

/// Check one response against the oracle: (ok, restored).
fn verify(status: u16, resp: &str, expected: &str) -> (bool, bool) {
    let Ok(doc) = json::parse(resp) else {
        return (false, false);
    };
    let digest = doc.get("digest").and_then(Json::as_str);
    let restored = doc
        .path("provenance.restored")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    (status == 200 && digest == Some(expected), restored)
}

/// The client's connection, sessions and samples; it lives for the whole
/// run.
struct Driver {
    client: Client,
    slots: Vec<Slot>,
    out: ClientSamples,
}

impl Driver {
    fn connect(addr: SocketAddr, ids: impl Iterator<Item = usize>) -> std::io::Result<Driver> {
        Ok(Driver {
            client: Client::connect(addr)?,
            slots: ids
                .map(|id| Slot {
                    id,
                    scripts_run: 0,
                    path: None,
                    step: 0,
                    prev: None,
                })
                .collect(),
            out: ClientSamples::default(),
        })
    }

    /// Script steps answered so far, resident or restored.
    fn ticks(&self) -> usize {
        self.out.tick.len() + self.out.restore.len()
    }

    /// Visit every slot once.
    fn round(
        &mut self,
        scripts: &[Script],
        oracle: &Oracle,
        traced: bool,
        tally: &Tally,
    ) -> std::io::Result<()> {
        let (c, out) = (&mut self.client, &mut self.out);
        for slot in &mut self.slots {
            if let Some(path) = slot.path.clone() {
                let v = slot.variant(scripts.len());
                let (script, expected) = (&scripts[v], &oracle.digests[v]);
                let on = traced && slot.scripts_run % 2 == 0;
                trace::set_enabled(on);
                for _ in 0..BURST {
                    let Some(step) = script.get(slot.step) else {
                        break;
                    };
                    let b = body(step, slot.prev.as_deref()).unwrap_or_default();
                    trace::begin_request();
                    let (r, ms) =
                        timed("serve.load_tick", || c.request("POST", &path, b.as_bytes()));
                    let (status, resp) = r?;
                    let (ok, restored) = verify(status, &resp, &expected[slot.step]);
                    if tally.check(ok, || {
                        format!("script {v} step {}: {status} {resp}", slot.step)
                    }) {
                        if restored {
                            out.restore.push(ms);
                        } else {
                            out.tick.push(ms);
                            if on {
                                out.traced_ticks.push(ms);
                            } else {
                                out.plain_ticks.push(ms);
                            }
                        }
                        slot.step += 1;
                        slot.prev = Some(resp);
                    } else {
                        // Out of step with the replay: start the script over.
                        slot.step = script.len();
                        break;
                    }
                }
                if slot.step >= script.len() {
                    c.request("DELETE", path.trim_end_matches("/command"), b"")?;
                    slot.path = None;
                    slot.scripts_run += 1;
                }
            }
            // A script that just ended freed a resident place, so the
            // open that follows it evicts no one: checkpoint writes land
            // on the restore ticks only.
            if slot.path.is_none() {
                let v = slot.variant(scripts.len());
                let (script, expected) = (&scripts[v], &oracle.digests[v]);
                trace::set_enabled(traced && slot.scripts_run % 2 == 0);
                trace::begin_request();
                // Only the round trips are timed; the responses are
                // checked afterwards.
                let (opened, ms) = timed(
                    "serve.tcp_open",
                    || -> std::io::Result<(String, Vec<(u16, String)>)> {
                        let path = format!("/api/session/{}/command", c.create(b"")?);
                        let mut resps: Vec<(u16, String)> = Vec::with_capacity(OPEN_STEPS);
                        for step in &script[..OPEN_STEPS] {
                            let prev = resps.last().map(|(_, r)| r.as_str());
                            let b = body(step, prev).unwrap_or_default();
                            resps.push(c.request("POST", &path, b.as_bytes())?);
                        }
                        Ok((path, resps))
                    },
                );
                let (path, mut resps) = opened?;
                let ok = resps
                    .iter()
                    .zip(expected)
                    .all(|((status, resp), exp)| verify(*status, resp, exp).0);
                let last = resps.pop().map(|(_, r)| r);
                if tally.check(ok, || format!("open of script {v} differs from its replay")) {
                    out.open.push(ms);
                }
                slot.path = Some(path);
                slot.step = OPEN_STEPS;
                slot.prev = last;
            }
        }
        trace::set_enabled(false);
        Ok(())
    }
}

struct Deployment {
    catalog: Arc<Catalog>,
    engine: Arc<Explorer>,
    gateway: Arc<Gateway>,
    server: Server,
    oracle: Oracle,
    store: std::path::PathBuf,
}

/// Generate the table, replay the scripts, start the server over a
/// fresh store and send every script through it once.
fn deploy(scratch: &Scratch, scripts: &[Script], tally: &Tally) -> Result<Deployment> {
    let table =
        qagview_datagen::movielens::generate(&qagview_datagen::movielens::MovieLensConfig {
            ratings: 50_000,
            ..Default::default()
        })?;
    let mut c = Catalog::new();
    c.register("ratingtable", table);
    let catalog = Arc::new(c);
    let oracle_engine = ops::engine(&catalog, &scratch.fresh("oracle-store")?);
    let oracle = replay(
        &oracle_engine,
        scripts,
        &scratch.fresh("oracle-checkpoints")?,
    )?;
    let store = scratch.fresh("store")?;
    let engine = ops::engine(&catalog, &store);
    let gateway = Arc::new(Gateway::new(
        Arc::clone(&engine),
        GatewayConfig {
            sessions: SessionConfig {
                max_resident: RESIDENT,
                checkpoint_dir: Some(scratch.fresh("checkpoints")?),
                ..SessionConfig::default()
            },
            ..GatewayConfig::default()
        },
    ));
    let server = Server::start(Arc::clone(&gateway), "127.0.0.1:0", ServerConfig::default())?;
    let addr = server.addr();
    // Warm-up: every script once, sequentially.
    let mut c = Client::connect(addr)?;
    for (v, script) in scripts.iter().enumerate() {
        let path = format!("/api/session/{}/command", c.create(b"")?);
        let mut prev: Option<String> = None;
        for (i, step) in script.iter().enumerate() {
            let b = body(step, prev.as_deref()).unwrap_or_default();
            let (status, resp) = c.request("POST", &path, b.as_bytes())?;
            tally.check(verify(status, &resp, &oracle.digests[v][i]).0, || {
                format!("warm-up script {v} step {i}: {status} {resp}")
            });
            prev = Some(resp);
        }
        c.request("DELETE", path.trim_end_matches("/command"), b"")?;
    }
    Ok(Deployment {
        catalog,
        engine,
        gateway,
        server,
        oracle,
        store,
    })
}

pub fn run(args: &Args, tally: &Tally) -> Result<Outcome> {
    let scratch = Scratch::new(args.workload)?;
    let scripts = scripts();
    let mut samples = Samples::default();
    let mut deployed: Option<Deployment> = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut d) = deployed.take() {
            d.server.shutdown();
        }
        let t = Instant::now();
        deployed = Some(deploy(&scratch, &scripts, tally)?);
        samples.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut deployed = deployed.expect("at least one set-up repetition");
    let addr = deployed.server.addr();

    // Each round over the slots is followed by in-process ops: a warm
    // start or a first paint in turn, and a few restore ticks. The host switches
    // between a fast and a slow state several times a second; spread this
    // finely, the in-process ops see the same mix of states as the TCP
    // load. A traced run probes after the last round.
    //
    // The restore ticks resume one checkpoint of the opened view on the
    // serving engine, as the in-process workloads do. A restored command
    // over TCP also waits for the eviction that makes room for it, whose
    // `fsync` is two thirds of it and follows the shared disk; it counts in
    // `ticks_per_s` and its median goes to the context line.
    let (session, _, _) = ops::open_view(&deployed.engine, SQL, OPEN_L)?;
    let cp = session.checkpoint();
    drop(session);
    let cp_path = scratch.fresh("restore")?.join(checkpoint_file_name(0));
    cp.save_io(&RealIo, &cp_path)?;
    // The seed shifts which script each slot starts with.
    let shift = args.seed as usize % scripts.len();
    let mut driver = Driver::connect(addr, (0..SLOTS).map(|s| s + shift))?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut throughput = Vec::new();
    let (mut window_start, mut window_tcp, mut window_ticks) = (Instant::now(), 0.0, 0);
    let mut paint = false;
    while Instant::now() < deadline {
        let (t, ticks) = (Instant::now(), driver.ticks());
        driver.round(&scripts, &deployed.oracle, args.trace, tally)?;
        window_tcp += t.elapsed().as_secs_f64();
        window_ticks += driver.ticks() - ticks;
        if window_start.elapsed() >= THROUGHPUT_WINDOW {
            throughput.push(window_ticks as f64 / window_tcp);
            (window_start, window_tcp, window_ticks) = (Instant::now(), 0.0, 0);
        }
        if paint {
            let fp_store = scratch.fresh("first-paint")?;
            trace::begin_request();
            let (painted, ms) = timed("explore.first_paint", || {
                let e = ops::engine(&deployed.catalog, &fp_store);
                e.open_session(ops::first_paint_spec(SQL)).map(|_| ())
            });
            if tally.result(painted, "first paint").is_some() {
                samples.first_paint.push(ms);
            }
        } else {
            trace::begin_request();
            let (warm, ms) = timed("explore.warm_start", || {
                let e = ops::engine(&deployed.catalog, &deployed.store);
                ops::open_view(&e, SQL, OPEN_L).map(|(_, _, at_l)| at_l)
            });
            if let Some(at_l) = tally.result(warm, "warm start") {
                samples.warm_start.push(ms);
                tally.check(same_view_bits(&at_l, &deployed.oracle.at_l), || {
                    "warm start differs from the replayed open".to_string()
                });
            }
        }
        paint = !paint;
        for _ in 0..RESTORES_PER_ROUND {
            let cmd = ExploreCommand::SetK(1 + samples.restore.len() % RESTORE_KS);
            if let Some(ms) = ops::restore_tick(&deployed.engine, &cp, cmd, &cp_path, tally)? {
                samples.restore.push(ms);
            }
        }
    }
    let c = driver.out;
    samples.ticks_per_s = crate::stats::median(&throughput).unwrap_or(f64::NAN);
    samples.open = c.open;
    samples.tick = c.tick;

    let fp_store = scratch.fresh("first-paint")?;
    let promoted = ops::promotion_matches(&deployed.catalog, &fp_store, SQL, &deployed.oracle.at_k);
    if let Some(ok) = tally.result(promoted, "AwaitExact promotion") {
        tally.check(ok, || {
            "promoted first paint differs from the exact open".to_string()
        });
    }

    let mut layers = LayerInputs {
        rows: deployed.catalog.require("ratingtable")?.num_rows(),
        ..LayerInputs::default()
    };
    if args.trace {
        trace::set_enabled(true);
        tally.result(
            serve_probe(
                &deployed.gateway,
                &deployed.engine,
                addr,
                SQL,
                PROBE_TICKS,
                tally,
            ),
            "serve probe",
        );
        let warm = replay(
            &deployed.engine,
            &scripts,
            &scratch.fresh("replay-checkpoints")?,
        );
        if let Some(warm) = tally.result(warm, "in-process script replay") {
            tally.check(warm.digests == deployed.oracle.digests, || {
                "in-process replay on the serving engine differs from the fresh replay".to_string()
            });
        }
        for _ in 0..REPLAYS {
            let store = scratch.fresh("replay-store")?;
            let planes = scratch.fresh("replay-planes")?;
            tally.result(
                replay_open(&deployed.catalog, &store, &planes, SQL, OPEN_L),
                "stage replay",
            );
        }
        trace::set_enabled(false);
    }

    deployed.server.shutdown();

    let m = deployed.gateway.metrics();
    let mut context = BTreeMap::new();
    context.insert("rows".to_string(), Json::from(layers.rows));
    context.insert(
        "answers".to_string(),
        Json::from(deployed.oracle.at_l.summary.total),
    );
    context.insert("sessions".to_string(), Json::from(SLOTS));
    context.insert("resident_cap".to_string(), Json::from(RESIDENT));
    context.insert("clients".to_string(), Json::from(1u64));
    context.insert(
        "tcp_restore_ms_p50".to_string(),
        Json::from(windowed_percentile(&c.restore, 50, WINDOWS).map_or(f64::NAN, |p| p.value)),
    );
    let report = if args.trace {
        let mut totals = EngineTotals::default();
        totals.add(&deployed.engine.stats());
        layers.totals = totals;
        layers.serve_evictions = m.sessions_evicted.load(Ordering::Relaxed);
        layers.serve_restores = m.sessions_restored.load(Ordering::Relaxed);
        layers.overhead_pct = metrics::overhead_pct(&c.traced_ticks, &c.plain_ticks);
        metrics::per_layer(&trace::spans(), &layers)
    } else {
        let mut support = BTreeMap::new();
        let r = metrics::end_to_end(&samples, WINDOWS, &mut support);
        context.insert("support".to_string(), Json::Obj(support));
        r
    };
    Ok(Outcome { report, context })
}
