//! The in-process workloads, `scan_5m` and `plane_wide`: one driver
//! thread runs a closed loop of user operations on fresh engines over one
//! generated table.
//!
//! One cycle, on the cycle's query variant `(sql, L)`:
//! 1. **first paint** — a fresh engine opens an `Approximate` session with
//!    background refinement off;
//! 2. **open** — a fresh engine on an empty store opens an `Exact`
//!    session, then `SetK(6)` and `SetL(L)`;
//! 3. **warm start** (every `warm_every`-th cycle) — a second fresh engine
//!    on that store opens the same session; its view must equal the open's;
//! 4. **ticks** — `SetK`/`SetD` moves walking the plane's `(k, D)` grid on
//!    the newest session;
//! 5. **restore ticks** — the session is checkpointed to the store once and
//!    dropped; each restore tick loads it back, resumes it on the same
//!    engine and sends the next move of the walk. The restored view must
//!    equal that of a session resumed from the in-memory checkpoint.

use crate::client::serve_probe;
use crate::metrics::{self, LayerInputs, Samples};
use crate::ops::{self, replay_open, same_view_bits, EngineTotals, Scratch, Tally};
use crate::trace::{self, timed};
use crate::Result;
use crate::{Args, Outcome};
use qagview_common::io::RealIo;
use qagview_common::json::Json;
use qagview_interactive::{checkpoint_file_name, ExploreCommand};
use qagview_serve::{Gateway, GatewayConfig, Server, ServerConfig};
use qagview_storage::Catalog;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The shape of an in-process workload.
pub struct Shape {
    /// The table every variant reads.
    pub table: &'static str,
    /// Query variants `(sql, L)`, rotated one per cycle.
    pub variants: Vec<(String, usize)>,
    pub first_paints: usize,
    pub warm_every: usize,
    pub ticks: usize,
    pub restores: usize,
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Ticks sent through the serve probe of a traced run.
const PROBE_TICKS: usize = 200;

/// Planes materialize `k` up to this value, so every tick is a lookup.
const K_MAX: usize = 20;

/// Position `p` of a walk over the whole `(k, D)` grid of a plane over a
/// relation of arity `m`, as one knob move: `k` slides from 1 to
/// [`K_MAX`] at `D = 0`, back down at `D = 1`, and so on, so each step
/// moves exactly one knob.
fn tick(p: usize, m: usize) -> ExploreCommand {
    let p = p % (K_MAX * (m + 1));
    let (row, col) = (p / K_MAX, p % K_MAX);
    if col == 0 && p > 0 {
        ExploreCommand::SetD(row)
    } else if row % 2 == 0 {
        ExploreCommand::SetK(col + 1)
    } else {
        ExploreCommand::SetK(K_MAX - col)
    }
}

struct Run<'a> {
    shape: &'a Shape,
    seed: usize,
    scratch: Scratch,
    tally: &'a Tally,
    totals: EngineTotals,
    answers: BTreeMap<String, Json>,
    promotion_checked: bool,
}

impl Run<'_> {
    /// One cycle on `catalog`; returns the open's wall time.
    fn cycle(&mut self, catalog: &Arc<Catalog>, i: usize, s: &mut Samples) -> Result<Option<f64>> {
        let n = self.shape.variants.len();
        let (sql, l) = &self.shape.variants[(i + self.seed) % n];
        let (sql, l) = (sql.as_str(), *l);
        let tally = self.tally;

        let fp_store = self.scratch.fresh("first-paint")?;
        for _ in 0..self.shape.first_paints {
            trace::begin_request();
            let (painted, ms) = timed("explore.first_paint", || {
                let e = ops::engine(catalog, &fp_store);
                e.open_session(ops::first_paint_spec(sql)).map(|_| e)
            });
            if let Some(e) = tally.result(painted, "first paint") {
                s.first_paint.push(ms);
                self.totals.add(&e.stats());
            }
        }

        let store = self.scratch.fresh(&format!("cycle-{i}"))?;
        trace::begin_request();
        let (opened, open_ms) = timed("explore.open", || {
            let e = ops::engine(catalog, &store);
            ops::open_view(&e, sql, l).map(|(session, at_k, at_l)| (e, session, at_k, at_l))
        });
        let Some((mut engine, mut session, at_k, last)) = tally.result(opened, "cold open") else {
            return Ok(None);
        };
        s.open.push(open_ms);
        let m = last.summary.attr_names.len();
        self.answers
            .insert(format!("m={m} L={l}"), Json::from(last.summary.total));
        if !self.promotion_checked {
            self.promotion_checked = true;
            let ok = ops::promotion_matches(catalog, &fp_store, sql, &at_k);
            if let Some(ok) = tally.result(ok, "AwaitExact promotion") {
                tally.check(ok, || {
                    format!("promoted first paint differs from the exact open of {sql}")
                });
            }
        }

        if i.is_multiple_of(self.shape.warm_every) {
            trace::begin_request();
            let (warm, ms) = timed("explore.warm_start", || {
                let e = ops::engine(catalog, &store);
                ops::open_view(&e, sql, l).map(|(session, _, at_l)| (e, session, at_l))
            });
            if let Some((e, warm_session, warm_last)) = tally.result(warm, "warm start") {
                s.warm_start.push(ms);
                tally.check(same_view_bits(&last, &warm_last), || {
                    format!("warm start differs from its cold open ({sql}, L={l})")
                });
                self.totals.add(&engine.stats());
                (engine, session) = (e, warm_session);
            }
        }

        // Successive cycles of one variant walk successive stretches of
        // its grid.
        let walk = (i / n) * (self.shape.ticks + self.shape.restores) + self.seed * 37;
        for j in 0..self.shape.ticks {
            trace::begin_request();
            let (r, ms) = timed("explore.apply", || session.apply(tick(walk + j, m)));
            if tally.result(r, "tick").is_some() {
                s.tick.push(ms);
            }
        }

        // The session is checkpointed once; each restore tick loads that
        // checkpoint, resumes it on the engine and sends the next move.
        let cp = session.checkpoint();
        drop(session);
        let path = store.join(checkpoint_file_name(0));
        trace::begin_request();
        timed("checkpoint.save", || cp.save_io(&RealIo, &path)).0?;
        trace::count("checkpoint.bytes", std::fs::metadata(&path)?.len() as f64);
        for j in 0..self.shape.restores {
            let cmd = tick(walk + self.shape.ticks + j, m);
            if let Some(ms) = ops::restore_tick(&engine, &cp, cmd, &path, self.tally)? {
                s.restore.push(ms);
            }
        }
        self.totals.add(&engine.stats());
        Ok(Some(open_ms))
    }
}

/// Run an in-process workload on the table `generate` makes. The seed
/// picks the op stream: the first variant and where the tick walk starts.
pub fn run(
    shape: &Shape,
    generate: &dyn Fn() -> Result<Catalog>,
    args: &Args,
    tally: &Tally,
) -> Result<Outcome> {
    let mut run = Run {
        shape,
        seed: args.seed as usize,
        scratch: Scratch::new(args.workload)?,
        tally,
        totals: EngineTotals::default(),
        answers: BTreeMap::new(),
        promotion_checked: false,
    };
    let mut samples = Samples::default();

    // Set-up: generate the table and run one warm-up cycle, several
    // times; the last table is the one measured.
    let mut catalog: Option<Arc<Catalog>> = None;
    for _ in 0..SETUP_REPS {
        drop(catalog.take());
        let t = Instant::now();
        let c = Arc::new(generate()?);
        run.cycle(&c, 0, &mut Samples::default())?;
        samples.setup_s.push(t.elapsed().as_secs_f64());
        catalog = Some(c);
    }
    let catalog = catalog.expect("at least one set-up repetition");
    run.promotion_checked = false;
    run.totals = EngineTotals::default();
    let rows = catalog.require(shape.table)?.num_rows();

    let mut traced_opens = Vec::new();
    let mut plain_opens = Vec::new();
    let mut layers = LayerInputs {
        rows,
        ..LayerInputs::default()
    };
    if args.trace {
        trace::set_enabled(true);
        let dir = run.scratch.fresh("probe")?;
        let e = ops::engine(&catalog, &dir);
        let gateway = Arc::new(Gateway::new(Arc::clone(&e), GatewayConfig::default()));
        let mut server =
            Server::start(Arc::clone(&gateway), "127.0.0.1:0", ServerConfig::default())?;
        let probed = serve_probe(
            &gateway,
            &e,
            server.addr(),
            &shape.variants[0].0,
            PROBE_TICKS,
            tally,
        );
        server.shutdown();
        tally.result(probed, "serve probe");
        trace::set_enabled(false);
    }

    let start = Instant::now();
    let mut cycles = 0usize;
    // At least one traced and one untraced cycle, however short the run.
    while start.elapsed().as_secs_f64() < args.seconds || cycles < 2 {
        // The traced run alternates traced and untraced cycles; the gap
        // between their opens is what tracing costs.
        let traced = args.trace && cycles.is_multiple_of(2);
        trace::set_enabled(traced);
        let open_ms = run.cycle(&catalog, cycles, &mut samples)?;
        if traced {
            traced_opens.extend(open_ms);
            let (sql, l) = &shape.variants[(cycles + run.seed) % shape.variants.len()];
            let store = run.scratch.fresh("replay-store")?;
            let replay = run.scratch.fresh("replay-planes")?;
            tally.result(
                replay_open(&catalog, &store, &replay, sql, *l),
                "stage replay",
            );
        } else {
            plain_opens.extend(open_ms);
        }
        trace::set_enabled(false);
        cycles += 1;
    }

    samples.ticks_per_s = 1e3 / crate::stats::median(&samples.tick).unwrap_or(f64::NAN);

    let mut context = BTreeMap::new();
    context.insert("rows".to_string(), Json::from(rows));
    context.insert("answers".to_string(), Json::Obj(run.answers));
    context.insert("cycles".to_string(), Json::from(cycles));
    let report = if args.trace {
        layers.totals = run.totals;
        layers.overhead_pct = metrics::overhead_pct(&traced_opens, &plain_opens);
        metrics::per_layer(&trace::spans(), &layers)
    } else {
        let mut support = BTreeMap::new();
        let r = metrics::end_to_end(&samples, 1, &mut support);
        context.insert("support".to_string(), Json::Obj(support));
        r
    };
    Ok(Outcome { report, context })
}
