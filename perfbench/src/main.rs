//! The qagview end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <scan_5m|plane_wide|serve_sessions> --seed N --seconds S --trace <0|1>
//! perfbench steady --workload W [--runs N] [--seconds S] [--trace 0|1] [--first-seed B]
//! ```
//!
//! A run generates its tables (the generators' default seeds) and its op
//! stream (from `--seed`), sets up several times, measures for
//! `--seconds`, checks every output, and prints two lines on
//! stdout: the run's context (host, sizes, engine configuration, sample
//! counts), then the result — `correct`, `attempted`, `failed` and the
//! metrics, end-to-end with `--trace 0`, per layer with `--trace 1`. A
//! failed check makes it exit 1. `steady` runs one workload N times with
//! consecutive seeds and prints each metric's spread across the runs.
//! See README.md.

mod client;
mod host;
mod inproc;
mod metrics;
mod ops;
mod serve;
mod stats;
mod steady;
mod trace;

use qagview_common::json::Json;
use qagview_datagen::movielens::{self, MovieLensConfig};
use qagview_datagen::tpcds::{self, StoreSalesConfig};
use qagview_interactive::ExplorerConfig;
use qagview_storage::{Catalog, TableBuilder};
use std::collections::BTreeMap;

/// Errors of the benchmark's own code and of every layer it calls.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

pub const WORKLOADS: [&str; 3] = ["scan_5m", "plane_wide", "serve_sessions"];

/// The arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: its metrics and what they were measured on.
pub struct Outcome {
    pub report: stats::Report,
    pub context: BTreeMap<String, Json>,
}

const SCAN_ROWS: usize = 5_000_000;

/// `scan_5m`: the streaming MovieLens generator at 5M rows.
fn scan_catalog() -> Result<Catalog> {
    let mut b = TableBuilder::with_capacity(movielens::rating_schema(), SCAN_ROWS);
    for row in movielens::iter_rows(&MovieLensConfig {
        ratings: SCAN_ROWS,
        ..MovieLensConfig::default()
    }) {
        b.push_row(row)?;
    }
    let mut c = Catalog::new();
    c.register("ratingtable", b.finish());
    Ok(c)
}

/// `plane_wide`: TPC-DS `store_sales` at the generator's default 1/10
/// scale.
fn plane_catalog() -> Result<Catalog> {
    let mut c = Catalog::new();
    c.register(
        "store_sales",
        tpcds::generate(&StoreSalesConfig::default())?,
    );
    Ok(c)
}

/// The paper query over the first `m` MovieLens grouping attributes.
fn movielens_sql(m: usize) -> String {
    let g = ["hdec", "agegrp", "gender", "occupation", "region", "decade"][..m].join(", ");
    format!(
        "SELECT {g}, AVG(rating) AS val FROM ratingtable GROUP BY {g} \
         HAVING count(*) > 10 ORDER BY val DESC"
    )
}

/// The Fig. 9 query (m = 8).
const FIG9_SQL: &str = "SELECT item_category, month, demo_gender, demo_marital, demo_education, \
                        channel, demo_credit, year, AVG(net_profit) AS val FROM store_sales \
                        GROUP BY item_category, month, demo_gender, demo_marital, demo_education, \
                        channel, demo_credit, year HAVING count(*) > 1 ORDER BY val DESC";

fn run(args: &Args, tally: &ops::Tally) -> Result<Outcome> {
    match args.workload {
        "scan_5m" => inproc::run(
            &inproc::Shape {
                table: "ratingtable",
                variants: [3, 4, 6].iter().map(|&m| (movielens_sql(m), 40)).collect(),
                first_paints: 2,
                warm_every: 2,
                ticks: 100,
                restores: 10,
            },
            &scan_catalog,
            args,
            tally,
        ),
        "plane_wide" => inproc::run(
            &inproc::Shape {
                table: "store_sales",
                // L = 500 twice, so the median open falls inside one L's
                // opens instead of on the edge between two.
                variants: [100, 500, 1000, 500]
                    .iter()
                    .map(|&l| (FIG9_SQL.to_string(), l))
                    .collect(),
                first_paints: 2,
                warm_every: 1,
                ticks: 60,
                restores: 6,
            },
            &plane_catalog,
            args,
            tally,
        ),
        "serve_sessions" => serve::run(args, tally),
        other => unreachable!("workload {other} was validated"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>\n       \
         perfbench steady --workload W [--runs N] [--seconds S] [--trace 0|1] [--first-seed B]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// `--flag value` pairs into a map; every flag takes a value.
fn flags(mut args: impl Iterator<Item = String>) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument {flag:?}"));
        };
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        out.insert(name.to_string(), value);
    }
    out
}

fn parse<T: std::str::FromStr>(f: &BTreeMap<String, String>, name: &str, default: Option<T>) -> T {
    match f.get(name) {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage(&format!("--{name}: cannot parse {v:?}"))),
        None => default.unwrap_or_else(|| usage(&format!("--{name} is required"))),
    }
}

fn workload(f: &BTreeMap<String, String>) -> &'static str {
    let w: String = parse(f, "workload", None);
    WORKLOADS
        .into_iter()
        .find(|&k| k == w)
        .unwrap_or_else(|| usage(&format!("unknown workload {w:?}")))
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("steady") {
        argv.next();
        let f = flags(argv);
        let code = steady::run(
            workload(&f),
            parse(&f, "runs", Some(10)),
            parse(&f, "seconds", Some(30.0)),
            parse::<u8>(&f, "trace", Some(0)) == 1,
            parse(&f, "first-seed", Some(1)),
        );
        std::process::exit(code);
    }
    let f = flags(argv);
    for name in f.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(&name.as_str()) {
            usage(&format!("unknown flag --{name}"));
        }
    }
    let args = Args {
        workload: workload(&f),
        seed: parse(&f, "seed", None),
        seconds: parse(&f, "seconds", None),
        trace: parse::<u8>(&f, "trace", None) == 1,
    };
    let tally = ops::Tally::default();
    let steal_at_start = host::steal_s();
    let outcome = match run(&args, &tally) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.trace {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_jsonl(&trace::spans(), &path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }

    let mut context = outcome.context;
    context.insert("host".to_string(), host::describe());
    context.insert(
        "steal_s".to_string(),
        Json::from(host::steal_s() - steal_at_start),
    );
    context.insert("workload".to_string(), Json::from(args.workload));
    context.insert("seed".to_string(), Json::from(args.seed));
    context.insert("seconds".to_string(), Json::from(args.seconds));
    context.insert("trace".to_string(), Json::from(args.trace));
    context.insert(
        "explorer_config".to_string(),
        Json::from(format!(
            "{:?}",
            ExplorerConfig {
                store_dir: Some("<fresh directory per engine>".into()),
                ..ExplorerConfig::default()
            }
        )),
    );
    println!("{}", Json::obj([("context", Json::Obj(context))]).to_text());
    let (attempted, failed) = (tally.attempted(), tally.failed());
    println!(
        "{}",
        outcome.report.result_json(attempted, failed).to_text()
    );
    if failed > 0 {
        eprintln!("perfbench: {failed} of {attempted} ops failed");
        std::process::exit(1);
    }
}
