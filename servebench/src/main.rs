//! `servebench` — the serving benchmark of xtt.
//!
//! Drives the release `xtt-serve` binary as a separate process with
//! closed-loop keep-alive traffic on `nproc` connections (one thread
//! each), checks every response byte against the reference evaluator,
//! and prints each end-to-end metric with its unit and sample count. With
//! `--trace 1` it then replays the same inputs in-process through each
//! crate's public functions and prints the per-layer metrics instead
//! (see `layers.rs` for which end-to-end metric each should move).
//!
//! ```console
//! $ servebench --server <xtt-serve> --workload term_batch --seed 1 --seconds 10 --trace 0
//! $ servebench --server <xtt-serve> --workload term_batch --seed 1 --seconds 10 --trace 0 --repeat 10
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any wrong output byte
//! makes `correct` false and the exit code 1.

mod gen;
mod http;
mod layers;
mod load;
mod repeat;
mod replay;
mod server;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gen::{Chain, Fixtures, Request, XmlCorpus};
use load::{Class, Names, Tally};
use serde_json::Value;
use server::Server;

const USAGE: &str =
    "usage: servebench --server <xtt-serve binary> --workload <term_batch|xml_stream|learn_churn> \
--seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]";

/// `term_batch` request pool (half `flip`, half `library`).
const TERM_REQUESTS: usize = 512;
/// Setups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 11;
/// Requests sent per connection before the clock starts.
const WARMUP_REQUESTS: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    TermBatch,
    XmlStream,
    LearnChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "term_batch" => Some(Workload::TermBatch),
            "xml_stream" => Some(Workload::XmlStream),
            "learn_churn" => Some(Workload::LearnChurn),
            _ => None,
        }
    }
}

pub struct Args {
    server: PathBuf,
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repeat = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("seconds"))?),
            "--trace" => trace = Some(value == "1"),
            "--repeat" => repeat = Some(value.parse().map_err(|_| bad("repeat"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("missing --workload")?;
    Ok(Args {
        server: server.ok_or("missing --server")?,
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        workload_name: name,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        repeat,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(runs) = args.repeat {
        std::process::exit(repeat::run(&args, runs));
    }
    if !args.server.is_file() {
        eprintln!(
            "servebench: no xtt-serve binary at {}",
            args.server.display()
        );
        std::process::exit(1);
    }
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

/// A metric as printed and reported.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (0 = not a sample statistic).
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

struct Inputs {
    fx: Fixtures,
    term: Vec<Request>,
    xml: XmlCorpus,
    chains: Vec<Chain>,
    names: Names,
}

/// The workload's inputs. A traced run builds all three input sets, so
/// that every layer is replayed, and so measured, on every traced run.
fn generate(args: &Args, threads: usize) -> Inputs {
    let fx = Fixtures::new();
    let wants = |w: Workload| args.trace || args.workload == w;
    let term = if wants(Workload::TermBatch) || wants(Workload::LearnChurn) {
        gen::term_corpus(args.seed, TERM_REQUESTS, &fx)
    } else {
        Vec::new()
    };
    let xml = if wants(Workload::XmlStream) {
        gen::xml_corpus(args.seed, &fx)
    } else {
        XmlCorpus::default()
    };
    let chains = if wants(Workload::LearnChurn) {
        gen::chains(args.seed, threads)
    } else {
        Vec::new()
    };
    Inputs {
        names: Names::new(args.seed, 1 << 17),
        fx,
        term,
        xml,
        chains,
    }
}

/// Queue-wait histogram buckets (`le` in µs → cumulative count) from a
/// `/metrics` page.
fn queue_buckets(text: &str) -> Vec<(f64, f64)> {
    text.lines()
        .filter_map(|l| l.strip_prefix("xtt_queue_wait_micros_bucket{le=\""))
        .filter_map(|l| {
            let (le, rest) = l.split_once("\"}")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, rest.trim().parse().ok()?))
        })
        .collect()
}

/// The `q` quantile of the queue waits between two `/metrics` snapshots,
/// interpolated linearly inside its log₂ bucket (coarse: per-layer only).
fn queue_quantile(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> f64 {
    let count = |le: f64, n: f64| n - before.iter().find(|b| b.0 == le).map_or(0.0, |b| b.1);
    let total = after.last().map_or(0.0, |&(le, n)| count(le, n));
    let (mut lo, mut below) = (0.0, 0.0);
    for &(le, n) in after {
        let cum = count(le, n);
        if total > 0.0 && cum >= q * total {
            let hi = if le.is_finite() { le } else { lo };
            return lo + (hi - lo) * (q * total - below) / (cum - below).max(1.0);
        }
        (lo, below) = (le, cum);
    }
    0.0
}

/// Engine compile-cache hits and misses from a `/stats` page.
fn cache_counts(stats: &str) -> (f64, f64) {
    let v: Option<Value> = serde_json::from_str(stats).ok();
    let get = |k: &str| {
        v.as_ref()
            .and_then(|v| v.get("engine")?.get(k)?.as_f64())
            .unwrap_or(0.0)
    };
    (get("cache_hits"), get("cache_misses"))
}

/// What the server looked like around the measured load.
struct Snapshots {
    metrics: [String; 2],
    stats: [String; 2],
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t_gen = Instant::now();
    let inputs = generate(args, nproc);
    eprintln!(
        "servebench: {} seed {}: inputs generated in {:.2}s; {nproc} connections, {nproc} server workers",
        args.workload_name,
        args.seed,
        t_gen.elapsed().as_secs_f64(),
    );

    // Set-up (spawn → ready, everything registered), several times.
    let puts = gen::registrations(&inputs.fx);
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_RUNS {
        let (server, secs) =
            Server::setup(&args.server, nproc, &puts).map_err(|e| format!("setup: {e}"))?;
        setups.push(secs);
        if let Some(previous) = kept.replace(server) {
            previous.stop();
        }
    }
    let server = kept.expect("at least one set-up");

    let pool: &[Request] = match args.workload {
        Workload::XmlStream => &inputs.xml.requests,
        _ => &inputs.term,
    };
    let streamed = args.workload == Workload::XmlStream;
    let addr = server.addr;
    let names = &inputs.names;
    let chains = &inputs.chains;

    // Warm-up: unmeasured, but checked like everything else.
    let later = Instant::now() + Duration::from_secs(3600);
    let mut tally = load::transforms(addr, pool, 0, streamed, names, later, WARMUP_REQUESTS);
    tally.samples.clear();

    let get = |path: &str| server.get(path).map_err(|e| format!("GET {path}: {e}"));
    let (metrics_before, stats_before) = (get("/metrics")?, get("/stats")?);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let load: Tally = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc)
            .map(|c| {
                let churner = args.workload == Workload::LearnChurn && c == 0;
                s.spawn(move || {
                    if churner {
                        load::churn(addr, chains, deadline)
                    } else {
                        let start = c * pool.len() / nproc;
                        load::transforms(addr, pool, start, streamed, names, deadline, usize::MAX)
                    }
                })
            })
            .collect();
        let mut all = Tally::default();
        for h in handles {
            all.merge(h.join().expect("load thread"));
        }
        all
    });
    let elapsed = started.elapsed().as_secs_f64();
    let snaps = Snapshots {
        metrics: [metrics_before, get("/metrics")?],
        stats: [stats_before, get("/stats")?],
    };
    let peak_rss_mb = server
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM")?;
    server.stop();
    let docs_ok = load.docs_ok;
    tally.merge(load);
    for e in &tally.errors {
        eprintln!("servebench: WRONG OUTPUT: {e}");
    }

    let ms = |class: Class, ttfb: bool| -> Vec<f64> {
        tally
            .of(class)
            .map(|s| if ttfb { s.ttfb_ms } else { s.lat_ms })
            .collect()
    };
    let reads = ms(Class::Transform, false);
    let ttfb = ms(Class::Transform, true);
    let p = stats::percentile;
    let mut all = vec![
        metric(
            "docs_per_s",
            docs_ok as f64 / elapsed,
            "1/s",
            docs_ok as usize,
        ),
        metric("req_p50_ms", p(&reads, 50.0), "ms", reads.len()),
        metric("req_p99_ms", p(&reads, 99.0), "ms", reads.len()),
        metric("ttfb_p50_ms", p(&ttfb, 50.0), "ms", ttfb.len()),
    ];
    if args.workload == Workload::LearnChurn {
        let (learn, register, cold) = (
            ms(Class::Learn, false),
            ms(Class::Register, false),
            ms(Class::Cold, false),
        );
        all.extend([
            metric("learn_p50_ms", p(&learn, 50.0), "ms", learn.len()),
            metric("register_p50_ms", p(&register, 50.0), "ms", register.len()),
            metric("cold_req_p50_ms", p(&cold, 50.0), "ms", cold.len()),
        ]);
    }
    all.extend([
        metric(
            "error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
            tally.attempted as usize,
        ),
        metric("setup_s", stats::median(&setups), "s", setups.len()),
        metric("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]);
    print_metrics(&all);
    let reported: Vec<Metric> = if args.trace {
        let mut tr = replay::Trace::default();
        let term_ms = replay::term(&mut tr, &inputs.term, &inputs.fx, args.seed)?;
        let xml_ms = replay::xml(
            &mut tr,
            &inputs.xml.requests,
            &inputs.xml.deletable,
            &inputs.fx,
        )?;
        replay::learn(&mut tr, chains)?;
        let whole_ms = match args.workload {
            Workload::XmlStream => xml_ms,
            _ => term_ms,
        };
        let mut layers = serve_layers(&tally, &whole_ms, &snaps);
        layers.extend(tr.metrics().into_iter().map(|(n, v)| (n, v, 0)));
        let layer_metrics: Vec<Metric> = layers::LAYERS
            .iter()
            .map(|l| {
                let (_, value, n) = layers
                    .iter()
                    .find(|v| v.0 == l.name)
                    .copied()
                    .unwrap_or_else(|| panic!("no value for layer metric {}", l.name));
                metric(l.name, value, l.unit, n)
            })
            .collect();
        print_metrics(&layer_metrics);
        layer_metrics
    } else {
        all.into_iter()
            .filter(|m| layers::GATED.contains(&m.name))
            .collect()
    };
    let correct = tally.failed == 0;
    let result = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::UInt(tally.attempted)),
        ("failed".to_owned(), Value::UInt(tally.failed)),
        (
            "metrics".to_owned(),
            Value::Object(
                reported
                    .iter()
                    .map(|m| {
                        let entry = Value::Object(vec![
                            ("value".to_owned(), Value::Float(m.value)),
                            ("unit".to_owned(), Value::String(m.unit.to_owned())),
                        ]);
                        (m.name.to_owned(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    Ok(correct)
}

fn print_metrics(ms: &[Metric]) {
    for m in ms {
        let n = if m.samples > 0 {
            format!(" (n={})", m.samples)
        } else {
            String::new()
        };
        let moves = layers::LAYERS
            .iter()
            .find(|l| l.name == m.name)
            .map_or(String::new(), |l| format!("  -> {}", l.moves));
        println!("{:<32} {:>14.4} {}{n}{moves}", m.name, m.value, m.unit);
    }
}

/// The serving layer's metrics: from the load's own samples, the replay's
/// in-process time per request body, and `/metrics` and `/stats` deltas.
fn serve_layers(
    tally: &Tally,
    whole_ms: &[f64],
    snaps: &Snapshots,
) -> Vec<(&'static str, f64, usize)> {
    let reads: Vec<&load::Sample> = tally.of(Class::Transform).collect();
    let outside: Vec<f64> = reads.iter().map(|s| s.lat_ms - whole_ms[s.req]).collect();
    let slow = reads.iter().filter(|s| s.lat_ms >= 40.0).count();
    let (qb, qa) = (
        queue_buckets(&snaps.metrics[0]),
        queue_buckets(&snaps.metrics[1]),
    );
    let (h0, m0) = cache_counts(&snaps.stats[0]);
    let (h1, m1) = cache_counts(&snaps.stats[1]);
    let lookups = (h1 - h0) + (m1 - m0);
    vec![
        (
            "engine.cache_hit_ratio",
            if lookups > 0.0 {
                (h1 - h0) / lookups
            } else {
                0.0
            },
            lookups as usize,
        ),
        (
            "serve.outside_engine_ms_p50",
            stats::percentile(&outside, 50.0),
            outside.len(),
        ),
        (
            "serve.req_ge_40ms_share",
            slow as f64 / reads.len().max(1) as f64,
            reads.len(),
        ),
        ("serve.queue_wait_us_p50", queue_quantile(&qb, &qa, 0.50), 0),
        ("serve.queue_wait_us_p99", queue_quantile(&qb, &qa, 0.99), 0),
        ("serve.reconnects", tally.reconnects as f64, 0),
    ]
}
