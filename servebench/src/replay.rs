//! The traced replay: the generated inputs of all three workloads (the
//! server saw those of one) fed in-process through each crate's public
//! functions, with bench-owned spans around every call.
//!
//! Term documents go through `trees::parse_tree`, the engine's output
//! bound pre-flight (`CompiledDtop::eval_dag`, which the server runs
//! because it bounds output size), `CompiledDtop::eval` and `Tree`'s
//! `Display`. XML documents go through stacked passes over the same event
//! stream (tokenize only, then with the ranked encoding, then with the
//! lockstep guard, then with streaming evaluation), so the fused server
//! path still splits into layers; the output is serialized in a pass of
//! its own. Each request is also run whole through `xtt_engine::Engine`
//! with the server's options (one thread), which gives the in-process
//! time per request body and the denominator of `engine.coverage`. The
//! learn cycle goes through `rpni_dtop`, `compile`, `domain_guard` and
//! `pipeline::plan`, as the server's `PUT ?learn=1` and
//! `PUT /pipelines` do.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use xtt_automata::Dtta;
use xtt_core::{rpni_dtop, Sample};
use xtt_engine::{
    compile, unknown_symbol, ChainedEvaluator, CompiledDtop, DocFormat, Engine, EngineOptions,
    EvalMode, EvalScratch, GuardedSource, OutputSink, StreamEvaluator, TreeCollector,
    TreeEventSource, XmlCodec, XmlRankedEvents,
};
use xtt_pipeline::{plan, Plan, StageDef, StrategyChoice};
use xtt_transducer::Dtop;
use xtt_trees::{parse_tree, RankedAlphabet, Symbol, Tree, TreeDag, TreeEvent};
use xtt_typecheck::{domain_guard, CompiledDtta};
use xtt_unranked::UnrankedEvents;

use crate::gen::{self, Chain, Expect, Fixtures, Request, XmlKind, PLACEHOLDER};

/// The server's default output-node bound (`--max-output`), which makes
/// it run the DAG pre-flight on every materialized document.
const MAX_OUTPUT_NODES: u64 = 10_000_000;
/// Passes over the learn cycle (medians are taken over all of them).
const LEARN_PASSES: usize = 3;

/// One recorded span: a layer call.
struct Span {
    name: &'static str,
    ns: u64,
}

#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// Input bytes per layer name (MB/s denominators).
    bytes: BTreeMap<&'static str, u64>,
    counters: BTreeMap<&'static str, f64>,
    learn: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    fn time<R>(&mut self, name: &'static str, bytes: usize, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        let ns = t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, ns });
        *self.bytes.entry(name).or_default() += bytes as u64;
        r
    }

    fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_default() += v;
    }

    fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns)
            .sum()
    }

    /// Duration of the most recent span, in ms.
    fn last_ms(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.ns as f64 / 1e6)
    }

    /// MB/s of the layer whose self time is `Σ spans(names) − Σ
    /// spans(minus)` over the input bytes recorded with `names`.
    fn mb_per_s(&self, names: &[&str], minus: &[&str]) -> f64 {
        let sum = |ns: &[&str]| ns.iter().map(|n| self.total_ns(n) as f64).sum::<f64>();
        let ns = sum(names) - sum(minus);
        let bytes: u64 = names.iter().filter_map(|n| self.bytes.get(n)).sum();
        if ns <= 0.0 || bytes == 0 {
            return 0.0;
        }
        bytes as f64 / ns * 1e3
    }

    /// Per-layer metrics of the replay.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let c = |k: &str| self.counters.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let learn = |k: &str| crate::stats::median(self.learn.get(k).map_or(&[][..], |v| &v[..]));
        let layers: f64 = [
            "trees.parse_tree",
            "engine.preflight",
            "engine.eval",
            "trees.display",
            "xml.eval_pass",
            "engine.emit",
            "unranked.decode",
        ]
        .iter()
        .map(|n| self.total_ns(n) as f64)
        .sum();
        vec![
            (
                "trees.parse_tree.mb_per_s",
                self.mb_per_s(&["trees.parse_tree"], &[]),
            ),
            (
                "trees.display.mb_per_s",
                self.mb_per_s(&["trees.display"], &[]),
            ),
            ("trees.symbols_interned", c("symbols_interned")),
            (
                "xml.tokenize.mb_per_s",
                self.mb_per_s(&["fcns.tokenize", "ranked.tokenize"], &[]),
            ),
            (
                "unranked.encode.mb_per_s",
                self.mb_per_s(&["fcns.encode_pass"], &["fcns.tokenize"]),
            ),
            (
                "unranked.decode.mb_per_s",
                self.mb_per_s(&["unranked.decode"], &[]),
            ),
            (
                "typecheck.guard.mb_per_s",
                self.mb_per_s(
                    &["xml.guard_pass"],
                    &["fcns.encode_pass", "ranked.encode_pass"],
                ),
            ),
            (
                "engine.stream_eval.mb_per_s",
                self.mb_per_s(&["xml.eval_pass"], &["xml.guard_pass"]),
            ),
            ("engine.emit.mb_per_s", self.mb_per_s(&["engine.emit"], &[])),
            (
                "engine.preflight.mb_per_s",
                self.mb_per_s(&["engine.preflight"], &[]),
            ),
            ("engine.eval.mb_per_s", self.mb_per_s(&["engine.eval"], &[])),
            (
                "engine.early_event_ratio",
                ratio(c("events_early"), c("events_total")),
            ),
            ("engine.peak_buffered_frames", c("peak_buffered_frames")),
            (
                "engine.skipped_subtrees_ratio",
                ratio(c("skipped_subtrees"), c("deletable_subtrees")),
            ),
            (
                "typecheck.reject_consumed_ratio",
                ratio(c("reject_consumed"), c("rejected_docs")),
            ),
            ("core.rpni_dtop.ms", learn("core.rpni_dtop")),
            ("core.sample_nodes", learn("core.sample_nodes")),
            ("pipeline.plan.ms", learn("pipeline.plan")),
            ("pipeline.probe_ms", learn("pipeline.probe")),
            ("engine.compile.ms", learn("engine.compile")),
            ("typecheck.domain_guard.ms", learn("typecheck.domain_guard")),
            (
                "engine.coverage",
                ratio(layers, self.total_ns("engine.whole") as f64),
            ),
        ]
    }
}

/// A source that declines the skip fast path, so every stacked pass sees
/// the same events.
struct NoSkip<S>(S);

impl<S: TreeEventSource> TreeEventSource for NoSkip<S> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        self.0.next_event()
    }
}

/// The ranked event stream of one XML document: ranked XML read
/// directly, or unranked XML through the fc/ns encoder.
enum Source<'a> {
    Ranked(XmlRankedEvents<'a>),
    Fcns(UnrankedEvents<'a>),
}

impl<'a> Source<'a> {
    fn new(kind: XmlKind, doc: &'a str) -> Source<'a> {
        match kind {
            XmlKind::Flip => Source::Ranked(XmlRankedEvents::bounded(doc)),
            _ => Source::Fcns(XmlCodec::fcns_bounded(unknown_symbol()).events(doc)),
        }
    }
}

impl TreeEventSource for Source<'_> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        match self {
            Source::Ranked(s) => s.next_event(),
            Source::Fcns(s) => s.next()?.ok(),
        }
    }

    fn skip_subtree(&mut self) -> bool {
        match self {
            Source::Ranked(s) => s.skip_subtree(),
            Source::Fcns(s) => s.skip_subtree().unwrap_or(true),
        }
    }
}

/// Discards output events.
struct NullSink;

impl OutputSink for NullSink {
    fn event(&mut self, _ev: TreeEvent) -> io::Result<()> {
        Ok(())
    }
}

fn drain(mut s: impl TreeEventSource) -> u64 {
    let mut n = 0;
    while s.next_event().is_some() {
        n += 1;
    }
    n
}

fn engine() -> Engine {
    Engine::new(EngineOptions {
        workers: 1,
        max_output_nodes: Some(MAX_OUTPUT_NODES),
        ..EngineOptions::default()
    })
}

/// Gives every garbage placeholder of `doc` a never-seen name.
fn fresh_names(doc: &str, next: &mut u32) -> String {
    let mut out = doc.to_owned();
    while let Some(i) = out.find(PLACEHOLDER) {
        out.replace_range(i..i + PLACEHOLDER.len(), &format!("zr{:08x}", *next));
        *next = next.wrapping_add(1);
    }
    out
}

/// Replays `term_batch` requests; returns each request's in-process time
/// run whole through the engine, in ms.
pub fn term(
    tr: &mut Trace,
    pool: &[Request],
    fx: &Fixtures,
    seed: u64,
) -> Result<Vec<f64>, String> {
    let engine = engine();
    let probe = |tag: &str| Symbol::new(&format!("__servebench_probe_{tag}_{seed:x}")).id();
    let before = probe("before");
    let mut next = (seed as u32).wrapping_mul(0x2545_f491);
    let compiled: BTreeMap<&str, Arc<CompiledDtop>> = ["flip", "library"]
        .into_iter()
        .map(|n| (n, engine.compiled(fx.term(n)).expect("fixtures compile")))
        .collect();
    let mut scratch = EvalScratch::new();
    let mut dag_scratch = EvalScratch::new();
    let mut dag = TreeDag::new();
    let mut whole_ms = Vec::with_capacity(pool.len());
    for req in pool {
        let dtop = fx.term(&req.target);
        let c = &compiled[req.target.as_str()];
        let docs: Vec<String> = req.docs.iter().map(|d| fresh_names(d, &mut next)).collect();
        for doc in &docs {
            let t = tr.time("trees.parse_tree", doc.len(), || parse_tree(doc));
            let t = t.map_err(|e| format!("replay parse: {e}"))?;
            let size = tr.time("engine.preflight", doc.len(), || {
                c.eval_dag(&t, &mut dag_scratch, &mut dag)
                    .map(|id| dag.tree_size(id))
            });
            if size.is_none() {
                continue;
            }
            let out = tr.time("engine.eval", doc.len(), || c.eval(&t, &mut scratch));
            let out = out.ok_or("replay: compiled eval disagrees with the pre-flight")?;
            let text = tr.time("trees.display", 0, || out.to_string());
            *tr.bytes.entry("trees.display").or_default() += text.len() as u64;
        }
        let results = tr.time("engine.whole", 0, || {
            engine.transform_batch_with_validation(
                dtop,
                &docs,
                EvalMode::Compiled,
                DocFormat::Term,
                false,
            )
        });
        whole_ms.push(tr.last_ms());
        for (i, (got, want)) in results.iter().zip(&req.expect).enumerate() {
            let same = match (got, want) {
                (Ok(g), Expect::Out(w)) => g == w,
                (Err(_), Expect::Reject { .. }) => true,
                _ => false,
            };
            if !same {
                return Err(format!(
                    "replay: {} document {i} disagrees with the oracle",
                    req.target
                ));
            }
        }
    }
    tr.count("symbols_interned", (probe("after") - before - 1) as f64);
    Ok(whole_ms)
}

/// What one XML request kind runs on, in process.
struct XmlTarget {
    dtop: Option<Dtop>,
    stages: Vec<Arc<CompiledDtop>>,
    guard: Arc<CompiledDtta>,
    plan: Option<Plan>,
}

fn xml_targets(fx: &Fixtures) -> Result<BTreeMap<&'static str, XmlTarget>, String> {
    let single = |d: &Dtop| -> Result<XmlTarget, String> {
        Ok(XmlTarget {
            dtop: Some(d.clone()),
            stages: vec![Arc::new(compile(d).map_err(|e| e.to_string())?)],
            guard: Arc::new(domain_guard(d).map_err(|e| e.to_string())?),
            plan: None,
        })
    };
    let stage = |name: &str, d: &Dtop| StageDef {
        name: name.to_owned(),
        dtop: Arc::new(d.clone()),
    };
    let pp = plan(
        &[stage("prune", &fx.prune), stage("relabel", &fx.relabel)],
        None,
        StrategyChoice::Auto,
    )
    .map_err(|e| e.to_string())?;
    let pipe = XmlTarget {
        dtop: None,
        stages: pp
            .exec_stages()
            .iter()
            .map(|s| Arc::clone(&s.compiled))
            .collect(),
        guard: pp.guard_arc(),
        plan: Some(pp),
    };
    Ok(BTreeMap::from([
        ("flip", single(&fx.flip)?),
        ("prune", single(&fx.prune)?),
        ("pp", pipe),
    ]))
}

/// Replays `xml_stream` requests; returns each request's in-process time
/// run whole through the engine, in ms.
pub fn xml(
    tr: &mut Trace,
    pool: &[Request],
    deletable: &[Vec<u64>],
    fx: &Fixtures,
) -> Result<Vec<f64>, String> {
    let targets = xml_targets(fx)?;
    let engine = engine();
    let mut single = StreamEvaluator::new();
    let mut chained = ChainedEvaluator::new();
    let fcns = DocFormat::Encoded(XmlCodec::fcns_bounded(unknown_symbol()));
    let mut whole_ms = vec![0.0; pool.len()];
    for (ri, req) in pool.iter().enumerate() {
        let kind = XmlKind::of(&req.target);
        let t = &targets[req.target.as_str()];
        let stages: Vec<&CompiledDtop> = t.stages.iter().map(|s| &**s).collect();
        let guard = &*t.guard;
        for ((doc, expect), di) in req.docs.iter().zip(&req.expect).zip(&deletable[ri]) {
            let accepted = matches!(expect, Expect::Out(_));
            let n = doc.len();
            let fcns_doc = kind != XmlKind::Flip;
            // Stacked passes; layer rates are taken over accepted
            // documents, whose passes all run to the end.
            let b = if accepted { n } else { 0 };
            let (tok, enc) = if fcns_doc {
                ("fcns.tokenize", "fcns.encode_pass")
            } else {
                ("ranked.tokenize", "ranked.encode_pass")
            };
            tr.time(tok, b, || {
                xtt_xml::xml_events(doc).filter(|e| e.is_ok()).count()
            });
            let events = tr.time(enc, b, || drain(NoSkip(Source::new(kind, doc))));
            tr.time("xml.guard_pass", b, || {
                drain(GuardedSource::new(guard, NoSkip(Source::new(kind, doc))))
            });
            let mut sink = NullSink;
            let ran = tr.time("xml.eval_pass", b, || {
                let mut src = GuardedSource::new(guard, NoSkip(Source::new(kind, doc)));
                match stages.as_slice() {
                    [one] => single.eval_streaming(one, &mut src, &mut sink),
                    _ => chained.eval_streaming(&stages, &mut src, &mut sink),
                }
            });
            let ran = ran.map_err(|e| e.to_string())?;
            if ran.is_some() != accepted {
                return Err(format!(
                    "replay: {} stream evaluation disagrees with the oracle",
                    req.target
                ));
            }
            if accepted {
                // The output tree, built untimed, then serialized timed.
                let mut collect = TreeCollector::new();
                let mut src = GuardedSource::new(guard, Source::new(kind, doc));
                match stages.as_slice() {
                    [one] => single.eval_streaming(one, &mut src, &mut collect),
                    _ => chained.eval_streaming(&stages, &mut src, &mut collect),
                }
                .map_err(|e| e.to_string())?;
                let out: Tree = collect.into_tree().ok_or("replay: no output tree")?;
                let text = if fcns_doc {
                    let codec = XmlCodec::fcns_bounded(unknown_symbol());
                    tr.time("unranked.decode", 0, || codec.decode_tree(&out))
                        .map_err(|e| e.to_string())?
                } else {
                    tr.time("engine.emit", 0, || xtt_engine::tree_to_xml(&out))
                };
                let layer = if fcns_doc {
                    "unranked.decode"
                } else {
                    "engine.emit"
                };
                *tr.bytes.entry(layer).or_default() += text.len() as u64;
            } else {
                // How far the guard read before rejecting.
                let mut run = guard.run();
                let mut src = NoSkip(Source::new(kind, doc));
                let mut consumed = 0u64;
                while let Some(ev) = src.next_event() {
                    consumed += 1;
                    if run.feed(ev).is_err() {
                        break;
                    }
                }
                tr.count("reject_consumed", consumed as f64 / events.max(1) as f64);
                tr.count("rejected_docs", 1.0);
            }
            // The whole request path, as the server runs it.
            let mut out = Vec::with_capacity(n);
            let res = tr.time("engine.whole", 0, || match (&t.dtop, &t.plan) {
                (Some(d), _) => {
                    let format = if fcns_doc {
                        fcns.clone()
                    } else {
                        DocFormat::Xml
                    };
                    engine.transform_streaming_with(d, doc, format, true, &mut out)
                }
                (None, Some(p)) => engine.transform_streaming_chain(
                    p.exec_stages(),
                    doc,
                    fcns.clone(),
                    Some(p.guard()),
                    &mut out,
                    None,
                ),
                (None, None) => unreachable!("every target has a dtop or a plan"),
            });
            whole_ms[ri] += tr.last_ms();
            match (res, expect) {
                (Ok(o), Expect::Out(w)) if out == w.as_bytes() => {
                    tr.count("events_early", o.events_emitted_early as f64);
                    tr.count("events_total", o.events_total as f64);
                    let peak = tr.counters.entry("peak_buffered_frames").or_default();
                    *peak = peak.max(o.peak_buffered_frames as f64);
                    if fcns_doc {
                        tr.count("skipped_subtrees", o.skipped_subtrees as f64);
                        tr.count("deletable_subtrees", *di as f64);
                    }
                }
                (Err(_), Expect::Reject { .. }) => {}
                _ => {
                    return Err(format!(
                        "replay: {} whole run disagrees with the oracle",
                        req.target
                    ))
                }
            }
        }
    }
    Ok(whole_ms)
}

/// Collects every `(symbol, arity)` of `trees` (mirrors what the server
/// infers for `?learn=1`).
fn alphabet<'a>(trees: impl Iterator<Item = &'a Tree>) -> RankedAlphabet {
    let mut alpha = RankedAlphabet::new();
    for t in trees {
        let mut stack = vec![t];
        while let Some(t) = stack.pop() {
            if alpha.rank(t.symbol()).is_none() {
                alpha.add(t.symbol(), t.arity());
            }
            stack.extend(t.children());
        }
    }
    alpha
}

/// Replays the learn cycle: learn, compile, guard and plan each chain.
pub fn learn(tr: &mut Trace, chains: &[Chain]) -> Result<(), String> {
    for _ in 0..LEARN_PASSES {
        for chain in chains {
            let pairs: Vec<(Tree, Tree)> =
                tr.time("serve.sample_parse", chain.sample.len(), || {
                    chain
                        .sample
                        .lines()
                        .filter_map(|l| l.split_once("=>"))
                        .map(|(i, o)| {
                            (
                                parse_tree(i.trim()).expect("sample"),
                                parse_tree(o.trim()).expect("sample"),
                            )
                        })
                        .collect()
                });
            let input = alphabet(pairs.iter().map(|p| &p.0));
            let output = alphabet(pairs.iter().map(|p| &p.1));
            let sample = Sample::from_pairs(pairs).map_err(|e| e.to_string())?;
            let nodes = sample.total_size() as f64;
            let domain = Dtta::universal(input);
            let learned = tr.time("core.rpni_dtop", 0, || rpni_dtop(&sample, &domain, &output));
            let rpni_ms = tr.last_ms();
            let dtop = learned.map_err(|e| e.to_string())?.dtop;
            tr.time("engine.compile", 0, || compile(&dtop))
                .map_err(|e| e.to_string())?;
            let compile_ms = tr.last_ms();
            tr.time("typecheck.domain_guard", 0, || domain_guard(&dtop))
                .map_err(|e| e.to_string())?;
            let guard_ms = tr.last_ms();
            let stages = [
                StageDef {
                    name: format!("l{}", chain.n),
                    dtop: Arc::new(dtop),
                },
                StageDef {
                    name: format!("u{}", chain.n),
                    dtop: Arc::new(gen::unchain(chain.n)),
                },
            ];
            let p = tr.time("pipeline.plan", 0, || {
                plan(&stages, None, StrategyChoice::Auto)
            });
            let plan_ms = tr.last_ms();
            let p = p.map_err(|e| e.to_string())?;
            let probe_ms = (p.report.composed_probe_ns + p.report.chained_probe_ns) as f64 / 1e6;
            for (k, v) in [
                ("core.rpni_dtop", rpni_ms),
                ("core.sample_nodes", nodes),
                ("engine.compile", compile_ms),
                ("typecheck.domain_guard", guard_ms),
                ("pipeline.plan", plan_ms),
                ("pipeline.probe", probe_ms),
            ] {
                tr.learn.entry(k).or_default().push(v);
            }
        }
    }
    Ok(())
}
