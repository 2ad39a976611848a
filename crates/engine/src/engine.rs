//! The serving layer: a worker pool over the compiled evaluator with an
//! LRU cache of compiled transducers.
//!
//! [`Engine::transform_batch`] takes documents as *text* (term syntax or
//! XML) and returns transformed text, which keeps the API `Send`-clean —
//! the `Rc`-based [`xtt_trees::Tree`] never crosses a thread boundary;
//! each worker parses, evaluates (with its own warm [`EvalScratch`] /
//! [`StreamEvaluator`]), and serializes locally. Work is distributed by an
//! atomic cursor, so skewed document sizes cannot starve workers.
//!
//! Compiled transducers are cached by [`crate::fingerprint`] in a small
//! LRU behind a mutex and shared as `Arc<CompiledDtop>`; repeat traffic
//! for the same transducer never recompiles.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use xtt_obs::{EvalObserver, Stage};
use xtt_transducer::{eval as walk_eval, Dtop};
use xtt_trees::{parse_tree_bounded, DagId, Symbol, Tree, TreeDag, TreeEvent};
use xtt_typecheck::{domain_guard, CompiledDtta, TypeError};
use xtt_unranked::{UnrankedError, UnrankedEvents, XmlCodec, XmlWriter};

use crate::compile::{compile, fingerprint, CompileError, CompiledDtop};
use crate::eval::EvalScratch;
use crate::stream::{
    tree_to_xml, ChainedEvaluator, EmitStats, GuardedSource, IterEvents, OutputSink,
    StreamEvaluator, TreeCollector, TreeEventSource, XmlRankedEvents,
};

/// Which evaluator the engine runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalMode {
    /// Flatten the document and run the compiled interpreter (fastest).
    #[default]
    Compiled,
    /// Run over the event stream, keeping only the spine in memory.
    Streaming,
    /// Evaluate into a [`TreeDag`] arena (shared subtrees built once) and
    /// extract; worthwhile for copying transducers with large outputs.
    Dag,
    /// The research evaluator `xtt_transducer::eval` (baseline).
    TreeWalk,
}

impl EvalMode {
    /// Parses the names used by the CLI and the HTTP API
    /// (`tree`/`compiled`, `stream`, `dag`, `walk`).
    pub fn parse(name: &str) -> Option<EvalMode> {
        match name {
            "tree" | "compiled" => Some(EvalMode::Compiled),
            "stream" | "streaming" => Some(EvalMode::Streaming),
            "dag" => Some(EvalMode::Dag),
            "walk" | "treewalk" => Some(EvalMode::TreeWalk),
            _ => None,
        }
    }
}

/// How documents are parsed and results serialized.
#[derive(Clone, Debug, Default)]
pub enum DocFormat {
    /// The workspace term syntax, e.g. `root(a(#,#),b(#,#))`.
    #[default]
    Term,
    /// XML read as a ranked tree directly (elements = symbols of their
    /// child arity, text = whitespace-separated leaf tokens), via
    /// [`crate::xml_ranked_events`].
    Xml,
    /// [`DocFormat::Xml`] with attributes surfaced: an element with
    /// attributes gains an `@attrs` first child (one `@name` node per
    /// attribute, value tokens as its leaves) on the way in, and `@attrs`
    /// children decode back to `name="value"` syntax on the way out — so
    /// transducer rules can address attributes like any child subtree.
    /// Named `xml+attrs` in the CLI and HTTP API.
    XmlAttrs,
    /// Genuine unranked XML through a ranked encoding
    /// ([`xtt_unranked::XmlCodec`]): documents are encoded
    /// *incrementally* off the SAX tokenizer (fc/ns or a DTD-based
    /// encoding — in streaming mode with no intermediate tree at all)
    /// and output trees are decoded back to unranked XML text.
    Encoded(XmlCodec),
}

impl DocFormat {
    /// Parses the names used by the CLI and the HTTP API. Named DTD
    /// encodings are resolved by the server's encoding registry; here
    /// only `fcns` is nameable.
    pub fn parse(name: &str) -> Option<DocFormat> {
        match name {
            "term" => Some(DocFormat::Term),
            "xml" => Some(DocFormat::Xml),
            "xml+attrs" => Some(DocFormat::XmlAttrs),
            "fcns" => Some(DocFormat::Encoded(XmlCodec::fcns_bounded(
                crate::stream::unknown_symbol(),
            ))),
            _ => None,
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Worker threads for [`Engine::transform_batch`]; 0 = one per
    /// available CPU.
    pub workers: usize,
    /// Capacity of the compiled-transducer LRU cache.
    pub cache_capacity: usize,
    pub mode: EvalMode,
    pub format: DocFormat,
    /// When set, documents whose *output tree* would exceed this many
    /// nodes fail with [`EngineError::OutputTooLarge`] instead of being
    /// materialized. The bound is checked with a linear-time DAG
    /// pre-flight (copying transducers produce exponentially large
    /// outputs from tiny inputs — a server must not materialize them).
    /// `None` = unbounded (library/CLI default).
    ///
    /// Trade-off: the pre-flight needs the input tree, so with a bound
    /// configured `EvalMode::Streaming` over XML materializes the input
    /// (the output was never spine-only — it is built in full in every
    /// mode) instead of running directly over the tokenizer events.
    pub max_output_nodes: Option<u64>,
    /// Guarded evaluation: run every document through the transducer's
    /// compiled domain guard (`xtt-typecheck`). Out-of-domain documents
    /// fail with a typed [`EngineError::Type`] diagnostic naming the
    /// first violating node — as a pre-flight in tree/dag/walk modes, and
    /// in lockstep with the event stream in streaming mode (where an
    /// out-of-domain document is rejected without consuming the rest of
    /// its events). Can be overridden per request via
    /// [`Engine::transform_with_validation`].
    pub validate: bool,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            workers: 0,
            cache_capacity: 8,
            mode: EvalMode::Compiled,
            format: DocFormat::Term,
            max_output_nodes: None,
            validate: false,
        }
    }
}

/// Per-document failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The document is not parseable in the configured [`DocFormat`].
    Parse(String),
    /// The document is outside `dom(⟦M⟧)`.
    Undefined,
    /// The transducer exceeded a compiled-form capacity limit.
    Compile(String),
    /// The evaluator panicked on this document; the rest of the batch is
    /// unaffected (the worker recovers with fresh scratch state).
    Internal(String),
    /// With [`DocFormat::Encoded`]: the document does not match the
    /// encoding's DTD, or the output tree is not decodable as unranked
    /// XML under the output encoding.
    Encoding(String),
    /// The output tree exceeds [`EngineOptions::max_output_nodes`]
    /// (`.0` is the measured size, saturating at `u64::MAX`).
    OutputTooLarge(u64),
    /// Guarded evaluation rejected the document: it is outside
    /// `dom(⟦M⟧)`, and the diagnostic names the first violating node.
    /// Only produced when validation is enabled (otherwise out-of-domain
    /// documents surface as [`EngineError::Undefined`]).
    Type(TypeError),
    /// Streaming emission ([`Engine::transform_streaming`]): the output
    /// writer failed mid-document. `kind` preserves the [`io::ErrorKind`]
    /// so a serving layer can distinguish a slow client
    /// (`TimedOut`/`WouldBlock`) from a disconnect.
    Write {
        kind: io::ErrorKind,
        message: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "parse error: {e}"),
            EngineError::Undefined => write!(f, "input outside the transduction domain"),
            EngineError::Compile(e) => write!(f, "compile error: {e}"),
            EngineError::Internal(e) => write!(f, "internal error: {e}"),
            EngineError::Encoding(e) => write!(f, "encoding error: {e}"),
            EngineError::OutputTooLarge(n) => {
                write!(f, "output too large: {n} nodes exceed the configured bound")
            }
            EngineError::Type(e) => write!(f, "type error {e}"),
            EngineError::Write { kind, message } => write!(f, "write error ({kind:?}): {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

struct LruEntry<V> {
    fp: u64,
    /// The exact rendering the fingerprint hashed; compared on every hit
    /// so a 64-bit collision can never serve the wrong transducer.
    rendering: String,
    last_used: u64,
    value: V,
}

/// The one LRU discipline behind the compiled-transducer cache, the
/// domain-guard cache, and `xtt-pipeline`'s compiled-plan cache:
/// fingerprint + exact-rendering lookup (a 64-bit collision can never
/// serve the wrong value), least-recently-used eviction on insert.
pub struct LruCache<V> {
    entries: Vec<LruEntry<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<V> Default for LruCache<V> {
    fn default() -> LruCache<V> {
        LruCache {
            entries: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }
}

impl<V> LruCache<V> {
    pub fn new() -> LruCache<V> {
        LruCache::default()
    }

    /// Hit/miss/occupancy counters (monotonic over the cache's life).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
        }
    }
}

impl<V: Clone> LruCache<V> {
    /// Returns the cached value for `(fp, rendering)`, building and
    /// inserting it (evicting the least-recently-used entry at
    /// `capacity`) on a miss. A failed `build` caches nothing.
    pub fn get_or_insert_with<E>(
        &mut self,
        fp: u64,
        rendering: String,
        capacity: usize,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| e.fp == fp && e.rendering == rendering)
        {
            entry.last_used = tick;
            self.hits += 1;
            return Ok(entry.value.clone());
        }
        let value = build()?;
        self.misses += 1;
        if self.entries.len() >= capacity.max(1) {
            let (evict, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .expect("cache not empty");
            self.entries.swap_remove(evict);
        }
        self.entries.push(LruEntry {
            fp,
            rendering,
            last_used: tick,
            value: value.clone(),
        });
        Ok(value)
    }
}

/// Cache observability counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

/// Violation counters for guarded evaluation (see
/// [`Engine::validation_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidationStats {
    /// Documents that went through a domain guard.
    pub docs_validated: u64,
    /// Documents the guard rejected before (or instead of) evaluation.
    pub docs_rejected_pre_eval: u64,
    /// Domain guards built (guard-cache misses).
    pub guards_compiled: u64,
}

#[derive(Default)]
struct ValidationCounters {
    validated: AtomicU64,
    rejected: AtomicU64,
}

/// What one [`Engine::transform_streaming`] run did (per-document
/// observability; `xtt-serve` aggregates these into `/stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Bytes handed to the output writer.
    pub bytes_written: u64,
    /// Output events emitted before the input was fully consumed.
    pub events_emitted_early: u64,
    /// Total output events.
    pub events_total: u64,
    /// High-water mark of buffered (permuting/copying) output frames;
    /// 0 on a fully order-preserving run.
    pub peak_buffered_frames: usize,
    /// Deleted subtrees fast-forwarded at the tokenizer.
    pub skipped_subtrees: u64,
}

/// One pre-compiled stage of an executable pipeline chain (built by
/// `xtt-pipeline`, executed by the [`Engine::transform_batch_chain`] /
/// [`Engine::transform_streaming_chain`] entry points). Stages carry
/// their own compiled form — the engine's transducer LRU is not
/// consulted; the pipeline layer caches whole plans instead.
#[derive(Clone)]
pub struct ChainStage {
    pub dtop: Arc<Dtop>,
    pub compiled: Arc<CompiledDtop>,
}

/// A reusable transformation service; see the module docs.
pub struct Engine {
    opts: EngineOptions,
    cache: Mutex<LruCache<Arc<CompiledDtop>>>,
    guards: Mutex<LruCache<Arc<CompiledDtta>>>,
    validation: ValidationCounters,
    /// Deleted subtrees fast-forwarded at the tokenizer, across all
    /// documents and eval paths that stream their input.
    skips: AtomicU64,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new(EngineOptions::default())
    }
}

impl Engine {
    pub fn new(opts: EngineOptions) -> Engine {
        Engine {
            opts,
            cache: Mutex::new(LruCache::default()),
            guards: Mutex::new(LruCache::default()),
            validation: ValidationCounters::default(),
            skips: AtomicU64::new(0),
        }
    }

    /// A shareable handle, for long-lived services (`xtt-serve`) that hand
    /// one engine to many connection handlers.
    pub fn shared(opts: EngineOptions) -> Arc<Engine> {
        Arc::new(Engine::new(opts))
    }

    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// The compiled form of `dtop`, from the LRU cache when its
    /// fingerprint was seen before (hits are verified against the exact
    /// rendered structure, not just the hash).
    pub fn compiled(&self, dtop: &Dtop) -> Result<Arc<CompiledDtop>, CompileError> {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.get_or_insert_with(
            fingerprint(dtop),
            dtop.to_string(),
            self.opts.cache_capacity,
            || compile(dtop).map(Arc::new),
        )
    }

    /// Cache counters (for observability and tests).
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            hits: cache.hits,
            misses: cache.misses,
            entries: cache.entries.len(),
        }
    }

    /// The compiled domain guard of `dtop`, from its own LRU cache (same
    /// fingerprint key and verification as [`Engine::compiled`]). The
    /// subset construction can blow up on adversarial transducers; a
    /// capacity overrun surfaces as [`EngineError::Compile`] instead of
    /// taking the process down.
    pub fn guard(&self, dtop: &Dtop) -> Result<Arc<CompiledDtta>, EngineError> {
        let mut guards = self.guards.lock().unwrap_or_else(|e| e.into_inner());
        guards.get_or_insert_with(
            fingerprint(dtop),
            dtop.to_string(),
            self.opts.cache_capacity,
            || {
                catch_unwind(AssertUnwindSafe(|| domain_guard(dtop)))
                    .map_err(|_| EngineError::Compile("domain guard construction blew up".into()))?
                    .map(Arc::new)
                    .map_err(|e| EngineError::Compile(e.to_string()))
            },
        )
    }

    /// Guarded-evaluation counters (for `/stats` and tests).
    pub fn validation_stats(&self) -> ValidationStats {
        ValidationStats {
            docs_validated: self.validation.validated.load(Ordering::Relaxed),
            docs_rejected_pre_eval: self.validation.rejected.load(Ordering::Relaxed),
            guards_compiled: self.guards.lock().unwrap_or_else(|e| e.into_inner()).misses,
        }
    }

    /// Deleted subtrees fast-forwarded at the tokenizer (the PR-5 skip
    /// fast path), totalled across every document this engine streamed —
    /// raw-XML and encoded paths alike.
    pub fn skipped_subtrees(&self) -> u64 {
        self.skips.load(Ordering::Relaxed)
    }

    /// Counts one batch's guard activity into the violation counters.
    /// Documents that never reached a guard (parse or compile failures)
    /// do not count as validated.
    fn record_validation<T>(&self, results: &[Result<T, EngineError>]) {
        let validated = results
            .iter()
            .filter(|r| !matches!(r, Err(EngineError::Parse(_) | EngineError::Compile(_))))
            .count() as u64;
        let rejected = results
            .iter()
            .filter(|r| matches!(r, Err(EngineError::Type(_))))
            .count() as u64;
        self.validation
            .validated
            .fetch_add(validated, Ordering::Relaxed);
        self.validation
            .rejected
            .fetch_add(rejected, Ordering::Relaxed);
    }

    /// Transforms one document with the engine's configured mode/format
    /// (no thread pool; uses a transient scratch).
    pub fn transform(&self, dtop: &Dtop, doc: &str) -> Result<String, EngineError> {
        self.transform_with(dtop, doc, self.opts.mode, self.opts.format.clone())
    }

    /// Transforms one document with an explicit mode/format — the
    /// per-request override used by `xtt-serve`'s `?mode=`/`?format=`.
    /// Validation follows [`EngineOptions::validate`].
    pub fn transform_with(
        &self,
        dtop: &Dtop,
        doc: &str,
        mode: EvalMode,
        format: DocFormat,
    ) -> Result<String, EngineError> {
        self.transform_with_validation(dtop, doc, mode, format, self.opts.validate)
    }

    /// [`Engine::transform_with`] with an explicit validation override
    /// (the `?validate=` request parameter of `xtt-serve`).
    pub fn transform_with_validation(
        &self,
        dtop: &Dtop,
        doc: &str,
        mode: EvalMode,
        format: DocFormat,
        validate: bool,
    ) -> Result<String, EngineError> {
        self.transform_observed(dtop, doc, mode, format, validate, None)
    }

    /// [`Engine::transform_with_validation`] with a pipeline observer:
    /// `obs` is stamped at every stage boundary the document crosses
    /// (tokenize → encode → guard → evaluate → emit). `None` is the
    /// production path and costs nothing — not even a clock read.
    pub fn transform_observed(
        &self,
        dtop: &Dtop,
        doc: &str,
        mode: EvalMode,
        format: DocFormat,
        validate: bool,
        obs: Option<&mut dyn EvalObserver>,
    ) -> Result<String, EngineError> {
        let compiled = self
            .compiled(dtop)
            .map_err(|e| EngineError::Compile(e.to_string()))?;
        let guard = if validate {
            Some(self.guard(dtop)?)
        } else {
            None
        };
        let limit = self.opts.max_output_nodes;
        let result = Worker::new()
            .transform(
                &compiled,
                dtop,
                doc,
                mode,
                &format,
                limit,
                guard.as_deref(),
                &self.skips,
                obs,
            )
            .map_err(|e| name_unknown_token(e, doc, &format));
        if validate {
            self.record_validation(std::slice::from_ref(&result));
        }
        result
    }

    /// Sequential batch transformation with a pipeline observer — the
    /// sampled-request path of `xtt-serve`. One warm [`Worker`] runs the
    /// documents in order (panic-isolated per document, like
    /// [`Engine::transform_batch_with_validation`]); repeated stage
    /// stamps accumulate in the observer, so the trace reports where the
    /// whole request spent its time. Tracing is 1-in-N, so forgoing the
    /// batch pool's parallelism here does not move throughput.
    pub fn transform_batch_observed(
        &self,
        dtop: &Dtop,
        docs: &[String],
        mode: EvalMode,
        format: DocFormat,
        validate: bool,
        mut obs: Option<&mut dyn EvalObserver>,
    ) -> Vec<Result<String, EngineError>> {
        let compiled = match self.compiled(dtop) {
            Ok(c) => c,
            Err(e) => {
                let err = EngineError::Compile(e.to_string());
                return docs.iter().map(|_| Err(err.clone())).collect();
            }
        };
        let guard = if validate {
            match self.guard(dtop) {
                Ok(g) => Some(g),
                Err(e) => return docs.iter().map(|_| Err(e.clone())).collect(),
            }
        } else {
            None
        };
        let limit = self.opts.max_output_nodes;
        let mut worker = Worker::new();
        let results: Vec<Result<String, EngineError>> = docs
            .iter()
            .map(|d| {
                worker.transform_caught(
                    &compiled,
                    dtop,
                    d,
                    mode,
                    &format,
                    limit,
                    guard.as_deref(),
                    &self.skips,
                    obs.as_deref_mut(),
                )
            })
            .collect();
        if validate {
            self.record_validation(&results);
        }
        results
    }

    /// Event-driven transformation: output **bytes** flow to `out` as
    /// they are produced, instead of a tree materializing at root-close.
    /// Order-preserving regions of the transducer stream straight through
    /// (the first output byte leaves before the input is fully read);
    /// permuting/copying regions buffer only their own subtree. Uses the
    /// engine's configured format and validation; evaluation is always
    /// streaming.
    ///
    /// On `Err`, a partial output prefix may already have been written —
    /// inherent to streaming emission. [`EngineError::Write`] carries the
    /// writer's [`io::ErrorKind`] so serving layers can classify slow
    /// clients vs disconnects.
    pub fn transform_streaming(
        &self,
        dtop: &Dtop,
        doc: &str,
        out: &mut dyn io::Write,
    ) -> Result<StreamOutcome, EngineError> {
        self.transform_streaming_with(dtop, doc, self.opts.format.clone(), self.opts.validate, out)
    }

    /// [`Engine::transform_streaming`] with explicit format and
    /// validation overrides (the `?format=`/`?validate=` request
    /// parameters of `xtt-serve`'s `mode=stream`).
    pub fn transform_streaming_with(
        &self,
        dtop: &Dtop,
        doc: &str,
        format: DocFormat,
        validate: bool,
        out: &mut dyn io::Write,
    ) -> Result<StreamOutcome, EngineError> {
        self.transform_streaming_observed(dtop, doc, format, validate, out, None)
    }

    /// [`Engine::transform_streaming_with`] with a pipeline observer (see
    /// [`Engine::transform_observed`]). The streamed paths fuse
    /// tokenize/guard/evaluate into one pass, so the fused work is
    /// charged to `eval`; any post-run serialization is charged to
    /// `emit`.
    pub fn transform_streaming_observed(
        &self,
        dtop: &Dtop,
        doc: &str,
        format: DocFormat,
        validate: bool,
        out: &mut dyn io::Write,
        obs: Option<&mut dyn EvalObserver>,
    ) -> Result<StreamOutcome, EngineError> {
        let compiled = self
            .compiled(dtop)
            .map_err(|e| EngineError::Compile(e.to_string()))?;
        let guard = if validate {
            Some(self.guard(dtop)?)
        } else {
            None
        };
        let result = Worker::new()
            .transform_streaming(
                &[&*compiled],
                doc,
                &format,
                guard.as_deref(),
                self.opts.max_output_nodes,
                out,
                &self.skips,
                obs,
            )
            .map_err(|e| name_unknown_token(e, doc, &format));
        if validate {
            self.record_validation(std::slice::from_ref(&result));
        }
        result
    }

    /// Transforms a batch of documents, sharded across the worker pool.
    /// Results are in input order; each document fails independently.
    pub fn transform_batch(
        &self,
        dtop: &Dtop,
        docs: &[String],
    ) -> Vec<Result<String, EngineError>> {
        self.transform_batch_with(dtop, docs, self.opts.mode, self.opts.format.clone())
    }

    /// [`Engine::transform_batch`] with an explicit mode/format.
    /// Validation follows [`EngineOptions::validate`].
    pub fn transform_batch_with(
        &self,
        dtop: &Dtop,
        docs: &[String],
        mode: EvalMode,
        format: DocFormat,
    ) -> Vec<Result<String, EngineError>> {
        self.transform_batch_with_validation(dtop, docs, mode, format, self.opts.validate)
    }

    /// [`Engine::transform_batch_with`] with an explicit validation
    /// override.
    ///
    /// Failure is strictly per-document and positional: parse errors,
    /// out-of-domain inputs (typed violations under validation), and even
    /// evaluator panics surface as `Err` at the failing document's index
    /// while every other document still completes.
    pub fn transform_batch_with_validation(
        &self,
        dtop: &Dtop,
        docs: &[String],
        mode: EvalMode,
        format: DocFormat,
        validate: bool,
    ) -> Vec<Result<String, EngineError>> {
        let compiled = match self.compiled(dtop) {
            Ok(c) => c,
            Err(e) => {
                let err = EngineError::Compile(e.to_string());
                return docs.iter().map(|_| Err(err.clone())).collect();
            }
        };
        let guard = if validate {
            match self.guard(dtop) {
                Ok(g) => Some(g),
                Err(e) => return docs.iter().map(|_| Err(e.clone())).collect(),
            }
        } else {
            None
        };
        let guard = guard.as_deref();
        let limit = self.opts.max_output_nodes;
        let workers = effective_workers(self.opts.workers, docs.len());
        let format = &format;
        let skips = &self.skips;
        let results = if workers <= 1 {
            let mut worker = Worker::new();
            docs.iter()
                .map(|d| {
                    worker.transform_caught(
                        &compiled, dtop, d, mode, format, limit, guard, skips, None,
                    )
                })
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let chunks: Vec<Vec<(usize, Result<String, EngineError>)>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|_| {
                            let compiled = &compiled;
                            let next = &next;
                            scope.spawn(move || {
                                let mut out = Vec::new();
                                let mut worker = Worker::new();
                                loop {
                                    let i = next.fetch_add(1, Ordering::Relaxed);
                                    if i >= docs.len() {
                                        break;
                                    }
                                    out.push((
                                        i,
                                        worker.transform_caught(
                                            compiled, dtop, &docs[i], mode, format, limit, guard,
                                            skips, None,
                                        ),
                                    ));
                                }
                                out
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("engine worker panicked"))
                        .collect()
                });
            let mut results =
                vec![Err(EngineError::Internal("result was never produced".into())); docs.len()];
            for chunk in chunks {
                for (i, r) in chunk {
                    results[i] = r;
                }
            }
            results
        };
        if validate {
            self.record_validation(&results);
        }
        results
    }

    /// Executes a pre-compiled pipeline chain τₙ ∘ … ∘ τ₁ on one
    /// document (`stages[0]` runs first). `guard` is the domain guard of
    /// the **whole chain** — `xtt-pipeline` builds it from the composed
    /// transducer, with the input schema folded in — so rejection
    /// surfaces as a positioned [`EngineError::Type`] exactly like
    /// single-transducer validation. In [`EvalMode::Streaming`] with no
    /// output bound the stages are fused: stage i's committed output
    /// events feed stage i+1 without materializing intermediate trees;
    /// the other modes evaluate stage by stage. The output-node bound
    /// applies to the **final** stage's output only (the chain's output
    /// — intermediate sizes are an execution detail the statically
    /// composed strategy never sees). `stage_events`, when given,
    /// receives each stage's output event count.
    pub fn transform_chain(
        &self,
        stages: &[ChainStage],
        doc: &str,
        mode: EvalMode,
        format: DocFormat,
        guard: Option<&CompiledDtta>,
        stage_events: Option<&dyn Fn(usize, u64)>,
    ) -> Result<String, EngineError> {
        let limit = self.opts.max_output_nodes;
        let result = Worker::new().transform_chain_caught(
            stages,
            doc,
            mode,
            &format,
            limit,
            guard,
            &self.skips,
            stage_events,
        );
        if guard.is_some() {
            self.record_validation(std::slice::from_ref(&result));
        }
        result
    }

    /// [`Engine::transform_chain`] over a batch, sharded across the
    /// worker pool exactly like [`Engine::transform_batch`]: results in
    /// input order, strictly per-document failure. `stage_events` may be
    /// called from several worker threads concurrently.
    pub fn transform_batch_chain(
        &self,
        stages: &[ChainStage],
        docs: &[String],
        mode: EvalMode,
        format: DocFormat,
        guard: Option<&CompiledDtta>,
        stage_events: Option<&(dyn Fn(usize, u64) + Sync)>,
    ) -> Vec<Result<String, EngineError>> {
        let limit = self.opts.max_output_nodes;
        let workers = effective_workers(self.opts.workers, docs.len());
        let format = &format;
        let skips = &self.skips;
        let results = if workers <= 1 {
            let mut worker = Worker::new();
            docs.iter()
                .map(|d| {
                    worker.transform_chain_caught(
                        stages,
                        d,
                        mode,
                        format,
                        limit,
                        guard,
                        skips,
                        stage_events.map(|cb| cb as &dyn Fn(usize, u64)),
                    )
                })
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let chunks: Vec<Vec<(usize, Result<String, EngineError>)>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|_| {
                            let next = &next;
                            scope.spawn(move || {
                                let mut out = Vec::new();
                                let mut worker = Worker::new();
                                loop {
                                    let i = next.fetch_add(1, Ordering::Relaxed);
                                    if i >= docs.len() {
                                        break;
                                    }
                                    out.push((
                                        i,
                                        worker.transform_chain_caught(
                                            stages,
                                            &docs[i],
                                            mode,
                                            format,
                                            limit,
                                            guard,
                                            skips,
                                            stage_events.map(|cb| cb as &dyn Fn(usize, u64)),
                                        ),
                                    ));
                                }
                                out
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("engine worker panicked"))
                        .collect()
                });
            let mut results =
                vec![Err(EngineError::Internal("result was never produced".into())); docs.len()];
            for chunk in chunks {
                for (i, r) in chunk {
                    results[i] = r;
                }
            }
            results
        };
        if guard.is_some() {
            self.record_validation(&results);
        }
        results
    }

    /// Event-driven chain execution: like
    /// [`Engine::transform_streaming`], but through every stage of a
    /// pre-compiled pipeline — output **bytes** leave as the final
    /// stage's prefix commits, and no intermediate tree materializes
    /// outside buffered (permuting/copying) regions.
    pub fn transform_streaming_chain(
        &self,
        stages: &[ChainStage],
        doc: &str,
        format: DocFormat,
        guard: Option<&CompiledDtta>,
        out: &mut dyn io::Write,
        stage_events: Option<&dyn Fn(usize, u64)>,
    ) -> Result<StreamOutcome, EngineError> {
        let refs: Vec<&CompiledDtop> = stages.iter().map(|s| &*s.compiled).collect();
        let mut worker = Worker::new();
        let result = worker
            .transform_streaming(
                &refs,
                doc,
                &format,
                guard,
                self.opts.max_output_nodes,
                out,
                &self.skips,
                None,
            )
            .map_err(|e| name_unknown_token(e, doc, &format));
        if let (Ok(outcome), Some(cb)) = (&result, stage_events) {
            if refs.len() > 1 {
                for (i, st) in worker.chain.stage_stats().enumerate() {
                    cb(i, st.events_total);
                }
            } else {
                cb(0, outcome.events_total);
            }
        }
        if guard.is_some() {
            self.record_validation(std::slice::from_ref(&result));
        }
        result
    }
}

/// Maps a streaming-pipeline failure onto the engine's error taxonomy:
/// XML syntax errors are parse errors, DTD/encoding mismatches are
/// encoding errors.
fn encoded_error(e: UnrankedError) -> EngineError {
    match e {
        UnrankedError::Xml(x) => EngineError::Parse(x.to_string()),
        UnrankedError::Encode(x) => EngineError::Encoding(x.to_string()),
    }
}

/// [`TreeEventSource`] over the codec's incremental encoder
/// ([`UnrankedEvents`]), with the raw fast-forward wired through and the
/// first pipeline error captured for the caller to classify.
struct EncodedSource<'a> {
    inner: UnrankedEvents<'a>,
    error: Option<UnrankedError>,
}

impl<'a> EncodedSource<'a> {
    fn new(inner: UnrankedEvents<'a>) -> EncodedSource<'a> {
        EncodedSource { inner, error: None }
    }
}

impl TreeEventSource for EncodedSource<'_> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        if self.error.is_some() {
            return None;
        }
        match self.inner.next()? {
            Ok(event) => Some(event),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }

    fn skip_subtree(&mut self) -> bool {
        match self.inner.skip_subtree() {
            Ok(engaged) => engaged,
            Err(e) => {
                // The fast-forward hit a structural error: the stream is
                // over either way. Report the skip as taken; the next
                // `next_event` returns `None` and the error surfaces.
                self.error = Some(e);
                true
            }
        }
    }
}

/// [`OutputSink`] that streams the output tree as term syntax,
/// byte-identical to `Tree::to_string()`.
struct TermSink<'w> {
    out: &'w mut dyn io::Write,
    bytes: u64,
    /// An `Open`ed symbol whose leaf-vs-inner classification waits on the
    /// next event.
    pending: Option<Symbol>,
    /// The next node at this position follows a sibling (needs a comma).
    sep: bool,
}

impl<'w> TermSink<'w> {
    fn new(out: &'w mut dyn io::Write) -> TermSink<'w> {
        TermSink {
            out,
            bytes: 0,
            pending: None,
            sep: false,
        }
    }

    fn put(&mut self, s: &str) -> io::Result<()> {
        self.out.write_all(s.as_bytes())?;
        self.bytes += s.len() as u64;
        Ok(())
    }
}

impl OutputSink for TermSink<'_> {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        match ev {
            TreeEvent::Open(sym) => {
                if let Some(parent) = self.pending.take() {
                    self.put(parent.name())?;
                    self.put("(")?;
                } else if self.sep {
                    self.put(",")?;
                }
                self.pending = Some(sym);
                self.sep = false;
            }
            TreeEvent::Close => {
                match self.pending.take() {
                    Some(leaf) => self.put(leaf.name())?,
                    None => self.put(")")?,
                }
                self.sep = true;
            }
        }
        Ok(())
    }
}

/// [`OutputSink`] that streams the output tree as ranked XML,
/// byte-identical to [`tree_to_xml`]; inner symbols that are not XML
/// names are rejected mid-stream (`failure`), matching the batch path's
/// serializability check.
struct RankedXmlSink<'w> {
    out: &'w mut dyn io::Write,
    bytes: u64,
    pending: Option<Symbol>,
    /// Per open element: was the previously written child a text leaf?
    stack: Vec<(Symbol, bool)>,
    failure: Option<String>,
}

impl<'w> RankedXmlSink<'w> {
    fn new(out: &'w mut dyn io::Write) -> RankedXmlSink<'w> {
        RankedXmlSink {
            out,
            bytes: 0,
            pending: None,
            stack: Vec::new(),
            failure: None,
        }
    }

    fn put(&mut self, s: &str) -> io::Result<()> {
        self.out.write_all(s.as_bytes())?;
        self.bytes += s.len() as u64;
        Ok(())
    }
}

impl OutputSink for RankedXmlSink<'_> {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        match ev {
            TreeEvent::Open(sym) => {
                if let Some(parent) = self.pending.take() {
                    // The pending node has children: an inner element.
                    let name = parent.name();
                    if !crate::stream::is_xml_name(name) {
                        self.failure = Some(
                            "output has inner symbols that are not XML names; use the term format"
                                .into(),
                        );
                        return Err(io::Error::other("output not XML-serializable"));
                    }
                    self.put("<")?;
                    self.put(name)?;
                    self.put(">")?;
                    if let Some(top) = self.stack.last_mut() {
                        top.1 = false;
                    }
                    self.stack.push((parent, false));
                }
                self.pending = Some(sym);
            }
            TreeEvent::Close => match self.pending.take() {
                Some(leaf) => {
                    let name = leaf.name();
                    if crate::stream::is_xml_name(name) {
                        self.put("<")?;
                        self.put(name)?;
                        self.put("/>")?;
                        if let Some(top) = self.stack.last_mut() {
                            top.1 = false;
                        }
                    } else {
                        // A text token; adjacent text leaves stay
                        // distinct tokens.
                        if self.stack.last().is_some_and(|t| t.1) {
                            self.put(" ")?;
                        }
                        self.put(&crate::stream::escape_text(name))?;
                        if let Some(top) = self.stack.last_mut() {
                            top.1 = true;
                        }
                    }
                }
                None => {
                    let (sym, _) = self
                        .stack
                        .pop()
                        .expect("the evaluator emits balanced events");
                    self.put("</")?;
                    self.put(sym.name())?;
                    self.put(">")?;
                }
            },
        }
        Ok(())
    }
}

/// [`OutputSink`] that decodes the output tree to unranked XML through
/// the codec's incremental [`XmlWriter`], flushing each committed text
/// prefix to the byte writer as it is produced.
struct EncodedByteSink<'w> {
    writer: Option<XmlWriter>,
    out: &'w mut dyn io::Write,
    bytes: u64,
    failure: Option<UnrankedError>,
}

impl<'w> EncodedByteSink<'w> {
    fn new(writer: XmlWriter, out: &'w mut dyn io::Write) -> EncodedByteSink<'w> {
        EncodedByteSink {
            writer: Some(writer),
            out,
            bytes: 0,
            failure: None,
        }
    }

    /// Validates completion and writes the decoder's remainder.
    fn finish(&mut self) -> Result<(), EngineError> {
        let writer = self.writer.take().expect("finished once");
        let rest = writer
            .finish()
            .map_err(|e| EngineError::Encoding(e.to_string()))?;
        if !rest.is_empty() {
            self.out
                .write_all(rest.as_bytes())
                .map_err(|e| EngineError::Write {
                    kind: e.kind(),
                    message: e.to_string(),
                })?;
            self.bytes += rest.len() as u64;
        }
        Ok(())
    }
}

impl OutputSink for EncodedByteSink<'_> {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        let writer = self.writer.as_mut().expect("sink not finished");
        if let Err(e) = writer.feed(ev) {
            self.failure = Some(e);
            return Err(io::Error::other("output not decodable"));
        }
        let chunk = writer.pending();
        if !chunk.is_empty() {
            self.out.write_all(chunk.as_bytes())?;
            self.bytes += chunk.len() as u64;
        }
        Ok(())
    }
}

/// Enforces [`EngineOptions::max_output_nodes`] on a streamed run by
/// counting output nodes as they pass — the streaming analogue of the
/// batch DAG pre-flight (which needs the whole input up front).
struct CapSink<'s> {
    inner: &'s mut dyn OutputSink,
    nodes: u64,
    limit: u64,
    exceeded: bool,
}

impl CapSink<'_> {
    fn check(&mut self) -> io::Result<()> {
        if self.nodes > self.limit {
            self.exceeded = true;
            return Err(io::Error::other("output bound exceeded"));
        }
        Ok(())
    }
}

impl OutputSink for CapSink<'_> {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        if matches!(ev, TreeEvent::Open(_)) {
            self.nodes += 1;
            self.check()?;
        }
        self.inner.event(ev)
    }

    fn tree(&mut self, t: &Tree) -> io::Result<()> {
        self.nodes = self.nodes.saturating_add(t.size());
        self.check()?;
        self.inner.tree(t)
    }
}

/// Everything one streamed evaluation produced, before classification.
struct RunOutcome {
    result: io::Result<Option<EmitStats>>,
    violation: Option<TypeError>,
    nodes: u64,
    exceeded: bool,
}

/// The streaming executor behind [`run_stream`]: one evaluator, or a
/// whole pipeline chain — the guard/cap/verdict plumbing is identical.
enum ChainExec<'w> {
    Single(&'w mut StreamEvaluator, &'w CompiledDtop),
    Chain(&'w mut ChainedEvaluator, &'w [&'w CompiledDtop]),
}

impl ChainExec<'_> {
    fn run(
        &mut self,
        source: &mut impl TreeEventSource,
        sink: &mut dyn OutputSink,
    ) -> io::Result<Option<EmitStats>> {
        match self {
            ChainExec::Single(stream, c) => stream.eval_streaming(c, source, sink),
            ChainExec::Chain(chain, stages) => chain.eval_streaming(stages, source, sink),
        }
    }
}

/// Runs one streaming evaluation with the optional lockstep guard and
/// the output-node cap composed in.
fn run_stream<S: TreeEventSource>(
    mut exec: ChainExec<'_>,
    guard: Option<&CompiledDtta>,
    source: &mut S,
    sink: &mut dyn OutputSink,
    limit: Option<u64>,
) -> RunOutcome {
    let mut cap = CapSink {
        inner: sink,
        nodes: 0,
        limit: limit.unwrap_or(u64::MAX),
        exceeded: false,
    };
    let (result, violation) = match guard {
        Some(g) => {
            let mut guarded = GuardedSource::new(g, source);
            let result = exec.run(&mut guarded, &mut cap);
            let violation = guarded.take_violation();
            (result, violation)
        }
        None => (exec.run(source, &mut cap), None),
    };
    RunOutcome {
        result,
        violation,
        nodes: cap.nodes,
        exceeded: cap.exceeded,
    }
}

/// Maps a [`RunOutcome`] onto the engine's error taxonomy. Priority: a
/// guard violation wins (it cut the stream first), then the output-node
/// cap, then the sink's semantic failure, then raw write errors; a clean
/// `None` is a source error if one was recorded, `Undefined` otherwise.
fn stream_verdict(
    run: RunOutcome,
    source_error: Option<EngineError>,
    sink_failure: Option<EngineError>,
) -> Result<EmitStats, EngineError> {
    if let Some(v) = run.violation {
        return Err(EngineError::Type(v));
    }
    match run.result {
        Err(e) => {
            if run.exceeded {
                Err(EngineError::OutputTooLarge(run.nodes))
            } else if let Some(f) = sink_failure {
                Err(f)
            } else {
                Err(EngineError::Write {
                    kind: e.kind(),
                    message: e.to_string(),
                })
            }
        }
        Ok(None) => Err(source_error.unwrap_or(EngineError::Undefined)),
        Ok(Some(stats)) => Ok(stats),
    }
}

fn outcome(stats: EmitStats, bytes: u64, skipped: u64) -> StreamOutcome {
    StreamOutcome {
        bytes_written: bytes,
        events_emitted_early: stats.events_emitted_early,
        events_total: stats.events_total,
        peak_buffered_frames: stats.peak_buffered_frames,
        skipped_subtrees: skipped,
    }
}

/// Stamps a stage boundary on the observer, if one is attached. The
/// `None` path is a single predictable branch — no clock read, no call.
#[inline]
fn stamp<'a, 'b>(obs: &mut Option<&'a mut (dyn EvalObserver + 'b)>, stage: Stage) {
    if let Some(o) = obs.as_deref_mut() {
        o.stage(stage);
    }
}

fn effective_workers(configured: usize, docs: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = if configured == 0 { auto } else { configured };
    w.min(docs.max(1))
}

/// Per-thread evaluation state: warm scratches for every mode, plus the
/// DAG arena for [`EvalMode::Dag`]. One per batch worker, recreated after
/// a caught panic (a panic can leave the scratches inconsistent).
struct Worker {
    scratch: EvalScratch<xtt_trees::Tree>,
    stream: StreamEvaluator,
    chain: ChainedEvaluator,
    dag: TreeDag,
    dag_scratch: EvalScratch<DagId>,
}

impl Worker {
    fn new() -> Worker {
        Worker {
            scratch: EvalScratch::new(),
            stream: StreamEvaluator::new(),
            chain: ChainedEvaluator::new(),
            dag: TreeDag::new(),
            dag_scratch: EvalScratch::new(),
        }
    }

    /// The streaming executor for a stage list: the plain evaluator for
    /// a single stage (the existing hot path, untouched), the chained
    /// evaluator for a real pipeline.
    fn exec<'w>(&'w mut self, stages: &'w [&'w CompiledDtop]) -> ChainExec<'w> {
        match stages {
            [single] => ChainExec::Single(&mut self.stream, single),
            _ => ChainExec::Chain(&mut self.chain, stages),
        }
    }

    /// [`Worker::transform`] with panic isolation: a panicking document
    /// yields `Err(EngineError::Internal)` instead of poisoning the whole
    /// batch, and the worker continues with fresh scratch state.
    #[allow(clippy::too_many_arguments)]
    fn transform_caught(
        &mut self,
        compiled: &CompiledDtop,
        dtop: &Dtop,
        doc: &str,
        mode: EvalMode,
        format: &DocFormat,
        limit: Option<u64>,
        guard: Option<&CompiledDtta>,
        skips: &AtomicU64,
        obs: Option<&mut (dyn EvalObserver + '_)>,
    ) -> Result<String, EngineError> {
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.transform(compiled, dtop, doc, mode, format, limit, guard, skips, obs)
                .map_err(|e| name_unknown_token(e, doc, format))
        }));
        result.unwrap_or_else(|panic| {
            *self = Worker::new();
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "evaluator panicked".to_owned());
            Err(EngineError::Internal(msg))
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn transform(
        &mut self,
        compiled: &CompiledDtop,
        dtop: &Dtop,
        doc: &str,
        mode: EvalMode,
        format: &DocFormat,
        limit: Option<u64>,
        guard: Option<&CompiledDtta>,
        skips: &AtomicU64,
        mut obs: Option<&mut (dyn EvalObserver + '_)>,
    ) -> Result<String, EngineError> {
        let obs = &mut obs;
        match format {
            DocFormat::Term => {
                let input = parse_term(doc)?;
                stamp(obs, Stage::Tokenize);
                if let Some(g) = guard {
                    if mode == EvalMode::Streaming && limit.is_none() {
                        // Lockstep with the event stream — identical
                        // diagnostics (same DttaRun), exercised here so
                        // term and XML streaming share one guarded path.
                        // Guard and evaluation are fused; the pass is
                        // charged to eval.
                        let output = self.eval_stream_guarded(compiled, g, input.events())?;
                        stamp(obs, Stage::Evaluate);
                        let text = output.to_string();
                        stamp(obs, Stage::Emit);
                        return Ok(text);
                    }
                    g.check_tree(&input).map_err(EngineError::Type)?;
                    stamp(obs, Stage::Guard);
                }
                let preflight = self.check_output_bound(compiled, &input, limit)?;
                let output = self.eval_tree(compiled, dtop, &input, mode, preflight)?;
                stamp(obs, Stage::Evaluate);
                let text = output.to_string();
                stamp(obs, Stage::Emit);
                Ok(text)
            }
            DocFormat::Xml | DocFormat::XmlAttrs => {
                let with_attrs = matches!(format, DocFormat::XmlAttrs);
                let output = match (mode, limit) {
                    // The fully streaming path: the guard (when on) runs
                    // in lockstep with the tokenizer, so an out-of-domain
                    // document stops being tokenized at its first
                    // violating node; deleted subtrees fast-forward the
                    // raw reader (counted on the engine).
                    (EvalMode::Streaming, None) => {
                        // Tokenize, guard, and evaluate run fused in one
                        // pass here; the whole pass is charged to eval.
                        let mut source = XmlRankedEvents::bounded(doc).attributes(with_attrs);
                        let result = match guard {
                            Some(g) => {
                                let mut guarded = GuardedSource::new(g, &mut source);
                                let result = self.stream.eval_source(compiled, &mut guarded);
                                let violation = guarded.take_violation();
                                skips.fetch_add(source.skipped_subtrees(), Ordering::Relaxed);
                                if let Some(v) = violation {
                                    return Err(EngineError::Type(v));
                                }
                                result
                            }
                            None => {
                                let result = self.stream.eval_source(compiled, &mut source);
                                skips.fetch_add(source.skipped_subtrees(), Ordering::Relaxed);
                                result
                            }
                        };
                        if let Some(e) = source.take_error() {
                            return Err(EngineError::Parse(e.to_string()));
                        }
                        let out = result.ok_or(EngineError::Undefined)?;
                        stamp(obs, Stage::Evaluate);
                        out
                    }
                    _ => {
                        let input = XmlRankedEvents::bounded(doc)
                            .attributes(with_attrs)
                            .collect_tree()
                            .map_err(|e| EngineError::Parse(e.to_string()))?;
                        stamp(obs, Stage::Tokenize);
                        if let Some(g) = guard {
                            g.check_tree(&input).map_err(EngineError::Type)?;
                            stamp(obs, Stage::Guard);
                        }
                        let preflight = self.check_output_bound(compiled, &input, limit)?;
                        let out = match mode {
                            EvalMode::Streaming => self
                                .stream
                                .eval_tree(compiled, &input)
                                .ok_or(EngineError::Undefined)?,
                            _ => self.eval_tree(compiled, dtop, &input, mode, preflight)?,
                        };
                        stamp(obs, Stage::Evaluate);
                        out
                    }
                };
                let serializable = if with_attrs {
                    crate::stream::xml_serializable_attrs(&output)
                } else {
                    crate::stream::xml_serializable(&output)
                };
                if !serializable {
                    return Err(EngineError::Parse(
                        "output has inner symbols that are not XML names; use the term format"
                            .into(),
                    ));
                }
                let text = if with_attrs {
                    crate::stream::tree_to_xml_attrs(&output)
                } else {
                    tree_to_xml(&output)
                };
                stamp(obs, Stage::Emit);
                Ok(text)
            }
            DocFormat::Encoded(codec) => {
                let output = match (mode, limit) {
                    // The fully streaming encoded path: tokenizer →
                    // incremental encoder → (lockstep guard) →
                    // evaluator; no intermediate tree of the input. All
                    // fused — charged to eval.
                    (EvalMode::Streaming, None) => {
                        let out = self.eval_encoded_stream(compiled, guard, codec, doc, skips)?;
                        stamp(obs, Stage::Evaluate);
                        out
                    }
                    _ => {
                        // The same streaming encoder, collected — every
                        // mode validates documents identically. Tokenize
                        // and encode are one fused pass, charged to
                        // encode.
                        let input = codec.ranked_tree(doc).map_err(encoded_error)?;
                        stamp(obs, Stage::Encode);
                        if let Some(g) = guard {
                            g.check_tree(&input).map_err(EngineError::Type)?;
                            stamp(obs, Stage::Guard);
                        }
                        let preflight = self.check_output_bound(compiled, &input, limit)?;
                        let out = match mode {
                            EvalMode::Streaming => self
                                .stream
                                .eval_tree(compiled, &input)
                                .ok_or(EngineError::Undefined)?,
                            _ => self.eval_tree(compiled, dtop, &input, mode, preflight)?,
                        };
                        stamp(obs, Stage::Evaluate);
                        out
                    }
                };
                let text = codec
                    .decode_tree(&output)
                    .map_err(|e| EngineError::Encoding(e.to_string()))?;
                stamp(obs, Stage::Emit);
                Ok(text)
            }
        }
    }

    /// Event-driven transformation to a byte writer: the format-specific
    /// serializer runs as an [`OutputSink`] fed straight by the streaming
    /// evaluator, so committed output bytes leave before the input is
    /// fully consumed.
    #[allow(clippy::too_many_arguments)]
    fn transform_streaming(
        &mut self,
        stages: &[&CompiledDtop],
        doc: &str,
        format: &DocFormat,
        guard: Option<&CompiledDtta>,
        limit: Option<u64>,
        out: &mut dyn io::Write,
        skips: &AtomicU64,
        mut obs: Option<&mut (dyn EvalObserver + '_)>,
    ) -> Result<StreamOutcome, EngineError> {
        // Event-driven emission fuses guard/evaluate/emit into one pass
        // over the source; the fused pass is charged to eval, and any
        // work after the run (tail serialization, decoder remainder) to
        // emit.
        let obs = &mut obs;
        match format {
            DocFormat::Term => {
                let input = parse_term(doc)?;
                stamp(obs, Stage::Tokenize);
                let mut source = IterEvents(input.events());
                let mut sink = TermSink::new(out);
                let run = run_stream(self.exec(stages), guard, &mut source, &mut sink, limit);
                let stats = stream_verdict(run, None, None)?;
                stamp(obs, Stage::Evaluate);
                Ok(outcome(stats, sink.bytes, 0))
            }
            DocFormat::Xml => {
                let mut source = XmlRankedEvents::bounded(doc);
                let mut sink = RankedXmlSink::new(out);
                let run = run_stream(self.exec(stages), guard, &mut source, &mut sink, limit);
                let skipped = source.skipped_subtrees();
                skips.fetch_add(skipped, Ordering::Relaxed);
                let source_error = source
                    .take_error()
                    .map(|e| EngineError::Parse(e.to_string()));
                let sink_failure = sink.failure.take().map(EngineError::Parse);
                let stats = stream_verdict(run, source_error, sink_failure)?;
                stamp(obs, Stage::Evaluate);
                Ok(outcome(stats, sink.bytes, skipped))
            }
            DocFormat::XmlAttrs => {
                // The input streams exactly like `Xml` (skip fast path,
                // lockstep guard), but an output start tag cannot commit
                // before its `@attrs` block closes, so the output tree is
                // collected and serialized when the run completes.
                let mut source = XmlRankedEvents::bounded(doc).attributes(true);
                let mut sink = TreeCollector::new();
                let run = run_stream(self.exec(stages), guard, &mut source, &mut sink, limit);
                let skipped = source.skipped_subtrees();
                skips.fetch_add(skipped, Ordering::Relaxed);
                let source_error = source
                    .take_error()
                    .map(|e| EngineError::Parse(e.to_string()));
                let stats = stream_verdict(run, source_error, None)?;
                stamp(obs, Stage::Evaluate);
                let output = sink.into_tree().ok_or(EngineError::Undefined)?;
                if !crate::stream::xml_serializable_attrs(&output) {
                    return Err(EngineError::Parse(
                        "output has inner symbols that are not XML names; use the term format"
                            .into(),
                    ));
                }
                let text = crate::stream::tree_to_xml_attrs(&output);
                out.write_all(text.as_bytes())
                    .map_err(|e| EngineError::Write {
                        kind: e.kind(),
                        message: e.to_string(),
                    })?;
                stamp(obs, Stage::Emit);
                Ok(outcome(stats, text.len() as u64, skipped))
            }
            DocFormat::Encoded(codec) => {
                let mut source = EncodedSource::new(codec.events(doc));
                let mut sink = EncodedByteSink::new(codec.writer(), out);
                let run = run_stream(self.exec(stages), guard, &mut source, &mut sink, limit);
                let skipped = source.inner.skipped_subtrees();
                skips.fetch_add(skipped, Ordering::Relaxed);
                let source_error = source.error.take().map(encoded_error);
                let sink_failure = sink
                    .failure
                    .take()
                    .map(|e| EngineError::Encoding(e.to_string()));
                let stats = stream_verdict(run, source_error, sink_failure)?;
                stamp(obs, Stage::Evaluate);
                sink.finish()?;
                stamp(obs, Stage::Emit);
                Ok(outcome(stats, sink.bytes, skipped))
            }
        }
    }

    /// Streaming evaluation with the domain guard in lockstep: the guard
    /// sees every event first and cuts the stream at the first violation.
    fn eval_stream_guarded(
        &mut self,
        compiled: &CompiledDtop,
        guard: &CompiledDtta,
        events: impl Iterator<Item = xtt_trees::TreeEvent>,
    ) -> Result<xtt_trees::Tree, EngineError> {
        let mut source = GuardedSource::new(guard, IterEvents(events));
        let result = self.stream.eval_source(compiled, &mut source);
        if let Some(violation) = source.take_violation() {
            return Err(EngineError::Type(violation));
        }
        result.ok_or(EngineError::Undefined)
    }

    /// Streaming evaluation over an *encoded* unranked document: ranked
    /// events are produced incrementally by the codec's encoder and fed
    /// straight to the evaluator, with the domain guard composed in
    /// lockstep when validation is on. A guard violation wins over a
    /// later tokenizer/encoding error by construction (the guard cuts
    /// the stream first). Deleted subtrees fast-forward the raw
    /// tokenizer through [`UnrankedEvents::skip_subtree`] — they are
    /// never tokenized, exactly like the raw-XML streaming path.
    fn eval_encoded_stream(
        &mut self,
        compiled: &CompiledDtop,
        guard: Option<&CompiledDtta>,
        codec: &XmlCodec,
        doc: &str,
        skips: &AtomicU64,
    ) -> Result<xtt_trees::Tree, EngineError> {
        let mut source = EncodedSource::new(codec.events(doc));
        let result = match guard {
            Some(g) => {
                let mut guarded = GuardedSource::new(g, &mut source);
                let result = self.stream.eval_source(compiled, &mut guarded);
                let violation = guarded.take_violation();
                skips.fetch_add(source.inner.skipped_subtrees(), Ordering::Relaxed);
                if let Some(v) = violation {
                    return Err(EngineError::Type(v));
                }
                result
            }
            None => {
                let result = self.stream.eval_source(compiled, &mut source);
                skips.fetch_add(source.inner.skipped_subtrees(), Ordering::Relaxed);
                result
            }
        };
        if let Some(e) = source.error {
            return Err(encoded_error(e));
        }
        result.ok_or(EngineError::Undefined)
    }

    /// Enforces [`EngineOptions::max_output_nodes`]: a linear-time DAG
    /// evaluation measures the output-tree size *without materializing
    /// it* (the DAG is small even when the tree is exponential), so an
    /// over-limit document is rejected before any large allocation.
    /// Returns the DAG root id when a bound was evaluated, so Dag mode
    /// can reuse it instead of evaluating twice.
    fn check_output_bound(
        &mut self,
        compiled: &CompiledDtop,
        input: &xtt_trees::Tree,
        limit: Option<u64>,
    ) -> Result<Option<DagId>, EngineError> {
        let Some(limit) = limit else {
            return Ok(None);
        };
        let id = compiled
            .eval_dag(input, &mut self.dag_scratch, &mut self.dag)
            .ok_or(EngineError::Undefined)?;
        let size = self.dag.tree_size(id);
        if size > limit {
            return Err(EngineError::OutputTooLarge(size));
        }
        Ok(Some(id))
    }

    fn eval_tree(
        &mut self,
        compiled: &CompiledDtop,
        dtop: &Dtop,
        input: &xtt_trees::Tree,
        mode: EvalMode,
        preflight: Option<DagId>,
    ) -> Result<xtt_trees::Tree, EngineError> {
        match mode {
            EvalMode::Compiled => compiled.eval(input, &mut self.scratch),
            EvalMode::Streaming => self.stream.eval_tree(compiled, input),
            // The bound pre-flight (if any) already ran this exact DAG
            // evaluation; reuse its root instead of evaluating again.
            EvalMode::Dag => preflight
                .or_else(|| compiled.eval_dag(input, &mut self.dag_scratch, &mut self.dag))
                .map(|id| self.dag.extract(id)),
            EvalMode::TreeWalk => walk_eval(dtop, input),
        }
        .ok_or(EngineError::Undefined)
    }

    /// [`Worker::transform_chain`] with the same panic isolation as
    /// [`Worker::transform_caught`].
    #[allow(clippy::too_many_arguments)]
    fn transform_chain_caught(
        &mut self,
        stages: &[ChainStage],
        doc: &str,
        mode: EvalMode,
        format: &DocFormat,
        limit: Option<u64>,
        guard: Option<&CompiledDtta>,
        skips: &AtomicU64,
        stage_events: Option<&dyn Fn(usize, u64)>,
    ) -> Result<String, EngineError> {
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.transform_chain(stages, doc, mode, format, limit, guard, skips, stage_events)
                .map_err(|e| name_unknown_token(e, doc, format))
        }));
        result.unwrap_or_else(|panic| {
            *self = Worker::new();
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "evaluator panicked".to_owned());
            Err(EngineError::Internal(msg))
        })
    }

    /// Executes a pipeline chain on one document, returning text. See
    /// [`Engine::transform_chain`] for the mode semantics; the chain
    /// paths carry no pipeline observer (per-stage event counts go
    /// through `stage_events` instead).
    #[allow(clippy::too_many_arguments)]
    fn transform_chain(
        &mut self,
        stages: &[ChainStage],
        doc: &str,
        mode: EvalMode,
        format: &DocFormat,
        limit: Option<u64>,
        guard: Option<&CompiledDtta>,
        skips: &AtomicU64,
        stage_events: Option<&dyn Fn(usize, u64)>,
    ) -> Result<String, EngineError> {
        assert!(
            !stages.is_empty(),
            "a pipeline chain has at least one stage"
        );
        if mode == EvalMode::Streaming && limit.is_none() {
            // Fused chained streaming: input events cascade through every
            // stage; intermediate trees never materialize outside
            // buffered regions, and deleted subtrees fast-forward the
            // tokenizer exactly like the single-transducer path.
            let output = match format {
                DocFormat::Term => {
                    let input = parse_term(doc)?;
                    self.eval_chain_collect(stages, guard, &mut IterEvents(input.events()))?
                        .ok_or(EngineError::Undefined)?
                }
                DocFormat::Xml | DocFormat::XmlAttrs => {
                    let with_attrs = matches!(format, DocFormat::XmlAttrs);
                    let mut source = XmlRankedEvents::bounded(doc).attributes(with_attrs);
                    let result = self.eval_chain_collect(stages, guard, &mut source);
                    skips.fetch_add(source.skipped_subtrees(), Ordering::Relaxed);
                    if let Some(e) = source.take_error() {
                        return Err(EngineError::Parse(e.to_string()));
                    }
                    result?.ok_or(EngineError::Undefined)?
                }
                DocFormat::Encoded(codec) => {
                    let mut source = EncodedSource::new(codec.events(doc));
                    let result = self.eval_chain_collect(stages, guard, &mut source);
                    skips.fetch_add(source.inner.skipped_subtrees(), Ordering::Relaxed);
                    if let Some(e) = source.error.take() {
                        return Err(encoded_error(e));
                    }
                    result?.ok_or(EngineError::Undefined)?
                }
            };
            if let Some(cb) = stage_events {
                for (i, st) in self.chain.stage_stats().enumerate() {
                    cb(i, st.events_total);
                }
            }
            return render_output(format, &output);
        }
        // Materialized path (tree/dag/walk modes, or a configured output
        // bound): parse the input once, evaluate stage by stage. The
        // output-node bound pre-flights the **final** stage only — the
        // chain's output is what the bound protects; intermediate trees
        // are an execution detail the composed strategy never builds.
        let input = parse_input(format, doc)?;
        if let Some(g) = guard {
            g.check_tree(&input).map_err(EngineError::Type)?;
        }
        let mut current = input;
        for (i, stage) in stages.iter().enumerate() {
            let last = i + 1 == stages.len();
            let preflight = self.check_output_bound(
                &stage.compiled,
                &current,
                if last { limit } else { None },
            )?;
            current = self.eval_tree(&stage.compiled, &stage.dtop, &current, mode, preflight)?;
            if let Some(cb) = stage_events {
                cb(i, 2 * current.size());
            }
        }
        render_output(format, &current)
    }

    /// Runs the chained streaming evaluator over `source` into a
    /// collected tree, with the optional chain guard in lockstep (the
    /// guard cuts the stream at the first violation, so a rejected
    /// document's tail is never produced upstream).
    fn eval_chain_collect(
        &mut self,
        stages: &[ChainStage],
        guard: Option<&CompiledDtta>,
        source: &mut impl TreeEventSource,
    ) -> Result<Option<xtt_trees::Tree>, EngineError> {
        let refs: Vec<&CompiledDtop> = stages.iter().map(|s| &*s.compiled).collect();
        let mut sink = TreeCollector::new();
        let result = match guard {
            Some(g) => {
                let mut guarded = GuardedSource::new(g, source);
                let result = self.chain.eval_streaming(&refs, &mut guarded, &mut sink);
                if let Some(v) = guarded.take_violation() {
                    return Err(EngineError::Type(v));
                }
                result
            }
            None => self.chain.eval_streaming(&refs, source, &mut sink),
        };
        match result {
            Ok(Some(_)) => Ok(sink.into_tree()),
            // A TreeCollector never fails a write; Err is unreachable,
            // and Ok(None) is an out-of-domain input.
            _ => Ok(None),
        }
    }
}

/// Parses a term-syntax document without interning: names outside every
/// registered alphabet become [`unknown_symbol`], exactly as on the XML
/// paths, so untrusted documents cannot grow the symbol table.
fn parse_term(doc: &str) -> Result<Tree, EngineError> {
    parse_tree_bounded(doc, crate::stream::unknown_symbol())
        .map_err(|e| EngineError::Parse(e.to_string()))
}

/// Names the token behind a type error on an out-of-vocabulary node.
/// The bounded readers map every never-interned name to
/// [`unknown_symbol`], so such a violation would name the sentinel; this
/// re-reads the document (on this error path only, without interning)
/// and attaches the token as written. Term and ranked-XML diagnostics
/// therefore name the same token the interning readers would have;
/// encoded formats keep the sentinel.
fn name_unknown_token(err: EngineError, doc: &str, format: &DocFormat) -> EngineError {
    match err {
        EngineError::Type(TypeError::Symbol {
            path,
            state,
            symbol,
            token: None,
        }) if symbol == crate::stream::unknown_symbol() => {
            let token = match format {
                DocFormat::Term => xtt_trees::name_at(doc, &path),
                DocFormat::Xml | DocFormat::XmlAttrs => crate::stream::xml_unknown_token_at(
                    doc,
                    matches!(format, DocFormat::XmlAttrs),
                    &path,
                ),
                DocFormat::Encoded(_) => None,
            };
            EngineError::Type(TypeError::Symbol {
                path,
                state,
                symbol,
                token: token.map(String::into_boxed_str),
            })
        }
        other => other,
    }
}

/// Parses one document into a ranked input tree per the format — the
/// materialized half of the chain execution paths (the single-transducer
/// paths keep their fused parse-and-stamp arms).
fn parse_input(format: &DocFormat, doc: &str) -> Result<xtt_trees::Tree, EngineError> {
    match format {
        DocFormat::Term => parse_term(doc),
        DocFormat::Xml | DocFormat::XmlAttrs => XmlRankedEvents::bounded(doc)
            .attributes(matches!(format, DocFormat::XmlAttrs))
            .collect_tree()
            .map_err(|e| EngineError::Parse(e.to_string())),
        DocFormat::Encoded(codec) => codec.ranked_tree(doc).map_err(encoded_error),
    }
}

/// Serializes an output tree per the format, with the same
/// serializability checks as the single-transducer paths.
fn render_output(format: &DocFormat, output: &xtt_trees::Tree) -> Result<String, EngineError> {
    match format {
        DocFormat::Term => Ok(output.to_string()),
        DocFormat::Xml | DocFormat::XmlAttrs => {
            let with_attrs = matches!(format, DocFormat::XmlAttrs);
            let serializable = if with_attrs {
                crate::stream::xml_serializable_attrs(output)
            } else {
                crate::stream::xml_serializable(output)
            };
            if !serializable {
                return Err(EngineError::Parse(
                    "output has inner symbols that are not XML names; use the term format".into(),
                ));
            }
            Ok(if with_attrs {
                crate::stream::tree_to_xml_attrs(output)
            } else {
                tree_to_xml(output)
            })
        }
        DocFormat::Encoded(codec) => codec
            .decode_tree(output)
            .map_err(|e| EngineError::Encoding(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtt_transducer::examples;
    use xtt_trees::parse_tree;

    fn flip_docs(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| examples::flip_input(i % 5 + 1, (i + 2) % 4 + 1).to_string())
            .collect()
    }

    #[test]
    fn batch_results_are_in_input_order() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions {
            workers: 4,
            ..EngineOptions::default()
        });
        let docs = flip_docs(101);
        let results = engine.transform_batch(&fix.dtop, &docs);
        assert_eq!(results.len(), docs.len());
        let mut scratch = EvalScratch::new();
        let compiled = engine.compiled(&fix.dtop).unwrap();
        for (doc, result) in docs.iter().zip(&results) {
            let expected = compiled
                .eval(&parse_tree(doc).unwrap(), &mut scratch)
                .unwrap()
                .to_string();
            assert_eq!(result.as_ref().unwrap(), &expected);
        }
    }

    #[test]
    fn documents_fail_independently() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions {
            workers: 2,
            ..EngineOptions::default()
        });
        let docs = vec![
            "root(a(#,#),b(#,#))".to_owned(),
            "root(b(#,#),#)".to_owned(), // outside the domain
            "((".to_owned(),             // unparseable
            "root(#,#)".to_owned(),
        ];
        let results = engine.transform_batch(&fix.dtop, &docs);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(EngineError::Undefined));
        assert!(matches!(results[2], Err(EngineError::Parse(_))));
        assert_eq!(results[3].as_deref(), Ok("root(#,#)"));
    }

    #[test]
    fn all_modes_agree_on_batches() {
        let fix = examples::flip();
        let docs = flip_docs(40);
        let mut outputs: Vec<Vec<Result<String, EngineError>>> = Vec::new();
        for mode in [
            EvalMode::Compiled,
            EvalMode::Streaming,
            EvalMode::Dag,
            EvalMode::TreeWalk,
        ] {
            let engine = Engine::new(EngineOptions {
                workers: 3,
                mode,
                ..EngineOptions::default()
            });
            outputs.push(engine.transform_batch(&fix.dtop, &docs));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
        assert_eq!(outputs[0], outputs[3]);
    }

    /// An attached observer sees the pipeline stages in flow order in
    /// every mode, and the observed result is byte-identical to the
    /// unobserved one.
    #[test]
    fn observer_sees_stage_breakdown_in_all_modes() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default());
        let doc = "root(a(#,#),b(#,#))";
        for mode in [
            EvalMode::Compiled,
            EvalMode::Streaming,
            EvalMode::Dag,
            EvalMode::TreeWalk,
        ] {
            let plain = engine
                .transform_with_validation(&fix.dtop, doc, mode, DocFormat::Term, true)
                .unwrap();
            let mut trace = xtt_obs::Trace::new(1);
            let observed = engine
                .transform_observed(
                    &fix.dtop,
                    doc,
                    mode,
                    DocFormat::Term,
                    true,
                    Some(&mut trace),
                )
                .unwrap();
            assert_eq!(plain, observed);
            let names: Vec<&str> = trace.stages().iter().map(|(n, _)| *n).collect();
            if mode == EvalMode::Streaming {
                // Guard and evaluation run fused in lockstep.
                assert_eq!(names, ["tokenize", "eval", "emit"], "mode {mode:?}");
            } else {
                assert_eq!(
                    names,
                    ["tokenize", "guard", "eval", "emit"],
                    "mode {mode:?}"
                );
            }
        }
    }

    /// The streaming-emission path stamps the observer too, and batch
    /// observation accumulates stages across documents.
    #[test]
    fn observer_covers_streaming_and_batches() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default());
        let mut out = Vec::new();
        let mut trace = xtt_obs::Trace::new(2);
        engine
            .transform_streaming_observed(
                &fix.dtop,
                "root(a(#,#),b(#,#))",
                DocFormat::Term,
                false,
                &mut out,
                Some(&mut trace),
            )
            .unwrap();
        let names: Vec<&str> = trace.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["tokenize", "eval"]);

        let docs = flip_docs(8);
        let mut trace = xtt_obs::Trace::new(3);
        let observed = engine.transform_batch_observed(
            &fix.dtop,
            &docs,
            EvalMode::Compiled,
            DocFormat::Term,
            false,
            Some(&mut trace),
        );
        let plain = engine.transform_batch(&fix.dtop, &docs);
        assert_eq!(observed, plain);
        let names: Vec<&str> = trace.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["tokenize", "eval", "emit"], "stages accumulate");
    }

    /// Regression test for the serving contract: a large batch with
    /// malformed and out-of-domain documents sprinkled in reports each
    /// failure *positionally* — no abort on first error, every other
    /// document still transformed, in every mode and at any worker count.
    #[test]
    fn batch_errors_are_positional_not_aborting() {
        let fix = examples::flip();
        let mut docs = flip_docs(100);
        docs[13] = "root(".to_owned(); // malformed
        docs[57] = "root(b(#,#),#)".to_owned(); // outside the domain
        docs[99] = "((".to_owned(); // malformed
        for mode in [
            EvalMode::Compiled,
            EvalMode::Streaming,
            EvalMode::Dag,
            EvalMode::TreeWalk,
        ] {
            for workers in [1, 4] {
                let engine = Engine::new(EngineOptions {
                    workers,
                    mode,
                    ..EngineOptions::default()
                });
                let results = engine.transform_batch(&fix.dtop, &docs);
                assert_eq!(results.len(), docs.len());
                assert!(matches!(results[13], Err(EngineError::Parse(_))));
                assert_eq!(results[57], Err(EngineError::Undefined));
                assert!(matches!(results[99], Err(EngineError::Parse(_))));
                let ok = results.iter().filter(|r| r.is_ok()).count();
                assert_eq!(ok, 97, "every well-formed document must succeed");
            }
        }
    }

    /// With a bound configured, a copying transducer cannot be used to
    /// materialize an exponential output — the DAG pre-flight rejects the
    /// document (in every mode) while small documents still succeed.
    #[test]
    fn output_bound_rejects_exponential_outputs_cheaply() {
        let copier = examples::monadic_to_binary().dtop; // output 2^(depth+1)-1 nodes
        let engine = Engine::new(EngineOptions {
            max_output_nodes: Some(10_000),
            workers: 1,
            ..EngineOptions::default()
        });
        let mut deep = String::from("e");
        for _ in 0..200 {
            deep = format!("f({deep})"); // output ~2^201 nodes, saturates u64
        }
        let docs = vec!["f(f(e))".to_owned(), deep, "e".to_owned()];
        for mode in [
            EvalMode::Compiled,
            EvalMode::Streaming,
            EvalMode::Dag,
            EvalMode::TreeWalk,
        ] {
            let results = engine.transform_batch_with(&copier, &docs, mode, DocFormat::Term);
            assert_eq!(results[0].as_deref(), Ok("g(g(e,e),g(e,e))"), "{mode:?}");
            assert!(
                matches!(results[1], Err(EngineError::OutputTooLarge(n)) if n > 10_000),
                "{mode:?}: {:?}",
                results[1]
            );
            assert_eq!(results[2].as_deref(), Ok("e"), "{mode:?}");
        }
        // Unbounded engines are unaffected.
        let unbounded = Engine::new(EngineOptions::default());
        assert!(unbounded.transform(&copier, "f(f(f(e)))").is_ok());
    }

    #[test]
    fn per_request_mode_and_format_override_engine_defaults() {
        let fix = examples::flip();
        let engine = Engine::shared(EngineOptions::default()); // Term + Compiled
        let out = engine
            .transform_with(
                &fix.dtop,
                "<root><a># #</a><b># #</b></root>",
                EvalMode::Streaming,
                DocFormat::Xml,
            )
            .unwrap();
        assert_eq!(out, "<root><b># #</b><a># #</a></root>");
        let batch = engine.transform_batch_with(
            &fix.dtop,
            &["root(a(#,#),b(#,#))".to_owned()],
            EvalMode::Dag,
            DocFormat::Term,
        );
        assert_eq!(batch[0].as_deref(), Ok("root(b(#,#),a(#,#))"));
    }

    #[test]
    fn xml_format_roundtrips() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions {
            format: DocFormat::Xml,
            mode: EvalMode::Streaming,
            workers: 1,
            ..EngineOptions::default()
        });
        let out = engine
            .transform(&fix.dtop, "<root><a># #</a><b># #</b></root>")
            .unwrap();
        assert_eq!(out, "<root><b># #</b><a># #</a></root>");
    }

    /// Guarded evaluation: the typed diagnostic (with the violation path
    /// of the first undefined node) is bit-identical across all four eval
    /// modes and both validation entry points, and in-domain documents
    /// are unaffected.
    #[test]
    fn validation_diagnostics_identical_across_modes() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions {
            validate: true,
            workers: 1,
            ..EngineOptions::default()
        });
        let bad = "root(a(#,b(#,#)),b(#,#))"; // violation at node 1.2
        let good = "root(a(#,#),b(#,#))";
        let mut rendered: Vec<String> = Vec::new();
        for mode in [
            EvalMode::Compiled,
            EvalMode::Streaming,
            EvalMode::Dag,
            EvalMode::TreeWalk,
        ] {
            let results = engine.transform_batch_with(
                &fix.dtop,
                &[good.to_owned(), bad.to_owned()],
                mode,
                DocFormat::Term,
            );
            assert_eq!(results[0].as_deref(), Ok("root(b(#,#),a(#,#))"), "{mode:?}");
            match &results[1] {
                Err(EngineError::Type(e)) => {
                    assert_eq!(e.path().to_string(), "1.2", "{mode:?}");
                    rendered.push(e.to_string());
                }
                other => panic!("{mode:?}: expected a type error, got {other:?}"),
            }
        }
        rendered.dedup();
        assert_eq!(rendered.len(), 1, "diagnostics differ across modes");
        // Violation counters: 8 validated, 4 rejected.
        let stats = engine.validation_stats();
        assert_eq!(stats.docs_validated, 8);
        assert_eq!(stats.docs_rejected_pre_eval, 4);
        assert_eq!(stats.guards_compiled, 1, "guard cache must hit");
    }

    /// The guarded XML streaming path rejects with the same diagnostic as
    /// the tree-based modes, without validation only an opaque
    /// `Undefined` surfaces, and per-request validation overrides the
    /// engine default.
    #[test]
    fn validation_overrides_and_xml_streaming() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default()); // validate off
        let bad_xml = "<root><a># <b># #</b></a><b># #</b></root>";
        let unguarded = engine
            .transform_with(&fix.dtop, bad_xml, EvalMode::Streaming, DocFormat::Xml)
            .unwrap_err();
        assert_eq!(unguarded, EngineError::Undefined);
        let guarded = engine
            .transform_with_validation(
                &fix.dtop,
                bad_xml,
                EvalMode::Streaming,
                DocFormat::Xml,
                true,
            )
            .unwrap_err();
        let EngineError::Type(e) = &guarded else {
            panic!("expected a type error, got {guarded:?}");
        };
        assert_eq!(e.path().to_string(), "1.2");
        // Same violation through the tree-based XML path.
        let walked = engine
            .transform_with_validation(&fix.dtop, bad_xml, EvalMode::TreeWalk, DocFormat::Xml, true)
            .unwrap_err();
        assert_eq!(walked, guarded);
        // Deleted junk stays accepted under validation (guard ≡ eval).
        let junk_xml = "<root><a>zzz-not-in-alphabet<a># #</a></a><b># #</b></root>";
        for mode in [EvalMode::Streaming, EvalMode::Compiled] {
            let out = engine
                .transform_with_validation(&fix.dtop, junk_xml, mode, DocFormat::Xml, true)
                .unwrap();
            assert_eq!(out, "<root><b># #</b><a>#<a># #</a></a></root>");
        }
    }

    /// Validation composes with the output bound: the guard's typed error
    /// wins on out-of-domain documents, the bound still rejects oversized
    /// in-domain ones.
    #[test]
    fn validation_composes_with_output_bound() {
        let copier = examples::monadic_to_binary().dtop;
        let engine = Engine::new(EngineOptions {
            validate: true,
            max_output_nodes: Some(1_000),
            workers: 1,
            ..EngineOptions::default()
        });
        let mut deep = String::from("e");
        for _ in 0..30 {
            deep = format!("f({deep})");
        }
        let docs = vec![
            "f(f(e))".to_owned(),
            deep,
            "f(zzz)".to_owned(), // out of domain at 1
        ];
        for mode in [EvalMode::Compiled, EvalMode::Streaming, EvalMode::Dag] {
            let results = engine.transform_batch_with(&copier, &docs, mode, DocFormat::Term);
            assert_eq!(results[0].as_deref(), Ok("g(g(e,e),g(e,e))"), "{mode:?}");
            assert!(
                matches!(results[1], Err(EngineError::OutputTooLarge(_))),
                "{mode:?}: {:?}",
                results[1]
            );
            match &results[2] {
                Err(EngineError::Type(e)) => assert_eq!(e.path().to_string(), "1"),
                other => panic!("{mode:?}: expected type error, got {other:?}"),
            }
        }
    }

    /// A dtop over the fc/ns alphabet: drop every `b` element, keep the
    /// rest (used by the encoded-format tests; deletion exercises the
    /// skip fast path through the whole encoded pipeline).
    fn fcns_prune() -> Dtop {
        let alpha =
            xtt_trees::RankedAlphabet::from_pairs([("root", 2), ("a", 2), ("b", 2), ("#", 0)]);
        let mut b = xtt_transducer::DtopBuilder::new(alpha.clone(), alpha);
        b.add_state("q0");
        b.add_state("q");
        b.set_axiom_str("<q0,x0>").unwrap();
        b.add_rule_str("q0", "root", "root(<q,x1>,<q,x2>)").unwrap();
        b.add_rule_str("q", "a", "a(<q,x1>,<q,x2>)").unwrap();
        b.add_rule_str("q", "b", "<q,x2>").unwrap();
        b.add_rule_str("q", "#", "#").unwrap();
        b.build().unwrap()
    }

    /// Genuine unranked XML through the fc/ns codec: all four eval modes
    /// produce byte-identical decoded XML, including under validation
    /// and the output bound.
    #[test]
    fn encoded_fcns_agrees_across_modes() {
        let prune = fcns_prune();
        let format = DocFormat::parse("fcns").unwrap();
        let docs = vec![
            "<root><a><b><a/></b><a/></a><b/></root>".to_owned(),
            "<root/>".to_owned(),
            "<root><b/><b/><a/></root>".to_owned(),
            "<notroot/>".to_owned(), // out of domain (no q0 rule)
        ];
        let mut outputs: Vec<Vec<Result<String, ()>>> = Vec::new();
        for validate in [false, true] {
            for mode in [
                EvalMode::Compiled,
                EvalMode::Streaming,
                EvalMode::Dag,
                EvalMode::TreeWalk,
            ] {
                let engine = Engine::new(EngineOptions {
                    workers: 1,
                    max_output_nodes: if validate { Some(10_000) } else { None },
                    ..EngineOptions::default()
                });
                let results = engine.transform_batch_with_validation(
                    &prune,
                    &docs,
                    mode,
                    format.clone(),
                    validate,
                );
                assert_eq!(
                    results[0].as_deref().unwrap(),
                    "<root><a><a/></a></root>",
                    "{mode:?} validate={validate}"
                );
                assert_eq!(results[1].as_deref().unwrap(), "<root/>");
                assert_eq!(results[2].as_deref().unwrap(), "<root><a/></root>");
                assert!(results[3].is_err(), "{mode:?}: {:?}", results[3]);
                outputs.push(results.iter().map(|r| r.clone().map_err(|_| ())).collect());
            }
        }
        // The Ok outputs are identical everywhere.
        let oks: Vec<_> = outputs
            .iter()
            .map(|rs| {
                rs.iter()
                    .filter_map(|r| r.as_ref().ok())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(oks.windows(2).all(|w| w[0] == w[1]));
    }

    /// `xml+attrs` end to end: attributes surface as the `@attrs` first
    /// child of the ranked encoding, a transducer can delete or keep
    /// them, and kept attribute blocks decode back to real attribute
    /// syntax — byte-identical across every mode and under validation.
    #[test]
    fn xml_attrs_round_trip_across_modes() {
        // Strip: `root` carries an @attrs block (arity 3 with it); the
        // transducer drops the block (exercising the attribute-queue
        // skip drain) and keeps the element children.
        let in_alpha = xtt_trees::RankedAlphabet::from_pairs([
            ("root", 3),
            ("@attrs", 2),
            ("@a", 2),
            ("@b", 1),
            ("p", 0),
            ("q", 0),
            ("z", 0),
            ("x", 0),
        ]);
        let out_alpha = in_alpha.clone();
        let mut b = xtt_transducer::DtopBuilder::new(in_alpha.clone(), out_alpha.clone());
        b.add_state("q0");
        b.add_state("qx");
        b.set_axiom_str("<q0,x0>").unwrap();
        b.add_rule_str("q0", "root", "root(<qx,x2>,<qx,x3>,z)")
            .unwrap();
        b.add_rule_str("qx", "x", "x").unwrap();
        let strip = b.build().unwrap();

        // Keep: the identity on this fixed shape, @attrs block included.
        let mut b = xtt_transducer::DtopBuilder::new(in_alpha.clone(), out_alpha);
        for s in ["q0", "qat", "qa", "qb", "qt", "qx"] {
            b.add_state(s);
        }
        b.set_axiom_str("<q0,x0>").unwrap();
        b.add_rule_str("q0", "root", "root(<qat,x1>,<qx,x2>,<qx,x3>)")
            .unwrap();
        b.add_rule_str("qat", "@attrs", "@attrs(<qa,x1>,<qb,x2>)")
            .unwrap();
        b.add_rule_str("qa", "@a", "@a(<qt,x1>,<qt,x2>)").unwrap();
        b.add_rule_str("qb", "@b", "@b(<qt,x1>)").unwrap();
        for leaf in ["p", "q", "z"] {
            b.add_rule_str("qt", leaf, leaf).unwrap();
        }
        b.add_rule_str("qx", "x", "x").unwrap();
        let keep = b.build().unwrap();

        let doc = r#"<root a="p q" b="z"><x/><x/></root>"#;
        let format = DocFormat::parse("xml+attrs").unwrap();
        for validate in [false, true] {
            for mode in [
                EvalMode::Compiled,
                EvalMode::Streaming,
                EvalMode::Dag,
                EvalMode::TreeWalk,
            ] {
                let engine = Engine::new(EngineOptions {
                    workers: 1,
                    ..EngineOptions::default()
                });
                let stripped = engine
                    .transform_with_validation(&strip, doc, mode, format.clone(), validate)
                    .unwrap();
                assert_eq!(stripped, "<root><x/><x/><z/></root>", "{mode:?}");
                let kept = engine
                    .transform_with_validation(&keep, doc, mode, format.clone(), validate)
                    .unwrap();
                assert_eq!(kept, doc, "{mode:?} validate={validate}");
            }
        }
        // Plain `xml` never builds the @attrs child: root then has two
        // children and the arity-3 rules leave the document undefined.
        let engine = Engine::new(EngineOptions::default());
        assert_eq!(
            engine.transform_with(&strip, doc, EvalMode::Compiled, DocFormat::Xml),
            Err(EngineError::Undefined)
        );
    }

    /// The DTD-encoded path end to end: the paper's `xmlflip` applied to
    /// real XML — input encoded with the `(a*,b*)` DTD, output decoded
    /// with the `(b*,a*)` DTD, across all four modes.
    #[test]
    fn encoded_dtd_xmlflip_end_to_end() {
        use xtt_xml::xmlflip;
        let m = xmlflip::target_dtop();
        let codec = XmlCodec::dtd_pair(
            std::sync::Arc::new(xmlflip::input_encoding()),
            std::sync::Arc::new(xmlflip::output_encoding()),
        );
        let format = DocFormat::Encoded(codec);
        let engine = Engine::new(EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        });
        for mode in [
            EvalMode::Compiled,
            EvalMode::Streaming,
            EvalMode::Dag,
            EvalMode::TreeWalk,
        ] {
            let out = engine
                .transform_with(&m, "<root><a/><a/><b/></root>", mode, format.clone())
                .unwrap();
            assert_eq!(out, "<root><b/><a/><a/></root>", "{mode:?}");
            // A DTD-invalid document is an encoding error, positionally.
            let bad = engine
                .transform_with(&m, "<root><b/><a/></root>", mode, format.clone())
                .unwrap_err();
            assert!(matches!(bad, EngineError::Encoding(_)), "{mode:?}: {bad:?}");
        }
    }

    /// Encoded + validation: the lockstep guard rejects out-of-domain
    /// encoded documents with the same typed diagnostic in streaming and
    /// pre-flight modes.
    #[test]
    fn encoded_validation_diagnostics_agree() {
        let prune = fcns_prune();
        let format = DocFormat::parse("fcns").unwrap();
        let engine = Engine::new(EngineOptions {
            validate: true,
            workers: 1,
            ..EngineOptions::default()
        });
        // `c` is not in prune's alphabet and sits in an inspected
        // position: a typed violation, not an opaque Undefined.
        let bad = "<root><a/><c/><a/></root>";
        let mut rendered: Vec<String> = Vec::new();
        for mode in [EvalMode::Streaming, EvalMode::Compiled, EvalMode::TreeWalk] {
            match engine.transform_with(&prune, bad, mode, format.clone()) {
                Err(EngineError::Type(e)) => rendered.push(e.to_string()),
                other => panic!("{mode:?}: expected a type error, got {other:?}"),
            }
        }
        rendered.dedup();
        assert_eq!(rendered.len(), 1, "diagnostics differ across modes");
    }

    /// Streamed emission is byte-identical to the batch API in every
    /// format, and on order-preserving transducers the first output
    /// bytes leave before the input ends (events_emitted_early > 0,
    /// nothing buffered).
    #[test]
    fn transform_streaming_matches_batch_output() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        });
        let prune = fcns_prune();
        let cases = [
            (&fix.dtop, DocFormat::Term, "root(a(#,#),b(#,#))"),
            (
                &fix.dtop,
                DocFormat::Xml,
                "<root><a># #</a><b># #</b></root>",
            ),
            (
                &prune,
                DocFormat::parse("fcns").unwrap(),
                "<root><a><a/></a><b/></root>",
            ),
        ];
        for (dtop, format, doc) in cases {
            let batch = engine
                .transform_with(dtop, doc, EvalMode::Streaming, format.clone())
                .unwrap();
            let mut bytes = Vec::new();
            let out = engine
                .transform_streaming_with(dtop, doc, format.clone(), false, &mut bytes)
                .unwrap();
            assert_eq!(String::from_utf8(bytes).unwrap(), batch, "{format:?}");
            assert_eq!(out.bytes_written as usize, batch.len(), "{format:?}");
            assert!(out.events_total > 0, "{format:?}");
        }
        // The prune transducer is order-preserving: everything streams.
        let prune = fcns_prune();
        let doc = "<root><a><a/></a><a/></root>";
        let mut bytes = Vec::new();
        let out = engine
            .transform_streaming_with(
                &prune,
                doc,
                DocFormat::parse("fcns").unwrap(),
                false,
                &mut bytes,
            )
            .unwrap();
        assert_eq!(out.peak_buffered_frames, 0, "order-preserving run buffers");
        assert_eq!(out.events_emitted_early, out.events_total);
    }

    /// The encoded streaming path fast-forwards deleted subtrees at the
    /// raw tokenizer (the PR-5 skip upside, closed for encoded formats),
    /// observable through the engine-wide counter.
    #[test]
    fn encoded_streaming_skips_deleted_subtrees() {
        let prune = fcns_prune();
        let format = DocFormat::parse("fcns").unwrap();
        let engine = Engine::new(EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        });
        // Every `b` content forest is deleted; the inner junk would fail
        // fc/ns encoding if it were tokenized (undeclared depth is fine,
        // but the skip counter is the direct evidence).
        let doc = "<root><b><a><a/><a/></a></b><a/></root>";
        let out = engine
            .transform_with(&prune, doc, EvalMode::Streaming, format.clone())
            .unwrap();
        assert_eq!(out, "<root><a/></root>");
        assert!(
            engine.skipped_subtrees() >= 1,
            "encoded skip fast path must engage"
        );
        // Streamed emission takes the same fast path and reports it.
        let before = engine.skipped_subtrees();
        let mut bytes = Vec::new();
        let streamed = engine
            .transform_streaming_with(&prune, doc, format, false, &mut bytes)
            .unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), "<root><a/></root>");
        assert!(streamed.skipped_subtrees >= 1);
        assert_eq!(
            engine.skipped_subtrees(),
            before + streamed.skipped_subtrees
        );
    }

    /// Writer failures surface as [`EngineError::Write`] with the
    /// [`io::ErrorKind`] preserved (serving layers classify timeouts).
    #[test]
    fn streaming_write_errors_carry_the_kind() {
        struct FailAfter(usize);
        impl io::Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "slow client"));
                }
                self.0 = self.0.saturating_sub(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default());
        let err = engine
            .transform_streaming_with(
                &fix.dtop,
                "root(a(#,#),b(#,#))",
                DocFormat::Term,
                false,
                &mut FailAfter(0),
            )
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Write { kind, .. } if kind == io::ErrorKind::TimedOut),
            "{err:?}"
        );
    }

    /// The output-node cap holds on streamed runs too — enforced as the
    /// events pass, without materializing the oversized output.
    #[test]
    fn streaming_enforces_the_output_bound() {
        let copier = examples::monadic_to_binary().dtop;
        let engine = Engine::new(EngineOptions {
            max_output_nodes: Some(1_000),
            ..EngineOptions::default()
        });
        let mut deep = String::from("e");
        for _ in 0..30 {
            deep = format!("f({deep})");
        }
        let mut bytes = Vec::new();
        let err = engine
            .transform_streaming_with(&copier, &deep, DocFormat::Term, false, &mut bytes)
            .unwrap_err();
        assert!(
            matches!(err, EngineError::OutputTooLarge(n) if n > 1_000),
            "{err:?}"
        );
        let mut ok = Vec::new();
        engine
            .transform_streaming_with(&copier, "f(f(e))", DocFormat::Term, false, &mut ok)
            .unwrap();
        assert_eq!(String::from_utf8(ok).unwrap(), "g(g(e,e),g(e,e))");
    }

    /// Streaming validation composes: the lockstep guard rejects with
    /// the same typed diagnostic as the batch paths.
    #[test]
    fn streaming_validation_rejects_with_typed_diagnostics() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default());
        let mut bytes = Vec::new();
        let err = engine
            .transform_streaming_with(
                &fix.dtop,
                "root(a(#,b(#,#)),b(#,#))",
                DocFormat::Term,
                true,
                &mut bytes,
            )
            .unwrap_err();
        let EngineError::Type(e) = &err else {
            panic!("expected a type error, got {err:?}");
        };
        assert_eq!(e.path().to_string(), "1.2");
    }

    #[test]
    fn compiled_cache_hits_by_fingerprint() {
        let fix = examples::flip();
        let engine = Engine::new(EngineOptions::default());
        let a = engine.compiled(&fix.dtop).unwrap();
        let b = engine.compiled(&examples::flip().dtop).unwrap(); // rebuilt, same structure
        assert_eq!(a.fingerprint(), b.fingerprint());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let engine = Engine::new(EngineOptions {
            cache_capacity: 2,
            ..EngineOptions::default()
        });
        let m1 = examples::flip().dtop;
        let m2 = examples::library().dtop;
        let m3 = examples::monadic_to_binary().dtop;
        engine.compiled(&m1).unwrap();
        engine.compiled(&m2).unwrap();
        engine.compiled(&m1).unwrap(); // refresh m1
        engine.compiled(&m3).unwrap(); // evicts m2
        engine.compiled(&m1).unwrap(); // still cached
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 3);
        engine.compiled(&m2).unwrap(); // was evicted → miss
        assert_eq!(engine.cache_stats().misses, 4);
    }
}
