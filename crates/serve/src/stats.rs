//! Lock-free observability counters behind `/stats` and `/metrics`.
//!
//! Every counter, gauge, and histogram lives in one [`xtt_obs::Registry`];
//! the structs here hold `Arc` handles to those registered atomics. The
//! hot path pays one relaxed `fetch_add` per event and never takes a
//! lock, and because the JSON `/stats` view and the Prometheus
//! `/metrics` exposition read the very same atomics, the two endpoints
//! can never disagree about a shared counter.

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use xtt_obs::{Counter, Gauge, Histogram, Registry as MetricsRegistry};

/// How many recent slow-request lines `GET /slow` retains.
const SLOW_RING_CAP: usize = 64;

/// Distinct `name` label values admitted on the per-target transform
/// counters before new names collapse into `__other` — a hard bound on
/// exposition cardinality no matter how many transducers and pipelines
/// churn through the registries.
const TARGET_LABEL_CAP: usize = 64;

/// Per-endpoint request/latency handles, labeled `{endpoint="…"}` in the
/// exposition.
pub struct EndpointStats {
    pub count: Arc<Counter>,
    /// 4xx responses: the client asked for something unserveable.
    pub client_errors: Arc<Counter>,
    /// 5xx responses (and aborted streams): the server failed.
    pub server_errors: Arc<Counter>,
    /// Request latency in microseconds (log₂ buckets).
    pub latency: Arc<Histogram>,
}

impl EndpointStats {
    fn new(reg: &MetricsRegistry, endpoint: &str) -> EndpointStats {
        let labels = [("endpoint", endpoint)];
        EndpointStats {
            count: reg.counter(
                "xtt_endpoint_requests_total",
                "Requests handled, by endpoint.",
                &labels,
            ),
            client_errors: reg.counter(
                "xtt_endpoint_errors_total",
                "Error responses, by endpoint and class (client=4xx, server=5xx/abort).",
                &[("endpoint", endpoint), ("class", "client")],
            ),
            server_errors: reg.counter(
                "xtt_endpoint_errors_total",
                "Error responses, by endpoint and class (client=4xx, server=5xx/abort).",
                &[("endpoint", endpoint), ("class", "server")],
            ),
            latency: reg.histogram(
                "xtt_endpoint_latency_micros",
                "Request latency in microseconds, by endpoint.",
                &labels,
            ),
        }
    }

    /// Records one request with the status it was answered with.
    pub fn record(&self, started: Instant, status: u16) {
        let micros = started.elapsed().as_micros() as u64;
        self.count.inc();
        if (400..500).contains(&status) {
            self.client_errors.inc();
        } else if status >= 500 {
            self.server_errors.inc();
        }
        self.latency.record(micros);
    }

    fn json(&self) -> String {
        let snap = self.latency.snapshot();
        format!(
            "{{\"count\":{},\"client_errors\":{},\"server_errors\":{},\"total_us\":{},\"max_us\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{}}}",
            self.count.get(),
            self.client_errors.get(),
            self.server_errors.get(),
            snap.sum(),
            snap.max(),
            snap.p50(),
            snap.p99(),
            snap.p999(),
        )
    }
}

/// All server metrics; one instance shared by the acceptor and workers.
/// Owns the [`MetricsRegistry`] every handle was registered in.
pub struct ServerStats {
    pub metrics: Arc<MetricsRegistry>,
    /// When the server came up (uptime baseline / `started_at`).
    pub started: Instant,
    pub started_unix: u64,
    /// Connections turned away with `503` because the queue was full.
    pub rejected: Arc<Counter>,
    /// Connections accepted into the event loop.
    pub accepted: Arc<Counter>,
    /// Requests served (all endpoints, all connections).
    pub requests: Arc<Counter>,
    /// Requests served on a *reused* (kept-alive) connection — the
    /// second and later requests of each connection.
    pub reused_requests: Arc<Counter>,
    /// Kept-alive connections closed by the idle timeout.
    pub closed_idle: Arc<Counter>,
    /// Current queue depth (mirrors the queue, for the snapshot).
    pub queue_depth: Arc<Gauge>,
    /// Time jobs spent waiting in the queue before a worker popped them,
    /// in microseconds.
    pub queue_wait: Arc<Histogram>,
    /// Requests whose handler panicked (answered `500`).
    pub handler_panics: Arc<Counter>,
    /// Documents seen / failed on the transform endpoint.
    pub documents: Arc<Counter>,
    pub document_errors: Arc<Counter>,
    /// Documents rejected by the domain guard before evaluation
    /// (validate mode / `?validate=1`).
    pub documents_type_errors: Arc<Counter>,
    /// Output-typecheck runs on `POST /typecheck/{name}` and how many
    /// found the transducer ill-typed (counterexample returned).
    pub typecheck_runs: Arc<Counter>,
    pub typecheck_ill_typed: Arc<Counter>,
    /// Documents answered through `mode=stream` incremental emission.
    pub docs_streamed: Arc<Counter>,
    /// Output bytes flushed to clients *during* evaluation (before the
    /// document — let alone the batch — was finished).
    pub bytes_flushed_early: Arc<Counter>,
    /// Streamed responses aborted because a slow client missed the
    /// write deadline.
    pub write_timeouts: Arc<Counter>,
    /// Connections currently registered with the event loop (gauge).
    pub connections_open: Arc<Gauge>,
    /// Kept-alive connections currently idle between requests (gauge) —
    /// these hold no thread, only an epoll registration.
    pub parked_idle: Arc<Gauge>,
    /// `epoll_wait` returns that delivered at least one event.
    pub epoll_wakeups: Arc<Counter>,
    /// Cumulative nanoseconds the event loop spent blocked in
    /// `epoll_wait` (copied from the poller each sweep tick).
    pub epoll_wait_nanos: Arc<Gauge>,
    /// `epoll_wait` calls completed (copied alongside).
    pub epoll_waits: Arc<Gauge>,
    /// Largest per-connection output backlog ever observed, in bytes.
    pub outbuf_highwater: Arc<Gauge>,
    /// Successful socket write syscalls (one per `writev` in the drain).
    /// Equal to the response count when small responses leave whole.
    pub socket_writes: Arc<Counter>,
    /// Jobs handed from the event loop to the worker pool (fresh
    /// requests and resumed stream jobs).
    pub worker_handoffs: Arc<Counter>,
    /// Times a streamed response yielded its worker at a document
    /// boundary because the client's output buffer was backed up.
    pub slow_client_yields: Arc<Counter>,
    /// Transform requests that carried a sampled pipeline trace.
    pub traces_sampled: Arc<Counter>,
    /// Requests that crossed the slow-request threshold (logged).
    pub slow_requests: Arc<Counter>,
    /// Ring of the most recent slow-request lines, served at `GET /slow`.
    slow_ring: Mutex<VecDeque<String>>,
    /// `name` label values already admitted on the per-target counters
    /// (bounded by [`TARGET_LABEL_CAP`]).
    target_names: Mutex<HashSet<String>>,
    /// Transform requests dispatched to a registered pipeline.
    pub pipeline_transforms: Arc<Counter>,
    pub transform: EndpointStats,
    pub transducers: EndpointStats,
    pub encodings: EndpointStats,
    pub pipelines: EndpointStats,
    pub typecheck: EndpointStats,
    pub health: EndpointStats,
    pub stats: EndpointStats,
    pub other: EndpointStats,
    // Values owned elsewhere (engine, registries, queue), mirrored into
    // gauges at render time so the exposition carries them too.
    ext_cache_hits: Arc<Gauge>,
    ext_cache_misses: Arc<Gauge>,
    ext_cache_entries: Arc<Gauge>,
    ext_skipped_subtrees: Arc<Gauge>,
    ext_docs_validated: Arc<Gauge>,
    ext_docs_rejected_pre_eval: Arc<Gauge>,
    ext_guards_compiled: Arc<Gauge>,
    ext_transducers: Arc<Gauge>,
    ext_encodings: Arc<Gauge>,
    ext_pipelines: Arc<Gauge>,
    ext_plan_cache_hits: Arc<Gauge>,
    ext_plan_cache_misses: Arc<Gauge>,
    ext_plan_cache_entries: Arc<Gauge>,
    ext_queue_capacity: Arc<Gauge>,
    ext_uptime_seconds: Arc<Gauge>,
    ext_started_at: Arc<Gauge>,
    ext_interner_symbols: Arc<Gauge>,
}

impl Default for ServerStats {
    fn default() -> ServerStats {
        ServerStats::new()
    }
}

impl ServerStats {
    pub fn new() -> ServerStats {
        let reg = Arc::new(MetricsRegistry::new());
        let c = |name: &str, help: &str| reg.counter(name, help, &[]);
        let g = |name: &str, help: &str| reg.gauge(name, help, &[]);
        let started_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let stats = ServerStats {
            started: Instant::now(),
            started_unix,
            rejected: c(
                "xtt_connections_rejected_total",
                "Requests answered 503 because the queue was full.",
            ),
            accepted: c(
                "xtt_connections_accepted_total",
                "Connections accepted by the event loop.",
            ),
            requests: c("xtt_http_requests_total", "Requests parsed and dispatched."),
            reused_requests: c(
                "xtt_http_reused_requests_total",
                "Requests served on a reused (kept-alive) connection.",
            ),
            closed_idle: c(
                "xtt_connections_closed_idle_total",
                "Kept-alive connections closed by the idle timeout.",
            ),
            queue_depth: g("xtt_queue_depth", "Jobs currently waiting for a worker."),
            queue_wait: reg.histogram(
                "xtt_queue_wait_micros",
                "Time requests waited in the queue before a worker popped them.",
                &[],
            ),
            handler_panics: c(
                "xtt_handler_panics_total",
                "Requests whose handler panicked (answered 500).",
            ),
            documents: c(
                "xtt_documents_total",
                "Documents seen on the transform endpoint.",
            ),
            document_errors: c("xtt_document_errors_total", "Documents that failed."),
            documents_type_errors: c(
                "xtt_document_type_errors_total",
                "Documents rejected by the domain guard before evaluation.",
            ),
            typecheck_runs: c("xtt_typecheck_runs_total", "Output-typecheck runs."),
            typecheck_ill_typed: c(
                "xtt_typecheck_ill_typed_total",
                "Typecheck runs that found a counterexample.",
            ),
            docs_streamed: c(
                "xtt_docs_streamed_total",
                "Documents answered through mode=stream incremental emission.",
            ),
            bytes_flushed_early: c(
                "xtt_bytes_flushed_early_total",
                "Output bytes flushed to clients during evaluation.",
            ),
            write_timeouts: c(
                "xtt_write_timeouts_total",
                "Streamed responses aborted by the write deadline.",
            ),
            connections_open: g(
                "xtt_connections_open",
                "Connections currently registered with the event loop.",
            ),
            parked_idle: g(
                "xtt_parked_idle",
                "Kept-alive connections currently idle between requests.",
            ),
            epoll_wakeups: c(
                "xtt_epoll_wakeups_total",
                "epoll_wait returns that delivered at least one event.",
            ),
            epoll_wait_nanos: g(
                "xtt_epoll_wait_nanos_total",
                "Cumulative nanoseconds the event loop spent blocked in epoll_wait.",
            ),
            epoll_waits: g("xtt_epoll_waits_total", "epoll_wait calls completed."),
            outbuf_highwater: g(
                "xtt_outbuf_highwater_bytes",
                "Largest per-connection output backlog ever observed.",
            ),
            socket_writes: c(
                "xtt_socket_writes_total",
                "Successful socket write syscalls draining response bytes.",
            ),
            worker_handoffs: c(
                "xtt_worker_handoffs_total",
                "Jobs handed from the event loop to the worker pool.",
            ),
            slow_client_yields: c(
                "xtt_slow_client_yields_total",
                "Streamed responses that yielded their worker to a slow client.",
            ),
            traces_sampled: c(
                "xtt_traces_sampled_total",
                "Transform requests that carried a sampled pipeline trace.",
            ),
            slow_requests: c(
                "xtt_slow_requests_total",
                "Requests that crossed the slow-request log threshold.",
            ),
            slow_ring: Mutex::new(VecDeque::with_capacity(SLOW_RING_CAP)),
            target_names: Mutex::new(HashSet::new()),
            pipeline_transforms: c(
                "xtt_pipeline_transforms_total",
                "Transform requests dispatched to a registered pipeline.",
            ),
            transform: EndpointStats::new(&reg, "transform"),
            transducers: EndpointStats::new(&reg, "transducers"),
            encodings: EndpointStats::new(&reg, "encodings"),
            pipelines: EndpointStats::new(&reg, "pipelines"),
            typecheck: EndpointStats::new(&reg, "typecheck"),
            health: EndpointStats::new(&reg, "healthz"),
            stats: EndpointStats::new(&reg, "stats"),
            other: EndpointStats::new(&reg, "other"),
            ext_cache_hits: g("xtt_engine_cache_hits", "Engine compile-cache hits."),
            ext_cache_misses: g("xtt_engine_cache_misses", "Engine compile-cache misses."),
            ext_cache_entries: g(
                "xtt_engine_cache_entries",
                "Transducers currently in the engine compile cache.",
            ),
            ext_skipped_subtrees: g(
                "xtt_engine_skipped_subtrees",
                "Subtrees skipped by deletion-aware evaluation.",
            ),
            ext_docs_validated: g(
                "xtt_docs_validated",
                "Documents run through the domain guard.",
            ),
            ext_docs_rejected_pre_eval: g(
                "xtt_docs_rejected_pre_eval",
                "Documents the guard rejected before evaluation.",
            ),
            ext_guards_compiled: g("xtt_guards_compiled", "Domain guards compiled."),
            ext_transducers: g("xtt_transducers_registered", "Registered transducers."),
            ext_encodings: g("xtt_encodings_registered", "Registered ranked encodings."),
            ext_pipelines: g("xtt_pipelines_registered", "Registered pipelines."),
            ext_plan_cache_hits: g("xtt_pipeline_plan_cache_hits", "Pipeline plan-cache hits."),
            ext_plan_cache_misses: g(
                "xtt_pipeline_plan_cache_misses",
                "Pipeline plan-cache misses.",
            ),
            ext_plan_cache_entries: g(
                "xtt_pipeline_plan_cache_entries",
                "Plans currently in the pipeline plan cache.",
            ),
            ext_queue_capacity: g("xtt_queue_capacity", "Work-queue backpressure bound."),
            ext_uptime_seconds: g("xtt_uptime_seconds", "Seconds since the server started."),
            ext_started_at: g(
                "xtt_started_at_seconds",
                "Unix timestamp of the server start.",
            ),
            ext_interner_symbols: g(
                "xtt_interner_symbols",
                "Symbols in the process-global interner (flat under untrusted documents).",
            ),
            metrics: reg,
        };
        stats.ext_started_at.set(started_unix);
        stats
    }

    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Appends a slow-request line to the bounded ring behind `GET /slow`
    /// (oldest line evicted at capacity).
    pub fn push_slow(&self, line: String) {
        let mut ring = self.slow_ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= SLOW_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(line);
    }

    /// The `GET /slow` body: total slow-request count plus the retained
    /// recent lines, oldest first.
    pub fn slow_json(&self) -> String {
        let ring = self.slow_ring.lock().unwrap_or_else(|e| e.into_inner());
        let lines: Vec<String> = ring
            .iter()
            .map(|l| format!("\"{}\"", crate::registry::escape_json(l)))
            .collect();
        format!(
            "{{\"slow_requests\":{},\"capacity\":{},\"recent\":[{}]}}\n",
            self.slow_requests.get(),
            SLOW_RING_CAP,
            lines.join(","),
        )
    }

    /// Bumps the per-target transform counter
    /// `xtt_transform_requests_by_target_total{kind=…,name=…}`. The first
    /// [`TARGET_LABEL_CAP`] distinct names get their own series; later
    /// ones collapse into `name="__other"` so registry churn cannot blow
    /// up the exposition.
    pub fn record_transform_target(&self, kind: &str, name: &str) {
        let bounded = {
            let mut seen = self.target_names.lock().unwrap_or_else(|e| e.into_inner());
            if seen.contains(name) {
                true
            } else if seen.len() < TARGET_LABEL_CAP {
                seen.insert(name.to_owned());
                true
            } else {
                false
            }
        };
        let label = if bounded { name } else { "__other" };
        self.metrics
            .counter(
                "xtt_transform_requests_by_target_total",
                "Transform requests by target (kind=transducer|pipeline, name bounded).",
                &[("kind", kind), ("name", label)],
            )
            .inc();
    }

    /// The per-stage pipeline histogram
    /// `xtt_pipeline_stage_events{stage="i"}` — input events each pipeline
    /// stage processed per document. Registration is idempotent;
    /// cardinality is bounded by the longest registered pipeline.
    pub fn stage_events(&self, stage: usize) -> Arc<Histogram> {
        self.metrics.histogram(
            "xtt_pipeline_stage_events",
            "Input events processed per pipeline stage per document.",
            &[("stage", &stage.to_string())],
        )
    }

    /// Mirrors the values owned elsewhere (engine counters, registry
    /// sizes, queue capacity, uptime) into their gauges. Both `/stats`
    /// and `/metrics` call this with the same getters, so the views stay
    /// in lockstep.
    #[allow(clippy::too_many_arguments)]
    pub fn sync_external(
        &self,
        cache: xtt_engine::CacheStats,
        validation: xtt_engine::ValidationStats,
        skipped_subtrees: u64,
        transducers: usize,
        encodings: usize,
        pipelines: usize,
        plan_cache: xtt_engine::CacheStats,
        capacity: usize,
    ) {
        self.ext_cache_hits.set(cache.hits);
        self.ext_cache_misses.set(cache.misses);
        self.ext_cache_entries.set(cache.entries as u64);
        self.ext_skipped_subtrees.set(skipped_subtrees);
        self.ext_docs_validated.set(validation.docs_validated);
        self.ext_docs_rejected_pre_eval
            .set(validation.docs_rejected_pre_eval);
        self.ext_guards_compiled.set(validation.guards_compiled);
        self.ext_transducers.set(transducers as u64);
        self.ext_encodings.set(encodings as u64);
        self.ext_pipelines.set(pipelines as u64);
        self.ext_plan_cache_hits.set(plan_cache.hits);
        self.ext_plan_cache_misses.set(plan_cache.misses);
        self.ext_plan_cache_entries.set(plan_cache.entries as u64);
        self.ext_queue_capacity.set(capacity as u64);
        self.ext_uptime_seconds.set(self.uptime_seconds());
        self.ext_interner_symbols
            .set(xtt_trees::Symbol::interned_count() as u64);
    }

    /// Renders the `/stats` snapshot, splicing in the engine cache and
    /// validation counters and the live transducer count.
    #[allow(clippy::too_many_arguments)]
    pub fn json(
        &self,
        cache: xtt_engine::CacheStats,
        validation: xtt_engine::ValidationStats,
        skipped_subtrees: u64,
        transducers: usize,
        encodings: usize,
        pipelines: usize,
        plan_cache: xtt_engine::CacheStats,
        capacity: usize,
    ) -> String {
        self.sync_external(
            cache,
            validation,
            skipped_subtrees,
            transducers,
            encodings,
            pipelines,
            plan_cache,
            capacity,
        );
        let queue_wait = self.queue_wait.snapshot();
        format!(
            "{{\"engine\":{{\"cache_hits\":{},\"cache_misses\":{},\"cache_entries\":{},\"skipped_subtrees\":{}}},\
             \"queue\":{{\"depth\":{},\"capacity\":{},\"accepted\":{},\"rejected\":{},\"wait_p50_us\":{},\"wait_p99_us\":{}}},\
             \"connections\":{{\"accepted\":{},\"requests\":{},\"reused_requests\":{},\"closed_idle\":{}}},\
             \"documents\":{{\"total\":{},\"errors\":{},\"type_errors\":{}}},\
             \"validation\":{{\"docs_validated\":{},\"docs_rejected_pre_eval\":{},\"guards_compiled\":{}}},\
             \"typecheck\":{{\"runs\":{},\"ill_typed\":{}}},\
             \"streaming\":{{\"docs_streamed\":{},\"bytes_flushed_early\":{},\"write_timeouts\":{}}},\
             \"event_loop\":{{\"connections_open\":{},\"parked_idle\":{},\"epoll_wakeups\":{},\"worker_handoffs\":{},\"slow_client_yields\":{},\"epoll_wait_nanos\":{},\"epoll_waits\":{},\"outbuf_highwater_bytes\":{},\"socket_writes\":{}}},\
             \"tracing\":{{\"traces_sampled\":{},\"slow_requests\":{}}},\
             \"handler_panics\":{},\
             \"interner_symbols\":{},\
             \"uptime_seconds\":{},\
             \"started_at\":{},\
             \"transducers\":{},\
             \"encodings\":{},\
             \"pipelines\":{{\"registered\":{},\"transforms\":{},\"plan_cache_hits\":{},\"plan_cache_misses\":{},\"plan_cache_entries\":{}}},\
             \"endpoints\":{{\"transform\":{},\"transducers\":{},\"encodings\":{},\"pipelines\":{},\"typecheck\":{},\"healthz\":{},\"stats\":{},\"other\":{}}}}}",
            cache.hits,
            cache.misses,
            cache.entries,
            skipped_subtrees,
            self.queue_depth.get(),
            capacity,
            self.accepted.get(),
            self.rejected.get(),
            queue_wait.p50(),
            queue_wait.p99(),
            self.accepted.get(),
            self.requests.get(),
            self.reused_requests.get(),
            self.closed_idle.get(),
            self.documents.get(),
            self.document_errors.get(),
            self.documents_type_errors.get(),
            validation.docs_validated,
            validation.docs_rejected_pre_eval,
            validation.guards_compiled,
            self.typecheck_runs.get(),
            self.typecheck_ill_typed.get(),
            self.docs_streamed.get(),
            self.bytes_flushed_early.get(),
            self.write_timeouts.get(),
            self.connections_open.get(),
            self.parked_idle.get(),
            self.epoll_wakeups.get(),
            self.worker_handoffs.get(),
            self.slow_client_yields.get(),
            self.epoll_wait_nanos.get(),
            self.epoll_waits.get(),
            self.outbuf_highwater.get(),
            self.socket_writes.get(),
            self.traces_sampled.get(),
            self.slow_requests.get(),
            self.handler_panics.get(),
            self.ext_interner_symbols.get(),
            self.uptime_seconds(),
            self.started_unix,
            transducers,
            encodings,
            pipelines,
            self.pipeline_transforms.get(),
            plan_cache.hits,
            plan_cache.misses,
            plan_cache.entries,
            self.transform.json(),
            self.transducers.json(),
            self.encodings.json(),
            self.pipelines.json(),
            self.typecheck.json(),
            self.health.json(),
            self.stats.json(),
            self.other.json(),
        )
    }
}
