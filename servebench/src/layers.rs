//! The per-layer metrics of the traced run, with the end-to-end metric
//! (and workload) each one should move. A later change that claims a gain
//! on a layer names the row it expects to move and checks the prediction
//! against both the layer and the end-to-end number.

/// The end-to-end metrics `BENCHMARK.json` bounds, in its order. The
/// others are printed with their sample counts but not bounded, because
/// no bound of at most a quarter holds them across runs:
/// * `docs_per_s` and `req_p50_ms` swing about twofold while the server's
///   delayed-ACK stall hits anywhere from a quarter to two thirds of term
///   requests;
/// * `ttfb_p50_ms` of a term batch is a few ms of thread hand-offs whose
///   median moved by up to a quarter between runs of the same code;
/// * the write-path latencies exist on `learn_churn` only, and
///   `error_rate` is 0 whenever the run is correct.
pub const GATED: &[&str] = &["req_p99_ms", "peak_rss_mb", "setup_s"];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer { name, unit, moves }
}

pub const LAYERS: &[Layer] = &[
    layer(
        "trees.parse_tree.mb_per_s",
        "MB/s",
        "docs_per_s, req_p50_ms on term_batch; no change on xml_stream",
    ),
    layer(
        "trees.display.mb_per_s",
        "MB/s",
        "docs_per_s, req_p50_ms on term_batch; no change on xml_stream",
    ),
    layer(
        "trees.symbols_interned",
        "count",
        "peak_rss_mb on term_batch",
    ),
    layer(
        "xml.tokenize.mb_per_s",
        "MB/s",
        "docs_per_s, ttfb_p50_ms on xml_stream",
    ),
    layer(
        "unranked.encode.mb_per_s",
        "MB/s",
        "docs_per_s, ttfb_p50_ms on xml_stream",
    ),
    layer(
        "unranked.decode.mb_per_s",
        "MB/s",
        "docs_per_s, ttfb_p50_ms on xml_stream",
    ),
    layer(
        "typecheck.guard.mb_per_s",
        "MB/s",
        "docs_per_s, ttfb_p50_ms on xml_stream",
    ),
    layer(
        "engine.stream_eval.mb_per_s",
        "MB/s",
        "docs_per_s, ttfb_p50_ms on xml_stream",
    ),
    layer(
        "engine.emit.mb_per_s",
        "MB/s",
        "docs_per_s, ttfb_p50_ms on xml_stream",
    ),
    layer(
        "engine.preflight.mb_per_s",
        "MB/s",
        "docs_per_s, req_p50_ms on term_batch",
    ),
    layer("engine.eval.mb_per_s", "MB/s", "docs_per_s on term_batch"),
    layer(
        "engine.early_event_ratio",
        "ratio",
        "ttfb_p50_ms, docs_per_s on xml_stream",
    ),
    layer(
        "engine.peak_buffered_frames",
        "count",
        "ttfb_p50_ms, docs_per_s on xml_stream",
    ),
    layer(
        "engine.skipped_subtrees_ratio",
        "ratio",
        "ttfb_p50_ms, docs_per_s on xml_stream",
    ),
    layer(
        "typecheck.reject_consumed_ratio",
        "ratio",
        "ttfb_p50_ms, docs_per_s on xml_stream",
    ),
    layer(
        "core.rpni_dtop.ms",
        "ms",
        "learn_p50_ms, and req_p99_ms of the hot reader, on learn_churn",
    ),
    layer(
        "core.sample_nodes",
        "count",
        "learn_p50_ms, and req_p99_ms of the hot reader, on learn_churn",
    ),
    layer("pipeline.plan.ms", "ms", "register_p50_ms"),
    layer("pipeline.probe_ms", "ms", "register_p50_ms"),
    layer(
        "engine.compile.ms",
        "ms",
        "cold_req_p50_ms on learn_churn; no change on term_batch",
    ),
    layer(
        "typecheck.domain_guard.ms",
        "ms",
        "cold_req_p50_ms on learn_churn; no change on term_batch",
    ),
    layer(
        "engine.cache_hit_ratio",
        "ratio",
        "cold_req_p50_ms on learn_churn; no change on term_batch",
    ),
    layer(
        "serve.outside_engine_ms_p50",
        "ms",
        "req_p50_ms, req_p99_ms, docs_per_s on every workload",
    ),
    layer(
        "serve.req_ge_40ms_share",
        "ratio",
        "req_p50_ms, req_p99_ms, docs_per_s on every workload",
    ),
    layer(
        "serve.queue_wait_us_p50",
        "us",
        "req_p50_ms, req_p99_ms, docs_per_s on every workload",
    ),
    layer(
        "serve.queue_wait_us_p99",
        "us",
        "req_p50_ms, req_p99_ms, docs_per_s on every workload",
    ),
    layer(
        "serve.reconnects",
        "count",
        "req_p50_ms, req_p99_ms, docs_per_s on every workload",
    ),
    layer(
        "engine.coverage",
        "ratio",
        "none: the layers above must add up to the in-process whole",
    ),
];

#[cfg(test)]
mod tests {
    use serde_json::Value;

    use super::*;

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        match v.get(key) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_benchmark_reports() {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let v: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let layers: Vec<(String, String)> = LAYERS
            .iter()
            .map(|l| (l.name.to_owned(), l.unit.to_owned()))
            .collect();
        assert_eq!(names(&v, "per_layer"), layers);
        let gated: Vec<String> = names(&v, "end_to_end")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(gated, GATED);
    }
}
