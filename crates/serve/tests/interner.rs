//! Untrusted documents cannot grow the process-global symbol interner:
//! term bodies resolve names by lookup only, exactly like XML bodies, so
//! a stream of never-seen names leaves `xtt_interner_symbols` flat. The
//! interner is process-global, which is why this is the only test in its
//! binary: the gauge moves only because of the requests sent here.

use std::time::Duration;

use xtt_engine::EngineOptions;
use xtt_serve::{ServeClient, ServeOptions, Server};
use xtt_transducer::{examples, identity};

/// `xtt_interner_symbols` from `/metrics`, checked against `/stats`.
fn interner_symbols(client: &ServeClient) -> u64 {
    let text = client.request("GET", "/metrics", "").unwrap().body_str();
    let from_metrics: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("xtt_interner_symbols "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no xtt_interner_symbols in {text}"));
    let json = client.stats().unwrap().body_str();
    let stats: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(
        stats["interner_symbols"].as_u64(),
        Some(from_metrics),
        "/stats and /metrics disagree: {json}"
    );
    from_metrics
}

#[test]
fn never_seen_names_are_answered_without_growing_the_interner() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            engine: EngineOptions {
                workers: 2,
                ..ServeOptions::default().engine
            },
            ..ServeOptions::default()
        },
    )
    .expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let runner = std::thread::spawn(move || server.run());
    let client = ServeClient::new(addr)
        .unwrap()
        .with_timeout(Duration::from_secs(10));
    assert!(client.wait_ready(Duration::from_secs(5)), "server not up");

    // Registration interns (trusted input): do all of it up front.
    let flip = examples::flip().dtop;
    assert_eq!(
        client
            .put_transducer("flip", &flip.to_string())
            .unwrap()
            .status,
        201
    );
    assert_eq!(
        client
            .put_transducer("id", &identity(flip.output()).to_string())
            .unwrap()
            .status,
        201
    );
    let resp = client
        .request("PUT", "/pipelines/flipid", "flip,id\n")
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());

    let targets = [
        ("flip", "?validate=0"),
        ("flip", "?mode=stream&validate=0"),
        ("flip", "?validate=1"),
        ("flip", "?mode=stream&validate=1"),
        ("flipid", ""),
        ("flipid", "?mode=stream"),
    ];
    // Warm every path once with a clean document, so anything created
    // lazily on first use (the out-of-vocabulary sentinel, guards) is
    // in place before the baseline.
    for (name, query) in targets {
        let (_, lines) = client
            .transform(name, query, &["root(a(#,#),b(#,#))"])
            .unwrap();
        assert_eq!(lines, ["root(b(#,#),a(#,#))"], "{name}{query}");
    }
    let before = interner_symbols(&client);
    assert!(before > 0);

    let mut fresh = 0u32;
    for round in 0..4 {
        for (name, query) in targets {
            // Every document carries names no one has seen, each at a
            // position the transducer inspects.
            let docs: Vec<String> = (0..32)
                .flat_map(|_| {
                    fresh += 1;
                    [
                        format!("root(a(#,zqinner{fresh}(#,#)),b(#,#))"),
                        format!("zqroot{fresh}(#,#)"),
                        format!("root(a(#,#),b(#,zqleaf{fresh}))"),
                    ]
                })
                .collect();
            let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
            let (resp, lines) = client.transform(name, query, &refs).unwrap();
            assert!(
                resp.status == 200 || resp.status == 207,
                "{name}{query}: {}",
                resp.status
            );
            assert_eq!(lines.len(), docs.len(), "{name}{query} round {round}");
            for (doc, line) in docs.iter().zip(&lines) {
                assert!(
                    line.starts_with("!error: "),
                    "{name}{query}: {doc} answered {line}"
                );
            }
            // Guarded answers name the token as written, recovered from
            // the document without interning it.
            if name == "flipid" || query.contains("validate=1") {
                let token = docs[0].split(['(', ',']).nth(3).unwrap();
                let named =
                    format!("!error: type error at 1.2: symbol {token} not allowed in state ");
                assert!(lines[0].starts_with(&named), "{name}{query}: {}", lines[0]);
            }
        }
    }
    assert_eq!(
        interner_symbols(&client),
        before,
        "untrusted documents grew the interner"
    );

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
}
