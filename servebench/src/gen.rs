//! Seeded inputs and their expected outputs.
//!
//! Everything here runs before the clock starts. Document sizes are
//! stratified (every seed draws the same multiset of sizes and the same
//! share of out-of-domain documents, in a different order and with
//! different contents), so run-to-run differences come from the system,
//! not from a lucky draw. Expected outputs come from the reference
//! tree-walk evaluator `xtt_transducer::eval`, which shares no code with
//! the compiled or streaming evaluators the server runs.

use xtt_core::characteristic_sample;
use xtt_engine::{ranked_tree_from_xml, tree_to_xml};
use xtt_transducer::{canonical_form, eval, examples, Dtop, DtopBuilder};
use xtt_trees::{parse_tree, RankedAlphabet, Tree};
use xtt_unranked::XmlCodec;

/// Documents per `term_batch` request.
pub const BATCH_DOCS: usize = 64;
/// One `term_batch` document in this many is out of domain (2%).
const GARBAGE_EVERY: usize = 50;
/// Never-seen symbol names are `zq` + 8 hex digits; bodies carry this
/// placeholder where the load generator writes a fresh name per send.
pub const PLACEHOLDER: &str = "zq00000000";
/// `xml_stream` size rungs per request kind.
const XML_RUNGS: usize = 64;
/// The chain sizes `learn_churn` learns: 13 distinct machines, more than
/// the server's compiled-transducer LRU holds (8).
pub const CHAIN_NS: [usize; 13] = [8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32];
/// Documents per cold transform in the learn cycle.
const COLD_DOCS: usize = 8;

/// splitmix64: small, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// What one document of a request must produce.
#[derive(Clone)]
pub enum Expect {
    /// This exact output line.
    Out(String),
    /// A positioned `!error` line. A streamed response may precede it
    /// with the output prefix committed before the violation; that prefix
    /// must be a prefix of `reference`, the output of the same document
    /// without its defect.
    Reject { reference: String },
}

/// One pre-built HTTP request and its expected response.
pub struct Request {
    /// Transducer or pipeline name.
    pub target: String,
    /// The full request (head and body).
    pub bytes: Vec<u8>,
    /// Offsets in `bytes` of [`PLACEHOLDER`] names to overwrite per send.
    pub slots: Vec<usize>,
    /// The documents as generated (placeholders unpatched).
    pub docs: Vec<String>,
    pub expect: Vec<Expect>,
    /// What every `!error` line of this request starts with.
    pub error_prefix: &'static str,
}

impl Request {
    fn new(
        path: &str,
        target: &str,
        docs: Vec<String>,
        expect: Vec<Expect>,
        err: &'static str,
    ) -> Request {
        let mut body = String::new();
        for d in &docs {
            body.push_str(d);
            body.push('\n');
        }
        let bytes = crate::http::request("POST", path, body.as_bytes());
        let head = bytes.len() - body.len();
        let slots = find_all(&body, PLACEHOLDER).map(|i| head + i).collect();
        Request {
            target: target.to_owned(),
            bytes,
            slots,
            docs,
            expect,
            error_prefix: err,
        }
    }

    /// The status the server must answer with: 207 when any document of
    /// a non-streamed batch fails.
    pub fn status(&self, streamed: bool) -> u16 {
        let failing = self
            .expect
            .iter()
            .any(|e| matches!(e, Expect::Reject { .. }));
        if failing && !streamed {
            207
        } else {
            200
        }
    }
}

fn find_all<'a>(hay: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    hay.match_indices(needle).map(|(i, _)| i)
}

/// The transducers the server hosts, as the oracle sees them.
pub struct Fixtures {
    pub flip: Dtop,
    pub library: Dtop,
    pub prune: Dtop,
    pub relabel: Dtop,
}

impl Fixtures {
    pub fn new() -> Fixtures {
        Fixtures {
            flip: examples::flip().dtop,
            library: examples::library().dtop,
            prune: fcns_prune(),
            relabel: fcns_relabel(),
        }
    }

    pub fn term(&self, name: &str) -> &Dtop {
        match name {
            "flip" => &self.flip,
            "library" => &self.library,
            other => panic!("no term fixture {other}"),
        }
    }
}

fn fcns_alphabet(a: &str) -> RankedAlphabet {
    RankedAlphabet::from_pairs([("root", 2), (a, 2), ("b", 2), ("pcdata", 2), ("#", 0)])
}

/// Over the fc/ns encoding: drop every `<b>` subtree, keep the rest.
/// Order-preserving and deleting, so the tokenizer skip path runs.
fn fcns_prune() -> Dtop {
    let alpha = fcns_alphabet("a");
    let mut b = DtopBuilder::new(alpha.clone(), alpha);
    b.add_state("q0");
    b.add_state("q");
    b.set_axiom_str("<q0,x0>").expect("axiom");
    b.add_rule_str("q0", "root", "root(<q,x1>,<q,x2>)")
        .expect("rule");
    b.add_rule_str("q", "a", "a(<q,x1>,<q,x2>)").expect("rule");
    b.add_rule_str("q", "b", "<q,x2>").expect("rule");
    b.add_rule_str("q", "pcdata", "pcdata(#,<q,x2>)")
        .expect("rule");
    b.add_rule_str("q", "#", "#").expect("rule");
    b.build().expect("prune is well-formed")
}

/// Over the fc/ns encoding: rename `<a>` to `<c>`; stage 2 of `pp`.
fn fcns_relabel() -> Dtop {
    let mut b = DtopBuilder::new(fcns_alphabet("a"), fcns_alphabet("c"));
    b.add_state("q0");
    b.add_state("q");
    b.set_axiom_str("<q0,x0>").expect("axiom");
    b.add_rule_str("q0", "root", "root(<q,x1>,<q,x2>)")
        .expect("rule");
    b.add_rule_str("q", "a", "c(<q,x1>,<q,x2>)").expect("rule");
    b.add_rule_str("q", "b", "b(<q,x1>,<q,x2>)").expect("rule");
    b.add_rule_str("q", "pcdata", "pcdata(<q,x1>,<q,x2>)")
        .expect("rule");
    b.add_rule_str("q", "#", "#").expect("rule");
    b.build().expect("relabel is well-formed")
}

/// `u_n`: maps every `g_i` of `chain_n`'s output back to `f`, so the
/// pipeline `l_n, u_n` is the identity on `f…f(e)`.
pub fn unchain(n: usize) -> Dtop {
    let mut pairs: Vec<(String, usize)> = (0..n).map(|i| (format!("g{i}"), 1)).collect();
    pairs.push(("e".to_owned(), 0));
    let input: RankedAlphabet = pairs.iter().map(|(s, r)| (s.as_str(), *r)).collect();
    let output = RankedAlphabet::from_pairs([("f", 1), ("e", 0)]);
    let mut b = DtopBuilder::new(input, output);
    b.add_state("q");
    b.set_axiom_str("<q,x0>").expect("axiom");
    for i in 0..n {
        b.add_rule_str("q", &format!("g{i}"), "f(<q,x1>)")
            .expect("rule");
    }
    b.add_rule_str("q", "e", "e").expect("rule");
    b.build().expect("unchain is well-formed")
}

/// The PUT bodies of the transducers and pipeline every server hosts
/// besides the preloaded `flip` and `library`.
pub fn registrations(fx: &Fixtures) -> Vec<(String, String)> {
    let mut out = vec![
        ("/transducers/prune".to_owned(), fx.prune.to_string()),
        ("/transducers/relabel".to_owned(), fx.relabel.to_string()),
        ("/pipelines/pp".to_owned(), "prune,relabel".to_owned()),
    ];
    for n in CHAIN_NS {
        out.push((format!("/transducers/u{n}"), unchain(n).to_string()));
    }
    out
}

fn oracle_term(dtop: &Dtop, doc: &str) -> Option<String> {
    let t = parse_tree(doc).expect("generated documents parse");
    eval(dtop, &t).map(|o| o.to_string())
}

/// Byte spans of the symbol names in a term document.
fn name_spans(doc: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in doc.char_indices() {
        let structural = matches!(c, '(' | ')' | ',');
        match (structural, start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                out.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, doc.len()));
    }
    out
}

/// Replaces one symbol of `doc` by [`PLACEHOLDER`] at a position the
/// oracle rejects (the root always qualifies).
fn garble(rng: &mut Rng, dtop: &Dtop, doc: &str) -> String {
    let spans = name_spans(doc);
    for attempt in 0..32 {
        let (s, e) = if attempt == 31 {
            spans[0]
        } else {
            spans[rng.below(spans.len())]
        };
        let bad = format!("{}{PLACEHOLDER}{}", &doc[..s], &doc[e..]);
        if oracle_term(dtop, &bad).is_none() {
            return bad;
        }
    }
    unreachable!("an unknown root symbol is always out of domain")
}

/// `term_batch` requests (also the hot reads of `learn_churn`): half
/// `flip` batches over the full `flip_input(1..=64, 1..=8)` grid, half
/// `library` batches over `library_input(1..=12)`, 2% of documents
/// garbled with a never-seen symbol.
pub fn term_corpus(seed: u64, requests: usize, fx: &Fixtures) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x7465_726d);
    let per_kind = requests / 2;
    let ndocs = per_kind * BATCH_DOCS;
    let mut kinds: Vec<(&str, Vec<String>)> = Vec::new();
    let flip_docs: Vec<String> = (0..ndocs)
        .map(|i| {
            let (n, m) = (1 + i % 64, 1 + (i / 64) % 8);
            examples::flip_input(n, m).to_string()
        })
        .collect();
    let lib_docs: Vec<String> = (0..ndocs)
        .map(|i| examples::library_input(1 + i % 12).to_string())
        .collect();
    kinds.push(("flip", flip_docs));
    kinds.push(("library", lib_docs));
    let mut out = Vec::new();
    for (name, mut docs) in kinds {
        let dtop = fx.term(name);
        // Stratified garbage: every 50th document in size order.
        docs.sort_by_key(String::len);
        let mut expect = Vec::with_capacity(docs.len());
        for (i, doc) in docs.iter_mut().enumerate() {
            if i % GARBAGE_EVERY == GARBAGE_EVERY / 2 {
                *doc = garble(&mut rng, dtop, doc);
                expect.push(Expect::Reject {
                    reference: String::new(),
                });
            } else {
                expect.push(Expect::Out(oracle_term(dtop, doc).expect("in domain")));
            }
        }
        let mut order: Vec<usize> = (0..docs.len()).collect();
        rng.shuffle(&mut order);
        let path = format!("/transform/{name}?format=term&mode=compiled");
        for chunk in order.chunks(BATCH_DOCS) {
            out.push(Request::new(
                &path,
                name,
                chunk.iter().map(|&i| docs[i].clone()).collect(),
                chunk.iter().map(|&i| expect[i].clone()).collect(),
                "!error: ",
            ));
        }
    }
    rng.shuffle(&mut out);
    out
}

#[derive(Default)]
pub struct XmlCorpus {
    pub requests: Vec<Request>,
    /// Per request, per document: the `<b>` subtrees the transducer
    /// deletes (0 for `flip`).
    pub deletable: Vec<Vec<u64>>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum XmlKind {
    Flip,
    Prune,
    Pipe,
}

impl XmlKind {
    pub fn of(target: &str) -> XmlKind {
        match target {
            "flip" => XmlKind::Flip,
            "prune" => XmlKind::Prune,
            _ => XmlKind::Pipe,
        }
    }
}

/// A flip list of `len` nodes; node `bad` (if any) is relabelled `c`.
fn flip_list(label: &str, len: usize, bad: Option<usize>) -> Tree {
    let mut list = Tree::leaf_named("#");
    for i in (0..len).rev() {
        let l = if bad == Some(i) { "c" } else { label };
        list = Tree::node(l, vec![Tree::leaf_named("#"), list]);
    }
    list
}

fn flip_xml(a: usize, b: usize, bad: Option<usize>) -> String {
    let root = Tree::node(
        "root",
        vec![flip_list("a", a, bad), flip_list("b", b, None)],
    );
    tree_to_xml(&root)
}

/// One top-level item of a prune document: an `<a>` with a little
/// content, a `<b>` bush (deleted), or text.
fn prune_item(rng: &mut Rng) -> (String, bool) {
    match rng.below(20) {
        0..=11 => {
            let mut s = "<a>".to_owned();
            for _ in 0..rng.below(4) {
                match rng.below(3) {
                    0 => s.push_str(&format!("w{} ", rng.below(1000))),
                    1 => s.push_str("<a/>"),
                    _ => s.push_str(&format!("<a>t{}</a>", rng.below(100))),
                }
            }
            s.push_str("</a>");
            (s, false)
        }
        12..=16 => {
            let mut s = "<b>".to_owned();
            for _ in 0..1 + rng.below(4) {
                s.push_str(&format!("<a>dropped{}</a><a/>", rng.below(100)));
            }
            s.push_str("</b>");
            (s, true)
        }
        _ => (format!("x{} ", rng.below(10_000)), false),
    }
}

/// A prune/pipeline document of about `size` bytes; the `bad`-th
/// top-level `<a>` (if any) is renamed `zz`, outside the schema.
fn prune_xml(rng: &mut Rng, size: usize, bad: Option<usize>) -> (String, String, u64) {
    let mut good = String::with_capacity(size + 64);
    let mut broken = String::with_capacity(size + 64);
    good.push_str("<root>");
    broken.push_str("<root>");
    let mut deletable = 0;
    let mut a_seen = 0;
    while good.len() < size {
        let (item, deleted) = prune_item(rng);
        deletable += deleted as u64;
        let is_a = item.starts_with("<a>");
        if is_a && bad == Some(a_seen) {
            broken.push_str(&format!("<zz>{}</zz>", &item[3..item.len() - 4]));
        } else {
            broken.push_str(&item);
        }
        a_seen += is_a as usize;
        good.push_str(&item);
    }
    good.push_str("</root>");
    broken.push_str("</root>");
    (good, broken, deletable)
}

fn oracle_xml(kind: XmlKind, fx: &Fixtures, doc: &str) -> Option<String> {
    match kind {
        XmlKind::Flip => {
            let t = ranked_tree_from_xml(doc).expect("generated XML parses");
            eval(&fx.flip, &t).map(|o| tree_to_xml(&o))
        }
        XmlKind::Prune | XmlKind::Pipe => {
            let codec = XmlCodec::fcns();
            let t = codec.ranked_tree(doc).expect("generated XML encodes");
            let mut out = eval(&fx.prune, &t)?;
            if kind == XmlKind::Pipe {
                out = eval(&fx.relabel, &out)?;
            }
            Some(codec.decode_tree(&out).expect("outputs decode"))
        }
    }
}

/// `xml_stream` requests: for each of `flip` (ranked XML, 2–32 KB,
/// permuting), `prune` and `pp` (fc/ns, 2–100 KB, deleting), 64 size
/// rungs of which 3 (~5%) carry an early schema violation; two documents
/// per request.
pub fn xml_corpus(seed: u64, fx: &Fixtures) -> XmlCorpus {
    let mut rng = Rng::new(seed ^ 0x786d_6c73);
    let per_node = flip_xml(100, 0, None).len() as f64 / 100.0;
    let mut all: Vec<(Request, Vec<u64>)> = Vec::new();
    for kind in [XmlKind::Flip, XmlKind::Prune, XmlKind::Pipe] {
        let (lo, hi) = if kind == XmlKind::Flip {
            (2_000.0, 32_000.0)
        } else {
            (2_000.0, 100_000.0)
        };
        let mut docs: Vec<(String, Expect, u64)> = Vec::new();
        for rung in 0..XML_RUNGS {
            let size = lo + (hi - lo) * rung as f64 / (XML_RUNGS - 1) as f64;
            let bad = (rung % 20 == 7).then(|| rng.below(3));
            let (good, broken, deletable) = match kind {
                XmlKind::Flip => {
                    let nodes = (size / per_node) as usize;
                    let b = nodes * (10 + rng.below(40)) / 100;
                    let a = nodes - b;
                    (flip_xml(a, b, None), flip_xml(a, b, bad), 0)
                }
                _ => prune_xml(&mut rng, size as usize, bad),
            };
            let reference =
                oracle_xml(kind, fx, &good).expect("the unbroken document is in domain");
            let (doc, expect) = match bad {
                None => (good, Expect::Out(reference)),
                Some(_) => {
                    assert!(
                        oracle_xml(kind, fx, &broken).is_none(),
                        "a renamed element is out of domain"
                    );
                    (broken, Expect::Reject { reference })
                }
            };
            docs.push((doc, expect, deletable));
        }
        let (target, query) = match kind {
            XmlKind::Flip => ("flip", "format=xml"),
            XmlKind::Prune => ("prune", "encoding=fcns"),
            XmlKind::Pipe => ("pp", "encoding=fcns"),
        };
        let path = format!("/transform/{target}?{query}&mode=stream&validate=1");
        // Rung i rides with rung 63 - i, so every request carries about
        // the same bytes and a seed cannot stack the largest documents
        // into one request.
        for i in 0..XML_RUNGS / 2 {
            let mut pair = [i, XML_RUNGS - 1 - i];
            rng.shuffle(&mut pair);
            let chunk = [&docs[pair[0]], &docs[pair[1]]];
            let req = Request::new(
                &path,
                target,
                chunk.iter().map(|d| d.0.clone()).collect(),
                chunk.iter().map(|d| d.1.clone()).collect(),
                "!error: type error at ",
            );
            all.push((req, chunk.iter().map(|d| d.2).collect()));
        }
    }
    rng.shuffle(&mut all);
    let (requests, deletable) = all.into_iter().unzip();
    XmlCorpus {
        requests,
        deletable,
    }
}

/// One machine of the learn cycle, as text (trees are not `Send`).
pub struct Chain {
    pub n: usize,
    /// `input => output` lines of `chain_n`'s characteristic sample.
    pub sample: String,
    pub learn: Vec<u8>,
    pub register: Vec<u8>,
    /// Cold transforms to `l_n` and to `p_n`.
    pub cold: [Request; 2],
}

fn chain_sample(n: usize) -> String {
    let fix = examples::relabel_chain(n);
    let target = canonical_form(&fix.dtop, None).expect("chain canonicalizes");
    let sample = characteristic_sample(&target).expect("characteristic sample");
    let mut out = String::new();
    for (i, o) in sample.pairs() {
        out.push_str(&format!("{i} => {o}\n"));
    }
    out
}

/// The learn cycle's inputs. Characteristic samples are the slow part
/// (`chain_32` alone takes most of a second), so they are built on
/// `threads` threads.
pub fn chains(seed: u64, threads: usize) -> Vec<Chain> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut samples: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&n) = CHAIN_NS.get(i) else { break };
                        out.push((n, chain_sample(n)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sample generation"))
            .collect()
    });
    samples.sort();
    let mut rng = Rng::new(seed ^ 0x6c65_6172);
    let mut out: Vec<Chain> = samples
        .into_iter()
        .map(|(n, sample)| {
            let chain = examples::relabel_chain(n).dtop;
            let un = unchain(n);
            let docs: Vec<String> = (0..COLD_DOCS)
                .map(|_| {
                    let k = 1 + rng.below(64);
                    format!("{}e{}", "f(".repeat(k), ")".repeat(k))
                })
                .collect();
            let cold = |name: String, expect: &dyn Fn(&str) -> String| {
                Request::new(
                    &format!("/transform/{name}?format=term&mode=compiled"),
                    &name,
                    docs.clone(),
                    docs.iter().map(|d| Expect::Out(expect(d))).collect(),
                    "!error: ",
                )
            };
            let via_chain = |d: &str| oracle_term(&chain, d).expect("chain is total");
            let via_pipe = |d: &str| {
                let mid = via_chain(d);
                oracle_term(&un, &mid).expect("unchain is total")
            };
            Chain {
                n,
                learn: crate::http::request(
                    "PUT",
                    &format!("/transducers/l{n}?learn=1"),
                    sample.as_bytes(),
                ),
                register: crate::http::request(
                    "PUT",
                    &format!("/pipelines/p{n}"),
                    format!("l{n},u{n}").as_bytes(),
                ),
                cold: [
                    cold(format!("l{n}"), &via_chain),
                    cold(format!("p{n}"), &via_pipe),
                ],
                sample,
            }
        })
        .collect();
    rng.shuffle(&mut out);
    out
}
