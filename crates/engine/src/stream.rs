//! The streaming front end: run a compiled dtop directly over a pre-order
//! event stream, materializing only the spine the top-down run needs.
//!
//! A dtop run is determined from the root downwards, and pre-order events
//! deliver the root first — so the *set of states* processing every node
//! is known the moment its `Open` event arrives:
//!
//! * on `Open`, the live state set of the new node is derived from its
//!   parent's live states and rules ([`CompiledDtop::states_for_child`]);
//!   if the set is **empty** the subtree is *deleted* by the run and is
//!   skipped wholesale — its events are counted, never stored;
//! * on `Close`, every live state's rule is executed against the already
//!   computed per-child results, and the input node is discarded.
//!
//! Memory is therefore `O(spine · |Q| · |output so far|)` instead of the
//! whole document, and deleted subtrees cost one integer of bookkeeping.
//! Combined with [`crate::xml_ranked_events`], an XML document is
//! transformed while it is being tokenized, without ever building the
//! input tree.
//!
//! Partiality is exact: a live state without a rule for the node's symbol,
//! or a call to a child the node does not have, aborts with `None` — the
//! same inputs are undefined as for `xtt_transducer::eval::eval`.

use std::collections::VecDeque;
use std::io;

use xtt_trees::{tree_from_events, NodePath, Symbol, Tree, TreeEvent};
use xtt_typecheck::{CompiledDtta, DttaRun, TypeError};
use xtt_xml::{xml_events, XmlError, XmlEvent, XmlEventReader};

use crate::compile::{CompiledDtop, Instr};

/// A pull source of pre-order tree events with an optional fast path for
/// skipping whole subtrees.
///
/// The streaming evaluator discovers, at each `Open`, whether *any*
/// state will inspect the subtree; when none will (a deleted subtree),
/// it calls [`TreeEventSource::skip_subtree`] so the source can discard
/// the subtree at whatever level is cheapest — [`XmlRankedEvents`]
/// fast-forwards the raw SAX reader past the element without tokenizing
/// it. Sources without a fast path return `false` and the evaluator
/// falls back to counting events.
pub trait TreeEventSource {
    /// The next event, or `None` at end of stream (or on a source error
    /// — the source records it for the caller to surface).
    fn next_event(&mut self) -> Option<TreeEvent>;

    /// Called immediately after [`TreeEventSource::next_event`] returned
    /// an `Open`: consume the rest of that node's subtree (descendants
    /// and the matching `Close`) without delivering it. `false` =
    /// unsupported here; the caller consumes the events instead.
    fn skip_subtree(&mut self) -> bool {
        false
    }
}

impl<S: TreeEventSource + ?Sized> TreeEventSource for &mut S {
    fn next_event(&mut self) -> Option<TreeEvent> {
        (**self).next_event()
    }

    fn skip_subtree(&mut self) -> bool {
        (**self).skip_subtree()
    }
}

/// Adapts any plain event iterator into a [`TreeEventSource`] (no skip
/// fast path).
pub struct IterEvents<I>(pub I);

impl<I: Iterator<Item = TreeEvent>> TreeEventSource for IterEvents<I> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        self.0.next()
    }
}

/// What the most recently delivered event was, for
/// [`XmlRankedEvents::skip_subtree`].
enum LastOpen {
    Other,
    /// An element `Start` — skipping fast-forwards the raw reader.
    Element,
    /// A queued `Open` (text token or attribute-block node) whose
    /// balanced remainder sits in the queue.
    Token,
}

/// [`TreeEventSource`] straight off the SAX tokenizer: the owning form
/// of [`xml_ranked_events`] / [`xml_ranked_events_bounded`], with the
/// raw fast-forward ([`XmlEventReader::skip_subtree`]) wired through —
/// deleted subtrees are not tokenized at all.
pub struct XmlRankedEvents<'a> {
    reader: XmlEventReader<'a>,
    queue: VecDeque<TreeEvent>,
    bounded: bool,
    attrs: bool,
    error: Option<XmlError>,
    last: LastOpen,
    skipped_subtrees: u64,
    /// When set (diagnostics only), every name the bounded resolution
    /// mapped to [`unknown_symbol`], in delivery order.
    unknown_names: Option<Vec<String>>,
}

impl<'a> XmlRankedEvents<'a> {
    /// Faithful symbol interning (trusted input).
    pub fn new(xml: &'a str) -> XmlRankedEvents<'a> {
        XmlRankedEvents {
            reader: xml_events(xml),
            queue: VecDeque::new(),
            bounded: false,
            attrs: false,
            error: None,
            last: LastOpen::Other,
            skipped_subtrees: 0,
            unknown_names: None,
        }
    }

    /// Bounded symbol resolution (serving paths): out-of-vocabulary
    /// names map to [`unknown_symbol`] instead of growing the interner.
    pub fn bounded(xml: &'a str) -> XmlRankedEvents<'a> {
        XmlRankedEvents {
            bounded: true,
            ..XmlRankedEvents::new(xml)
        }
    }

    /// Surface attributes in the ranked encoding (`DocFormat::XmlAttrs`):
    /// an element with attributes gains an `@attrs` **first child**,
    /// holding one `@name` node per attribute whose children are the
    /// whitespace-tokenized value (so transducer rules can finally see
    /// attributes — they address them like any other child subtree).
    /// Attribute-free elements encode exactly as without this option.
    pub fn attributes(mut self, on: bool) -> XmlRankedEvents<'a> {
        self.attrs = on;
        self
    }

    /// Names are resolved in delivery order (an element's own name before
    /// its queued attribute block), which is what lets
    /// [`xml_unknown_token_at`] pair sentinels with recorded names.
    fn resolve(&mut self, name: &str) -> Symbol {
        if !self.bounded {
            return Symbol::new(name);
        }
        Symbol::lookup(name).unwrap_or_else(|| {
            if let Some(names) = &mut self.unknown_names {
                names.push(name.to_owned());
            }
            unknown_symbol()
        })
    }

    /// The tokenizer (or fast-forward) error, if one ended the stream.
    pub fn take_error(&mut self) -> Option<XmlError> {
        self.error.take()
    }

    /// Subtrees discarded via the fast path (observability and tests).
    pub fn skipped_subtrees(&self) -> u64 {
        self.skipped_subtrees
    }

    /// Drains the source into a ranked tree (the non-streaming eval
    /// modes; same mapping, same bounded/attrs configuration).
    pub fn collect_tree(mut self) -> Result<Tree, XmlError> {
        let mut events = Vec::new();
        while let Some(ev) = self.next_event() {
            events.push(ev);
        }
        if let Some(e) = self.take_error() {
            return Err(e);
        }
        let at = self.reader.byte_pos();
        tree_from_events(events).map_err(|e| XmlError {
            offset: at,
            message: e.to_string(),
        })
    }
}

impl TreeEventSource for XmlRankedEvents<'_> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        if let Some(ev) = self.queue.pop_front() {
            self.last = match ev {
                TreeEvent::Open(_) => LastOpen::Token,
                TreeEvent::Close => LastOpen::Other,
            };
            return Some(ev);
        }
        if self.error.is_some() {
            return None;
        }
        loop {
            match self.reader.next()? {
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
                Ok(XmlEvent::Start { name, attrs }) => {
                    let element = self.resolve(name);
                    if self.attrs && !attrs.is_empty() {
                        // Queued behind the element's own Open, so a skip
                        // at the element level discards them with it.
                        let block = self.resolve("@attrs");
                        self.queue.push_back(TreeEvent::Open(block));
                        for a in &attrs {
                            let slot = self.resolve(&format!("@{}", a.name));
                            self.queue.push_back(TreeEvent::Open(slot));
                            for token in a.value.split_whitespace() {
                                let sym = self.resolve(token);
                                self.queue.push_back(TreeEvent::Open(sym));
                                self.queue.push_back(TreeEvent::Close);
                            }
                            self.queue.push_back(TreeEvent::Close);
                        }
                        self.queue.push_back(TreeEvent::Close);
                    }
                    self.last = LastOpen::Element;
                    return Some(TreeEvent::Open(element));
                }
                Ok(XmlEvent::End(_)) => {
                    self.last = LastOpen::Other;
                    return Some(TreeEvent::Close);
                }
                Ok(XmlEvent::Text(text)) => {
                    for token in text.split_whitespace() {
                        let sym = self.resolve(token);
                        self.queue.push_back(TreeEvent::Open(sym));
                        self.queue.push_back(TreeEvent::Close);
                    }
                    if let Some(ev) = self.queue.pop_front() {
                        self.last = LastOpen::Token;
                        return Some(ev);
                    }
                }
            }
        }
    }

    fn skip_subtree(&mut self) -> bool {
        match self.last {
            LastOpen::Element => {
                // Fast-forward the raw reader; a structural error inside
                // the skipped region ends the stream like any tokenizer
                // error (the caller surfaces it). Queued events (the
                // element's own attribute block) belong to the skipped
                // subtree and are dropped with it.
                self.queue.clear();
                if let Err(e) = self.reader.skip_subtree() {
                    self.error = Some(e);
                }
                self.skipped_subtrees += 1;
                self.last = LastOpen::Other;
                true
            }
            LastOpen::Token => {
                // A queued Open (text token, or a node of an attribute
                // block): drain its balanced remainder from the queue —
                // one Close for a leaf token, a whole nested run for
                // `@attrs`/`@name` nodes.
                let mut depth = 1usize;
                while depth > 0 {
                    match self.queue.pop_front() {
                        Some(TreeEvent::Open(_)) => depth += 1,
                        Some(TreeEvent::Close) => depth -= 1,
                        None => break, // unreachable: queued runs are balanced
                    }
                }
                self.skipped_subtrees += 1;
                self.last = LastOpen::Other;
                true
            }
            LastOpen::Other => false,
        }
    }
}

/// Runs a compiled domain guard in lockstep with any
/// [`TreeEventSource`], cutting the stream at the first violation; the
/// skip fast path is forwarded only when the guard itself is skipping.
/// For a transducer's own domain guard the `∅`-skip state and the
/// evaluator's empty state set coincide, so every evaluator skip
/// forwards; a pipeline's *chain* guard can be stricter than the
/// composed machine executing it (it checks positions later stages
/// delete), so a skip the guard does not share is declined and the
/// events stream through the run instead. This is the engine's guarded
/// streaming front end; `xtt_typecheck::GuardedEvents` remains the
/// plain-iterator form.
pub struct GuardedSource<'g, S> {
    inner: S,
    run: DttaRun<'g>,
    violation: Option<TypeError>,
}

impl<'g, S: TreeEventSource> GuardedSource<'g, S> {
    pub fn new(guard: &'g CompiledDtta, inner: S) -> GuardedSource<'g, S> {
        GuardedSource {
            inner,
            run: guard.run(),
            violation: None,
        }
    }

    /// Takes the recorded violation out of the adaptor.
    pub fn take_violation(&mut self) -> Option<TypeError> {
        self.violation.take()
    }

    /// The wrapped source (e.g. to read its recorded tokenizer error).
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TreeEventSource> TreeEventSource for GuardedSource<'_, S> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        if self.violation.is_some() {
            return None;
        }
        let event = self.inner.next_event()?;
        match self.run.feed(event) {
            Ok(()) => Some(event),
            Err(violation) => {
                self.violation = Some(violation);
                None
            }
        }
    }

    fn skip_subtree(&mut self) -> bool {
        // Decline unless the guard entered a skip state at the Open it
        // just saw: a chain guard still inspects subtrees the executing
        // machine deletes, and must see their real events.
        if !self.run.in_skipped_subtree() || !self.inner.skip_subtree() {
            return false;
        }
        // One synthetic Close rebalances the skipping guard (cannot
        // violate).
        let _ = self.run.feed(TreeEvent::Close);
        true
    }
}

/// Failure of a *guarded* XML streaming evaluation. A violation wins
/// over a tokenizer error by construction: the guard cuts the stream at
/// the first violating node, so the tokenizer never reaches whatever
/// would have failed later.
#[derive(Debug)]
pub enum GuardedXmlError {
    /// The domain guard rejected the document (first violating node).
    Type(TypeError),
    /// The tokenizer failed before the guard saw a violation.
    Xml(XmlError),
}

/// Where the streaming evaluator's output events go.
///
/// Implementations receive the output tree's pre-order events exactly
/// once, in order. [`OutputSink::tree`] delivers a whole completed
/// subtree at the current position — the default replays its events, but
/// tree-building sinks (like [`TreeCollector`]) override it to graft the
/// subtree without a rebuild. Errors use [`io::Error`] so socket-backed
/// sinks (the serving path) surface write failures unchanged.
pub trait OutputSink {
    /// One pre-order event of the output tree.
    fn event(&mut self, ev: TreeEvent) -> io::Result<()>;

    /// A whole completed subtree at the current position (a buffered
    /// region's result). Equivalent to replaying `t.events()`.
    fn tree(&mut self, t: &Tree) -> io::Result<()> {
        for ev in t.events() {
            self.event(ev)?;
        }
        Ok(())
    }
}

impl<T: OutputSink + ?Sized> OutputSink for &mut T {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        (**self).event(ev)
    }

    fn tree(&mut self, t: &Tree) -> io::Result<()> {
        (**self).tree(t)
    }
}

/// [`OutputSink`] that rebuilds the output tree — the adapter behind the
/// tree-returning evaluation API. Subtrees delivered via
/// [`OutputSink::tree`] are grafted by reference count, not rebuilt.
#[derive(Default)]
pub struct TreeCollector {
    stack: Vec<(Symbol, Vec<Tree>)>,
    done: Option<Tree>,
}

impl TreeCollector {
    pub fn new() -> TreeCollector {
        TreeCollector::default()
    }

    /// The collected tree, if a complete one was emitted.
    pub fn into_tree(self) -> Option<Tree> {
        if self.stack.is_empty() {
            self.done
        } else {
            None
        }
    }
}

impl OutputSink for TreeCollector {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        match ev {
            TreeEvent::Open(sym) => self.stack.push((sym, Vec::new())),
            TreeEvent::Close => {
                let (sym, children) = self
                    .stack
                    .pop()
                    .expect("the evaluator emits balanced events");
                let t = Tree::new(sym, children);
                match self.stack.last_mut() {
                    Some((_, siblings)) => siblings.push(t),
                    None => self.done = Some(t),
                }
            }
        }
        Ok(())
    }

    fn tree(&mut self, t: &Tree) -> io::Result<()> {
        match self.stack.last_mut() {
            Some((_, siblings)) => siblings.push(t.clone()),
            None => self.done = Some(t.clone()),
        }
        Ok(())
    }
}

/// [`OutputSink`] over a closure — event taps for tests and benches.
pub struct FnSink<F: FnMut(TreeEvent)>(pub F);

impl<F: FnMut(TreeEvent)> OutputSink for FnSink<F> {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        (self.0)(ev);
        Ok(())
    }
}

/// Emission statistics of one streaming run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EmitStats {
    /// Output events handed to the sink from the streaming (live) path —
    /// emitted the moment their prefix was committed, before the input
    /// was fully consumed.
    pub events_emitted_early: u64,
    /// High-water mark of *buffered* frames on the spine (frames inside
    /// permuting/copying regions, which must materialize their results).
    /// 0 on a fully order-preserving run.
    pub peak_buffered_frames: usize,
    /// Total output events delivered (subtree flushes count theirs).
    pub events_total: u64,
}

/// A live (streaming) frame: its rule body is executed as a coroutine.
/// The output prefix is emitted the moment it is committed; execution
/// parks at each `⟨q, x_i⟩` call until input child `i`'s own output has
/// streamed, then resumes. Only rules whose calls visit strictly
/// increasing children run live — see [`live_shape`].
struct LiveFrame {
    /// Resume point in the instruction arena.
    pos: u32,
    end: u32,
    /// Remaining child slots of output nodes opened but not yet closed.
    opens: Vec<u32>,
    /// The call whose subtree is being awaited: `(state, input child)`.
    pending: Option<(u16, u16)>,
    /// Index of the next input child to arrive.
    next_child: u32,
}

impl LiveFrame {
    fn new(start: u32, end: u32) -> LiveFrame {
        LiveFrame {
            pos: start,
            end,
            opens: Vec::new(),
            pending: None,
            next_child: 0,
        }
    }
}

enum FKind {
    /// Order-preserving region: output streams through the sink.
    Live(LiveFrame),
    /// Permuting/copying region (or multiple live states): per-child
    /// results are materialized and the rule executes at `Close`, as the
    /// pre-refactor evaluator always did.
    Buffered {
        /// For each already-closed child, its `(state, result)` pairs
        /// sorted by state.
        child_results: Vec<Vec<(u16, Tree)>>,
    },
}

/// One open input node on the spine.
struct SFrame {
    /// Dense input symbol of the node.
    sym: u32,
    /// Sorted live states processing this node (always a singleton for
    /// [`FKind::Live`]).
    states: Vec<u16>,
    kind: FKind,
}

/// The context above the root frame: the axiom, run live when it has
/// exactly one call (its prefix is then emitted before the first input
/// event), buffered otherwise.
enum Top {
    Live(LiveFrame),
    Buffered,
}

/// A rule body streams iff its calls visit strictly increasing children:
/// no copying (the same child twice) and no permutation (an earlier
/// child after a later one). Every output prefix is then committed when
/// execution reaches it — no later sibling can precede it.
fn live_shape(c: &CompiledDtop, start: u32, end: u32) -> bool {
    let mut last: i64 = -1;
    for instr in &c.code()[start as usize..end as usize] {
        if let Instr::Call { child, .. } = *instr {
            if i64::from(child) <= last {
                return false;
            }
            last = i64::from(child);
        }
    }
    true
}

fn call_count(c: &CompiledDtop, start: u32, end: u32) -> usize {
    c.code()[start as usize..end as usize]
        .iter()
        .filter(|i| matches!(i, Instr::Call { .. }))
        .count()
}

fn emit<S: OutputSink + ?Sized>(
    sink: &mut S,
    stats: &mut EmitStats,
    ev: TreeEvent,
) -> io::Result<()> {
    stats.events_emitted_early += 1;
    stats.events_total += 1;
    sink.event(ev)
}

/// Flushes a materialized subtree at the current output position.
fn flush_tree<S: OutputSink + ?Sized>(
    sink: &mut S,
    stats: &mut EmitStats,
    t: &Tree,
    early: bool,
) -> io::Result<()> {
    let events = 2 * t.size();
    stats.events_total += events;
    if early {
        stats.events_emitted_early += events;
    }
    sink.tree(t)
}

/// A completed subtree at the live frame's position: close every output
/// node this finishes.
fn close_completed<S: OutputSink + ?Sized>(
    lf: &mut LiveFrame,
    sink: &mut S,
    stats: &mut EmitStats,
) -> io::Result<()> {
    while let Some(last) = lf.opens.last_mut() {
        *last -= 1;
        if *last == 0 {
            lf.opens.pop();
            emit(sink, stats, TreeEvent::Close)?;
        } else {
            break;
        }
    }
    Ok(())
}

/// Executes a live frame's rule body from its resume point until the
/// next call (parking there) or the end of the body.
fn live_step<S: OutputSink + ?Sized>(
    c: &CompiledDtop,
    lf: &mut LiveFrame,
    sink: &mut S,
    stats: &mut EmitStats,
) -> io::Result<()> {
    let code = c.code();
    while lf.pos < lf.end {
        let instr = code[lf.pos as usize];
        lf.pos += 1;
        match instr {
            Instr::Out { sym, arity: 0 } => {
                emit(sink, stats, TreeEvent::Open(sym))?;
                emit(sink, stats, TreeEvent::Close)?;
                close_completed(lf, sink, stats)?;
            }
            Instr::Out { sym, arity } => {
                emit(sink, stats, TreeEvent::Open(sym))?;
                lf.opens.push(arity);
            }
            Instr::Call { q, child } => {
                lf.pending = Some((q, child));
                return Ok(());
            }
        }
    }
    Ok(())
}

/// A live-context child's output just completed: resume the enclosing
/// live frame (the parent on the spine, or the live axiom when the root
/// itself closed — in which case the run is done).
fn resume_after_child<S: OutputSink + ?Sized>(
    c: &CompiledDtop,
    frames: &mut [SFrame],
    top: &mut Top,
    sink: &mut S,
    stats: &mut EmitStats,
    done: &mut bool,
) -> io::Result<()> {
    let at_top = frames.is_empty();
    let lf = match frames.last_mut() {
        Some(SFrame {
            kind: FKind::Live(lf),
            ..
        }) => lf,
        Some(_) => unreachable!("buffered parents collect results, they are not resumed"),
        None => match top {
            Top::Live(lf) => lf,
            Top::Buffered => unreachable!("buffered top collects the root result"),
        },
    };
    debug_assert!(lf.pending.is_some());
    lf.pending = None;
    close_completed(lf, sink, stats)?;
    live_step(c, lf, sink, stats)?;
    if at_top {
        // The axiom has exactly one call, so it now ran to completion.
        debug_assert!(lf.pending.is_none());
        *done = true;
    }
    Ok(())
}

/// What a newly opened input node is to its enclosing context.
enum Ctx {
    /// The pending call child of a live context: evaluate in this state.
    Call(u16),
    /// A live context's uncalled child: its subtree is deleted.
    Skip,
    /// A buffered context: the derived live state set.
    States(Vec<u16>),
}

/// What a [`StreamRun`] asks of its driver after one input event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Feed {
    /// Keep feeding events.
    More,
    /// The event opened a subtree no state inspects. The run will count
    /// it out event by event — unless the driver can fast-forward its
    /// source past the subtree, in which case it calls
    /// [`StreamRun::fast_forwarded`] and resumes after the matching
    /// `Close`.
    SkipOpen,
    /// The input is outside the domain (or not exactly one well-nested
    /// tree). The run is dead; every further event returns this too.
    Rejected,
    /// The output is complete. Any further event rejects the run (the
    /// stream would not be exactly one tree).
    Done,
}

/// One incremental streaming evaluation: the push-driven core behind
/// [`StreamEvaluator::eval_streaming`], factored out so a driver that
/// *receives* events — a pipeline stage fed by an upstream evaluator's
/// committed output — can run the same coroutine machinery without
/// owning a pull loop. Feed pre-order input events one at a time;
/// committed output prefixes flow to the sink the moment they commit.
pub struct StreamRun {
    frames: Vec<SFrame>,
    /// Scratch for rule execution (see [`StreamRun::exec_range`]).
    exec_vals: Vec<Tree>,
    exec_frames: Vec<(Symbol, u32, u32)>,
    states_scratch: Vec<u16>,
    stats: EmitStats,
    buffered: usize,
    skip_depth: usize,
    root_skipped: bool,
    root_seen: bool,
    done: bool,
    rejected: bool,
    top: Top,
}

impl Default for StreamRun {
    fn default() -> StreamRun {
        StreamRun {
            frames: Vec::new(),
            exec_vals: Vec::new(),
            exec_frames: Vec::new(),
            states_scratch: Vec::new(),
            stats: EmitStats::default(),
            buffered: 0,
            skip_depth: 0,
            root_skipped: false,
            root_seen: false,
            done: false,
            rejected: false,
            top: Top::Buffered,
        }
    }
}

impl StreamRun {
    pub fn new() -> StreamRun {
        StreamRun::default()
    }

    /// Resets the run for a fresh input and executes the axiom's
    /// committed prefix (emitted before the first input event when the
    /// axiom is live).
    pub fn start<S: OutputSink + ?Sized>(
        &mut self,
        c: &CompiledDtop,
        sink: &mut S,
    ) -> io::Result<()> {
        self.frames.clear();
        self.stats = EmitStats::default();
        self.buffered = 0;
        self.skip_depth = 0;
        self.root_skipped = false;
        self.root_seen = false;
        self.done = false;
        self.rejected = false;
        let (ax_start, ax_end) = c.axiom_range();
        self.top = if call_count(c, ax_start, ax_end) == 1 {
            // Exactly one call (necessarily on the root): the axiom's
            // prefix is committed before the first input event arrives.
            let mut lf = LiveFrame::new(ax_start, ax_end);
            live_step(c, &mut lf, sink, &mut self.stats)?;
            Top::Live(lf)
        } else {
            // A constant axiom (emitted at the end, preserving the
            // pre-streaming behavior on malformed input) or one that
            // copies the root.
            Top::Buffered
        };
        Ok(())
    }

    fn reject(&mut self) -> io::Result<Feed> {
        self.rejected = true;
        Ok(Feed::Rejected)
    }

    /// Feeds one pre-order input event. Must be called between
    /// [`StreamRun::start`] and [`StreamRun::finish`] with the same
    /// compiled dtop and sink.
    pub fn feed<S: OutputSink + ?Sized>(
        &mut self,
        c: &CompiledDtop,
        event: TreeEvent,
        sink: &mut S,
    ) -> io::Result<Feed> {
        if self.rejected {
            return Ok(Feed::Rejected);
        }
        if self.done {
            return self.reject(); // events after the root closed
        }
        if self.skip_depth > 0 {
            match event {
                TreeEvent::Open(_) => self.skip_depth += 1,
                TreeEvent::Close => self.skip_depth -= 1,
            }
            return Ok(Feed::More);
        }
        match event {
            TreeEvent::Open(sym) => {
                let ctx = match self.frames.last_mut() {
                    Some(parent) => match &mut parent.kind {
                        FKind::Live(lf) => {
                            let i = lf.next_child;
                            lf.next_child += 1;
                            match lf.pending {
                                Some((q, child)) if u32::from(child) == i => Ctx::Call(q),
                                _ => Ctx::Skip,
                            }
                        }
                        FKind::Buffered { child_results } => {
                            let child = child_results.len();
                            c.states_for_child(
                                &parent.states,
                                parent.sym,
                                child,
                                &mut self.states_scratch,
                            );
                            Ctx::States(std::mem::take(&mut self.states_scratch))
                        }
                    },
                    None => {
                        if self.root_seen || self.root_skipped {
                            return self.reject(); // more than one root
                        }
                        self.root_seen = true;
                        match &self.top {
                            Top::Live(lf) => match lf.pending {
                                Some((q, 0)) => Ctx::Call(q),
                                _ => Ctx::Skip,
                            },
                            Top::Buffered => Ctx::States(c.axiom_states().to_vec()),
                        }
                    }
                };
                match ctx {
                    Ctx::Skip => {
                        // A live context calls nothing on this child:
                        // deleted subtree.
                        self.skip_depth = 1;
                        return Ok(Feed::SkipOpen);
                    }
                    Ctx::States(states) if states.is_empty() => {
                        // Deleted subtree (or a constant axiom): no
                        // state ever inspects it — skip without
                        // building it, and without tokenizing it when
                        // the source can fast-forward.
                        match self.frames.last_mut() {
                            Some(parent) => match &mut parent.kind {
                                FKind::Buffered { child_results } => child_results.push(Vec::new()),
                                FKind::Live(_) => {
                                    unreachable!("live parents skip without deriving states")
                                }
                            },
                            None => self.root_skipped = true,
                        }
                        self.skip_depth = 1;
                        return Ok(Feed::SkipOpen);
                    }
                    Ctx::Call(q) => {
                        let dense = c.dense_sym(sym);
                        // Undefined as soon as the live state lacks a rule.
                        let Some((start, end)) = c.rule_range(q, dense) else {
                            return self.reject();
                        };
                        let kind = if live_shape(c, start, end) {
                            let mut lf = LiveFrame::new(start, end);
                            live_step(c, &mut lf, sink, &mut self.stats)?;
                            FKind::Live(lf)
                        } else {
                            self.buffered += 1;
                            self.stats.peak_buffered_frames =
                                self.stats.peak_buffered_frames.max(self.buffered);
                            FKind::Buffered {
                                child_results: Vec::new(),
                            }
                        };
                        self.frames.push(SFrame {
                            sym: dense,
                            states: vec![q],
                            kind,
                        });
                    }
                    Ctx::States(states) => {
                        let dense = c.dense_sym(sym);
                        // Undefined as soon as any live state lacks a rule.
                        if states.iter().any(|&q| c.rule_range(q, dense).is_none()) {
                            return self.reject();
                        }
                        self.buffered += 1;
                        self.stats.peak_buffered_frames =
                            self.stats.peak_buffered_frames.max(self.buffered);
                        self.frames.push(SFrame {
                            sym: dense,
                            states,
                            kind: FKind::Buffered {
                                child_results: Vec::new(),
                            },
                        });
                    }
                }
            }
            TreeEvent::Close => {
                let Some(frame) = self.frames.pop() else {
                    return self.reject(); // unbalanced close
                };
                match frame.kind {
                    FKind::Live(lf) => {
                        if lf.pending.is_some() || lf.pos != lf.end {
                            return self.reject(); // call to a child the node does not have
                        }
                        debug_assert!(lf.opens.is_empty());
                        resume_after_child(
                            c,
                            &mut self.frames,
                            &mut self.top,
                            sink,
                            &mut self.stats,
                            &mut self.done,
                        )?;
                    }
                    FKind::Buffered { child_results } => {
                        self.buffered -= 1;
                        let mut results: Vec<(u16, Tree)> = Vec::with_capacity(frame.states.len());
                        for &q in &frame.states {
                            let (start, end) = c
                                .rule_range(q, frame.sym)
                                .expect("checked when the node opened");
                            let Some(v) = self.exec_range(c, start, end, &|q2, child| {
                                lookup(child_results.get(child)?, q2)
                            }) else {
                                return self.reject();
                            };
                            results.push((q, v));
                        }
                        // Where does the materialized result go?
                        let to_live_parent = match self.frames.last_mut() {
                            Some(parent) => match &mut parent.kind {
                                FKind::Buffered { child_results } => {
                                    child_results.push(std::mem::take(&mut results));
                                    false
                                }
                                FKind::Live(_) => true,
                            },
                            None => match &self.top {
                                Top::Live(_) => true,
                                Top::Buffered => {
                                    // Root closed: splice the per-state
                                    // results into the axiom.
                                    let (ax_start, ax_end) = c.axiom_range();
                                    let Some(out) =
                                        self.exec_range(c, ax_start, ax_end, &|q, child| {
                                            if child == 0 {
                                                lookup(&results, q)
                                            } else {
                                                None
                                            }
                                        })
                                    else {
                                        return self.reject();
                                    };
                                    flush_tree(sink, &mut self.stats, &out, false)?;
                                    self.done = true;
                                    false
                                }
                            },
                        };
                        if to_live_parent {
                            // This frame was the pending call child of
                            // a live context: flush its single result
                            // and resume the coroutine.
                            let (_, t) = &results[0];
                            flush_tree(sink, &mut self.stats, t, true)?;
                            resume_after_child(
                                c,
                                &mut self.frames,
                                &mut self.top,
                                sink,
                                &mut self.stats,
                                &mut self.done,
                            )?;
                        }
                    }
                }
            }
        }
        Ok(if self.done { Feed::Done } else { Feed::More })
    }

    /// The driver fast-forwarded its source past the subtree whose
    /// `Open` just returned [`Feed::SkipOpen`] (descendants *and* the
    /// matching `Close` consumed at the source).
    pub fn fast_forwarded(&mut self) {
        debug_assert_eq!(self.skip_depth, 1);
        self.skip_depth = 0;
    }

    /// Ends the input stream: emits a constant axiom if the whole input
    /// was deleted, and delivers the final verdict — `Some(stats)` on a
    /// completed run, `None` if the input was rejected or incomplete.
    pub fn finish<S: OutputSink + ?Sized>(
        &mut self,
        c: &CompiledDtop,
        sink: &mut S,
    ) -> io::Result<Option<EmitStats>> {
        if self.rejected {
            return Ok(None);
        }
        if self.done {
            return Ok(Some(self.stats));
        }
        if self.root_skipped && self.skip_depth == 0 {
            // The whole input was deleted: the axiom calls no state.
            let (ax_start, ax_end) = c.axiom_range();
            if let Some(t) = self.exec_range(c, ax_start, ax_end, &|_, _| None) {
                flush_tree(sink, &mut self.stats, &t, false)?;
                self.done = true;
                return Ok(Some(self.stats));
            }
        }
        self.rejected = true;
        Ok(None) // empty or unterminated stream
    }

    /// Emission statistics so far (complete once the run is done).
    pub fn stats(&self) -> EmitStats {
        self.stats
    }
}

/// Reusable streaming evaluator; create once per worker thread. Owns a
/// [`StreamRun`] and drives it from a [`TreeEventSource`] pull loop.
#[derive(Default)]
pub struct StreamEvaluator {
    run: StreamRun,
}

impl StreamEvaluator {
    pub fn new() -> StreamEvaluator {
        StreamEvaluator::default()
    }

    /// Evaluates `⟦M⟧` over a pre-order event stream. Returns `None` when
    /// the input is outside the domain **or** the stream is not exactly
    /// one well-nested tree.
    pub fn eval<I>(&mut self, c: &CompiledDtop, events: I) -> Option<Tree>
    where
        I: IntoIterator<Item = TreeEvent>,
    {
        self.eval_source(c, &mut IterEvents(events.into_iter()))
    }

    /// [`StreamEvaluator::eval`] over a [`TreeEventSource`]: when a
    /// subtree is deleted by the run (empty live state set), the source's
    /// skip fast path is taken — over XML this fast-forwards the raw
    /// tokenizer, so deleted subtrees are never tokenized, let alone
    /// built.
    pub fn eval_source(
        &mut self,
        c: &CompiledDtop,
        source: &mut impl TreeEventSource,
    ) -> Option<Tree> {
        let mut sink = TreeCollector::new();
        match self.eval_streaming(c, source, &mut sink) {
            Ok(Some(_)) => sink.into_tree(),
            _ => None,
        }
    }

    /// Event-driven evaluation: output flows to `sink` as [`TreeEvent`]s,
    /// with `Open`s emitted the moment their prefix is committed.
    ///
    /// Rule bodies whose calls visit strictly increasing input children
    /// (order-preserving, copy-free regions) execute as coroutines: the
    /// output prefix streams immediately, execution parks at each call
    /// until that child's own output has streamed, then resumes.
    /// Permuting/copying regions — and nodes processed by more than one
    /// state — fall back to the buffered evaluation and flush their
    /// materialized result as one subtree. On a fully order-preserving
    /// run nothing is buffered: output state is O(depth).
    ///
    /// Returns `Ok(Some(stats))` on success, `Ok(None)` when the input is
    /// outside the domain or not exactly one well-nested tree (the sink
    /// may have received a partial prefix by then — inherent to
    /// streaming), and `Err` only when the sink fails.
    pub fn eval_streaming<S: OutputSink + ?Sized>(
        &mut self,
        c: &CompiledDtop,
        source: &mut impl TreeEventSource,
        sink: &mut S,
    ) -> io::Result<Option<EmitStats>> {
        self.run.start(c, sink)?;
        while let Some(event) = source.next_event() {
            match self.run.feed(c, event, sink)? {
                Feed::More | Feed::Done => {}
                Feed::SkipOpen => {
                    if source.skip_subtree() {
                        self.run.fast_forwarded();
                    }
                }
                Feed::Rejected => return Ok(None),
            }
        }
        self.run.finish(c, sink)
    }

    /// Convenience: stream a materialized tree (used by benches and the
    /// differential tests to exercise exactly the streaming code path).
    pub fn eval_tree(&mut self, c: &CompiledDtop, input: &Tree) -> Option<Tree> {
        self.eval(c, input.events())
    }

    /// Transforms an XML document without building the input tree: XML
    /// events are mapped to ranked-tree events
    /// ([`xml_ranked_events_bounded`] — document text never grows the
    /// symbol interner) and fed straight into the streaming run.
    ///
    /// `Err` is a tokenizer error; `Ok(None)` means the (well-formed)
    /// document is outside the transduction's domain.
    pub fn eval_xml(&mut self, c: &CompiledDtop, xml: &str) -> Result<Option<Tree>, XmlError> {
        let mut source = XmlRankedEvents::bounded(xml);
        let result = self.eval_source(c, &mut source);
        match source.take_error() {
            Some(e) => Err(e),
            None => Ok(result),
        }
    }

    /// [`StreamEvaluator::eval_xml`] with a domain guard in lockstep: the
    /// guard sees every event first and cuts the stream at the first
    /// violation, so a rejected document's tail is never tokenized.
    /// `Ok(None)` means the (well-formed, guard-accepted) document is
    /// outside the domain for a non-guard reason (e.g. not exactly one
    /// tree). This is the single implementation behind the engine's
    /// guarded streaming mode and the E11 benchmarks.
    pub fn eval_xml_guarded(
        &mut self,
        c: &CompiledDtop,
        guard: &CompiledDtta,
        xml: &str,
    ) -> Result<Option<Tree>, GuardedXmlError> {
        let mut source = GuardedSource::new(guard, XmlRankedEvents::bounded(xml));
        let result = self.eval_source(c, &mut source);
        if let Some(violation) = source.take_violation() {
            return Err(GuardedXmlError::Type(violation));
        }
        match source.into_inner().take_error() {
            Some(e) => Err(GuardedXmlError::Xml(e)),
            None => Ok(result),
        }
    }
}

impl StreamRun {
    /// Executes the instruction range `[start, end)` with `resolve`
    /// supplying the value of every `⟨q, x_child⟩` call. Iterative; reuses
    /// scratch stacks.
    fn exec_range(
        &mut self,
        c: &CompiledDtop,
        start: u32,
        end: u32,
        resolve: &dyn Fn(u16, usize) -> Option<Tree>,
    ) -> Option<Tree> {
        self.exec_vals.clear();
        self.exec_frames.clear();
        for instr in &c.code()[start as usize..end as usize] {
            match *instr {
                Instr::Out { sym, arity: 0 } => self.exec_vals.push(Tree::leaf(sym)),
                Instr::Out { sym, arity } => {
                    self.exec_frames
                        .push((sym, self.exec_vals.len() as u32, arity))
                }
                Instr::Call { q, child } => self.exec_vals.push(resolve(q, usize::from(child))?),
            }
            while let Some(&(sym, base, arity)) = self.exec_frames.last() {
                if self.exec_vals.len() as u32 != base + arity {
                    break;
                }
                self.exec_frames.pop();
                let children = self.exec_vals.split_off(base as usize);
                self.exec_vals.push(Tree::new(sym, children));
            }
        }
        debug_assert!(self.exec_frames.is_empty());
        debug_assert_eq!(self.exec_vals.len(), 1);
        self.exec_vals.pop()
    }
}

/// [`OutputSink`] that queues events — the relay between chained
/// pipeline stages.
struct QueueSink<'a>(&'a mut VecDeque<TreeEvent>);

impl OutputSink for QueueSink<'_> {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        self.0.push_back(ev);
        Ok(())
    }
}

/// Chained streaming evaluation of a pipeline τₙ ∘ … ∘ τ₁: stage `i`'s
/// committed output events feed stage `i+1`'s [`StreamRun`] through a
/// relay queue, drained downstream-first so intermediate output is
/// materialized only where a single stage would buffer anyway
/// (permuting/copying regions). Stage 1 is driven from the real source
/// and keeps its skip fast path; the final stage writes to the caller's
/// sink.
///
/// Rejection anywhere rejects the chain (`Ok(None)`), exactly like
/// evaluating the composed transducer: stage `i` rejects at the first
/// event proving its input — stage `i-1`'s committed output — outside
/// its domain.
#[derive(Default)]
pub struct ChainedEvaluator {
    runs: Vec<StreamRun>,
    queues: Vec<VecDeque<TreeEvent>>,
}

impl ChainedEvaluator {
    pub fn new() -> ChainedEvaluator {
        ChainedEvaluator::default()
    }

    /// Per-stage emission statistics of the most recent run (complete
    /// after a successful [`ChainedEvaluator::eval_streaming`]).
    pub fn stage_stats(&self) -> impl Iterator<Item = EmitStats> + '_ {
        self.runs.iter().map(StreamRun::stats)
    }

    /// Drains the relay queues, downstream-first (so queued events move
    /// toward the sink before more are produced); `false` = some stage
    /// rejected its input.
    fn pump<S: OutputSink + ?Sized>(
        &mut self,
        stages: &[&CompiledDtop],
        sink: &mut S,
    ) -> io::Result<bool> {
        loop {
            let Some(i) = (0..self.queues.len()).rfind(|&i| !self.queues[i].is_empty()) else {
                return Ok(true);
            };
            let ev = self.queues[i].pop_front().expect("checked nonempty");
            let stage = i + 1;
            let verdict = if stage + 1 == stages.len() {
                self.runs[stage].feed(stages[stage], ev, sink)?
            } else {
                let mut relay = QueueSink(&mut self.queues[stage]);
                self.runs[stage].feed(stages[stage], ev, &mut relay)?
            };
            if verdict == Feed::Rejected {
                return Ok(false);
            }
        }
    }

    /// Streams `source` through every stage (`stages[0]` first). Returns
    /// the **final** stage's emission stats on success (per-stage stats
    /// via [`ChainedEvaluator::stage_stats`]), `Ok(None)` when any stage
    /// rejects, `Err` only when the sink fails.
    pub fn eval_streaming<S: OutputSink + ?Sized>(
        &mut self,
        stages: &[&CompiledDtop],
        source: &mut impl TreeEventSource,
        sink: &mut S,
    ) -> io::Result<Option<EmitStats>> {
        assert!(!stages.is_empty(), "a pipeline has at least one stage");
        let n = stages.len();
        self.runs.resize_with(n, StreamRun::new);
        self.runs.truncate(n);
        self.queues.resize_with(n - 1, VecDeque::new);
        self.queues.truncate(n - 1);
        for q in &mut self.queues {
            q.clear();
        }
        // Start downstream-first, pumping between: every consumer is
        // live before an upstream axiom prefix reaches it.
        for i in (0..n).rev() {
            if i + 1 == n {
                self.runs[i].start(stages[i], sink)?;
            } else {
                let mut relay = QueueSink(&mut self.queues[i]);
                self.runs[i].start(stages[i], &mut relay)?;
            }
            if !self.pump(stages, sink)? {
                return Ok(None);
            }
        }
        while let Some(event) = source.next_event() {
            let verdict = if n == 1 {
                self.runs[0].feed(stages[0], event, sink)?
            } else {
                let mut relay = QueueSink(&mut self.queues[0]);
                self.runs[0].feed(stages[0], event, &mut relay)?
            };
            match verdict {
                Feed::Rejected => return Ok(None),
                Feed::SkipOpen => {
                    if source.skip_subtree() {
                        self.runs[0].fast_forwarded();
                    }
                }
                Feed::More | Feed::Done => {}
            }
            if !self.pump(stages, sink)? {
                return Ok(None);
            }
        }
        // Finish upstream-first, pumping between: stage i's trailing
        // output (a constant axiom, a whole-input deletion) cascades
        // before stage i+1's own end-of-stream verdict.
        for i in 0..n {
            let fin = if i + 1 == n {
                self.runs[i].finish(stages[i], sink)?
            } else {
                let mut relay = QueueSink(&mut self.queues[i]);
                self.runs[i].finish(stages[i], &mut relay)?
            };
            if fin.is_none() {
                return Ok(None);
            }
            if !self.pump(stages, sink)? {
                return Ok(None);
            }
        }
        Ok(Some(self.runs[n - 1].stats()))
    }
}

fn lookup(results: &[(u16, Tree)], q: u16) -> Option<Tree> {
    results
        .binary_search_by_key(&q, |&(s, _)| s)
        .ok()
        .map(|i| results[i].1.clone())
}

/// Iterator form of [`XmlRankedEvents`] (same mapping, same source;
/// fused after the first error).
struct RankedEventsIter<'a>(XmlRankedEvents<'a>);

impl Iterator for RankedEventsIter<'_> {
    type Item = Result<TreeEvent, XmlError>;

    fn next(&mut self) -> Option<Result<TreeEvent, XmlError>> {
        match self.0.next_event() {
            Some(event) => Some(Ok(event)),
            None => self.0.take_error().map(Err),
        }
    }
}

/// The sentinel every out-of-vocabulary name maps to under the bounded
/// adapters. Starts with a control character, so no declarable alphabet
/// symbol can collide with it.
pub fn unknown_symbol() -> Symbol {
    static UNKNOWN: std::sync::OnceLock<Symbol> = std::sync::OnceLock::new();
    *UNKNOWN.get_or_init(|| Symbol::new("\u{1}xtt:unknown"))
}

/// The out-of-vocabulary name at `path` of a ranked-XML document, as
/// written — the XML counterpart of [`xtt_trees::name_at`] for
/// diagnostics. Re-reads the document through the bounded adapter with
/// name recording on, and pairs the sentinel Opens (in delivery order)
/// with the recorded names. `None` if the node there is not out of
/// vocabulary or does not exist.
pub fn xml_unknown_token_at(xml: &str, attributes: bool, path: &NodePath) -> Option<String> {
    let mut source = XmlRankedEvents::bounded(xml).attributes(attributes);
    source.unknown_names = Some(Vec::new());
    let sentinel = unknown_symbol();
    let target = path.indices();
    // `at` is the current node's path; `next` the next child index of
    // every open node.
    let mut at: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    let mut unknown_seen = 0usize;
    while let Some(event) = source.next_event() {
        match event {
            TreeEvent::Open(sym) => {
                if let Some(i) = next.last_mut() {
                    at.push(*i);
                    *i += 1;
                }
                next.push(0);
                if sym == sentinel {
                    unknown_seen += 1;
                }
                if at == target {
                    if sym != sentinel {
                        return None;
                    }
                    return source.unknown_names?.get(unknown_seen - 1).cloned();
                }
            }
            TreeEvent::Close => {
                next.pop();
                at.pop();
            }
        }
    }
    None
}

/// Maps an XML event stream to ranked-tree events: elements become
/// symbols of their child count; character data is whitespace-tokenized,
/// one leaf symbol per token (data-centric documents — the only kind the
/// paper's encodings produce — have single-token pcdata, and tokenizing
/// makes adjacent rank-0 symbols like the fc/ns `#` expressible as
/// `# #`). Comments/PIs were already skipped by the lenient tokenizer;
/// attributes are parsed but not surfaced here — use
/// [`XmlRankedEvents::attributes`] (`DocFormat::XmlAttrs`) to map them
/// into the encoding as an `@attrs` first child.
///
/// Every name is **interned** into the process-global symbol table; use
/// this for trusted input only. The serving paths use
/// [`xml_ranked_events_bounded`], which never grows the table.
pub fn xml_ranked_events(xml: &str) -> impl Iterator<Item = Result<TreeEvent, XmlError>> + '_ {
    RankedEventsIter(XmlRankedEvents::new(xml))
}

/// Like [`xml_ranked_events`], but safe for untrusted traffic: names are
/// resolved with [`Symbol::lookup`] and anything never interned before
/// (i.e. not in any transducer alphabet) becomes [`unknown_symbol`].
/// Evaluation is unaffected — an out-of-vocabulary symbol has no rules
/// either way — but a long-running server's memory no longer grows with
/// the input vocabulary.
pub fn xml_ranked_events_bounded(
    xml: &str,
) -> impl Iterator<Item = Result<TreeEvent, XmlError>> + '_ {
    RankedEventsIter(XmlRankedEvents::bounded(xml))
}

/// Builds a ranked tree from an XML document via [`xml_ranked_events`]
/// (faithful symbols; trusted input).
pub fn ranked_tree_from_xml(xml: &str) -> Result<Tree, XmlError> {
    XmlRankedEvents::new(xml).collect_tree()
}

/// Builds a ranked tree via [`xml_ranked_events_bounded`] — what the
/// engine's non-streaming XML paths use, so serving never interns
/// document text.
pub fn ranked_tree_from_xml_bounded(xml: &str) -> Result<Tree, XmlError> {
    XmlRankedEvents::bounded(xml).collect_tree()
}

/// Serializes a ranked tree as XML: symbols with XML-name labels become
/// elements, other leaves (like the paper's `#` or pcdata values) become
/// whitespace-separated text tokens. Inverse of [`ranked_tree_from_xml`]
/// on its image.
///
/// Inner symbols must be XML names (alphabets like the §10 library's
/// `B*` groups are term-syntax-only; serve those in `DocFormat::Term`).
pub fn tree_to_xml(t: &Tree) -> String {
    let mut out = String::new();
    write_ranked(t, &mut out);
    out
}

fn is_text_leaf(t: &Tree) -> bool {
    t.is_leaf() && !is_xml_name(t.symbol().name())
}

/// True iff [`tree_to_xml`] produces well-formed XML for this tree:
/// every inner symbol is a valid XML element name.
pub fn xml_serializable(t: &Tree) -> bool {
    t.preorder()
        .all(|n| n.is_leaf() || is_xml_name(n.symbol().name()))
}

fn write_ranked(t: &Tree, out: &mut String) {
    let name = t.symbol().name();
    if is_text_leaf(t) {
        out.push_str(&escape_text(name));
        return;
    }
    if t.is_leaf() {
        out.push('<');
        out.push_str(name);
        out.push_str("/>");
        return;
    }
    out.push('<');
    out.push_str(name);
    out.push('>');
    for (i, c) in t.children().iter().enumerate() {
        if i > 0 && is_text_leaf(c) && is_text_leaf(&t.children()[i - 1]) {
            out.push(' '); // keep adjacent text leaves distinct tokens
        }
        write_ranked(c, out);
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

/// [`xml_serializable`] for `DocFormat::XmlAttrs` trees: an `@attrs`
/// first child (one `@name` slot per attribute, leaf children = value
/// tokens) decodes back to attribute syntax, so its `@`-prefixed slots
/// are allowed where plain serialization rejects them.
pub fn xml_serializable_attrs(t: &Tree) -> bool {
    if t.is_leaf() {
        return true; // text token or empty element either way
    }
    if !is_xml_name(t.symbol().name()) {
        return false;
    }
    let mut children = t.children();
    if let Some(first) = children.first() {
        if first.symbol().name() == "@attrs" {
            let slots_ok = first.children().iter().all(|slot| {
                slot.symbol()
                    .name()
                    .strip_prefix('@')
                    .is_some_and(is_xml_name)
                    && slot.children().iter().all(Tree::is_leaf)
            });
            if !slots_ok {
                return false;
            }
            children = &children[1..];
        }
    }
    children.iter().all(xml_serializable_attrs)
}

/// [`tree_to_xml`] for `DocFormat::XmlAttrs` trees: an element's
/// `@attrs` first child is written back as real `name="value"`
/// attributes (value tokens space-joined), inverse of
/// [`XmlRankedEvents::attributes`] on its image. The caller checks
/// [`xml_serializable_attrs`] first.
pub fn tree_to_xml_attrs(t: &Tree) -> String {
    let mut out = String::new();
    write_ranked_attrs(t, &mut out);
    out
}

fn write_ranked_attrs(t: &Tree, out: &mut String) {
    let name = t.symbol().name();
    if is_text_leaf(t) {
        out.push_str(&escape_text(name));
        return;
    }
    let mut content = t.children();
    out.push('<');
    out.push_str(name);
    if let Some(first) = content.first() {
        if first.symbol().name() == "@attrs" {
            for slot in first.children() {
                let attr = slot.symbol().name().strip_prefix('@').unwrap_or_default();
                let value = slot
                    .children()
                    .iter()
                    .map(|tok| tok.symbol().name())
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push(' ');
                out.push_str(attr);
                out.push_str("=\"");
                out.push_str(&escape_attr(&value));
                out.push('"');
            }
            content = &content[1..];
        }
    }
    if content.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for (i, c) in content.iter().enumerate() {
        if i > 0 && is_text_leaf(c) && is_text_leaf(&content[i - 1]) {
            out.push(' ');
        }
        write_ranked_attrs(c, out);
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

pub(crate) fn is_xml_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
}

pub(crate) fn escape_text(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn escape_attr(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use xtt_transducer::{eval as walk_eval, examples};
    use xtt_trees::{gen::enumerate_trees, parse_tree};

    #[test]
    fn streaming_agrees_with_tree_walk() {
        for fix in [
            examples::flip(),
            examples::library(),
            examples::monadic_to_binary(),
            examples::flip_k(2),
        ] {
            let c = compile(&fix.dtop).unwrap();
            let mut ev = StreamEvaluator::new();
            for t in enumerate_trees(fix.dtop.input(), 120, 9) {
                assert_eq!(ev.eval_tree(&c, &t), walk_eval(&fix.dtop, &t), "on {t}");
            }
        }
    }

    #[test]
    fn deleted_subtrees_are_skipped_not_inspected() {
        // (q4, a) deletes its first subtree; streaming must accept garbage
        // there exactly like the tree-walk evaluator does.
        let fix = examples::flip();
        let c = compile(&fix.dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        let t = parse_tree("root(a(b(zzz(#,#),#),#),#)").unwrap();
        assert_eq!(
            ev.eval_tree(&c, &t).unwrap().to_string(),
            walk_eval(&fix.dtop, &t).unwrap().to_string()
        );
    }

    #[test]
    fn constant_axiom_streams() {
        let c = compile(&examples::constant_m1().dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        let t = parse_tree("f(a,f(a,a))").unwrap();
        assert_eq!(ev.eval_tree(&c, &t).unwrap().to_string(), "b");
    }

    #[test]
    fn malformed_streams_are_undefined() {
        let c = compile(&examples::flip().dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        use TreeEvent::*;
        let root = Symbol::new("root");
        let hash = Symbol::new("#");
        assert_eq!(ev.eval(&c, []), None);
        assert_eq!(ev.eval(&c, [Open(root)]), None);
        assert_eq!(ev.eval(&c, [Close]), None);
        // trailing events after the root closed: not exactly one tree
        let mut two_roots: Vec<TreeEvent> = parse_tree("root(#,#)").unwrap().events().collect();
        let base = two_roots.clone();
        two_roots.extend([Open(hash), Close]);
        assert_eq!(ev.eval(&c, base), Some(parse_tree("root(#,#)").unwrap()));
        assert_eq!(ev.eval(&c, two_roots), None);
    }

    #[test]
    fn bounded_adapter_never_grows_the_interner() {
        let fix = examples::flip();
        let c = compile(&fix.dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        unknown_symbol(); // pre-intern the sentinel itself
                          // Garbage pcdata sits in the first child of an `a` node, which
                          // (q4, a) deletes; the walk evaluator accepts it, and so must the
                          // bounded streaming path — via the sentinel, without interning.
        let xml = "<root><a>never-interned-token-1<a># #</a></a><b># #</b></root>";
        let out = ev.eval_xml(&c, xml).unwrap().unwrap();
        assert_eq!(out.to_string(), "root(b(#,#),a(#,a(#,#)))");
        assert_eq!(Symbol::lookup("never-interned-token-1"), None);
        // same through the non-streaming bounded tree builder
        let t = ranked_tree_from_xml_bounded(xml).unwrap();
        assert_eq!(
            xtt_transducer::eval(&fix.dtop, &t).unwrap().to_string(),
            "root(b(#,#),a(#,a(#,#)))"
        );
        assert_eq!(Symbol::lookup("never-interned-token-1"), None);
    }

    #[test]
    fn xml_roundtrip_through_engine() {
        let fix = examples::flip();
        let c = compile(&fix.dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        // fc/ns-encoded lists in XML form: '#' leaves are text tokens.
        let xml = "<root><a># <a># #</a></a><b># <b># #</b></b></root>";
        let t = ranked_tree_from_xml(xml).unwrap();
        assert_eq!(t.to_string(), "root(a(#,a(#,#)),b(#,b(#,#)))");
        let streamed = ev.eval_xml(&c, xml).unwrap().unwrap();
        assert_eq!(streamed, walk_eval(&fix.dtop, &t).unwrap());
        // and the output serializes back to parseable XML
        let xml_out = tree_to_xml(&streamed);
        assert_eq!(ranked_tree_from_xml(&xml_out).unwrap(), streamed);
    }

    #[test]
    fn deleted_subtrees_are_not_tokenized() {
        // (q4, a) deletes the first subtree of every `a` node: the
        // streaming XML path must fast-forward the raw reader past it
        // instead of tokenizing it — observable via the skip counter and
        // via junk that only a tokenizer would choke on politely
        // (attributes, comments) sailing through untokenized.
        let fix = examples::flip();
        let c = compile(&fix.dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        let xml = "<root><a><junk depth=\"3\"><x><!-- never parsed --></x></junk><a># #</a></a><b># #</b></root>";
        let mut source = XmlRankedEvents::bounded(xml);
        let out = ev.eval_source(&c, &mut source).unwrap();
        assert_eq!(out.to_string(), "root(b(#,#),a(#,a(#,#)))");
        assert!(source.skipped_subtrees() >= 1, "fast path must engage");
        assert_eq!(Symbol::lookup("junk"), None, "skipped names never interned");
        // The guarded path fast-forwards too (guard ∅-skip ≡ empty state
        // set), with identical output.
        let guard = xtt_typecheck::domain_guard(&fix.dtop).unwrap();
        let guarded = ev.eval_xml_guarded(&c, &guard, xml).unwrap().unwrap();
        assert_eq!(guarded, out);
    }

    #[test]
    fn skip_fast_path_still_surfaces_structural_errors() {
        // Mismatched tags inside a *deleted* subtree are still XML
        // errors — the fast-forward enforces structure, exactly like the
        // event-counting path did.
        let fix = examples::flip();
        let c = compile(&fix.dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        let bad = "<root><a><junk><open></junk></a><b># #</b></root>";
        assert!(ev.eval_xml(&c, bad).is_err());
    }

    #[test]
    fn attributes_map_into_the_ranked_encoding() {
        let xml = "<root a=\"1 2\" b=\"x\"><c k=\"v\"/></root>";
        let t = XmlRankedEvents::new(xml)
            .attributes(true)
            .collect_tree()
            .unwrap();
        assert_eq!(
            t.to_string(),
            "root(@attrs(@a(1,2),@b(x)),c(@attrs(@k(v))))"
        );
        // … and decodes back to attribute syntax.
        assert!(xml_serializable_attrs(&t));
        assert_eq!(tree_to_xml_attrs(&t), xml);
        // Plain serialization rightly refuses the @-slots.
        assert!(!xml_serializable(&t));
        // Without the option, attributes stay invisible (PR-5 behavior).
        assert_eq!(ranked_tree_from_xml(xml).unwrap().to_string(), "root(c)");
    }

    #[test]
    fn attr_values_escape_on_the_way_out() {
        let xml = "<r t=\"a&quot;b &amp; c\"/>";
        let t = XmlRankedEvents::new(xml)
            .attributes(true)
            .collect_tree()
            .unwrap();
        assert_eq!(tree_to_xml_attrs(&t), "<r t=\"a&quot;b &amp; c\"/>");
    }

    #[test]
    fn skip_drains_attribute_blocks() {
        let xml = "<root x=\"1\"><a k=\"aa bb\"><y/></a>tok</root>";
        let mut s = XmlRankedEvents::new(xml).attributes(true);
        let open_name = |s: &mut XmlRankedEvents| match s.next_event() {
            Some(TreeEvent::Open(sym)) => sym.name().to_owned(),
            other => panic!("expected an Open, got {other:?}"),
        };
        assert_eq!(open_name(&mut s), "root");
        // The queued `@attrs` block skips via a depth-balanced drain of
        // the queue (it spans several queued events, not one Close).
        assert_eq!(open_name(&mut s), "@attrs");
        assert!(s.skip_subtree());
        // Skipping the <a> element drops its own queued attribute block
        // along with the raw fast-forward.
        assert_eq!(open_name(&mut s), "a");
        assert!(s.skip_subtree());
        assert_eq!(open_name(&mut s), "tok");
        assert_eq!(s.next_event(), Some(TreeEvent::Close));
        assert_eq!(s.next_event(), Some(TreeEvent::Close));
        assert!(s.next_event().is_none());
        assert!(s.take_error().is_none());
        assert_eq!(s.skipped_subtrees(), 2);
    }

    #[test]
    fn chained_stages_match_the_composed_transducer() {
        // τ₂ ∘ τ₁ executed as a two-stage chain must agree with the
        // statically composed dtop on the chain's domain (τ₁ fully
        // defined, then τ₂); outside it the composed product may accept
        // *more* — it evaluates τ₁ lazily and never checks partiality
        // under positions τ₂ deletes — which is exactly why pipeline
        // plans guard with the chain domain, not dom(composed).
        let library = examples::library().dtop;
        let pairs = [
            (examples::flip().dtop, examples::flip().dtop),
            (library.clone(), xtt_transducer::identity(library.output())),
        ];
        for (m1, m2) in pairs {
            let c1 = compile(&m1).unwrap();
            let c2 = compile(&m2).unwrap();
            let composed = xtt_transducer::compose(&m2, &m1).unwrap();
            let cc = compile(&composed).unwrap();
            let mut chain = ChainedEvaluator::new();
            let mut ev = StreamEvaluator::new();
            for t in enumerate_trees(m1.input(), 120, 8) {
                let mut sink = TreeCollector::new();
                let got = chain
                    .eval_streaming(&[&c1, &c2], &mut IterEvents(t.events()), &mut sink)
                    .unwrap();
                match (got, ev.eval_tree(&cc, &t)) {
                    (Some(_), Some(want)) => {
                        assert_eq!(sink.into_tree().unwrap(), want, "on {t}");
                    }
                    (Some(_), None) => panic!("chain accepted out-of-domain {t}"),
                    // The chain is allowed to reject where the lazy
                    // composed product accepts, never the reverse.
                    (None, _) => {}
                }
            }
        }
    }

    #[test]
    fn chained_keeps_the_stage_one_skip_fast_path() {
        // Stage 1 deletes `a`'s first subtree; the chain must still
        // fast-forward the raw tokenizer past it. Stage 2 is the
        // identity (flip's own output leaves its domain).
        let fix = examples::flip();
        let c = compile(&fix.dtop).unwrap();
        let id = compile(&xtt_transducer::identity(fix.dtop.output())).unwrap();
        let mut chain = ChainedEvaluator::new();
        let xml = "<root><a><junk><x/></junk><a># #</a></a><b># #</b></root>";
        let mut source = XmlRankedEvents::bounded(xml);
        let mut sink = TreeCollector::new();
        let got = chain
            .eval_streaming(&[&c, &id], &mut source, &mut sink)
            .unwrap();
        assert!(got.is_some());
        assert_eq!(
            sink.into_tree().unwrap().to_string(),
            "root(b(#,#),a(#,a(#,#)))"
        );
        assert!(source.skipped_subtrees() >= 1, "fast path must engage");
        assert_eq!(Symbol::lookup("junk"), None, "skipped names never interned");
        assert_eq!(chain.stage_stats().count(), 2);
    }

    #[test]
    fn xml_errors_surface() {
        let c = compile(&examples::flip().dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        assert!(ev.eval_xml(&c, "<root><a></root>").is_err());
        assert_eq!(ev.eval_xml(&c, "<lone/>").unwrap(), None);
    }
}
