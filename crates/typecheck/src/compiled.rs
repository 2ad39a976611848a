//! Lowering a [`Dtta`] into a flat, cache-friendly compiled form.
//!
//! Mirrors `xtt-engine`'s lowering of transducers: the research
//! representation (`HashMap<(StateId, Symbol), Vec<StateId>>`) is ideal
//! for the automata theory but slow to *run* next to the compiled
//! evaluator. [`CompiledDtta`] turns an automaton into:
//!
//! * a **dense jump table** `delta[state · |F| + f]` over interned
//!   symbol ids — transition lookup is two array reads, no hashing;
//! * a flat **successor arena**: every transition's child states are
//!   contiguous in one `Vec<u32>`;
//! * a `Symbol → dense id` translation indexed by the global interner id.
//!
//! The domain guard of a transducer ([`domain_guard`]) additionally marks
//! **skip states**: subset states where *no* transducer state inspects
//! the node (the `∅` set of the subset construction). A skip state
//! accepts any subtree — including symbols outside the declared alphabet
//! — which is exactly how evaluation treats deleted subtrees, so
//! guard-acceptance coincides with `eval(…).is_some()` on *every* input
//! tree, not just alphabet-correct ones.

use std::fmt;

use xtt_automata::{Dtta, StateId};
use xtt_trees::{NodePath, RankedAlphabet, Symbol, TermName, Tree};

use xtt_transducer::{domain_dtta_raw, Dtop, RawDomain};

use crate::run::DttaRun;

/// Sentinel for "no transition" / "not in the alphabet".
pub(crate) const NONE_U32: u32 = u32::MAX;

/// A typed domain violation: the first (pre-order) node of the input at
/// which the transduction is undefined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeError {
    /// The node's symbol has no transition from the guard state — some
    /// transducer state processing the node has no rule for it.
    Symbol {
        /// Node path of the violating node (1-based `Display`, `ε` = root).
        path: NodePath,
        /// Display name of the guard state (for a domain guard, the set
        /// of transducer states processing the node, e.g. `{q3,q4}`).
        state: String,
        /// The offending input symbol.
        symbol: Symbol,
        /// The node's name as written in the document, when it lies
        /// outside every alphabet: bounded readers never intern such
        /// names, so `symbol` is then their out-of-vocabulary sentinel
        /// and the diagnostic shows this token instead.
        token: Option<Box<str>>,
    },
    /// A child required by the guard state is absent (the node has fewer
    /// children than the transducer's rules reference).
    MissingChild {
        /// Node path of the *missing* child.
        path: NodePath,
        /// Guard state that would have processed the missing child.
        state: String,
        /// Symbol of the parent node.
        parent: Symbol,
    },
}

impl TypeError {
    /// The violating node's path.
    pub fn path(&self) -> &NodePath {
        match self {
            TypeError::Symbol { path, .. } | TypeError::MissingChild { path, .. } => path,
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Symbol {
                path,
                state,
                symbol,
                token,
            } => {
                write!(f, "at {path}: symbol ")?;
                match token {
                    Some(token) => write!(f, "{}", TermName(token))?,
                    None => write!(f, "{symbol}")?,
                }
                write!(f, " not allowed in state {state}")
            }
            TypeError::MissingChild {
                path,
                state,
                parent,
            } => write!(
                f,
                "at {path}: missing child of {parent} required by state {state}"
            ),
        }
    }
}

impl std::error::Error for TypeError {}

/// Errors from compiling or constructing a guard; capacity limits only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypecheckError {
    TooManyStates(usize),
}

impl fmt::Display for TypecheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypecheckError::TooManyStates(n) => {
                write!(f, "{n} automaton states exceed the compiled-form limit")
            }
        }
    }
}

impl std::error::Error for TypecheckError {}

/// A [`Dtta`] lowered for execution; see the module docs.
#[derive(Debug, Clone)]
pub struct CompiledDtta {
    alphabet: RankedAlphabet,
    n_states: u32,
    n_syms: u32,
    /// Global interner id → dense symbol id ([`NONE_U32`] if absent).
    sym_map: Vec<u32>,
    /// Rank of each dense symbol.
    sym_rank: Vec<u32>,
    /// `(state · n_syms + dense_sym)` → start of the successor range in
    /// `successors` ([`NONE_U32`] = undefined). The range length is the
    /// symbol's rank.
    delta: Vec<u32>,
    /// Flat successor-state arena.
    successors: Vec<u32>,
    /// States that accept any subtree without inspecting it.
    skip: Vec<bool>,
    state_names: Vec<String>,
    initial: u32,
}

/// Capacity bound: compiled automata (and domain guards) are capped well
/// below anything a real transducer produces, so a pathological upload
/// cannot eat the server's memory.
const MAX_STATES: usize = 1 << 20;

impl CompiledDtta {
    /// Lowers an explicit automaton (an inspection device or an output
    /// schema). No skip states: symbols outside the alphabet are rejected
    /// wherever they occur, exactly like [`Dtta::accepts`].
    pub fn from_dtta(a: &Dtta) -> Result<CompiledDtta, TypecheckError> {
        Self::build(a, None)
    }

    fn build(a: &Dtta, skip_state: Option<StateId>) -> Result<CompiledDtta, TypecheckError> {
        let n_states = a.state_count();
        if n_states >= MAX_STATES {
            return Err(TypecheckError::TooManyStates(n_states));
        }
        let alphabet = a.alphabet().clone();
        let n_syms = alphabet.len() as u32;
        let max_gid = alphabet
            .symbols()
            .iter()
            .map(|s| s.id() as usize)
            .max()
            .map_or(0, |m| m + 1);
        let mut sym_map = vec![NONE_U32; max_gid];
        let mut sym_rank = vec![0u32; n_syms as usize];
        for (dense, &sym) in alphabet.symbols().iter().enumerate() {
            sym_map[sym.id() as usize] = dense as u32;
            sym_rank[dense] = alphabet.rank(sym).unwrap() as u32;
        }
        let mut delta = vec![NONE_U32; n_states * n_syms as usize];
        let mut successors = Vec::new();
        for (q, f, children) in a.transitions() {
            let dense = sym_map[f.id() as usize];
            debug_assert_ne!(dense, NONE_U32);
            delta[q.index() * n_syms as usize + dense as usize] = successors.len() as u32;
            successors.extend(children.iter().map(|c| c.index() as u32));
        }
        let mut skip = vec![false; n_states];
        if let Some(s) = skip_state {
            skip[s.index()] = true;
        }
        Ok(CompiledDtta {
            alphabet,
            n_states: n_states as u32,
            n_syms,
            sym_map,
            sym_rank,
            delta,
            successors,
            skip,
            state_names: a.states().map(|q| a.state_name(q).to_owned()).collect(),
            initial: a.initial().index() as u32,
        })
    }

    /// The alphabet the automaton was compiled against.
    pub fn alphabet(&self) -> &RankedAlphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.n_states as usize
    }

    /// The initial state.
    #[inline]
    pub fn initial(&self) -> u32 {
        self.initial
    }

    /// Display name of a state.
    pub fn state_name(&self, state: u32) -> &str {
        &self.state_names[state as usize]
    }

    /// True if the state accepts any subtree without inspecting it.
    #[inline]
    pub fn is_skip(&self, state: u32) -> bool {
        self.skip[state as usize]
    }

    /// Dense id of a symbol, or [`NONE_U32`] if it is not in the alphabet.
    #[inline]
    pub fn dense_sym(&self, sym: Symbol) -> u32 {
        self.sym_map
            .get(sym.id() as usize)
            .copied()
            .unwrap_or(NONE_U32)
    }

    /// `δ(state, f)` for a dense symbol id, if defined.
    #[inline]
    pub fn transition(&self, state: u32, dense_sym: u32) -> Option<&[u32]> {
        let (start, len) = self.transition_range(state, dense_sym)?;
        Some(&self.successors[start as usize..(start + len) as usize])
    }

    /// `δ(state, f)` as `(arena start, rank)` — the form [`DttaRun`]
    /// frames store.
    ///
    /// [`DttaRun`]: crate::run::DttaRun
    #[inline]
    pub(crate) fn transition_range(&self, state: u32, dense_sym: u32) -> Option<(u32, u32)> {
        if dense_sym >= self.n_syms {
            return None;
        }
        let start = self.delta[state as usize * self.n_syms as usize + dense_sym as usize];
        if start == NONE_U32 {
            return None;
        }
        Some((start, self.sym_rank[dense_sym as usize]))
    }

    /// The `i`-th successor of a transition range.
    #[inline]
    pub(crate) fn successor(&self, start: u32, i: u32) -> u32 {
        self.successors[(start + i) as usize]
    }

    /// Starts an incremental run; feed it [`xtt_trees::TreeEvent`]s.
    pub fn run(&self) -> DttaRun<'_> {
        DttaRun::new(self)
    }

    /// Checks a materialized tree, returning the first (pre-order)
    /// violation. This is the pre-flight used by the engine's tree / dag /
    /// walk modes; it runs the same [`DttaRun`] as the streaming lockstep
    /// guard, so diagnostics are bit-identical across all modes.
    pub fn check_tree(&self, t: &Tree) -> Result<(), TypeError> {
        let mut run = self.run();
        for event in t.events() {
            run.feed(event)?;
        }
        Ok(())
    }

    /// True iff the automaton accepts `t` (skip states accept blindly).
    pub fn accepts(&self, t: &Tree) -> bool {
        self.check_tree(t).is_ok()
    }
}

/// The compiled domain guard of a transducer: the (untrimmed) subset
/// automaton of `dom(⟦M⟧)` with the `∅` subset marked as a skip state,
/// lowered to jump tables. Guard acceptance coincides exactly with
/// `xtt_transducer::eval(m, t).is_some()`, and a failing run reports the
/// first pre-order node at which evaluation is undefined.
pub fn domain_guard(m: &Dtop) -> Result<CompiledDtta, TypecheckError> {
    let raw = domain_dtta_raw(m, None);
    CompiledDtta::build(&raw.dtta, raw.skip_state)
}

/// Like [`domain_guard`] but with an input schema intersected in: accepts
/// `dom(⟦M⟧) ∩ L(schema)` and fails at the first pre-order node violating
/// either. With a schema present there is no `∅` skip state — subtrees the
/// transducer deletes must still satisfy the schema, so the guard keeps
/// reading them. `schema == None` degenerates to [`domain_guard`].
pub fn domain_guard_with_schema(
    m: &Dtop,
    schema: Option<&Dtta>,
) -> Result<CompiledDtta, TypecheckError> {
    let raw = domain_dtta_raw(m, schema);
    CompiledDtta::build(&raw.dtta, raw.skip_state)
}

/// Compiles a fail-fast guard from a prebuilt raw domain automaton —
/// e.g. [`xtt_transducer::chain_domain_raw`] over a pipeline's composed
/// prefixes, whose intersection is the exact domain of stage-by-stage
/// execution (see its docs for why the final composed machine alone
/// over-accepts when stages delete).
pub fn guard_from_domain(raw: &RawDomain) -> Result<CompiledDtta, TypecheckError> {
    CompiledDtta::build(&raw.dtta, raw.skip_state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtt_trees::parse_tree;

    #[test]
    fn compiled_dtta_matches_research_acceptance() {
        let fix = xtt_transducer::examples::flip();
        let c = CompiledDtta::from_dtta(&fix.domain).unwrap();
        for t in xtt_trees::gen::enumerate_trees(fix.dtop.input(), 300, 9) {
            assert_eq!(c.accepts(&t), fix.domain.accepts(&t), "on {t}");
        }
    }

    #[test]
    fn domain_guard_accepts_deleted_junk_like_eval() {
        // (q4, a) deletes its first subtree: junk there — even symbols
        // outside the alphabet — is accepted, exactly like eval.
        let fix = xtt_transducer::examples::flip();
        let g = domain_guard(&fix.dtop).unwrap();
        let junk = parse_tree("root(a(zzz9(#,#,#),#),#)").unwrap();
        assert!(g.accepts(&junk));
        assert!(xtt_transducer::eval(&fix.dtop, &junk).is_some());
        // ...but the same junk in an inspected position is a violation.
        let bad = parse_tree("root(zzz9(#),#)").unwrap();
        let err = g.check_tree(&bad).unwrap_err();
        assert!(xtt_transducer::eval(&fix.dtop, &bad).is_none());
        assert_eq!(err.path().to_string(), "1");
    }

    #[test]
    fn guard_reports_first_preorder_violation() {
        let fix = xtt_transducer::examples::flip();
        let g = domain_guard(&fix.dtop).unwrap();
        // b inside the a-list: the violating node is root.1.2, and the
        // (also bad) second subtree is never reached.
        let t = parse_tree("root(a(#,b(#,#)),a(#,#))").unwrap();
        match g.check_tree(&t).unwrap_err() {
            TypeError::Symbol {
                path,
                state,
                symbol,
                ..
            } => {
                assert_eq!(path.to_string(), "1.2");
                assert_eq!(state, "{q4}");
                assert_eq!(symbol.name(), "b");
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn missing_child_is_reported_at_its_path() {
        // q(f(x1,x2)) -> g(<q,x2>) requires the second child; a 1-child f
        // node (rank-breaking input) is undefined for eval and the guard.
        let input = RankedAlphabet::from_pairs([("f", 2), ("e", 0)]);
        let output = RankedAlphabet::from_pairs([("g", 1), ("e", 0)]);
        let mut b = xtt_transducer::DtopBuilder::new(input, output);
        b.add_state("q");
        b.set_axiom_str("<q,x0>").unwrap();
        b.add_rule_str("q", "f", "g(<q,x2>)").unwrap();
        b.add_rule_str("q", "e", "e").unwrap();
        let m = b.build().unwrap();
        let g = domain_guard(&m).unwrap();
        let lopsided = Tree::node("f", vec![Tree::leaf_named("e")]);
        assert!(xtt_transducer::eval(&m, &lopsided).is_none());
        match g.check_tree(&lopsided).unwrap_err() {
            TypeError::MissingChild { path, parent, .. } => {
                assert_eq!(path.to_string(), "2");
                assert_eq!(parent.name(), "f");
            }
            other => panic!("unexpected violation {other:?}"),
        }
        // An f node with an *extra* child is fine for both.
        let wide = parse_tree("f(e,e,e)").unwrap();
        assert!(xtt_transducer::eval(&m, &wide).is_some());
        assert!(g.accepts(&wide));
    }
}
