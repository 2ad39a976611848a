//! Term-syntax parser for trees: `root(a(#,#),b(#,#))`.
//!
//! The printer ([`Tree`]'s `Display`) and this parser round-trip. Symbol
//! names containing structural characters (parentheses, commas, quotes,
//! whitespace) — which occur in DTD-encoded alphabets like `"(a*,b*)"` — are
//! written and read as double-quoted strings with `\"` and `\\` escapes.
//!
//! [`parse_tree`] interns every name it reads — right for transducer
//! rules, samples and schemas. Untrusted documents go through
//! [`parse_tree_bounded`], which only looks names up and so can never
//! grow the process-global interner.

use std::borrow::Cow;
use std::fmt;

use crate::path::NodePath;
use crate::symbol::Symbol;
use crate::tree::Tree;

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// `None` interns every name; `Some(sentinel)` resolves names with
    /// [`Symbol::lookup`] and maps the never-interned ones to `sentinel`.
    unknown: Option<Symbol>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            unknown: None,
        }
    }

    fn symbol(&self, name: &str) -> Symbol {
        match self.unknown {
            None => Symbol::new(name),
            Some(sentinel) => Symbol::lookup(name).unwrap_or(sentinel),
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn parse_symbol(&mut self) -> Result<Symbol, ParseError> {
        let name = self.parse_name()?;
        Ok(self.symbol(&name))
    }

    /// The next name as written (unescaped, not resolved).
    fn parse_name(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.parse_quoted().map(Cow::Owned),
            Some(c) if !is_structural(c) => self.parse_bare().map(Cow::Borrowed),
            Some(c) => Err(self.error(format!("expected symbol, found {:?}", c as char))),
            None => Err(self.error("expected symbol, found end of input")),
        }
    }

    fn parse_quoted(&mut self) -> Result<String, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.bump();
        let mut name = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(name),
                Some(b'\\') => match self.bump() {
                    Some(c @ (b'"' | b'\\')) => name.push(c as char),
                    Some(c) => {
                        return Err(self.error(format!("invalid escape \\{}", c as char)));
                    }
                    None => return Err(self.error("unterminated escape")),
                },
                Some(c) => name.push(c as char),
                None => return Err(self.error("unterminated quoted symbol")),
            }
        }
    }

    fn parse_bare(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if is_structural(c) || c.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        let input: &'a [u8] = self.input;
        std::str::from_utf8(&input[start..self.pos])
            .map_err(|_| self.error("symbol is not valid UTF-8"))
    }

    /// Reads past one whole subtree without resolving any name.
    fn skip_tree(&mut self) -> Result<(), ParseError> {
        self.parse_name()?;
        self.skip_ws();
        if self.peek() != Some(b'(') {
            return Ok(());
        }
        self.bump();
        self.skip_ws();
        if self.peek() == Some(b')') {
            self.bump();
            return Ok(());
        }
        loop {
            self.skip_tree()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b')') => return Ok(()),
                _ => return Err(self.error("expected ',' or ')'")),
            }
        }
    }

    fn parse_tree(&mut self) -> Result<Tree, ParseError> {
        let symbol = self.parse_symbol()?;
        self.skip_ws();
        if self.peek() != Some(b'(') {
            return Ok(Tree::leaf(symbol));
        }
        self.bump();
        let mut children = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b')') {
            self.bump();
            return Ok(Tree::new(symbol, children));
        }
        loop {
            children.push(self.parse_tree()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b')') => break,
                Some(c) => {
                    return Err(self.error(format!("expected ',' or ')', found {:?}", c as char)));
                }
                None => return Err(self.error("unterminated argument list")),
            }
        }
        Ok(Tree::new(symbol, children))
    }

    /// One tree spanning the whole input (surrounding whitespace aside).
    fn parse_whole(&mut self) -> Result<Tree, ParseError> {
        let tree = self.parse_tree()?;
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.error("trailing input after tree"));
        }
        Ok(tree)
    }
}

fn is_structural(c: u8) -> bool {
    matches!(c, b'(' | b')' | b',' | b'"')
}

/// Parses a tree in term syntax. The whole input must be consumed.
pub fn parse_tree(input: &str) -> Result<Tree, ParseError> {
    Parser::new(input).parse_whole()
}

/// Like [`parse_tree`], but never interns: every name resolves through
/// [`Symbol::lookup`], and names never interned before map to `unknown`
/// (a sentinel no alphabet declares, so such nodes match no rule). This
/// is the entry point for untrusted documents in a long-running process,
/// whose memory must not grow with the input vocabulary.
pub fn parse_tree_bounded(input: &str, unknown: Symbol) -> Result<Tree, ParseError> {
    let mut parser = Parser::new(input);
    parser.unknown = Some(unknown);
    parser.parse_whole()
}

/// The name written at `path` in a term-syntax document, read without
/// interning anything — how a diagnostic about an out-of-vocabulary node
/// (one [`parse_tree_bounded`] mapped to its sentinel) recovers the
/// token as written. `None` if the path does not exist or the input is
/// malformed before reaching it.
pub fn name_at(input: &str, path: &NodePath) -> Option<String> {
    let mut parser = Parser::new(input);
    let mut name = parser.parse_name().ok()?;
    for &child in path.indices() {
        parser.skip_ws();
        if parser.bump() != Some(b'(') {
            return None;
        }
        for _ in 0..child {
            parser.skip_tree().ok()?;
            parser.skip_ws();
            if parser.bump() != Some(b',') {
                return None;
            }
        }
        name = parser.parse_name().ok()?;
    }
    Some(name.into_owned())
}

/// Parses several trees separated by whitespace or semicolons.
pub fn parse_trees(input: &str) -> Result<Vec<Tree>, ParseError> {
    let mut parser = Parser::new(input);
    let mut out = Vec::new();
    loop {
        parser.skip_ws();
        while parser.peek() == Some(b';') {
            parser.bump();
            parser.skip_ws();
        }
        if parser.peek().is_none() {
            return Ok(out);
        }
        out.push(parser.parse_tree()?);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_leaves_and_nodes() {
        assert_eq!(parse_tree("#").unwrap().to_string(), "#");
        assert_eq!(
            parse_tree("root(a(#,#),b(#,#))").unwrap().to_string(),
            "root(a(#,#),b(#,#))"
        );
    }

    #[test]
    fn tolerates_whitespace() {
        let t = parse_tree("  f ( a , g ( b ) ) ").unwrap();
        assert_eq!(t.to_string(), "f(a,g(b))");
    }

    #[test]
    fn quoted_symbols_roundtrip() {
        let input = r#"root("(a*,b*)"("a*"(a,"a*"(#,#)),"b*"(b,"b*"(#,#))))"#;
        let t = parse_tree(input).unwrap();
        // canonical form: only names with structural characters stay quoted
        let canonical = r#"root("(a*,b*)"(a*(a,a*(#,#)),b*(b,b*(#,#))))"#;
        assert_eq!(t.to_string(), canonical);
        assert_eq!(parse_tree(canonical).unwrap(), t);
        assert_eq!(t.child(0).unwrap().symbol().name(), "(a*,b*)");
    }

    #[test]
    fn quoted_escapes() {
        let t = parse_tree(r#""a\"b""#).unwrap();
        assert_eq!(t.symbol().name(), "a\"b");
        let t2 = parse_tree(r#""a\\b""#).unwrap();
        assert_eq!(t2.symbol().name(), "a\\b");
    }

    #[test]
    fn explicit_empty_args_is_leaf_like() {
        let t = parse_tree("f()").unwrap();
        assert!(t.is_leaf());
        assert_eq!(t.to_string(), "f");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_tree("").is_err());
        assert!(parse_tree("f(a").is_err());
        assert!(parse_tree("f(a,)").is_err());
        assert!(parse_tree("f)x").is_err());
        assert!(parse_tree("f(a) trailing").is_err());
        assert!(parse_tree("\"unterminated").is_err());
    }

    #[test]
    fn parse_many() {
        let ts = parse_trees("a; b(c) \n d").unwrap();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[1].to_string(), "b(c)");
        assert!(parse_trees("   ").unwrap().is_empty());
    }

    #[test]
    fn bounded_parse_never_interns() {
        let sentinel = Symbol::new("bounded-parse-sentinel");
        let known = Symbol::new("bounded-known");
        let t = parse_tree_bounded(
            r#"bounded-known(never-seen-bare-qzx,"never seen quoted qzx")"#,
            sentinel,
        )
        .unwrap();
        assert_eq!(t.symbol(), known);
        assert_eq!(t.child(0).unwrap().symbol(), sentinel);
        assert_eq!(t.child(1).unwrap().symbol(), sentinel);
        assert_eq!(Symbol::lookup("never-seen-bare-qzx"), None);
        assert_eq!(Symbol::lookup("never seen quoted qzx"), None);
        // Same grammar, same errors as the interning parser.
        for bad in ["", "f(a", "f(a,)", "f(a) trailing"] {
            assert_eq!(
                parse_tree_bounded(bad, sentinel).unwrap_err(),
                parse_tree(bad).unwrap_err()
            );
        }
    }

    #[test]
    fn name_at_reads_the_token_at_a_path() {
        let doc = r#"root(a(#,"odd name"(x,y)),b(f(#),#))"#;
        let at = |indices: &[u32]| name_at(doc, &NodePath::from_indices(indices));
        assert_eq!(at(&[]).as_deref(), Some("root"));
        assert_eq!(at(&[0, 1]).as_deref(), Some("odd name"));
        assert_eq!(at(&[0, 1, 1]).as_deref(), Some("y"));
        assert_eq!(at(&[1, 0, 0]).as_deref(), Some("#"));
        assert_eq!(at(&[1, 1]).as_deref(), Some("#"));
        assert_eq!(at(&[2]), None, "root has two children");
        assert_eq!(at(&[1, 1, 0]), None, "a leaf has none");
        assert_eq!(Symbol::lookup("odd name"), None, "nothing interned");
    }

    #[test]
    fn display_parse_roundtrip_on_nested() {
        let s = "L(B(A(P),T(P),Y(P)),B(A(P),T(P),Y(P)))";
        assert_eq!(parse_tree(s).unwrap().to_string(), s);
    }
}
