//! Rule `unused-pub`: a `pub` item of a library crate that nothing
//! outside the crate names.
//!
//! `pub` switches rustc's `dead_code` lint off, so surface that only
//! its own crate — or only its own unit tests — uses piles up unseen.
//! This rule is a cheap cross-crate name check, not a second dead-code
//! analyser: the fix for a finding is to narrow the item to
//! `pub(crate)` or private, after which rustc decides precisely (and
//! transitively) what is dead. An item counts as used when its name
//! appears as code — not in a comment, a string or a doc example — in
//!
//! - any file outside its library crate: other crates, the crate's own
//!   bins, integration tests, benches, examples and `perfbench/src`;
//! - the signature of another non-test `pub` item of the same crate,
//!   so types reachable through the public API stay public.
//!
//! `pub use` re-exports and the defining occurrence of a name do not
//! count. Being name-based, the check errs towards silence: any same-
//! named identifier elsewhere keeps an item public.

use std::collections::{BTreeMap, BTreeSet};

use crate::findings::Finding;
use crate::lexer::{Token, TokenKind};
use crate::rules::Rule;
use crate::source::{match_bracket, SourceFile};
use crate::workspace::Workspace;

pub struct UnusedPub;

impl Rule for UnusedPub {
    fn name(&self) -> &'static str {
        "unused-pub"
    }

    fn describe(&self) -> &'static str {
        "a library pub item no code outside its crate names must be narrowed to pub(crate)"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        // Which crates name each identifier; `None` is a user-only
        // file (bin, integration test, bench, example, perfbench).
        let mut namers: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
        for file in ws.files.iter().chain(&ws.users) {
            let owner = library_crate(&file.path);
            for name in used_names(file) {
                namers.entry(name).or_default().insert(owner);
            }
        }
        let mut items: Vec<(&str, &SourceFile, PubItem)> = Vec::new();
        for file in &ws.files {
            if let Some(krate) = library_crate(&file.path) {
                items.extend(pub_items(file).into_iter().map(|item| (krate, file, item)));
            }
        }

        // Which items' signatures name each identifier, per crate.
        let mut signers: BTreeMap<(&str, &str), BTreeSet<usize>> = BTreeMap::new();
        for (j, (krate, file, item)) in items.iter().enumerate() {
            for name in item.signature_names(file) {
                signers.entry((krate, name)).or_default().insert(j);
            }
        }

        let mut findings = Vec::new();
        for (i, (krate, file, item)) in items.iter().enumerate() {
            let name = item.name(file);
            let named_outside = namers
                .get(name)
                .is_some_and(|crates| crates.iter().any(|c| *c != Some(*krate)));
            let in_pub_signature = signers
                .get(&(*krate, name))
                .is_some_and(|items| items.iter().any(|&j| j != i));
            if named_outside || in_pub_signature {
                continue;
            }
            let krate = if krate.is_empty() {
                "the root package"
            } else {
                krate
            };
            findings.push(Finding {
                rule: "unused-pub",
                file: file.path.clone(),
                line: file.tokens[item.name_idx].line,
                symbol: item.symbol.clone(),
                message: format!(
                    "pub {} {} is named by nothing outside {krate} — narrow it to \
                     pub(crate) or private and let rustc's dead_code lint judge it",
                    item.kind, item.symbol
                ),
            });
        }
        findings
    }
}

/// One `pub` item declaration.
struct PubItem {
    /// `fn`, `struct`, `mod`, ...
    kind: &'static str,
    /// Baseline symbol: the name, `Type::name` for inherent methods.
    symbol: String,
    /// Token index of the item's name.
    name_idx: usize,
    /// Token range (inclusive) of the signature other items' names
    /// are reachable through: a fn up to its body, a type's whole
    /// definition, a const's type.
    signature: (usize, usize),
}

impl PubItem {
    fn name<'a>(&self, file: &'a SourceFile) -> &'a str {
        file.tokens[self.name_idx].text(&file.src)
    }

    fn signature_names<'a>(&self, file: &'a SourceFile) -> impl Iterator<Item = &'a str> + 'a {
        let (a, b) = self.signature;
        let name_idx = self.name_idx;
        (a..=b).filter_map(move |i| {
            let t = file.tokens.get(i)?;
            (t.kind == TokenKind::Ident && i != name_idx).then(|| t.text(&file.src))
        })
    }
}

/// The library crate a file belongs to: `crates/<name>` for a crate's
/// `src/` outside `src/bin/`, `""` for the root package's `src/`, and
/// `None` for bins and user-only files.
fn library_crate(path: &str) -> Option<&str> {
    if path.contains("/bin/") || path.ends_with("src/main.rs") {
        return None;
    }
    if path.starts_with("src/") {
        return Some("");
    }
    let rest = path.strip_prefix("crates/")?;
    let name = rest.split('/').next()?;
    rest[name.len()..]
        .starts_with("/src/")
        .then(|| &path[..("crates/".len() + name.len())])
}

/// Identifiers a file uses: every code identifier except those inside
/// a `pub use` re-export and the names an item definition introduces.
/// Test code included — an item another crate's tests name must stay
/// public for them to compile.
fn used_names(file: &SourceFile) -> Vec<&str> {
    let src = &file.src;
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut names = Vec::new();
    let mut in_pub_use = false;
    for (k, t) in code.iter().enumerate() {
        let prev = k.checked_sub(1).map(|p| code[p]);
        if in_pub_use {
            in_pub_use = !t.is_punct(src, ';');
            continue;
        }
        if t.is_ident(src, "use") && prev.is_some_and(|p| p.is_ident(src, "pub")) {
            in_pub_use = true;
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        let defines = prev.is_some_and(|p| DEFINING_KEYWORDS.iter().any(|kw| p.is_ident(src, kw)));
        if !defines {
            names.push(t.text(src));
        }
    }
    names
}

/// Keywords whose following identifier is the name being defined.
const DEFINING_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

/// Every non-test `pub` item of a library file.
fn pub_items(file: &SourceFile) -> Vec<PubItem> {
    let src = &file.src;
    let tokens = &file.tokens;
    let impls = inherent_impls(file);
    let mut items = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident(src, "pub") || file.is_test_code(i) || file.enclosing_fn(i).is_some() {
            continue;
        }
        let Some((kind, kw_idx)) = item_keyword(file, i + 1) else {
            continue;
        };
        let name_idx = kw_idx + 1;
        if !tokens
            .get(name_idx)
            .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            continue;
        }
        if kind == "fn"
            && file
                .fns
                .iter()
                .any(|f| f.is_test && f.line == tokens[kw_idx].line)
        {
            continue;
        }
        let name = tokens[name_idx].text(src);
        let symbol = impls
            .iter()
            .filter(|(open, close, _)| i > *open && i < *close)
            .min_by_key(|(open, close, _)| close - open)
            .map_or_else(|| name.to_owned(), |(_, _, ty)| format!("{ty}::{name}"));
        items.push(PubItem {
            kind,
            symbol,
            name_idx,
            signature: (i, signature_end(file, kind, name_idx)),
        });
    }
    items
}

/// From the token after `pub`, the item kind and the index of its
/// keyword, skipping `const`/`async`/`unsafe`/`extern "C"` fn
/// qualifiers. `None` for `pub(...)`, `pub use`, fields and anything
/// else that is not an item this rule covers.
fn item_keyword(file: &SourceFile, mut j: usize) -> Option<(&'static str, usize)> {
    let src = &file.src;
    loop {
        let t = file.tokens.get(j)?;
        let fn_qualifier = matches!(t.text(src), "async" | "unsafe" | "extern")
            || (t.is_ident(src, "const")
                && file.tokens.get(j + 1).is_some_and(|n| {
                    n.is_ident(src, "fn") || n.is_ident(src, "unsafe") || n.is_ident(src, "async")
                }));
        if t.kind == TokenKind::Str || (t.kind == TokenKind::Ident && fn_qualifier) {
            j += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            return None;
        }
        let kind = DEFINING_KEYWORDS
            .iter()
            .find(|kw| t.is_ident(src, kw))
            .copied()?;
        return Some((kind, j));
    }
}

/// Last token of an item's signature: a fn up to its body (or `;`), a
/// type up to its closing `}` / `;`, a const or static up to its `=`,
/// a module just its name.
fn signature_end(file: &SourceFile, kind: &str, name_idx: usize) -> usize {
    let src = &file.src;
    if kind == "mod" {
        return name_idx;
    }
    let mut depth = 0i32;
    let mut j = name_idx;
    while let Some(t) = file.tokens.get(j) {
        if t.kind == TokenKind::Punct {
            match t.text(src).as_bytes().first() {
                Some(b'(' | b'[') => depth += 1,
                Some(b')' | b']') => depth -= 1,
                Some(b';') if depth <= 0 => return j,
                Some(b'=') if depth <= 0 && matches!(kind, "const" | "static") => return j,
                Some(b'{') if depth <= 0 => {
                    return if kind == "fn" {
                        j
                    } else {
                        match_bracket(src, &file.tokens, j, '{', '}')
                    };
                }
                _ => {}
            }
        }
        j += 1;
    }
    file.tokens.len().saturating_sub(1)
}

/// `(open, close, type name)` of every inherent `impl Type { ... }`
/// block, by token index of its braces. Trait impls are left out:
/// their methods carry no `pub` of their own.
fn inherent_impls(file: &SourceFile) -> Vec<(usize, usize, &str)> {
    let src = &file.src;
    let tokens = &file.tokens;
    let mut impls = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident(src, "impl") {
            continue;
        }
        // An item starts a statement; `-> impl Trait`, `x: &impl Fn()`
        // and friends are types.
        let starts_item = file.skip_comments_back(i).is_none_or(|p| {
            let p = &tokens[p];
            p.is_punct(src, '}')
                || p.is_punct(src, ';')
                || p.is_punct(src, '{')
                || p.is_punct(src, ']')
                || p.is_ident(src, "unsafe")
        });
        if !starts_item {
            continue;
        }
        let mut angle = 0i32;
        let mut ty: Option<&str> = None;
        let mut is_trait_impl = false;
        let mut in_where = false;
        let mut j = i + 1;
        while let Some(t) = tokens.get(j) {
            if t.is_punct(src, '{') || t.is_punct(src, ';') {
                break;
            } else if t.is_punct(src, '<') {
                angle += 1;
            } else if t.is_punct(src, '>') && !tokens[j - 1].is_punct(src, '-') {
                angle -= 1;
            } else if angle == 0 && !in_where && t.is_ident(src, "for") {
                is_trait_impl = true;
            } else if angle == 0 && t.is_ident(src, "where") {
                in_where = true;
            } else if angle == 0 && !in_where && t.kind == TokenKind::Ident {
                ty = Some(t.text(src));
            }
            j += 1;
        }
        if is_trait_impl || !tokens.get(j).is_some_and(|t| t.is_punct(src, '{')) {
            continue;
        }
        if let Some(ty) = ty {
            impls.push((j, match_bracket(src, tokens, j, '{', '}'), ty));
        }
    }
    impls
}
