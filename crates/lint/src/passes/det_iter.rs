//! DET-ITER: unordered-container iteration in sim-affecting crates.
//!
//! `HashMap`/`HashSet` iteration order is arbitrary (and, with the std
//! `RandomState` hasher, different every process), so any point where it
//! can reach simulation behavior — send order, sampling, event
//! scheduling — is a reproducibility bug waiting for a hash-seed change.
//! This bug class is real here: PR 4 caught fig8 sampling crawl vantages
//! from `HashMap::keys()` order, PR 3 caught queries injected from
//! crashed vantages found the same way.
//!
//! The pass is token-level, so it is deliberately conservative about
//! types: it harvests container kinds from declarations it can see
//! (struct fields, `let` ascriptions, `Type::new()` initializers, type
//! aliases) and classifies receivers as *unordered* (`HashMap`,
//! `HashSet`), *ordered/deterministic* (`BTreeMap`, `BTreeSet`, `Vec`,
//! `VecDeque`, ...), or *unknown*. It flags:
//!
//! * map/set-specific iteration (`keys`, `values`, `values_mut`,
//!   `into_keys`, `into_values`) on unordered or unknown receivers,
//! * generic iteration (`iter`, `iter_mut`, `into_iter`, zero-arg
//!   `drain`) on known-unordered receivers,
//! * `for .. in [&][mut] path` loops over known-unordered names,
//!
//! unless the surrounding statement *sanitizes* the order: sorts it,
//! reduces it order-insensitively (`sum`, `count`, `min`, `max`, `all`,
//! `any`, ...), collects it back into an unordered/ordered container, or
//! the next statement immediately sorts the collected binding — and does
//! not first cut the stream short (`take`, `nth`, `find`, ...: which
//! items survive is itself the iteration order, and no later sort can
//! undo that). Anything else needs a `// pier-lint: allow(det-iter):
//! <reason>` annotation stating the order-insensitivity argument.

use std::collections::BTreeMap;

use crate::annotations::Annotations;
use crate::lexer::{Tok, TokKind};
use crate::report::{Finding, Rule};

use super::FileCtx;

/// Containers whose iteration order is arbitrary.
const UNORDERED: [&str; 2] = ["HashMap", "HashSet"];
/// Containers whose iteration order is deterministic given deterministic
/// content (sorted or insertion-ordered).
const ORDERED: [&str; 6] = ["BTreeMap", "BTreeSet", "Vec", "VecDeque", "IndexMap", "Box"];

/// Map/set-specific iteration methods (exist on ordered maps too, so the
/// receiver classification decides).
const MAP_ITER: [&str; 5] = ["keys", "values", "values_mut", "into_keys", "into_values"];
/// Generic iteration methods — flagged only on known-unordered receivers.
const GENERIC_ITER: [&str; 4] = ["iter", "iter_mut", "into_iter", "drain"];

/// Method/type names that make the statement order-insensitive.
const SANITIZERS: [&str; 22] = [
    // Sorting the stream (or the collection it came from).
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
    // Order-insensitive reductions.
    "sum",
    "product",
    "count",
    "min",
    "max",
    "all",
    "any",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    // Collecting into a container whose own order doesn't depend on
    // arrival order (or is itself unordered, deferring the question to
    // its eventual iteration).
    "HashSet",
    "HashMap",
    "BTreeMap",
    "BTreeSet",
];

/// Adapters that keep part of the stream, chosen by position: after one
/// of these on an unordered iteration, *which* items remain depends on the
/// order, so a sort or commutative sink later in the statement does not
/// sanitize it (`m.keys().take(10).collect()` then `.sort()` still picked
/// ten arbitrary keys).
const SELECTORS: [&str; 12] = [
    "take",
    "skip",
    "step_by",
    "nth",
    "next",
    "last",
    "find",
    "find_map",
    "position",
    "take_while",
    "skip_while",
    "map_while",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Unordered,
    Ordered,
}

/// Harvest `name -> container kind` facts from the file's declarations.
/// A name declared with conflicting kinds (two structs in one file) is
/// dropped to *unknown* rather than guessed.
fn harvest(toks: &[Tok]) -> BTreeMap<String, Kind> {
    // Type aliases first: `type SeenMap = HashMap<...>;`.
    let mut alias: BTreeMap<String, Kind> = BTreeMap::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("type")
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].is_punct("=")
        {
            let mut j = i + 3;
            while j < toks.len() && !toks[j].is_punct(";") {
                if let Some(k) = classify_ident(&toks[j].text, &alias) {
                    alias.insert(toks[i + 1].text.clone(), k);
                    break;
                }
                j += 1;
            }
        }
    }

    let mut kinds: BTreeMap<String, Option<Kind>> = BTreeMap::new();
    let mut learn = |name: &str, k: Kind| match kinds.get(name) {
        Some(Some(prev)) if *prev != k => {
            kinds.insert(name.to_string(), None); // conflict -> unknown
        }
        Some(_) => {}
        None => {
            kinds.insert(name.to_string(), Some(k));
        }
    };

    for i in 0..toks.len() {
        // `name : Type` (struct fields, let ascriptions, fn params).
        if toks[i].kind == TokKind::Ident
            && i + 2 < toks.len()
            && toks[i + 1].is_punct(":")
            && !toks[i + 2].is_punct(":") // skip paths like `std::collections`
            && (i == 0 || !toks[i - 1].is_punct(":"))
        {
            let name = &toks[i].text;
            // Scan the type region: stop at `,` `;` `=` `)` `{` `>` at depth 0.
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut paren = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("<") {
                    angle += 1;
                } else if t.is_punct(">") {
                    angle -= 1;
                    if angle < 0 {
                        break;
                    }
                } else if t.is_punct("(") || t.is_punct("[") {
                    paren += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    paren -= 1;
                    if paren < 0 {
                        break;
                    }
                } else if (t.is_punct(",") || t.is_punct(";") || t.is_punct("=") || t.is_punct("{"))
                    && angle == 0
                    && paren == 0
                {
                    break;
                } else if t.kind == TokKind::Ident {
                    if let Some(k) = classify_ident(&t.text, &alias) {
                        learn(name, k);
                        break;
                    }
                }
                j += 1;
            }
        }
        // `let [mut] name = Type::new()` / `::default()` / `::with_capacity(..)`.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j + 1 < toks.len()
                && toks[j].kind == TokKind::Ident
                && toks[j + 1].is_punct("=")
                && j + 2 < toks.len()
            {
                if let Some(k) = classify_ident(&toks[j + 2].text, &alias) {
                    learn(&toks[j].text, k);
                }
            }
        }
    }

    kinds.into_iter().filter_map(|(name, k)| k.map(|k| (name, k))).collect()
}

fn classify_ident(ident: &str, alias: &BTreeMap<String, Kind>) -> Option<Kind> {
    if UNORDERED.contains(&ident) {
        Some(Kind::Unordered)
    } else if ORDERED.contains(&ident) {
        Some(Kind::Ordered)
    } else {
        alias.get(ident).copied()
    }
}

pub fn run(ctx: &FileCtx<'_>, ann: &mut Annotations, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    let kinds = harvest(toks);

    // Method-call triggers.
    for i in 0..toks.len() {
        if ctx.mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let m = toks[i].text.as_str();
        let is_map_iter = MAP_ITER.contains(&m);
        let is_generic = GENERIC_ITER.contains(&m);
        if !is_map_iter && !is_generic {
            continue;
        }
        // Require the `.method(` shape.
        if i == 0 || !toks[i - 1].is_punct(".") || i + 1 >= toks.len() || !toks[i + 1].is_punct("(")
        {
            continue;
        }
        // `drain` must be zero-arg: `Vec::drain(..)` takes a range and is
        // order-preserving, `HashMap::drain()` is the unordered one.
        if m == "drain" && !(i + 2 < toks.len() && toks[i + 2].is_punct(")")) {
            continue;
        }
        // Resolve the receiver: the identifier just before the `.`.
        let recv =
            (i >= 2 && toks[i - 2].kind == TokKind::Ident).then(|| toks[i - 2].text.as_str());
        let kind = recv.and_then(|r| kinds.get(r).copied());
        let flag = match kind {
            Some(Kind::Ordered) => false,
            Some(Kind::Unordered) => true,
            // Unknown receiver: map-specific methods are still suspicious
            // (the workspace's only ordered maps are named fields, which
            // resolve); generic `iter()` on unknowns would drown the lint
            // in Vec false positives, so those pass.
            None => is_map_iter,
        };
        if !flag || statement_is_sanitized(toks, i) {
            continue;
        }
        let recv_name = recv.unwrap_or("<expr>");
        let (start, _) = stmt_span(toks, i);
        ctx.emit(
            ann,
            out,
            Rule::DetIter,
            &[toks[i].line, toks[start].line],
            format!(
                "`{recv_name}.{m}()` iterates a {} in unordered order with no \
                 sort or order-insensitive sink in the statement; sort first, \
                 reduce commutatively, or annotate the order-insensitivity argument",
                match kind {
                    Some(Kind::Unordered) => "HashMap/HashSet",
                    _ => "map/set of unknown ordering",
                }
            ),
        );
    }

    // `for pat in [&][mut] path { .. }` over a known-unordered name.
    let mut i = 0usize;
    while i < toks.len() {
        if ctx.mask[i] || !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        // Find `in` at depth 0 before the loop body `{`.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut in_at = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                depth -= 1;
            } else if t.is_ident("in") && depth <= 0 {
                in_at = Some(j);
                break;
            } else if t.is_punct("{") || t.is_punct(";") {
                break; // not a for-loop header we understand (e.g. `impl<..> for`)
            }
            j += 1;
        }
        let Some(in_at) = in_at else {
            i = j.max(i + 1);
            continue;
        };
        // Expression tokens up to the body `{`.
        let mut k = in_at + 1;
        let mut expr: Vec<&Tok> = Vec::new();
        while k < toks.len() && !toks[k].is_punct("{") {
            expr.push(&toks[k]);
            k += 1;
        }
        i = k;
        // Only a bare path (no calls): `map`, `&map`, `&mut self.map`.
        if expr.iter().any(|t| t.is_punct("(")) {
            continue; // method calls were handled by the trigger above
        }
        let Some(last) = expr.last().filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if kinds.get(&last.text) == Some(&Kind::Unordered) {
            ctx.emit(
                ann,
                out,
                Rule::DetIter,
                &[last.line],
                format!(
                    "`for .. in {}` iterates a HashMap/HashSet in unordered order; \
                     iterate a sorted copy or annotate the order-insensitivity argument",
                    last.text
                ),
            );
        }
    }
}

/// The statement span around token `at`: back to just past the previous
/// `;`/`{`/`}`, forward to the terminating `;` (or the `{`/`}` that ends
/// the expression). Rough by design — closures with blocks shorten the
/// visible span, in which case the code needs an annotation anyway.
fn stmt_span(toks: &[Tok], at: usize) -> (usize, usize) {
    let mut start = at;
    while start > 0 {
        let t = &toks[start - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            break;
        }
        start -= 1;
    }
    let mut depth = 0i32;
    let mut end = at;
    while end < toks.len() {
        let t = &toks[end];
        if t.is_punct("{") && depth == 0 {
            break; // a block begins (for/if body): the statement's own span ends
        }
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if t.is_punct(";") && depth == 0 {
            break;
        }
        end += 1;
    }
    (start, end)
}

/// Does the statement around `at` sort the stream, reduce it
/// order-insensitively, or collect it into an order-owning container —
/// or does the *next* statement immediately sort the binding? Never, if
/// the stream is cut short by position after `at` ([`SELECTORS`]).
fn statement_is_sanitized(toks: &[Tok], at: usize) -> bool {
    let (start, end) = stmt_span(toks, at);
    let end = end.min(toks.len());
    let selects = toks[at..end]
        .windows(2)
        .any(|w| w[0].is_punct(".") && SELECTORS.contains(&w[1].text.as_str()));
    if selects {
        return false;
    }
    for t in &toks[start..end] {
        if t.kind == TokKind::Ident && SANITIZERS.contains(&t.text.as_str()) {
            return true;
        }
    }
    // `let mut v: Vec<_> = m.keys().collect(); v.sort();`
    if end < toks.len() && toks[end].is_punct(";") && toks[start].is_ident("let") {
        let mut b = start + 1;
        if b < toks.len() && toks[b].is_ident("mut") {
            b += 1;
        }
        if toks[b].kind == TokKind::Ident {
            let bound = &toks[b].text;
            if let (Some(n0), Some(n1), Some(n2)) =
                (toks.get(end + 1), toks.get(end + 2), toks.get(end + 3))
            {
                if n0.is_ident(bound)
                    && n1.is_punct(".")
                    && n2.kind == TokKind::Ident
                    && n2.text.starts_with("sort")
                {
                    return true;
                }
            }
        }
    }
    false
}
