//! A lexed source file plus the per-file facts every rule needs: which
//! tokens sit inside `#[cfg(test)]` items, and which lines carry
//! `lifl-lint: allow(...)` escape-hatch markers.

use crate::lexer::{lex, Tok, TokKind};
use crate::{Finding, Rule};

/// An `// lifl-lint: allow(<rule>) — justification` marker parsed out of a
/// comment. Line markers suppress findings on their own line and on the next
/// line that carries code; `allow-file` markers suppress a rule for the whole
/// file (used for the counting allocator's `GlobalAlloc` impl, which is a
/// sanctioned unsafe site outside the kernels directory).
#[derive(Debug)]
pub struct AllowMarker {
    /// The rule being allowed, if the marker named a known one.
    pub rule: Option<Rule>,
    /// Raw rule name as written, for diagnostics on unknown rules.
    pub raw_rule: String,
    /// Line the marker comment starts on.
    pub line: u32,
    /// Whether this is a file-level `allow-file` marker.
    pub file_level: bool,
    /// Whether a non-empty justification string follows the marker.
    pub justified: bool,
    /// First line after the marker that carries a code token (the line a
    /// line-level marker also applies to).
    pub next_code_line: u32,
}

/// One source file: path, raw lines, token stream, and derived facts.
pub struct SourceFile {
    /// Path relative to the workspace root, with forward slashes.
    pub rel: String,
    /// Full token stream, comments included.
    pub toks: Vec<Tok>,
    /// `test_mask[i]` is true when token `i` sits inside a `#[cfg(test)]` or
    /// `#[test]` item (or the file carries an inner `#![cfg(test)]`).
    pub test_mask: Vec<bool>,
    /// All allow markers found in comments.
    pub allows: Vec<AllowMarker>,
}

impl SourceFile {
    /// Lexes `text` and computes the derived facts.
    pub fn new(rel: String, text: &str) -> SourceFile {
        let toks = lex(text);
        let test_mask = compute_test_mask(&toks);
        let allows = parse_allow_markers(&toks);
        SourceFile {
            rel,
            toks,
            test_mask,
            allows,
        }
    }

    /// True when token `i` is inside test-gated code.
    pub fn is_test(&self, i: usize) -> bool {
        self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// True when a finding of `rule` at `line` is suppressed by a marker.
    pub fn allowed(&self, rule: Rule, line: u32) -> bool {
        self.allows.iter().any(|m| {
            m.rule == Some(rule)
                && m.justified
                && (m.file_level || m.line == line || m.next_code_line == line)
        })
    }

    /// Findings about the markers themselves: unknown rule names and missing
    /// justifications. These are never suppressible.
    pub fn marker_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for m in &self.allows {
            if m.rule.is_none() {
                out.push(Finding {
                    file: self.rel.clone(),
                    line: m.line,
                    rule: Rule::Marker,
                    message: format!(
                        "allow marker names unknown rule `{}` (known: {})",
                        m.raw_rule,
                        Rule::catalog()
                    ),
                });
            } else if !m.justified {
                out.push(Finding {
                    file: self.rel.clone(),
                    line: m.line,
                    rule: Rule::Marker,
                    message: format!(
                        "allow marker for `{}` has no justification; write \
                         `lifl-lint: allow({}) — <why this site is exempt>`",
                        m.raw_rule, m.raw_rule
                    ),
                });
            }
        }
        out
    }
}

/// Marks every token belonging to an item gated on tests: `#[test]`,
/// `#[cfg(test)]` and `#[cfg(any(.., test, ..))]` outer attributes, plus the
/// inner `#![cfg(test)]` form which gates the whole file.
fn compute_test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len()).filter(|&i| toks[i].is_code()).collect();
    let mut k = 0usize;
    while k < code.len() {
        if !toks[code[k]].is_punct("#") {
            k += 1;
            continue;
        }
        let mut j = k + 1;
        let inner = j < code.len() && toks[code[j]].is_punct("!");
        if inner {
            j += 1;
        }
        if j >= code.len() || !toks[code[j]].is_punct("[") {
            k += 1;
            continue;
        }
        let Some(close) = matching(toks, &code, j, "[", "]") else {
            break;
        };
        if !attr_is_test(toks, &code[j + 1..close]) {
            k = close + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole file is test code.
            mask.iter_mut().for_each(|m| *m = true);
            return mask;
        }
        // Skip any further outer attributes between this one and the item.
        let mut m = close + 1;
        while m + 1 < code.len() && toks[code[m]].is_punct("#") && toks[code[m + 1]].is_punct("[") {
            match matching(toks, &code, m + 1, "[", "]") {
                Some(c) => m = c + 1,
                None => break,
            }
        }
        let end = item_end(toks, &code, m).unwrap_or(code.len() - 1);
        // Mask the whole token range, comments included.
        for slot in mask[code[k]..=code[end]].iter_mut() {
            *slot = true;
        }
        k = end + 1;
    }
    mask
}

/// Index (into `code`) of the delimiter matching `code[open]`.
fn matching(toks: &[Tok], code: &[usize], open: usize, o: &str, c: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (k, &idx) in code.iter().enumerate().skip(open) {
        if toks[idx].is_punct(o) {
            depth += 1;
        } else if toks[idx].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// True when the attribute tokens (between `[` and `]`) gate on tests:
/// `test`, `cfg(test)`, or a `cfg(...)` whose predicate mentions the `test`
/// identifier.
fn attr_is_test(toks: &[Tok], attr: &[usize]) -> bool {
    let Some(&first) = attr.first() else {
        return false;
    };
    if toks[first].is_ident("test") {
        return true;
    }
    toks[first].is_ident("cfg") && attr.iter().any(|&i| toks[i].is_ident("test"))
}

/// Index (into `code`) of the last token of the item starting at `code[from]`:
/// the matching `}` of its first top-level `{`, or a top-level `;`.
fn item_end(toks: &[Tok], code: &[usize], from: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut k = from;
    while k < code.len() {
        let t = &toks[code[k]];
        if t.is_punct("{") && depth == 0 {
            return matching(toks, code, k, "{", "}");
        }
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(";") && depth == 0 {
            return Some(k);
        }
        k += 1;
    }
    None
}

/// Extracts allow markers from plain (non-doc) comment tokens. Grammar:
/// `lifl-lint: allow(<rule>) <sep> <justification>` or
/// `lifl-lint: allow-file(<rule>) <sep> <justification>`, where `<rule>` is a
/// rule name (`dead-pub`) or code (`R8`) and `<sep>` is optional punctuation.
/// Doc comments are exempt so prose can *describe* the marker syntax (as this
/// very comment does) without being parsed as a marker.
fn parse_allow_markers(toks: &[Tok]) -> Vec<AllowMarker> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_comment() || t.kind == TokKind::DocComment {
            continue;
        }
        let Some(at) = t.text.find("lifl-lint:") else {
            continue;
        };
        let rest = t.text[at + "lifl-lint:".len()..].trim_start();
        let file_level = rest.starts_with("allow-file(");
        let prefix = if file_level { "allow-file(" } else { "allow(" };
        let Some(body) = rest.strip_prefix(prefix) else {
            continue;
        };
        let Some(close) = body.find(')') else {
            continue;
        };
        let raw_rule = body[..close].trim().to_string();
        let tail = body[close + 1..]
            .trim_matches(|c: char| c == '*' || c == '/')
            .trim_start_matches(|c: char| {
                c.is_whitespace() || c == '-' || c == '—' || c == '–' || c == ':'
            });
        let next_code_line = toks[i + 1..]
            .iter()
            .find(|n| n.is_code() && n.line > t.line)
            .map(|n| n.line)
            .unwrap_or(t.line);
        out.push(AllowMarker {
            rule: Rule::from_marker_name(&raw_rule),
            raw_rule,
            line: t.line,
            file_level,
            justified: !tail.trim().is_empty(),
            next_code_line,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("x.rs".into(), src)
    }

    fn ident_is_test(f: &SourceFile, name: &str) -> bool {
        let idx = f
            .toks
            .iter()
            .position(|t| t.is_ident(name))
            .expect("token present");
        f.is_test(idx)
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let f = file(
            "fn live() { work(); }\n\
             #[cfg(test)]\nmod tests {\n fn t() { dead(); }\n}\n\
             fn live2() { more(); }\n",
        );
        assert!(!ident_is_test(&f, "work"));
        assert!(ident_is_test(&f, "dead"));
        assert!(!ident_is_test(&f, "more"));
    }

    #[test]
    fn test_attr_fn_is_masked() {
        let f = file("#[test]\nfn check() { probe(); }\nfn live() { real(); }\n");
        assert!(ident_is_test(&f, "probe"));
        assert!(!ident_is_test(&f, "real"));
    }

    #[test]
    fn cfg_any_test_is_masked() {
        let f = file("#[cfg(any(test, feature = \"x\"))]\nfn helper() { gated(); }\n");
        assert!(ident_is_test(&f, "gated"));
    }

    #[test]
    fn other_attrs_are_not_test() {
        let f = file("#[derive(Debug)]\nstruct S { a: u32 }\nfn live() { real(); }\n");
        assert!(!ident_is_test(&f, "real"));
        assert!(!ident_is_test(&f, "a"));
    }

    #[test]
    fn stacked_attributes_are_covered() {
        let f = file("#[cfg(test)]\n#[allow(dead_code)]\nfn t() { dead(); }\nfn l() { live(); }\n");
        assert!(ident_is_test(&f, "dead"));
        assert!(!ident_is_test(&f, "live"));
    }

    #[test]
    fn inner_cfg_test_masks_whole_file() {
        let f = file("#![cfg(test)]\nfn anything() { dead(); }\n");
        assert!(ident_is_test(&f, "dead"));
    }

    #[test]
    fn semicolon_items_end_the_span() {
        let f = file("#[cfg(test)]\nuse std::collections::HashMap;\nfn live() { real(); }\n");
        assert!(ident_is_test(&f, "HashMap"));
        assert!(!ident_is_test(&f, "real"));
    }

    #[test]
    fn line_marker_applies_to_next_code_line() {
        let f = file(
            "// lifl-lint: allow(dead-pub) — justified reason\n\
             pub fn a() {}\npub fn b() {}\n",
        );
        assert!(f.allowed(Rule::DeadPub, 2));
        assert!(!f.allowed(Rule::DeadPub, 3));
        assert!(f.marker_findings().is_empty());
    }

    #[test]
    fn marker_without_justification_is_reported() {
        let f = file("// lifl-lint: allow(dead-pub)\npub fn a() {}\n");
        assert!(!f.allowed(Rule::DeadPub, 2));
        let findings = f.marker_findings();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no justification"));
    }

    #[test]
    fn marker_with_unknown_rule_is_reported() {
        let f = file("// lifl-lint: allow(bogus) — whatever\n");
        let findings = f.marker_findings();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unknown rule"));
    }

    #[test]
    fn file_marker_covers_every_line() {
        let f = file(
            "// lifl-lint: allow-file(unsafe) — sanctioned allocator impl\n\
             fn a() {}\nfn b() {}\n",
        );
        assert!(f.allowed(Rule::UnsafeContainment, 3));
    }

    #[test]
    fn rule_codes_work_as_marker_names() {
        let f = file("// lifl-lint: allow(R8) — reason\npub fn a() {}\n");
        assert!(f.allowed(Rule::DeadPub, 2));
    }
}
