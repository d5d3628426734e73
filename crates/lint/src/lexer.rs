//! A minimal line-oriented Rust lexer — just enough structure for the lint
//! rules, with no syntax tree.
//!
//! For every source line the lexer produces:
//!
//! * `code` — the line with comments removed and string/char literal
//!   *contents* blanked (the quotes remain). Token matching on `code` can
//!   therefore never be fooled by a `panic!` spelled inside a string or a
//!   `HashMap` mentioned in a doc comment.
//! * `comment` — the text of the line's `//` comment, if any, for waiver
//!   parsing.
//! * `in_test` — whether the line sits inside a `#[cfg(test)]` item (the
//!   attribute line itself included). Rules that police library code skip
//!   these lines.
//!
//! Known heuristic limits, acceptable for this workspace and documented in
//! DESIGN.md §13: `#[cfg(test)]` is assumed to gate a braced item (a `;`
//! before any `{` cancels the region), and block comments never carry
//! waivers.

/// One lexed source line.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code text: comments stripped, literal contents blanked.
    pub code: String,
    /// Trailing (or whole-line) `//` comment text, without the slashes.
    pub comment: Option<String>,
    /// True inside `#[cfg(test)]`-gated items.
    pub in_test: bool,
    /// True inside items or statements gated on `debug_assertions` — code
    /// that is compiled out of every release build, so out of the hot
    /// paths the transitive proofs cover.
    pub in_debug: bool,
}

/// A fully lexed file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Per-line views, index 0 = line 1.
    pub lines: Vec<Line>,
}

impl Lexed {
    /// 1-based accessor used by rules; panics on out-of-range internally
    /// only, never on user input.
    pub fn line(&self, n: usize) -> &Line {
        &self.lines[n - 1]
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
}

/// Lex `src` into per-line code/comment views.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let mut state = State::Normal;
    let mut code = String::new();
    let mut comment = String::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;

    macro_rules! push_line {
        () => {
            out.lines.push(Line {
                code: std::mem::take(&mut code),
                comment: if comment.is_empty() {
                    None
                } else {
                    Some(std::mem::take(&mut comment))
                },
                in_test: false,
                in_debug: false,
            });
            comment.clear();
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            // A newline terminates line comments; strings and block
            // comments continue across it.
            if state == State::LineComment {
                state = State::Normal;
            }
            push_line!();
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                let next = bytes.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Str { raw_hashes: None };
                    code.push('"');
                    i += 1;
                    continue;
                }
                // The `r`/`b` must start its own token: an identifier that
                // happens to end in `r` directly before a string literal
                // (macro grammars allow it) is not a raw-string opener.
                let at_word_start =
                    i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == '_');
                if (c == 'r' || c == 'b') && at_word_start && is_raw_string_start(&bytes, i) {
                    let (hashes, skip) = raw_string_open(&bytes, i);
                    state = State::Str {
                        raw_hashes: Some(hashes),
                    };
                    code.push('"');
                    i += skip;
                    continue;
                }
                if c == '\'' {
                    // Char literal or lifetime. A char literal closes within
                    // a few characters; a lifetime never has a closing quote.
                    if let Some(len) = char_literal_len(&bytes, i) {
                        code.push('\'');
                        code.push('\'');
                        i += len;
                        continue;
                    }
                }
                code.push(c);
                i += 1;
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = bytes.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    i += 1;
                }
            }
            State::Str { raw_hashes } => {
                match raw_hashes {
                    None => {
                        if c == '\\' {
                            // Skip the escaped character, except a newline
                            // (a `\` line continuation), which is left for
                            // the top-of-loop handler so per-line accounting
                            // stays exact.
                            i += if bytes.get(i + 1) == Some(&'\n') {
                                1
                            } else {
                                2
                            };
                            continue;
                        }
                        if c == '"' {
                            code.push('"');
                            state = State::Normal;
                        }
                    }
                    Some(h) => {
                        if c == '"' && closes_raw_string(&bytes, i, h) {
                            code.push('"');
                            state = State::Normal;
                            i += h as usize;
                        }
                    }
                }
                i += 1;
            }
        }
    }
    // Final line (no trailing newline case).
    out.lines.push(Line {
        code,
        comment: if comment.is_empty() {
            None
        } else {
            Some(comment)
        },
        in_test: false,
        in_debug: false,
    });
    mark_test_regions(&mut out.lines);
    mark_debug_regions(&mut out.lines);
    out
}

/// `r"`, `r#`, `br"`, `br#` ahead at `i`?
fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
        if bytes.get(j) != Some(&'r') {
            return false;
        }
    }
    if bytes.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Number of `#`s and total chars consumed by the raw-string opener.
fn raw_string_open(bytes: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    j += 1; // the 'r'
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // the opening quote
    (hashes, j - i)
}

/// Does the `"` at `i` close a raw string opened with `hashes` hashes?
fn closes_raw_string(bytes: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Length of the char literal starting at the `'` at `i`, or `None` if this
/// is a lifetime.
fn char_literal_len(bytes: &[char], i: usize) -> Option<usize> {
    match bytes.get(i + 1)? {
        '\\' => {
            // Escape: find the closing quote within a short window
            // (longest escapes are \u{10FFFF}).
            (i + 3..(i + 12).min(bytes.len()))
                .find(|&j| bytes[j] == '\'')
                .map(|j| j - i + 1)
        }
        _ => (bytes.get(i + 2) == Some(&'\'')).then_some(3),
    }
}

/// Mark lines inside `#[cfg(test)]`-gated items.
///
/// Heuristic: after the attribute, the next `{` at or below the attribute's
/// depth opens the gated item; the region closes with its matching `}`. A
/// `;` before any `{` cancels (attribute on a braceless item).
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i32 = 0;
    let mut pending = false;
    let mut inside = false;
    let mut close_depth: i32 = 0;
    for line in lines.iter_mut() {
        if !inside
            && (line.code.contains("#[cfg(test)]")
                || line.code.contains("#[cfg(all(test")
                || line.code.contains("#[cfg(any(test"))
        {
            pending = true;
        }
        let mut line_touched_test = pending || inside;
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending {
                        pending = false;
                        inside = true;
                        close_depth = depth;
                        line_touched_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if inside && depth == close_depth {
                        inside = false;
                        line_touched_test = true;
                    }
                }
                ';' if pending => pending = false,
                _ => {}
            }
        }
        line.in_test = line_touched_test || inside;
    }
}

/// Mark lines inside items or statements gated on `debug_assertions` —
/// `#[cfg(debug_assertions)]`, `#[cfg(any(debug_assertions, ...))]` and
/// friends. No feature arms them in a release build, so these lines are
/// compiled out of every one and the release-proof rules (transitive
/// panic/det) skip them.
///
/// Unlike the test-region heuristic, a debug gate may sit on a *statement*
/// (the validator replay tail in the schedulers): the region therefore
/// extends to the gated item's matching `}` **or** to the first `;` at
/// paren-depth 0 before any `{` opens — whichever comes first. Known
/// approximation (DESIGN.md §13): a brace opening inside a gated braceless
/// statement (a block-bodied closure argument) ends the region at that
/// brace's close rather than the statement's `;`.
fn mark_debug_regions(lines: &mut [Line]) {
    // The attribute's cfg predicate is matched textually on the code line;
    // string contents are blanked by the lexer, so `"debug_assertions"`
    // inside a literal never opens a region.
    fn is_debug_gate(code: &str) -> bool {
        let Some(pos) = code.find("#[cfg(") else {
            return false;
        };
        code[pos..].contains("debug_assertions")
    }
    let mut depth: i32 = 0;
    let mut paren: i32 = 0;
    let mut pending = false;
    let mut inside = false;
    let mut close_depth: i32 = 0;
    for line in lines.iter_mut() {
        if !inside && !pending && is_debug_gate(&line.code) {
            pending = true;
            paren = 0;
        }
        let mut touched = pending || inside;
        for c in line.code.chars() {
            match c {
                '(' | '[' => paren += 1,
                ')' | ']' => paren -= 1,
                '{' => {
                    if pending {
                        pending = false;
                        inside = true;
                        close_depth = depth;
                        touched = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if inside && depth == close_depth {
                        inside = false;
                        touched = true;
                    }
                }
                ';' if pending && paren <= 0 => {
                    // Braceless gated statement ends here; the attribute
                    // line through this line are all debug-only.
                    pending = false;
                    touched = true;
                }
                _ => {}
            }
        }
        line.in_debug = touched || inside;
    }
}

/// Blank `#[...]` / `#![...]` attribute spans in a code line (bracket
/// nesting respected), so token scans never mistake attribute brackets for
/// slice indexing or attribute arguments for calls. Returns the code with
/// attribute bytes replaced by spaces (columns preserved).
pub fn strip_attributes(code: &str) -> String {
    let chars: Vec<char> = code.chars().collect();
    let mut out: Vec<char> = chars.clone();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '#' {
            let mut j = i + 1;
            if chars.get(j) == Some(&'!') {
                j += 1;
            }
            if chars.get(j) == Some(&'[') {
                let mut depth = 0i32;
                let mut k = j;
                while k < chars.len() {
                    match chars[k] {
                        '[' => depth += 1,
                        ']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let end = if k < chars.len() { k + 1 } else { chars.len() };
                for slot in out.iter_mut().take(end).skip(i) {
                    *slot = ' ';
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_blanks_strings() {
        let l = lex("let x = \"unwrap()\"; // trailing unwrap()\n");
        assert_eq!(l.lines[0].code, "let x = \"\"; ");
        assert_eq!(l.lines[0].comment.as_deref(), Some(" trailing unwrap()"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let l = lex("a /* one /* two */ still */ b\nc /* open\nclose */ d\n");
        assert_eq!(l.lines[0].code, "a  b");
        assert_eq!(l.lines[1].code, "c ");
        assert_eq!(l.lines[2].code, " d");
    }

    #[test]
    fn raw_strings_and_escapes() {
        let l = lex("let a = r#\"has \"quotes\" and \\\"#; let b = \"\\\"esc\\\"\";\n");
        assert_eq!(l.lines[0].code, "let a = \"\"; let b = \"\";");
    }

    #[test]
    fn backslash_continuation_keeps_line_alignment() {
        // A `\` at end of line continues the string literal; the newline it
        // escapes must still produce a Line so later lines keep their
        // numbers.
        let src = "let a = \"one \\\n     two\";\nlet b = 1;\n";
        let l = lex(src);
        assert_eq!(l.lines.len(), 4, "three source lines + trailing");
        assert_eq!(l.lines[0].code, "let a = \"");
        assert_eq!(l.lines[1].code, "\";");
        assert_eq!(l.lines[2].code, "let b = 1;");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let l = lex("fn f<'a>(x: &'a str) { let c = '{'; let d = '\\n'; }\n");
        // The braces inside char literals are blanked; the fn braces remain.
        let opens = l.lines[0].code.matches('{').count();
        let closes = l.lines[0].code.matches('}').count();
        assert_eq!(opens, 1);
        assert_eq!(closes, 1);
    }

    #[test]
    fn test_regions_are_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let l = lex(src);
        assert!(!l.lines[0].in_test);
        assert!(l.lines[1].in_test, "attribute line");
        assert!(l.lines[2].in_test);
        assert!(l.lines[3].in_test);
        assert!(l.lines[4].in_test, "closing brace");
        assert!(!l.lines[5].in_test);
    }

    #[test]
    fn semicolon_cancels_pending_test_region() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() { x }\n";
        let l = lex(src);
        assert!(!l.lines[2].in_test);
    }

    #[test]
    fn deeply_nested_block_comments_close_at_the_right_depth() {
        // Three levels down and back up, with decoy `*/`-ish sequences.
        let l = lex("a /* 1 /* 2 /* 3 */ 2 */ 1 */ b\n/*/**/*/ c\n");
        assert_eq!(l.lines[0].code, "a  b");
        // `/*/**/*/` is a fully balanced nested comment: open, open,
        // close, close — nothing of it survives as code.
        assert_eq!(l.lines[1].code, " c");
    }

    #[test]
    fn nested_block_comment_reopening_on_the_same_line() {
        // The `/*` inside the outer comment nests; the single `*/` only
        // pops one level, so `still` stays commented.
        let l = lex("x /* outer /* inner */ still */ y /* tail */ z\n");
        assert_eq!(l.lines[0].code, "x  y  z");
    }

    #[test]
    fn raw_strings_with_hashes_inside_test_regions() {
        // The raw string carries braces, quotes, and a `#[cfg(test)]`
        // spelling — all literal content. The region must close at the
        // real `}` and the trailing library fn must stay unmarked.
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = r##\"{ \"# #[cfg(test)] }\"##;\n    fn t() {}\n}\npub fn lib() { x.unwrap() }\n";
        let l = lex(src);
        assert_eq!(l.lines[2].code, "    const S: &str = \"\";");
        assert!(l.lines[2].in_test, "raw-string line is inside the region");
        assert!(l.lines[4].in_test, "closing brace line");
        assert!(!l.lines[5].in_test, "library fn after the region");
        // Blanked braces: the raw string's `{`/`}` must not skew depth.
        assert_eq!(l.lines[2].code.matches('{').count(), 0);
    }

    #[test]
    fn identifier_ending_in_r_before_a_string_is_not_a_raw_string() {
        // `stringify!`-style macro grammars can juxtapose an ident and a
        // literal; the `r` of `var` must not open a raw string (which
        // would swallow the rest of the file).
        let l = lex("m!(var\"a\"); let ok = r\"real\";\n");
        assert_eq!(l.lines[0].code, "m!(var\"\"); let ok = \"\";");
    }

    #[test]
    fn rustfmt_skip_single_line_fn_keeps_code_and_strips_attribute() {
        let src = "#[rustfmt::skip] pub fn lut(i: usize) -> u64 { TABLE[i] }\n";
        let l = lex(src);
        assert!(!l.lines[0].in_test);
        assert!(!l.lines[0].in_debug);
        let stripped = strip_attributes(&l.lines[0].code);
        assert!(
            !stripped.contains("rustfmt"),
            "attribute must be blanked: {stripped}"
        );
        assert!(
            stripped.contains("TABLE[i]"),
            "real indexing must survive: {stripped}"
        );
        // Columns are preserved so diagnostics can still point into the line.
        assert_eq!(stripped.len(), l.lines[0].code.len());
    }

    #[test]
    fn debug_regions_cover_items_and_braceless_statements() {
        let src = "pub fn hot() {\n    work();\n    #[cfg(debug_assertions)]\n    Validator::new(x)\n        .with(|&b| quant(b, (g)))\n        .assert_valid(out);\n    more();\n}\n#[cfg(debug_assertions)]\nfn dbg_only() {\n    slow_check();\n}\nfn lib() {}\n";
        let l = lex(src);
        assert!(!l.lines[1].in_debug, "work() is release code");
        assert!(l.lines[2].in_debug, "attribute line");
        assert!(l.lines[3].in_debug && l.lines[4].in_debug && l.lines[5].in_debug);
        assert!(
            !l.lines[6].in_debug,
            "statement after the `;` is live again"
        );
        assert!(l.lines[9].in_debug && l.lines[10].in_debug && l.lines[11].in_debug);
        assert!(!l.lines[12].in_debug);
    }

    #[test]
    fn strip_attributes_handles_nested_brackets_and_inner_attrs() {
        let s = strip_attributes("#[cfg(any(test, feature = \"x\"))] fn f(a: [u32; 2]) { a[0] }");
        assert!(!s.contains("cfg"));
        assert!(s.contains("a[0]"));
        let s2 = strip_attributes("#![allow(dead_code)] x[i]");
        assert!(!s2.contains("allow"));
        assert!(s2.contains("x[i]"));
    }
}
