//! The source lint pass (`cargo xtask lint`).
//!
//! Three checks, all source-text scans so they cost nothing to run and
//! cannot be silenced by `cfg` tricks. The scans are **token-aware**:
//! a [`strip_code`] pre-pass blanks out string literals (including
//! multi-line, raw `r#"…"#` and byte forms), character literals, and
//! `//` / nested `/* … */` comments, so the pattern checks below only
//! ever see executable code — `".unwrap()"` inside a diagnostic string
//! or a comment is not a panic site, and the word `unsafe` in a doc
//! sentence is not an unsafe site. `cargo xtask lint --self-test`
//! proves both directions on seeded fixtures.
//!
//! 1. **Unsafe-forbid**: every compilation root in the workspace —
//!    crate `lib.rs`/`main.rs`, every `src/bin/*.rs`, every bench and
//!    example — must carry a literal `#![forbid(unsafe_code)]`. The
//!    accelerator model is pure arithmetic; nothing here justifies
//!    `unsafe`, including the glue binaries. Sole exception: the
//!    `abm-kernel` root carries `#![deny(unsafe_code)]` instead, so
//!    its one intrinsics module can opt back in (see check 3).
//! 2. **Panic-free core**: the non-test portions of the crates
//!    `PANIC_FREE_CRATES` names may not call `.unwrap()`,
//!    `.expect(...)` or `panic!` — errors in the numeric core must be
//!    `Result`s or proven-unreachable states. Files listed in `xtask/lint-allow.txt` are exempt, but
//!    every surviving site in them must carry an `// INVARIANT:` comment
//!    (same line or the two lines above) naming the invariant that makes
//!    it unreachable.
//!    Allowlist entries that no longer match any site are themselves
//!    errors, so the list can only shrink.
//! 3. **Unsafe island**: the token `unsafe` may appear in exactly one
//!    first-party file — `crates/kernel/src/x86.rs`, the SIMD
//!    intrinsics module — and every `unsafe` site there must carry an
//!    `// INVARIANT:` comment naming the contract that makes it sound.
//!    The island going empty is itself an error (shrink the allowance
//!    when the code no longer needs it).
//!
//! Vendored crates (`vendor/`) are third-party stand-ins and are not
//! scanned.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose non-test code must be panic-free: everything on the
/// path from a model file to an inference result or a cycle count,
/// plus the fault/error layer itself (an error path that panics
/// defeats the whole subsystem), the lowering verifier (the one
/// load-time validator: a corrupt code it is handed is a defect, not a
/// crash), the metrics registry (observation that can abort the
/// observed process is worse than no observation) and the server (a
/// request, well-formed or not, gets a typed reply, never a dead
/// worker).
const PANIC_FREE_CRATES: [&str; 10] = [
    "tensor", "sparse", "conv", "pool", "sim", "fault", "verify", "kernel", "metrics", "serve",
];

/// Relative path of the panic-site allowlist.
const ALLOWLIST: &str = "xtask/lint-allow.txt";

/// The one first-party file allowed to contain `unsafe`: the
/// runtime-dispatched SIMD intrinsics behind `abm-kernel`'s safe trait.
const UNSAFE_ISLAND: &str = "crates/kernel/src/x86.rs";

/// Compilation roots that trade `forbid` for `deny` so a module-scoped
/// `#![allow(unsafe_code)]` in [`UNSAFE_ISLAND`] can opt back in.
const DENY_UNSAFE_ROOTS: [&str; 1] = ["crates/kernel/src/lib.rs"];

/// Runs all three lint checks, printing a summary line per pass.
/// Returns an error listing every violation if any check fails.
pub fn run(root: &Path) -> Result<(), String> {
    let mut errors = Vec::new();

    let roots = compilation_roots(root)?;
    for file in &roots {
        let text = read(file)?;
        let rel_path = rel(root, file);
        if DENY_UNSAFE_ROOTS.contains(&rel_path.as_str()) {
            // The kernel root downgrades to `deny` — still a hard error
            // crate-wide, but overridable by the island's module-scoped
            // allow (forbid would reject that override outright).
            if !text.lines().any(|l| l.trim() == "#![deny(unsafe_code)]") {
                errors.push(format!(
                    "{rel_path}: kernel root missing #![deny(unsafe_code)]"
                ));
            }
        } else if !text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]") {
            errors.push(format!(
                "{rel_path}: compilation root missing #![forbid(unsafe_code)]"
            ));
        }
    }
    println!("lint: {} compilation roots forbid unsafe code", roots.len());

    let allow = load_allowlist(root)?;
    let mut allow_hits = vec![0usize; allow.len()];
    let mut files = 0usize;
    let mut sites = 0usize;
    for krate in PANIC_FREE_CRATES {
        for file in rust_files(&root.join("crates").join(krate).join("src"))? {
            let text = read(&file)?;
            let rel_path = rel(root, &file);
            let allowed = allow.iter().position(|a| *a == rel_path);
            let found = scan_panics(&rel_path, &text, allowed.is_some(), &mut errors);
            if let Some(i) = allowed {
                allow_hits[i] += found;
            }
            sites += found;
            files += 1;
        }
    }
    for (entry, hits) in allow.iter().zip(&allow_hits) {
        if *hits == 0 {
            errors.push(format!(
                "{ALLOWLIST}: stale entry '{entry}' (no panic sites remain — delete it)"
            ));
        }
    }
    println!(
        "lint: {files} core files scanned, {sites} panic sites, {} allowlist entries",
        allow.len()
    );

    let (island_files, island_sites) = scan_unsafe_island(root, &mut errors)?;
    println!(
        "lint: {island_files} files swept for `unsafe`, {island_sites} island sites justified"
    );

    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "lint failed with {} violation(s):\n  {}",
            errors.len(),
            errors.join("\n  ")
        ))
    }
}

/// Every file rustc treats as a compilation root: workspace and crate
/// libs, binaries, benches and examples. Vendored crates excluded.
fn compilation_roots(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut roots = Vec::new();
    let push_if_file = |p: PathBuf, roots: &mut Vec<PathBuf>| {
        if p.is_file() {
            roots.push(p);
        }
    };
    push_if_file(root.join("src/lib.rs"), &mut roots);
    push_if_file(root.join("xtask/src/main.rs"), &mut roots);
    for dir in ["src/bin", "examples"] {
        roots.extend(rust_files_flat(&root.join(dir))?);
    }
    for krate in list_dirs(&root.join("crates"))? {
        push_if_file(krate.join("src/lib.rs"), &mut roots);
        push_if_file(krate.join("src/main.rs"), &mut roots);
        roots.extend(rust_files_flat(&krate.join("src/bin"))?);
        roots.extend(rust_files_flat(&krate.join("benches"))?);
    }
    roots.sort();
    Ok(roots)
}

/// Sweeps every first-party Rust source for the `unsafe` keyword. Sites
/// outside [`UNSAFE_ISLAND`] are violations; sites inside it must carry
/// an `INVARIANT:` comment, and the island going site-free is an error
/// (the allowance should be deleted along with the last intrinsic).
/// Returns `(files_swept, justified_island_sites)`.
fn scan_unsafe_island(root: &Path, errors: &mut Vec<String>) -> Result<(usize, usize), String> {
    // xtask itself is excluded: this very scanner must name the token in
    // its diagnostics, and check 1's `#![forbid(unsafe_code)]` already
    // makes unsafe code in xtask a compile error.
    let mut dirs = vec![
        root.join("src"),
        root.join("tests"),
        root.join("examples"),
        root.join("benches"),
    ];
    for krate in list_dirs(&root.join("crates"))? {
        for sub in ["src", "tests", "examples", "benches"] {
            dirs.push(krate.join(sub));
        }
    }
    let mut files = 0usize;
    let mut island_sites = 0usize;
    for dir in dirs {
        if !dir.is_dir() {
            continue;
        }
        for file in rust_files(&dir)? {
            files += 1;
            let text = read(&file)?;
            let rel_path = rel(root, &file);
            island_sites += scan_unsafe_file(&rel_path, &text, errors);
        }
    }
    if island_sites == 0 {
        errors.push(format!(
            "{UNSAFE_ISLAND}: island has no `unsafe` sites left — remove it from the lint allowance"
        ));
    }
    Ok((files, island_sites))
}

/// Scans one file's source for `unsafe` sites (detection runs on the
/// [`strip_code`] view, so the word in strings or comments never
/// counts). Outside [`UNSAFE_ISLAND`] every site is a violation; inside
/// it each site must carry an `// INVARIANT:` comment. Returns the
/// number of justified island sites.
fn scan_unsafe_file(rel_path: &str, text: &str, errors: &mut Vec<String>) -> usize {
    let is_island = rel_path == UNSAFE_ISLAND;
    let lines: Vec<&str> = text.lines().collect();
    let stripped = strip_code(text);
    let mut island_sites = 0usize;
    for (i, code) in stripped.lines().enumerate() {
        // `unsafe_code` in a lint attribute is not a site; any other
        // appearance of the keyword in executable code is.
        if !code.replace("unsafe_code", "").contains("unsafe") {
            continue;
        }
        if !is_island {
            errors.push(format!(
                "{rel_path}:{}: `unsafe` outside the kernel island ({UNSAFE_ISLAND}): {}",
                i + 1,
                lines[i].trim()
            ));
        } else if !has_invariant(&lines, i) {
            errors.push(format!(
                "{rel_path}:{}: island `unsafe` site lacks an // INVARIANT: comment",
                i + 1
            ));
        } else {
            island_sites += 1;
        }
    }
    island_sites
}

/// True if the site at `lines[i]` is justified by an `INVARIANT:`
/// comment — on the site line itself, within the two lines above
/// (multi-line call chains), or anywhere in the contiguous comment
/// block directly above the site.
fn has_invariant(lines: &[&str], i: usize) -> bool {
    let mut justified = (i.saturating_sub(2)..=i).any(|j| lines[j].contains("INVARIANT:"));
    let mut j = i;
    while !justified && j > 0 {
        j -= 1;
        let above = lines[j].trim_start();
        if above.starts_with("//") {
            justified = above.contains("INVARIANT:");
        } else if j < i.saturating_sub(2) {
            break;
        }
    }
    justified
}

/// Scans one core file for panic sites before its `#[cfg(test)]`
/// module. Detection runs on the [`strip_code`] view — `.unwrap()`
/// spelled inside a string literal or a comment is not a site — while
/// the `// INVARIANT:` justification is looked up in the original text
/// (the comments the stripper removes are exactly where it lives).
/// Returns the number of sites found; pushes an error for each site
/// that is not allowlisted or lacks its `// INVARIANT:` comment.
fn scan_panics(rel_path: &str, text: &str, allowed: bool, errors: &mut Vec<String>) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    let stripped = strip_code(text);
    let code_lines: Vec<&str> = stripped.lines().collect();
    // Repository convention: the test module is the tail of the file.
    let cutoff = code_lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(code_lines.len());
    let mut found = 0;
    for (i, code) in code_lines[..cutoff].iter().enumerate() {
        if !(code.contains(".unwrap()") || code.contains(".expect(") || code.contains("panic!")) {
            continue;
        }
        found += 1;
        let justified = has_invariant(&lines, i);
        if !allowed {
            errors.push(format!(
                "{rel_path}:{}: panic site in non-allowlisted core file: {}",
                i + 1,
                lines[i].trim()
            ));
        } else if !justified {
            errors.push(format!(
                "{rel_path}:{}: allowlisted panic site lacks an // INVARIANT: comment",
                i + 1
            ));
        }
    }
    found
}

/// Replaces every non-code character of a Rust source with a space,
/// preserving newlines: the contents of string literals (plain,
/// multi-line, raw `r#"…"#`, byte `b"…"` and raw-byte `br#"…"#`
/// forms), character literals, and `//` line / nested `/* … */` block
/// comments all become blanks, so downstream pattern scans only match
/// executable code. Lifetimes (`'a`) are left intact — a lone `'`
/// opens a character literal only when one actually closes it.
fn strip_code(text: &str) -> String {
    let b: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // Line comment: blank to end of line (covers `///` and `//!`).
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment, which nests in Rust.
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw / byte string prefixes: `r`, `b`, `br` followed by `#`s
        // and `"` — only when not the tail of a longer identifier.
        if (c == 'r' || c == 'b') && (i == 0 || !is_ident(b[i - 1])) {
            let mut j = i + 1;
            let mut raw = c == 'r';
            if c == 'b' && b.get(j) == Some(&'r') {
                raw = true;
                j += 1;
            }
            let mut hashes = 0usize;
            while raw && b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&'"') && (raw || c == 'b') {
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                if raw {
                    // Raw string: no escapes; closes at `"` + hashes.
                    while i < b.len() {
                        if b[i] == '"'
                            && i + hashes < b.len()
                            && b[i + 1..=i + hashes].iter().all(|&h| h == '#')
                        {
                            for _ in 0..=hashes {
                                out.push(' ');
                            }
                            i += 1 + hashes;
                            break;
                        }
                        out.push(blank(b[i]));
                        i += 1;
                    }
                } else {
                    i = consume_quoted(&b, i, &mut out);
                }
                continue;
            }
        }
        // Plain string literal (may span lines).
        if c == '"' {
            out.push(' ');
            i = consume_quoted(&b, i + 1, &mut out);
            continue;
        }
        // Character literal vs lifetime: `'` opens a literal only if a
        // closing `'` follows one (possibly escaped) character.
        if c == '\'' {
            if b.get(i + 1) == Some(&'\\') {
                out.push_str("  ");
                i += 2;
                if i < b.len() {
                    // The escaped character itself (possibly the quote).
                    out.push(blank(b[i]));
                    i += 1;
                }
                while i < b.len() && b[i] != '\'' {
                    out.push(blank(b[i]));
                    i += 1;
                }
                if i < b.len() {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            if b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\'') {
                out.push_str("   ");
                i += 3;
                continue;
            }
            // A lifetime: keep the tick, the name is ordinary code.
            out.push('\'');
            i += 1;
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Blanks a (non-raw) quoted literal body starting *inside* the quotes
/// at `i`, honouring `\"` / `\\` escapes; returns the index just past
/// the closing quote.
fn consume_quoted(b: &[char], mut i: usize, out: &mut String) -> usize {
    while i < b.len() {
        match b[i] {
            '\\' => {
                out.push(' ');
                if let Some(&next) = b.get(i + 1) {
                    // A `\<newline>` continuation must keep its newline
                    // so line numbers stay aligned with the original.
                    out.push(if next == '\n' { '\n' } else { ' ' });
                }
                i += 2;
            }
            '"' => {
                out.push(' ');
                return i + 1;
            }
            c => {
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
        }
    }
    i
}

/// `cargo xtask lint --self-test`: proves the token-aware scanner on
/// seeded in-memory fixtures — panic/unsafe tokens inside strings,
/// raw strings, char literals and comments must NOT be reported
/// (false-positive seeds), and real sites on the same lines as those
/// decoys MUST be (true-positive seeds). A scanner regression that
/// starts matching prose, or stops matching code, fails this gate.
pub fn self_test() -> Result<(), String> {
    let mut failures = Vec::new();

    // Seeded false positives: every panic/unsafe token below is inside
    // a literal or a comment, so a sound scanner reports nothing.
    let clean = r##"//! Doc prose naming .unwrap(), .expect("x"), panic! and unsafe.
fn decoys() -> String {
    /* a block comment with .unwrap() and unsafe,
       /* nested, with panic!("still a comment") */
       spanning lines */
    let a = "string with .unwrap() and panic!(\"escaped \\\" quote\") inside";
    let b = r#"raw string with .expect("y") and unsafe { }"#;
    let c = br"raw byte string: .unwrap()";
    let d = b"byte string: panic!";
    let e = '"'; // a char-literal quote must not open a string
    let f = '\''; // nor an escaped quote close one early
    let g: &'static str = "lifetime tick, then a real string";
    let h = "multi-line string
             with .unwrap() on the continuation line";
    format!("{a}{b}{c:?}{d:?}{e}{f}{g}{h}")
}
"##;
    let mut errors = Vec::new();
    let sites = scan_panics("fixture/clean.rs", clean, false, &mut errors);
    if sites != 0 || !errors.is_empty() {
        failures.push(format!(
            "false-positive fixture: expected 0 panic sites, found {sites} ({errors:?})"
        ));
    }
    let mut errors = Vec::new();
    scan_unsafe_file("fixture/clean.rs", clean, &mut errors);
    if !errors.is_empty() {
        failures.push(format!(
            "false-positive fixture: expected 0 unsafe sites ({errors:?})"
        ));
    }

    // Seeded true positives: real sites sharing lines with decoy
    // literals must still be caught.
    let dirty = r#"fn real() {
    let x: Option<u32> = None;
    let msg = ".unwrap() in a string"; x.unwrap();
    unsafe { core::hint::unreachable_unchecked() } // prose: unsafe
    std::option::Option::<&str>::None.expect("boom");
    panic!("third site");
}
"#;
    let mut errors = Vec::new();
    let sites = scan_panics("fixture/dirty.rs", dirty, false, &mut errors);
    if sites != 3 || errors.len() != 3 {
        failures.push(format!(
            "true-positive fixture: expected 3 panic sites / 3 errors, got {sites} / {}",
            errors.len()
        ));
    }
    let mut errors = Vec::new();
    scan_unsafe_file("fixture/dirty.rs", dirty, &mut errors);
    if errors.len() != 1 {
        failures.push(format!(
            "true-positive fixture: expected 1 unsafe violation, got {}",
            errors.len()
        ));
    }

    // Allowlisted sites still demand their INVARIANT comment.
    let allowlisted = r#"fn justified(v: &[u32]) -> u32 {
    // INVARIANT: callers index within v's length, checked at encode.
    *v.first().unwrap()
}
fn unjustified(v: &[u32]) -> u32 {
    *v.last().unwrap()
}
"#;
    let mut errors = Vec::new();
    let sites = scan_panics("fixture/allowed.rs", allowlisted, true, &mut errors);
    if sites != 2 || errors.len() != 1 {
        failures.push(format!(
            "allowlist fixture: expected 2 sites / 1 unjustified, got {sites} / {}",
            errors.len()
        ));
    }

    if failures.is_empty() {
        println!("lint --self-test: scanner fixtures all behave");
        Ok(())
    } else {
        Err(format!(
            "lint self-test failed:\n  {}",
            failures.join("\n  ")
        ))
    }
}

/// Parses `xtask/lint-allow.txt`: one repo-relative path per line,
/// `#` comments and blank lines ignored.
fn load_allowlist(root: &Path) -> Result<Vec<String>, String> {
    let path = root.join(ALLOWLIST);
    let text = read(&path)?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))? {
            let path = entry.map_err(|e| format!("{}: {e}", d.display()))?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// All `.rs` files directly inside `dir` (empty if it doesn't exist).
fn rust_files_flat(dir: &Path) -> Result<Vec<PathBuf>, String> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Immediate subdirectories of `dir`, sorted.
fn list_dirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = strip_code("let x = 1; // .unwrap()\n/* panic! */ let y;\n");
        assert_eq!(s.lines().next().unwrap().trim_end(), "let x = 1;");
        assert!(!s.contains("panic!"));
        assert!(s.contains("let y;"));
    }

    #[test]
    fn strips_nested_block_comments() {
        let s = strip_code("a /* one /* two */ still */ b");
        assert_eq!(s.replace(' ', ""), "ab");
    }

    #[test]
    fn strips_string_bodies_but_keeps_code() {
        let s = strip_code(r#"call(".unwrap()", x.unwrap())"#);
        assert_eq!(s.matches(".unwrap()").count(), 1);
        let s = strip_code(r#"let a = "esc \" still string .expect(";"#);
        assert!(!s.contains(".expect("));
        assert!(s.ends_with(';'));
    }

    #[test]
    fn strips_raw_and_byte_strings() {
        assert!(!strip_code(r###"let a = r#"panic!"#;"###).contains("panic!"));
        assert!(!strip_code(r#"let a = br"panic!";"#).contains("panic!"));
        assert!(!strip_code(r#"let a = b"panic!";"#).contains("panic!"));
        // An identifier ending in `r` does not open a raw string.
        let s = strip_code(r#"hasher "panic!" done"#);
        assert!(s.contains("hasher"));
        assert!(!s.contains("panic!"));
        assert!(s.contains("done"));
    }

    #[test]
    fn char_literal_quote_does_not_open_a_string() {
        let s = strip_code(r#"let q = '"'; x.unwrap();"#);
        assert!(s.contains(".unwrap()"));
        let s = strip_code(r#"let q = '\''; x.unwrap();"#);
        assert!(s.contains(".unwrap()"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = strip_code(r#"fn f<'a>(x: &'a str) { x.to_string().expect("boom"); }"#);
        assert!(s.contains(".expect("));
        assert!(!s.contains("boom"));
    }

    #[test]
    fn multiline_strings_keep_line_numbering() {
        let src = "let a = \"line one\nline two .unwrap()\";\nx.unwrap();\n";
        let s = strip_code(src);
        assert_eq!(s.lines().count(), src.lines().count());
        let hits: Vec<usize> = s
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(".unwrap()"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits, vec![2]);
    }

    #[test]
    fn self_test_passes() {
        self_test().unwrap();
    }
}
