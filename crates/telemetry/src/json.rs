//! The workspace's one JSON writer and one JSON parser (no serde).
//!
//! **Writing.** Every exported document — the committed `BENCH_*.json`,
//! `REPRO_paper.json` and `FAULTS_campaign*.json`, traces, reports,
//! snapshots and dumps — is a [`Node`] tree. Containers are filled by
//! closures ([`Node::object`], [`Obj::array`], …), so a container closes
//! when its closure returns and a key can only go into an object.
//! Strings go through [`escape`]; integers are written from their own
//! type, so `u64::MAX` is exact; an `f64` is written in shortest
//! round-trip form, or at a stated number of decimals by
//! [`Node::fixed`]; a non-finite float is `null`.
//!
//! [`Node::render`] applies one layout rule. A container is written on
//! one line (`, ` between members, `: ` after a key) or broken, one
//! member a line, indented two spaces a level:
//!
//! 1. A container that holds an array of containers breaks.
//! 2. Otherwise, a container that is an element of an array is written
//!    on one line, with everything inside it.
//! 3. Any other container breaks only if it holds a container.
//!
//! So every trial record, serve leg and trace event is one line. A
//! document ends in a newline.
//!
//! **Reading.** [`parse`] is one strict recursive descent that checks the
//! grammar and builds a [`Value`]; [`validate`] is `parse` without the
//! tree. `cargo xtask check-docs` and the repo benchmark read documents
//! back through it.

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON value to be written: a scalar or parsed [`Value`] converted
/// with `From`, a number at fixed decimals, or a container.
#[derive(Debug)]
pub struct Node(Tree);

#[derive(Debug)]
enum Tree {
    /// A scalar, already in JSON syntax.
    Scalar(String),
    Arr(Vec<Tree>),
    Obj(Vec<(String, Tree)>),
}

/// The members of an object being written.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, Tree)>);

/// The elements of an array being written.
#[derive(Debug, Default)]
pub struct Arr(Vec<Tree>);

impl Obj {
    /// Appends the member `key: value`.
    pub fn field(&mut self, key: &str, value: impl Into<Node>) {
        self.0.push((key.to_string(), value.into().0));
    }

    /// Appends the member `key: {…}`, filled by `fill`.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Obj)) {
        self.field(key, Node::object(fill));
    }

    /// Appends the member `key: […]`, filled by `fill`.
    pub fn array(&mut self, key: &str, fill: impl FnOnce(&mut Arr)) {
        self.field(key, Node::array(fill));
    }
}

impl Arr {
    /// Appends one element.
    pub fn item(&mut self, value: impl Into<Node>) {
        self.0.push(value.into().0);
    }

    /// Appends an object element, filled by `fill`.
    pub fn object(&mut self, fill: impl FnOnce(&mut Obj)) {
        self.item(Node::object(fill));
    }
}

impl Node {
    /// An object holding the members `fill` appends.
    #[must_use]
    pub fn object(fill: impl FnOnce(&mut Obj)) -> Self {
        let mut obj = Obj::default();
        fill(&mut obj);
        Self(Tree::Obj(obj.0))
    }

    /// An array holding the elements `fill` appends.
    #[must_use]
    pub fn array(fill: impl FnOnce(&mut Arr)) -> Self {
        let mut arr = Arr::default();
        fill(&mut arr);
        Self(Tree::Arr(arr.0))
    }

    /// `x` with exactly `decimals` digits after the point.
    #[must_use]
    pub fn fixed(x: f64, decimals: usize) -> Self {
        Self::finite(x, format!("{x:.decimals$}"))
    }

    fn finite(x: f64, text: String) -> Self {
        let text = if x.is_finite() { text } else { "null".into() };
        Self(Tree::Scalar(text))
    }

    /// The document text under the layout rule, ending in a newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.0.write(&mut out, Some(0), false);
        out.push('\n');
        out
    }
}

impl Tree {
    /// The members in order, each with its key when this is an object.
    fn members(&self) -> impl Iterator<Item = (Option<&str>, &Tree)> {
        let (items, fields): (&[Tree], &[(String, Tree)]) = match self {
            Tree::Scalar(_) => (&[], &[]),
            Tree::Arr(items) => (items, &[]),
            Tree::Obj(fields) => (&[], fields),
        };
        let keyed = fields.iter().map(|(k, t)| (Some(k.as_str()), t));
        items.iter().map(|t| (None, t)).chain(keyed)
    }

    fn holds(&self, test: impl Fn(&Tree) -> bool) -> bool {
        self.members().any(|(_, m)| test(m))
    }

    fn is_container(&self) -> bool {
        !matches!(self, Tree::Scalar(_))
    }

    /// Writes this value at `indent`, or on the current line when
    /// `indent` is `None` (inside a container written on one line).
    fn write(&self, out: &mut String, indent: Option<usize>, in_array: bool) {
        let (open, close) = match self {
            Tree::Scalar(text) => return out.push_str(text),
            Tree::Arr(_) => ('[', ']'),
            Tree::Obj(_) => ('{', '}'),
        };
        let holds_table =
            self.holds(|m| matches!(m, Tree::Arr(items) if items.iter().any(Tree::is_container)));
        let breaks = holds_table || (!in_array && self.holds(Tree::is_container));
        let broken = indent.filter(|_| breaks);
        out.push(open);
        for (i, (key, member)) in self.members().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            match broken {
                Some(n) => out.push_str(&format!("\n{:1$}", "", n + 2)),
                None if i > 0 => out.push(' '),
                None => {}
            }
            if let Some(key) = key {
                out.push_str(&format!("\"{}\": ", escape(key)));
            }
            member.write(out, broken.map(|n| n + 2), matches!(self, Tree::Arr(_)));
        }
        if let Some(n) = broken {
            out.push_str(&format!("\n{:1$}", "", n));
        }
        out.push(close);
    }
}

macro_rules! from_display {
    ($($t:ty),+) => {$(
        impl From<$t> for Node {
            fn from(v: $t) -> Self {
                Self(Tree::Scalar(v.to_string()))
            }
        }
    )+};
}

from_display!(u32, u64, usize, i32, i64, bool);

impl From<f64> for Node {
    /// Shortest round-trip form; `null` when not finite.
    fn from(x: f64) -> Self {
        Self::finite(x, x.to_string())
    }
}

impl From<&str> for Node {
    fn from(s: &str) -> Self {
        Self(Tree::Scalar(format!("\"{}\"", escape(s))))
    }
}

impl From<&String> for Node {
    fn from(s: &String) -> Self {
        Self::from(s.as_str())
    }
}

impl From<String> for Node {
    fn from(s: String) -> Self {
        Self::from(s.as_str())
    }
}

impl From<&Value> for Node {
    fn from(v: &Value) -> Self {
        match v {
            Value::Null => Self(Tree::Scalar("null".into())),
            Value::Bool(b) => Self::from(*b),
            Value::Num(n) => Self::from(*n),
            Value::Str(s) => Self::from(s),
            Value::Arr(items) => Self::array(|a| items.iter().for_each(|v| a.item(v))),
            Value::Obj(fields) => Self::object(|o| fields.iter().for_each(|(k, v)| o.field(k, v))),
        }
    }
}

/// Validates that `s` is one complete, syntactically well-formed JSON
/// value.
///
/// # Errors
///
/// Returns a message naming the byte offset and the problem.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// A parsed JSON value.
///
/// Objects preserve document order as a `Vec` of pairs (duplicate keys
/// keep both entries; [`Value::get`] returns the first) — the files we
/// read back are our own exports, which never duplicate keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`, exact for the integers we export).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (None for non-objects or missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document into a [`Value`] tree.
///
/// # Errors
///
/// Returns a message naming the byte offset and the problem.
pub fn parse(s: &str) -> Result<Value, String> {
    let (b, mut pos) = (s.as_bytes(), 0);
    let value = element(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

/// Steps over the next byte if it is one of `set`.
fn eat(b: &[u8], pos: &mut usize, set: &[u8]) -> bool {
    let found = b.get(*pos).is_some_and(|c| set.contains(c));
    *pos += usize::from(found);
    found
}

fn unexpected(b: &[u8], pos: usize, wanted: &str) -> String {
    let found = b.get(pos).map(|&c| c as char);
    format!("expected {wanted} at byte {pos}, found {found:?}")
}

/// One value with the whitespace around it.
fn element(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    let rest = b.get(*pos..).unwrap_or_default();
    let (len, value) = match rest.first() {
        Some(b'{') => {
            let mut fields = Vec::new();
            members(b, pos, b'}', |b, pos| {
                skip_ws(b, pos);
                let key = string(b, pos)?;
                skip_ws(b, pos);
                if !eat(b, pos, b":") {
                    return Err(unexpected(b, *pos, "':'"));
                }
                fields.push((key, element(b, pos)?));
                Ok(())
            })?;
            return Ok(Value::Obj(fields));
        }
        Some(b'[') => {
            let mut items = Vec::new();
            members(b, pos, b']', |b, pos| {
                element(b, pos).map(|v| items.push(v))
            })?;
            return Ok(Value::Arr(items));
        }
        Some(b'"') => return string(b, pos).map(Value::Str),
        Some(c) if c.is_ascii_digit() || *c == b'-' => return number(b, pos).map(Value::Num),
        _ if rest.starts_with(b"true") => (4, Value::Bool(true)),
        _ if rest.starts_with(b"false") => (5, Value::Bool(false)),
        _ if rest.starts_with(b"null") => (4, Value::Null),
        _ => return Err(unexpected(b, *pos, "a value")),
    };
    *pos += len;
    Ok(value)
}

/// The comma-separated members of the container opening at `pos`, up
/// to and including its `close` bracket.
fn members(
    b: &[u8],
    pos: &mut usize,
    close: u8,
    mut member: impl FnMut(&[u8], &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    *pos += 1;
    skip_ws(b, pos);
    if eat(b, pos, &[close]) {
        return Ok(());
    }
    loop {
        member(b, pos)?;
        skip_ws(b, pos);
        if eat(b, pos, &[close]) {
            return Ok(());
        }
        if !eat(b, pos, b",") {
            return Err(unexpected(b, *pos, &format!("',' or '{}'", close as char)));
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    if !eat(b, pos, b"\"") {
        return Err(unexpected(b, start, "a string"));
    }
    let mut out = Vec::new();
    loop {
        let c = *b.get(*pos).ok_or("unterminated string")?;
        *pos += 1;
        let unescaped = match c {
            b'"' => {
                return String::from_utf8(out).map_err(|_| format!("bad utf-8 at byte {start}"))
            }
            b'\\' if eat(b, pos, b"u") => {
                let code = b
                    .get(*pos..*pos + 4)
                    .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|hex| u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                *pos += 4;
                // Surrogate halves (the writer never emits them) become
                // U+FFFD rather than failing the whole parse.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            b'\\' => {
                let i = b
                    .get(*pos)
                    .and_then(|e| br#""\/bfnrt"#.iter().position(|x| x == e));
                *pos += 1;
                let i = i.ok_or_else(|| format!("bad escape at byte {pos}"))?;
                ['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]
            }
            c if c < 0x20 => return Err(format!("raw control byte {c:#x} at byte {}", *pos - 1)),
            c => {
                out.push(c);
                continue;
            }
        };
        out.extend_from_slice(unescaped.encode_utf8(&mut [0; 4]).as_bytes());
    }
}

/// `-?digits(.digits)?([eE][+-]?digits)?`.
fn number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    eat(b, pos, b"-");
    let mut well_formed = digits(pos);
    if eat(b, pos, b".") {
        well_formed &= digits(pos);
    }
    if eat(b, pos, b"eE") {
        eat(b, pos, b"+-");
        well_formed &= digits(pos);
    }
    b.get(start..*pos)
        .filter(|_| well_formed)
        .and_then(|text| std::str::from_utf8(text).ok()?.parse().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn accepts_well_formed_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-12.5e-3",
            r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": []}}"#,
            "  [\n {\"k\": -0.125} ]  ",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "\"unterminated",
            "1.",
            "0x10",
            "{'a': 1}",
            "tru",
            "[1 2]",
            "\"\\x\"",
            "\"\\u12\"",
            "\"a\u{1}b\"",
            "1e",
            "-",
        ] {
            assert!(validate(doc).is_err(), "accepted {doc:?}");
        }
    }

    #[test]
    fn parse_builds_the_expected_tree() {
        let v = parse(r#"{"a": [1, 2.5, "x", true, null], "b": {"c": -3e2}}"#).unwrap();
        let a = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(a[0], Value::Num(1.0));
        assert_eq!(a[1], Value::Num(2.5));
        assert_eq!(a[2].as_str(), Some("x"));
        assert_eq!(a[3], Value::Bool(true));
        assert_eq!(a[4], Value::Null);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_f64),
            Some(-300.0)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_unescapes_strings() {
        let v = parse(r#""a\"b\\c\nd\te\u0001\/\u00e9ü""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}/éü"));
    }

    #[test]
    fn render_follows_the_layout_rule() {
        let row = |a: &mut Arr, n: i32| a.object(|o| o.array("span", |a| a.item(n)));
        let doc = Node::object(|o| {
            o.object("flat", |f| f.field("x", Node::fixed(1.0, 3)));
            o.object("nested", |f| f.object("inner", |i| i.field("y", f64::NAN)));
            o.array("rows", |a| (1..3).for_each(|n| row(a, n)));
            o.array("groups", |a| a.object(|g| g.array("rows", |a| row(a, 3))));
            o.array("empty", |_| {});
        });
        let expected = r#"{
  "flat": {"x": 1.000},
  "nested": {
    "inner": {"y": null}
  },
  "rows": [
    {"span": [1]},
    {"span": [2]}
  ],
  "groups": [
    {
      "rows": [
        {"span": [3]}
      ]
    }
  ],
  "empty": []
}
"#;
        assert_eq!(doc.render(), expected);
    }

    /// A random document of strings, finite floats, booleans and nulls.
    fn random_value(rng: &mut TestRng, depth: u32) -> Value {
        let chars = [
            'a', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '🦀',
        ];
        let string = |rng: &mut TestRng| -> String {
            (0..rng.below(6))
                .map(|_| chars[rng.below(10) as usize])
                .collect()
        };
        let x = f64::from_bits(rng.next_u64());
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => Value::Str(string(rng)),
            1 if x.is_finite() => Value::Num(x),
            2 => Value::Bool(x > 0.0),
            4 => Value::Arr(
                (0..rng.below(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            5 => Value::Obj(
                (0..rng.below(4))
                    .map(|_| (string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
            _ => Value::Null,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn every_written_document_parses_back(seed in any::<u64>(), decimals in 0usize..5) {
            let mut rng = TestRng::deterministic(&seed.to_string());
            let doc = random_value(&mut rng, 4);
            let x = f64::from_bits(rng.next_u64());
            let text = Node::object(|o| {
                o.field("doc", &doc);
                o.array("u64", |a| [seed, u64::MAX].iter().for_each(|&n| a.item(n)));
                o.field("fixed", Node::fixed(x, decimals));
                let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                o.array("non_finite", |a| non_finite.iter().for_each(|&x| a.item(x)));
            })
            .render();
            prop_assert!(validate(&text).is_ok(), "invalid: {text}");
            let max = u64::MAX.to_string();
            prop_assert!(text.contains(&max), "{max} not written exactly in {text}");
            let back = parse(&text).unwrap();
            prop_assert_eq!(back.get("doc"), Some(&doc));
            let fixed = if x.is_finite() {
                Value::Num(format!("{x:.decimals$}").parse().unwrap())
            } else {
                Value::Null
            };
            prop_assert_eq!(back.get("fixed"), Some(&fixed));
            prop_assert_eq!(back.get("non_finite"), Some(&Value::Arr(vec![Value::Null; 3])));
        }
    }
}
