//! A minimal JSON subset parser for fault-plan files.
//!
//! The workspace ships no external parsers, so this module hand-rolls just
//! enough JSON for the plan format: objects, arrays, strings with the
//! standard escapes, numbers, booleans and null. It is strict about syntax
//! (trailing garbage, unterminated strings and bad escapes are errors) and
//! strict about semantics (unknown fault kinds and missing required fields
//! are reported with the offending value, not silently skipped — a typo'd
//! plan must not "pass" by injecting nothing).

use crate::{FaultKind, FaultPlan, FaultSpec};
use std::collections::BTreeMap;
use std::iter::Peekable;
use std::str::Chars;

/// Why a plan failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Filesystem problem reading the plan file.
    Io(String),
    /// JSON syntax problem.
    Syntax(String),
    /// Structurally valid JSON that is not a valid plan.
    Semantic(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Io(m) => write!(f, "cannot read fault plan: {m}"),
            PlanError::Syntax(m) => write!(f, "fault plan syntax error: {m}"),
            PlanError::Semantic(m) => write!(f, "invalid fault plan: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The JSON subset's value tree.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

fn syntax(msg: impl Into<String>) -> PlanError {
    PlanError::Syntax(msg.into())
}

fn skip_ws(chars: &mut Peekable<Chars<'_>>) {
    while chars.next_if(|c| c.is_ascii_whitespace()).is_some() {}
}

fn parse_value(chars: &mut Peekable<Chars<'_>>) -> Result<Json, PlanError> {
    skip_ws(chars);
    match chars
        .peek()
        .copied()
        .ok_or_else(|| syntax("unexpected end"))?
    {
        '{' => parse_object(chars),
        '[' => parse_array(chars),
        '"' => parse_string(chars).map(Json::Str),
        't' | 'f' => parse_keyword(chars),
        'n' => parse_keyword(chars),
        c if c == '-' || c.is_ascii_digit() => parse_number(chars),
        c => Err(syntax(format!("unexpected character {c:?}"))),
    }
}

fn parse_keyword(chars: &mut Peekable<Chars<'_>>) -> Result<Json, PlanError> {
    let mut word = String::new();
    while let Some(&c) = chars.peek() {
        if c.is_ascii_alphabetic() {
            word.push(c);
            chars.next();
        } else {
            break;
        }
    }
    match word.as_str() {
        "true" => Ok(Json::Bool(true)),
        "false" => Ok(Json::Bool(false)),
        "null" => Ok(Json::Null),
        other => Err(syntax(format!("unknown keyword {other:?}"))),
    }
}

fn parse_number(chars: &mut Peekable<Chars<'_>>) -> Result<Json, PlanError> {
    let mut text = String::new();
    while let Some(&c) = chars.peek() {
        if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
            text.push(c);
            chars.next();
        } else {
            break;
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| syntax(format!("bad number {text:?}")))
}

fn parse_string(chars: &mut Peekable<Chars<'_>>) -> Result<String, PlanError> {
    if chars.next() != Some('"') {
        return Err(syntax("expected string"));
    }
    let mut s = String::new();
    loop {
        match chars.next().ok_or_else(|| syntax("unterminated string"))? {
            '"' => return Ok(s),
            '\\' => match chars.next().ok_or_else(|| syntax("unterminated escape"))? {
                '"' => s.push('"'),
                '\\' => s.push('\\'),
                '/' => s.push('/'),
                'n' => s.push('\n'),
                'r' => s.push('\r'),
                't' => s.push('\t'),
                'u' => {
                    let hex: String = (0..4)
                        .map(|_| chars.next())
                        .collect::<Option<_>>()
                        .ok_or_else(|| syntax("truncated \\u escape"))?;
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| syntax(format!("bad \\u escape {hex:?}")))?;
                    s.push(char::from_u32(code).ok_or_else(|| syntax("bad codepoint"))?);
                }
                c => return Err(syntax(format!("bad escape \\{c}"))),
            },
            c => s.push(c),
        }
    }
}

fn parse_array(chars: &mut Peekable<Chars<'_>>) -> Result<Json, PlanError> {
    chars.next(); // consume '['
    let mut out = Vec::new();
    skip_ws(chars);
    if chars.next_if_eq(&']').is_some() {
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(chars)?);
        skip_ws(chars);
        match chars.next() {
            Some(',') => {}
            Some(']') => return Ok(Json::Arr(out)),
            _ => return Err(syntax("expected ',' or ']' in array")),
        }
    }
}

fn parse_object(chars: &mut Peekable<Chars<'_>>) -> Result<Json, PlanError> {
    chars.next(); // consume '{'
    let mut out = BTreeMap::new();
    skip_ws(chars);
    if chars.next_if_eq(&'}').is_some() {
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(chars);
        let key = parse_string(chars)?;
        skip_ws(chars);
        if chars.next() != Some(':') {
            return Err(syntax(format!("expected ':' after key {key:?}")));
        }
        out.insert(key, parse_value(chars)?);
        skip_ws(chars);
        match chars.next() {
            Some(',') => {}
            Some('}') => return Ok(Json::Obj(out)),
            _ => return Err(syntax("expected ',' or '}' in object")),
        }
    }
}

fn parse_document(text: &str) -> Result<Json, PlanError> {
    let mut chars = text.chars().peekable();
    let v = parse_value(&mut chars)?;
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err(syntax("trailing characters after document"));
    }
    Ok(v)
}

fn semantic(msg: impl Into<String>) -> PlanError {
    PlanError::Semantic(msg.into())
}

/// Parses the plan format in the crate docs into a [`FaultPlan`].
pub(crate) fn parse_plan(text: &str) -> Result<FaultPlan, PlanError> {
    let Json::Obj(top) = parse_document(text)? else {
        return Err(semantic("top level must be an object"));
    };
    let seed = match top.get("seed") {
        None => 0,
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
        Some(v) => return Err(semantic(format!("seed must be a whole number, got {v:?}"))),
    };
    let faults = match top.get("faults") {
        None => Vec::new(),
        Some(Json::Arr(items)) => items
            .iter()
            .enumerate()
            .map(|(i, item)| parse_spec(i, item))
            .collect::<Result<_, _>>()?,
        Some(v) => return Err(semantic(format!("faults must be an array, got {v:?}"))),
    };
    Ok(FaultPlan { seed, faults })
}

fn parse_spec(i: usize, item: &Json) -> Result<FaultSpec, PlanError> {
    let Json::Obj(o) = item else {
        return Err(semantic(format!("faults[{i}] must be an object")));
    };
    let field_str = |key: &str| -> Result<Option<&str>, PlanError> {
        match o.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s)),
            Some(v) => Err(semantic(format!(
                "faults[{i}].{key} must be a string, got {v:?}"
            ))),
        }
    };
    let site = field_str("site")?
        .ok_or_else(|| semantic(format!("faults[{i}] is missing \"site\"")))?
        .to_string();
    let kind_name =
        field_str("kind")?.ok_or_else(|| semantic(format!("faults[{i}] is missing \"kind\"")))?;
    let kind = FaultKind::parse(kind_name)
        .ok_or_else(|| semantic(format!("faults[{i}] has unknown kind {kind_name:?}")))?;
    let target = field_str("target")?.map(str::to_string);
    let occurrence = match o.get("occurrence") {
        None => 0,
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
        Some(v) => {
            return Err(semantic(format!(
                "faults[{i}].occurrence must be a whole number, got {v:?}"
            )))
        }
    };
    let param = match o.get("param") {
        None => 0.0,
        Some(Json::Num(n)) => *n,
        Some(v) => {
            return Err(semantic(format!(
                "faults[{i}].param must be a number, got {v:?}"
            )))
        }
    };
    Ok(FaultSpec {
        site,
        target,
        occurrence,
        kind,
        param,
    })
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a plan in the same format [`parse_plan`] accepts (stable field
/// order, one fault per line — diff-friendly for committed plans).
pub(crate) fn render_plan(plan: &FaultPlan) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"seed\": {},\n  \"faults\": [", plan.seed));
    for (i, f) in plan.faults.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"site\": ");
        push_str(&mut out, &f.site);
        if let Some(t) = &f.target {
            out.push_str(", \"target\": ");
            push_str(&mut out, t);
        }
        out.push_str(", \"kind\": ");
        push_str(&mut out, f.kind.name());
        out.push_str(&format!(", \"occurrence\": {}", f.occurrence));
        if f.param != 0.0 {
            out.push_str(&format!(", \"param\": {}", f.param));
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_plan() {
        let text = r#"
        {
          "seed": 42,
          "faults": [
            {"site": "circuit.solve", "kind": "solver_not_converged", "occurrence": 0},
            {"site": "exec.job.panic", "target": "fig19/1", "kind": "job_panic"},
            {"site": "mem.pump.droop", "kind": "pump_droop", "occurrence": 2, "param": 0.25}
          ]
        }"#;
        let plan = parse_plan(text).expect("valid plan");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(plan.faults[1].target.as_deref(), Some("fig19/1"));
        assert_eq!(plan.faults[2].occurrence, 2);
        assert_eq!(plan.faults[2].param, 0.25);
    }

    #[test]
    fn defaults_are_applied() {
        let plan =
            parse_plan(r#"{"faults": [{"site": "s", "kind": "job_panic"}]}"#).expect("valid");
        assert_eq!(plan.seed, 0);
        assert_eq!(plan.faults[0].occurrence, 0);
        assert_eq!(plan.faults[0].param, 0.0);
        assert_eq!(plan.faults[0].target, None);
    }

    #[test]
    fn unknown_kind_is_an_error_not_a_skip() {
        // A typo, and a kind a plan may still name after its site was
        // retired.
        for kind in ["job_pnaic", "surrogate_corrupt"] {
            let err = parse_plan(&format!(
                r#"{{"faults": [{{"site": "s", "kind": "{kind}"}}]}}"#
            ))
            .expect_err("unknown kind");
            assert!(
                matches!(err, PlanError::Semantic(ref m) if m.contains(kind)),
                "{err}"
            );
        }
    }

    #[test]
    fn missing_site_is_an_error() {
        let err = parse_plan(r#"{"faults": [{"kind": "job_panic"}]}"#).expect_err("no site");
        assert!(
            matches!(err, PlanError::Semantic(ref m) if m.contains("site")),
            "{err}"
        );
    }

    #[test]
    fn syntax_errors_are_reported() {
        for bad in [
            "{",
            "{\"seed\": }",
            "[1,]",
            "{\"a\": 1} trailing",
            "{'a': 1}",
        ] {
            assert!(parse_plan(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn tolerates_unknown_fields_and_escapes() {
        let plan = parse_plan(
            r#"{"comment": "whyA not", "faults": [{"site": "a\tb", "kind": "pump_droop", "note": [1, true, null]}]}"#,
        )
        .expect("extra fields ignored");
        assert_eq!(plan.faults[0].site, "a\tb");
    }
}
