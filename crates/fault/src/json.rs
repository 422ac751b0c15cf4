//! Fault-plan files, read with the strict shared [`reram_obs::Json`]
//! reader. Semantics are strict too: unknown fault kinds, missing required
//! fields and whole numbers that are not exact integer literals are
//! reported with the offending value, never skipped or rounded — a typo'd
//! plan must not "pass" by injecting nothing.

use crate::{FaultKind, FaultPlan, FaultSpec};
use reram_obs::{json::write_string, Json};

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

fn semantic(msg: impl Into<String>) -> PlanError {
    PlanError::Semantic(msg.into())
}

/// A whole-number field: absent is 0, anything but an exact `u64` integer
/// literal is an error.
fn whole(v: Option<&Json>, what: &str) -> Result<u64, PlanError> {
    match v {
        None => Ok(0),
        Some(Json::U64(n)) => Ok(*n),
        Some(v) => Err(semantic(format!(
            "{what} must be a whole number, got {v:?}"
        ))),
    }
}

/// Parses the plan format in the crate docs into a [`FaultPlan`].
pub(crate) fn parse_plan(text: &str) -> Result<FaultPlan, PlanError> {
    let doc = Json::parse(text).map_err(|e| PlanError::Syntax(e.to_string()))?;
    let Json::Obj(top) = doc else {
        return Err(semantic("top level must be an object"));
    };
    let seed = whole(top.get("seed"), "seed")?;
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
    let occurrence = whole(o.get("occurrence"), &format!("faults[{i}].occurrence"))?;
    let param = match o.get("param") {
        None => 0.0,
        Some(v) => v
            .as_f64()
            .ok_or_else(|| semantic(format!("faults[{i}].param must be a number, got {v:?}")))?,
    };
    Ok(FaultSpec {
        site,
        target,
        occurrence,
        kind,
        param,
    })
}

/// Renders a plan in the same format [`parse_plan`] accepts (stable field
/// order, one fault per line — diff-friendly for committed plans).
pub(crate) fn render_plan(plan: &FaultPlan) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"seed\": {},\n  \"faults\": [", plan.seed));
    for (i, f) in plan.faults.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"site\": ");
        write_string(&mut out, &f.site);
        if let Some(t) = &f.target {
            out.push_str(", \"target\": ");
            write_string(&mut out, t);
        }
        out.push_str(", \"kind\": ");
        write_string(&mut out, f.kind.name());
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
        // A typo, a kind retired with its site, and whole numbers that are
        // not exact `u64` literals: never skipped, rounded or saturated.
        for (seed, fault, word) in [
            ("1", r#""kind": "job_pnaic""#, "job_pnaic"),
            ("1", r#""kind": "surrogate_corrupt""#, "surrogate_corrupt"),
            ("1e20", r#""kind": "job_panic""#, "seed"),
            ("18446744073709551616", r#""kind": "job_panic""#, "seed"),
            ("-1", r#""kind": "job_panic""#, "seed"),
            (
                "1",
                r#""kind": "job_panic", "occurrence": 2.5"#,
                "occurrence",
            ),
        ] {
            let doc = format!(r#"{{"seed": {seed}, "faults": [{{"site": "s", {fault}}}]}}"#);
            let err = parse_plan(&doc).expect_err(&doc);
            assert!(
                matches!(err, PlanError::Semantic(ref m) if m.contains(word)),
                "{doc}: {err}"
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
            "{\"a\":1 \"b\":2}",
            "[\"\\u+123\"]",
            "[\"\\ud800\"]",
            "{\"a\": --1}",
            &"[".repeat(100_000),
        ] {
            assert!(parse_plan(bad).is_err(), "{bad:.20} must not parse");
        }
    }

    #[test]
    fn tolerates_unknown_fields_and_escapes() {
        let plan = parse_plan(
            r#"{"comment": "whyA not", "faults": [{"site": "a\tb\u00e9\/\b\f", "kind": "pump_droop", "note": [1, true, null]}]}"#,
        )
        .expect("extra fields ignored");
        assert_eq!(plan.faults[0].site, "a\tbé/\u{8}\u{c}");
    }
}
