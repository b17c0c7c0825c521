//! Golden snapshots: a pretty-printer and a tolerance-aware comparator
//! over the workspace's one JSON value, [`Val`].
//!
//! End-to-end results that the paper reports as numbers — the tuning
//! optimum, the error decomposition at that optimum, the dispatch-case
//! metrics — are pinned as pretty-printed JSON files under
//! `tests/goldens/` at the repo root. A golden test builds the current
//! [`Val`] (numbers as [`Val::F64`]) and calls [`check_golden`]:
//!
//! * if the file is missing, or `UPDATE_GOLDENS=1` is set, the file is
//!   (re)written and the check passes — the diff then shows up in review;
//! * otherwise the stored value is parsed with [`Val::parse`] and compared
//!   field-by-field, with numbers held to a relative tolerance (default
//!   `1e-9`, absorbing cross-platform `libm` rounding) and everything
//!   else exact. The first mismatch is reported with its JSON path.

use gridtuner_obs::json::Val;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Default relative tolerance for float comparison.
pub const DEFAULT_TOLERANCE: f64 = 1e-9;

/// Pretty-prints `v` with two-space indentation and a trailing newline —
/// the on-disk golden form. Floats print with `{:?}`, which round-trips
/// exactly and keeps `N.0` on integral values.
pub fn pretty(v: &Val) -> String {
    let mut out = String::new();
    pretty_into(v, &mut out, 0);
    out.push('\n');
    out
}

fn pretty_into(v: &Val, out: &mut String, indent: usize) {
    let pad = "  ".repeat(indent + 1);
    let close = "  ".repeat(indent);
    match v {
        Val::F64(n) => {
            assert!(n.is_finite(), "goldens cannot store non-finite numbers");
            out.push_str(&v.render());
        }
        Val::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                pretty_into(item, out, indent + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&close);
            out.push(']');
        }
        Val::Obj(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in fields.iter().enumerate() {
                let _ = write!(out, "{pad}{}: ", Val::from(k.as_str()).render());
                pretty_into(v, out, indent + 1);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&close);
            out.push('}');
        }
        // Scalars, `[]` and `{}` print as in the compact form.
        _ => out.push_str(&v.render()),
    }
}

/// Recursively compares `stored` against `computed`, holding numbers to
/// relative tolerance `tol`. Returns the path and description of the
/// first mismatch.
pub fn compare(stored: &Val, computed: &Val, tol: f64) -> Result<(), String> {
    compare_at(stored, computed, tol, "$")
}

fn compare_at(stored: &Val, computed: &Val, tol: f64, path: &str) -> Result<(), String> {
    match (stored, computed) {
        (Val::Arr(a), Val::Arr(b)) => {
            if a.len() != b.len() {
                return Err(format!("{path}: length {} vs {}", a.len(), b.len()));
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                compare_at(x, y, tol, &format!("{path}[{i}]"))?;
            }
            Ok(())
        }
        (Val::Obj(a), Val::Obj(b)) => {
            let a_keys: Vec<&String> = a.iter().map(|(k, _)| k).collect();
            let b_keys: Vec<&String> = b.iter().map(|(k, _)| k).collect();
            if a_keys != b_keys {
                return Err(format!("{path}: keys {a_keys:?} vs {b_keys:?}"));
            }
            for ((k, x), (_, y)) in a.iter().zip(b) {
                compare_at(x, y, tol, &format!("{path}.{k}"))?;
            }
            Ok(())
        }
        _ => match (stored.as_f64(), computed.as_f64()) {
            (Some(a), Some(b)) if (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())) => Ok(()),
            (Some(a), Some(b)) => Err(format!("{path}: stored {a:?} vs computed {b:?}")),
            _ if stored == computed => Ok(()),
            _ => Err(format!(
                "{path}: type mismatch ({stored:?} vs {computed:?})"
            )),
        },
    }
}

/// Directory holding the checked-in goldens: `GRIDTUNER_GOLDENS_DIR` if
/// set, otherwise `tests/goldens/` at the repo root (resolved relative to
/// this crate's manifest, so it works from any test binary).
pub fn goldens_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("GRIDTUNER_GOLDENS_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/goldens")
}

/// Checks `computed` against the golden `name.json`.
///
/// Writes the file (creating directories) and passes when it is missing or
/// `UPDATE_GOLDENS=1`; otherwise parses and compares with tolerance `tol`.
pub fn check_golden(name: &str, computed: &Val, tol: f64) -> Result<(), String> {
    let path = goldens_dir().join(format!("{name}.json"));
    let update = std::env::var("UPDATE_GOLDENS")
        .map(|v| v == "1")
        .unwrap_or(false);
    if update || !path.exists() {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
        std::fs::write(&path, pretty(computed)).map_err(|e| format!("write {path:?}: {e}"))?;
        return Ok(());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
    let stored = Val::parse(&text).map_err(|e| format!("parse {path:?}: {e}"))?;
    compare(&stored, computed, tol).map_err(|e| {
        format!(
            "golden `{name}` diverged — {e}\n\
             (if the change is intentional, regenerate with UPDATE_GOLDENS=1 and review the diff)"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Val {
        Val::obj(vec![
            ("city", Val::from("nyc")),
            ("side", Val::F64(12.0)),
            ("errors", Val::Arr(vec![Val::F64(1.5), Val::F64(-0.25)])),
            ("parallel", Val::Bool(true)),
            ("note", Val::Null),
            ("nested", Val::obj(vec![("k", Val::F64(1e-3))])),
            ("empty_arr", Val::Arr(vec![])),
            ("empty_obj", Val::Obj(vec![])),
        ])
    }

    #[test]
    fn render_parse_round_trip() {
        let v = sample();
        let text = pretty(&v);
        assert!(text.contains("\n  \"side\": 12.0,\n"), "{text}");
        let back = Val::parse(&text).expect("parse");
        assert_eq!(back, v);
    }

    #[test]
    fn float_round_trip_is_exact() {
        let v = Val::F64(0.1 + 0.2); // 0.30000000000000004
        let back = Val::parse(&pretty(&v)).unwrap();
        assert_eq!(back.as_f64(), v.as_f64());
    }

    #[test]
    fn compare_tolerates_small_float_drift() {
        let a = Val::F64(1.0);
        compare(&a, &Val::F64(1.0 + 1e-12), 1e-9).expect("within tolerance");
        assert!(compare(&a, &Val::F64(1.001), 1e-9).is_err());
    }

    #[test]
    fn compare_reports_paths() {
        let a = sample();
        let mut b = sample();
        if let Val::Obj(fields) = &mut b {
            fields[2].1 = Val::Arr(vec![Val::F64(1.5), Val::F64(9.0)]);
        }
        let err = compare(&a, &b, 1e-9).unwrap_err();
        assert!(err.contains("$.errors[1]"), "path in {err:?}");
    }

    #[test]
    fn compare_rejects_shape_changes() {
        let a = Val::obj(vec![("x", Val::F64(1.0))]);
        let b = Val::obj(vec![("y", Val::F64(1.0))]);
        assert!(compare(&a, &b, 1e-9).is_err());
        assert!(compare(&Val::F64(1.0), &Val::from("1"), 1e-9).is_err());
    }

    #[test]
    fn check_golden_writes_then_verifies() {
        let dir = std::env::temp_dir().join("gridtuner-testkit-golden-unit");
        let _ = std::fs::remove_dir_all(&dir);
        // Point the layer at a scratch dir via the env override; this test
        // is the only user of that variable in this binary.
        std::env::set_var("GRIDTUNER_GOLDENS_DIR", &dir);
        let v = sample();
        check_golden("unit_sample", &v, 1e-9).expect("first call writes");
        assert!(dir.join("unit_sample.json").exists());
        check_golden("unit_sample", &v, 1e-9).expect("second call verifies");
        // Under UPDATE_GOLDENS=1 every mismatch rewrites instead of
        // failing, so only assert the failure path in a normal run.
        if std::env::var("UPDATE_GOLDENS").is_err() {
            let mut changed = sample();
            if let Val::Obj(fields) = &mut changed {
                fields[1].1 = Val::F64(13.0);
            }
            let err = check_golden("unit_sample", &changed, 1e-9).unwrap_err();
            assert!(err.contains("UPDATE_GOLDENS"), "hint in {err:?}");
        }
        std::env::remove_var("GRIDTUNER_GOLDENS_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
