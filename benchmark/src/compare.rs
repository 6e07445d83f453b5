//! `benchmark compare A B`: per (workload, end-to-end metric) both
//! values, the change and the bound from `BENCHMARK.json`. With the same
//! seed and `--seconds` on both sides every simulated value and every
//! digest must repeat exactly; host-clock values may worsen by their
//! bound, and where the run-to-run spread is wider than the bound the
//! verdict is `unresolved`, not `ok`.

use crate::json::Json;
use crate::stats::{median, quartile_spread};
use crate::workloads;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A by which B may be worse; `None` for a metric that is
    /// reported without a bound.
    pub bound: Option<f64>,
}

pub struct Verdict {
    pub ok: bool,
    pub text: String,
}

/// The end-to-end metrics and their bounds, from `BENCHMARK.json`, plus
/// `failed_share`, which the driver reads as `failed`/`attempted` and
/// which may not rise at all.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    bounds_from(&Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

fn bounds_from(manifest: &Json) -> Result<Vec<Bound>, String> {
    let list = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut bounds = Vec::new();
    for m in list {
        let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
        bounds.push(Bound {
            name: field("name").ok_or("end_to_end entry without a name")?,
            higher_is_better: field("better").as_deref() == Some("higher"),
            bound: Some(
                m.get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            ),
        });
    }
    bounds.push(Bound {
        name: "failed_share".to_string(),
        higher_is_better: false,
        bound: Some(0.0),
    });
    Ok(bounds)
}

/// Untraced run records found at `path`: a record file, a merged file
/// (`{"runs": [...]}`), or a directory of either.
fn load_runs(path: &Path) -> Result<Vec<Json>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry
                .map_err(|e| format!("{}: {e}", path.display()))?
                .path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let records = match json.get("runs").and_then(Json::as_arr) {
            Some(list) => list.to_vec(),
            None => vec![json],
        };
        // Chrome traces and traced records are not end-to-end results.
        runs.extend(records.into_iter().filter(|r| {
            r.get("workload").is_some()
                && r.get("metrics").is_some()
                && r.get("traced") != Some(&Json::Bool(true))
        }));
    }
    if runs.is_empty() {
        return Err(format!("{}: no untraced run records", path.display()));
    }
    Ok(runs)
}

/// The record files `<prefix><workload>.json` of `dir`, in workload
/// order, as one `{"runs": [...]}` file.
pub fn merge_dir(dir: &Path, prefix: &str) -> Result<Json, String> {
    let mut runs = Vec::new();
    for w in workloads::all() {
        let file = dir.join(format!("{prefix}{}.json", w.name));
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        runs.push(Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?);
    }
    Ok(Json::obj().with("runs", runs))
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Run-to-run spread of one side as a share of its median: the quartile
/// distance of the runs' values when there are several; with a single
/// run, the quartile distance of the samples behind its median shrunk by
/// √n (what n samples say about their median); 0 when neither is known.
fn side_spread(runs: &[&Json], name: &str) -> f64 {
    let values: Vec<f64> = runs.iter().filter_map(|r| metric_value(r, name)).collect();
    if values.len() >= 2 {
        return quartile_spread(&values);
    }
    let Some(m) = runs.first().and_then(|r| r.get("metrics")?.get(name)) else {
        return 0.0;
    };
    let field = |k: &str| m.get(k).and_then(Json::as_f64);
    match (field("value"), field("n"), field("q1"), field("q3")) {
        (Some(v), Some(n), Some(q1), Some(q3)) if v != 0.0 && n >= 1.0 => {
            (q3 - q1) / v.abs() / n.sqrt()
        }
        _ => 0.0,
    }
}

fn stamp_field(run: &Json, key: &str) -> Option<f64> {
    run.get("stamp")?.get(key)?.as_f64()
}

/// Simulated values are compared at the precision they are printed with.
fn printed(x: f64) -> String {
    format!("{x:.9e}")
}

pub fn compare_paths(a: &Path, b: &Path, bounds: &[Bound]) -> Result<Verdict, String> {
    Ok(compare_runs(&load_runs(a)?, &load_runs(b)?, bounds))
}

pub fn compare_runs(a: &[Json], b: &[Json], bounds: &[Bound]) -> Verdict {
    let name_of = |r: &Json| {
        r.get("workload")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let mut names: Vec<String> = Vec::new();
    for r in a {
        let n = name_of(r);
        if !names.contains(&n) && b.iter().any(|rb| name_of(rb) == n) {
            names.push(n);
        }
    }
    let mut text = String::new();
    let (mut breaches, mut unresolved, mut pairs) = (0usize, 0usize, 0usize);
    let line = |text: &mut String, s: String| {
        writeln!(text, "{s}").expect("writing to a String cannot fail");
    };
    line(
        &mut text,
        format!(
            "{:<15} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
            "workload", "metric", "A", "B", "change", "bound"
        ),
    );
    for name in &names {
        let ra: Vec<&Json> = a.iter().filter(|r| name_of(r) == *name).collect();
        let rb: Vec<&Json> = b.iter().filter(|r| name_of(r) == *name).collect();
        let same_inputs = ["seed", "seconds"].iter().all(|k| {
            stamp_field(ra[0], k).is_some() && stamp_field(ra[0], k) == stamp_field(rb[0], k)
        });
        // Bounded metrics first, then whatever else the records report
        // (the two `mixed_*_sim_*` percentiles): no bound across seeds,
        // but for the same inputs they too must repeat exactly.
        let unbounded: Vec<Bound> = ra[0]
            .get("metrics")
            .map_or(&[][..], Json::fields)
            .iter()
            .filter(|(name, _)| bounds.iter().all(|b| b.name != *name))
            .map(|(name, _)| Bound {
                name: name.clone(),
                higher_is_better: false,
                bound: None,
            })
            .collect();
        for bound in bounds.iter().chain(&unbounded) {
            let side = |runs: &[&Json]| -> Option<f64> {
                let v: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| metric_value(r, &bound.name))
                    .collect();
                (!v.is_empty()).then(|| median(&v))
            };
            let (Some(va), Some(vb)) = (side(&ra), side(&rb)) else {
                continue;
            };
            pairs += 1;
            // Positive = worse, as a share of A.
            let worse = match (va == 0.0, bound.higher_is_better) {
                (true, _) => {
                    if vb > va {
                        f64::INFINITY
                    } else {
                        0.0
                    }
                }
                (false, false) => (vb - va) / va.abs(),
                (false, true) => (va - vb) / va.abs(),
            };
            let simulated = bound.name.contains("_sim_");
            let spread = side_spread(&ra, &bound.name).max(side_spread(&rb, &bound.name));
            let verdict = if simulated && same_inputs {
                if printed(va) == printed(vb) {
                    "identical".to_string()
                } else {
                    breaches += 1;
                    "BREACH: simulated value changed for the same inputs".to_string()
                }
            } else {
                match bound.bound {
                    None => "no bound".to_string(),
                    Some(limit) if spread > limit && limit > 0.0 => {
                        unresolved += 1;
                        format!("unresolved (spread {:.1} % > bound)", spread * 100.0)
                    }
                    Some(limit) if worse > limit => {
                        breaches += 1;
                        "BREACH".to_string()
                    }
                    Some(_) if simulated => "ok (inputs differ)".to_string(),
                    Some(_) => "ok".to_string(),
                }
            };
            let bound_text = bound
                .bound
                .map_or("-".to_string(), |limit| format!("{:.1}%", limit * 100.0));
            line(
                &mut text,
                format!(
                    "{:<15} {:<26} {:>14.6} {:>14.6} {:>+8.2}% {:>7}  {verdict}",
                    name,
                    bound.name,
                    va,
                    vb,
                    if worse.is_finite() {
                        worse * 100.0
                    } else {
                        999.99
                    },
                    bound_text
                ),
            );
        }
        if same_inputs {
            let (da, db) = (ra[0].get("digests"), rb[0].get("digests"));
            let same = da.is_some() && da == db;
            if !same {
                breaches += 1;
            }
            line(
                &mut text,
                format!(
                    "{:<15} {:<26} {}",
                    name,
                    "digests",
                    if same {
                        "identical"
                    } else {
                        "BREACH: logits digests differ for the same inputs"
                    }
                ),
            );
        }
    }
    line(
        &mut text,
        format!(
            "{pairs} pairs over {} workloads: {breaches} breaches, {unresolved} unresolved",
            names.len()
        ),
    );
    Verdict {
        ok: breaches == 0 && !names.is_empty(),
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Vec<Bound> {
        bounds_from(
            &Json::parse(
                r#"{"end_to_end": [
                    {"name": "train_epoch_wall_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                    {"name": "train_epoch_sim_ms", "unit": "ms", "better": "lower", "bound": 0.05}
                ]}"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn run(seed: u64, wall: f64, sim: f64, digest: &str, failed_share: f64) -> Json {
        Json::obj()
            .with("workload", "rdt_gat_dense")
            .with("traced", false)
            .with(
                "stamp",
                Json::obj().with("seed", seed).with("seconds", 15.0),
            )
            .with(
                "metrics",
                Json::obj()
                    .with(
                        "train_epoch_wall_ms",
                        Json::obj()
                            .with("value", wall)
                            .with("n", 16usize)
                            .with("q1", wall * 0.98)
                            .with("q3", wall * 1.02),
                    )
                    .with("train_epoch_sim_ms", Json::obj().with("value", sim))
                    .with("failed_share", Json::obj().with("value", failed_share)),
            )
            .with("digests", Json::obj().with("infer", digest))
    }

    #[test]
    fn failed_share_rides_along_with_a_zero_bound() {
        let b = bounds();
        assert_eq!(b.len(), 3);
        assert_eq!(b[2].name, "failed_share");
        assert_eq!(b[2].bound, Some(0.0));
    }

    #[test]
    fn same_inputs_same_numbers_pass() {
        let v = compare_runs(
            &[run(42, 100.0, 3.0, "ab", 0.0)],
            &[run(42, 104.0, 3.0, "ab", 0.0)],
            &bounds(),
        );
        assert!(v.ok, "{}", v.text);
        assert!(v.text.contains("identical"));
        assert!(v.text.contains("0 breaches, 0 unresolved"));
    }

    #[test]
    fn wall_regression_beyond_the_bound_is_a_breach() {
        let v = compare_runs(
            &[run(42, 100.0, 3.0, "ab", 0.0)],
            &[run(42, 115.0, 3.0, "ab", 0.0)],
            &bounds(),
        );
        assert!(!v.ok);
        assert!(v.text.contains("BREACH"));
        // An improvement of any size is fine.
        let v = compare_runs(
            &[run(42, 100.0, 3.0, "ab", 0.0)],
            &[run(42, 50.0, 3.0, "ab", 0.0)],
            &bounds(),
        );
        assert!(v.ok, "{}", v.text);
    }

    #[test]
    fn simulated_drift_or_a_new_digest_for_the_same_seed_is_a_breach() {
        let base = [run(42, 100.0, 3.0, "ab", 0.0)];
        assert!(!compare_runs(&base, &[run(42, 100.0, 3.0000001, "ab", 0.0)], &bounds()).ok);
        assert!(!compare_runs(&base, &[run(42, 100.0, 3.0, "cd", 0.0)], &bounds()).ok);
        // Another seed is another input: simulated values fall under
        // their bound instead, and digests are not compared.
        let v = compare_runs(&base, &[run(7, 100.0, 3.1, "cd", 0.0)], &bounds());
        assert!(v.ok, "{}", v.text);
        assert!(v.text.contains("inputs differ"));
    }

    #[test]
    fn reported_metrics_without_a_bound_still_repeat_for_the_same_seed() {
        let with_extra = |seed: u64, v: f64| {
            let mut r = run(seed, 100.0, 3.0, "ab", 0.0);
            if let Json::Obj(fields) = &mut r {
                let metrics = &mut fields.iter_mut().find(|(k, _)| k == "metrics").unwrap().1;
                metrics.set("mixed_query_sim_p90_ms", Json::obj().with("value", v));
            }
            r
        };
        let same = compare_runs(&[with_extra(42, 1.5)], &[with_extra(42, 1.5)], &bounds());
        assert!(
            same.ok && same.text.contains("mixed_query_sim_p90_ms"),
            "{}",
            same.text
        );
        assert!(!compare_runs(&[with_extra(42, 1.5)], &[with_extra(42, 1.6)], &bounds()).ok);
        let other_seed = compare_runs(&[with_extra(42, 1.5)], &[with_extra(7, 9.0)], &bounds());
        assert!(
            other_seed.ok && other_seed.text.contains("no bound"),
            "{}",
            other_seed.text
        );
    }

    #[test]
    fn any_rise_of_failed_share_is_a_breach() {
        let v = compare_runs(
            &[run(42, 100.0, 3.0, "ab", 0.0)],
            &[run(42, 100.0, 3.0, "ab", 0.01)],
            &bounds(),
        );
        assert!(!v.ok);
    }

    #[test]
    fn spread_wider_than_the_bound_reads_unresolved_not_ok() {
        // Two runs a side, 30 % apart: no 10 % verdict can be given.
        let a = [
            run(42, 100.0, 3.0, "ab", 0.0),
            run(42, 130.0, 3.0, "ab", 0.0),
        ];
        let b = [
            run(42, 101.0, 3.0, "ab", 0.0),
            run(42, 131.0, 3.0, "ab", 0.0),
        ];
        let v = compare_runs(&a, &b, &bounds());
        assert!(v.ok, "unresolved is not a breach: {}", v.text);
        assert!(v.text.contains("unresolved"));
        assert!(v.text.contains("1 unresolved"));
    }

    #[test]
    fn nothing_in_common_is_not_a_pass() {
        let mut other = run(42, 100.0, 3.0, "ab", 0.0);
        if let Json::Obj(fields) = &mut other {
            fields[0].1 = Json::from("it_gcn_plan");
        }
        assert!(!compare_runs(&[run(42, 100.0, 3.0, "ab", 0.0)], &[other], &bounds()).ok);
    }
}
