//! `lint` — in-repo source lint for the invariants `grep` can't hold.
//!
//! Eight rules, all token-level scans over the workspace sources (no
//! parsing, no dependencies):
//!
//! 1. **Diagnostic catalogue coverage.** Every `DiagCode` variant in
//!    `crates/verify/src/diag.rs` must have exactly one catalogue row in
//!    `DESIGN.md` (a `| CODE |` table cell) and at least one mutation
//!    test referencing it (by variant name or by `"CODE"` string) under
//!    `crates/verify/tests/` or `tests/`. A diagnostic nobody can look
//!    up, or that no corruption provably triggers, is dead weight.
//! 2. **Unsafe discipline.** The workspace crates carry
//!    `#![forbid(unsafe_code)]`, but that attribute does not cover
//!    bin/test targets — so the token is forbidden outright outside
//!    `crates/parallel`, and inside it every non-comment use must carry
//!    a `SAFETY` comment within the preceding 8 lines.
//! 3. **Tagging chokepoint.** `GpuLane::tag` calls are how trace events
//!    acquire schedule metadata; every call site outside the engine's
//!    emission layer (and the method's own crate) bypasses the
//!    provenance discipline passes 5–9 certify. No `.tag(` outside the
//!    allowlist.
//! 4. **Execution-mode chokepoint.** How many OS threads drive a sweep
//!    is decided in exactly one place — the per-GPU dispatcher of
//!    `crates/core/src/exec.rs`. Non-test code of `crates/core` may name
//!    an `ExecutionMode` variant to *build* a configuration, but reading
//!    the configured mode, or branching on a variant, outside that file
//!    (or more than once inside it) forks the executor again.
//! 5. **No deprecation shims.** The repo has no external users, so a
//!    deprecated item is dead weight: neither the attribute nor the
//!    allowance for it may appear anywhere in the workspace.
//! 6. **Footprint chokepoint.** What a `(layer, GPU, batch)` step
//!    occupies on its device is computed in `crates/core/src/footprint.rs`
//!    and nowhere else: the memory bound, the staging plans, serving
//!    admission and the executor's own allocations all read that one
//!    value, which is why they agree. Non-test code of `crates/core/src`
//!    may not call the byte-size primitives it is built from
//!    (`topology_bytes`, `intermediate_bytes`, `agg_cache_bytes`,
//!    `staging_bytes`) anywhere else. The comparator systems under
//!    `systems/` price *other* systems from whole-graph formulas and are
//!    exempt.
//! 7. **Cone-plan chokepoint.** The grid a serving or delta-replay
//!    sweep runs over — the session's batches split into runs, each
//!    GPU's cone rows of a run packed into one chunk — is built by the
//!    packer in `crates/core/src/serve.rs` and nowhere else, so every
//!    cone is priced, journaled and executed on the runs the run rule
//!    chose. The pass-11 verifier (`crates/verify/src/cache.rs`) rebuilds
//!    a journaled cone through the same builders. Non-test code outside
//!    those files and the builders' own (`crates/partition/src/`
//!    `two_level.rs`, `subgraph.rs`) may not call them. A cone's
//!    communication plans come from the packer too, counted from the
//!    unions that priced its runs, and a structural commit patches the
//!    session's plans in the batches it moved (`DedupPlan::patched`,
//!    `GpuBufferPlan::patched`): in the runtime crates (`core`,
//!    `serving`, `delta`, `cache`), non-test code calls the full plan
//!    builders (`DedupPlan::build`, `GpuBufferPlan::build_all`) only to
//!    derive a session's plans at construction (`commit.rs`, whose
//!    derivation the commit path shares) and to certify (`engine.rs`)
//!    or to price Alg. 4's candidate plans (`reorg.rs`).
//! 8. **Delta-cone growth chokepoint.** A delta cone grows along the
//!    out-edges of the topology its chunks were built from
//!    (`cone::upward`), at the cost of the cone. The chunk scan that finds
//!    the same rows without a graph (`cone::upward_scan`, reached also
//!    through `ConeOrigin::regrow`) costs the whole grid per hop, so
//!    outside its own module only the verifier (`crates/verify/`), which
//!    regrows journaled cones, and tests may call it.
//!
//! Exits 0 when clean, 1 with one line per violation otherwise. Wired
//! into `tools/check.sh` and CI's `check` job.

use std::fs;
use std::path::{Path, PathBuf};

/// The token patterns the lint hunts for, assembled at compile time so
/// this file — which the lint also scans — never contains them itself.
const UNSAFE_TOKEN: &str = concat!("uns", "afe ");
const TAG_TOKEN: &str = concat!(".t", "ag(");
const EXEC_READ_TOKEN: &str = concat!("config.", "exec");
const EXEC_VARIANT_TOKEN: &str = concat!("Execution", "Mode::");
const DEPRECATED_TOKENS: [&str; 2] = [concat!("#[", "deprecated"), concat!("allow(", "deprecated")];
const PACK_TOKENS: [&str; 4] = [
    concat!(".pac", "ked("),
    concat!(".pack", "_run("),
    concat!("ChunkSubgraph::", "pack("),
    concat!("Pack", "ing::"),
];
const SCAN_TOKENS: [&str; 2] = [concat!("upward", "_scan("), concat!(".re", "grow(")];
const PLAN_BUILDER_TOKENS: [&str; 2] = [
    concat!("DedupPlan::", "build("),
    concat!("GpuBufferPlan::", "build_all("),
];
const FOOTPRINT_TOKENS: [&str; 4] = [
    concat!(".topology", "_bytes("),
    concat!(".intermediate", "_bytes("),
    concat!(".agg_cache", "_bytes("),
    concat!(".staging", "_bytes("),
];

/// Files allowed to contain `GpuLane::tag` calls: the engine's emission
/// layer, the method's defining module, and the machine's unit tests.
const TAG_ALLOWLIST: [&str; 3] = [
    "crates/core/src/exec.rs",
    "crates/sim/src/lane.rs",
    "crates/sim/src/machine.rs",
];

/// The one file that may read the configured execution mode.
const EXEC_DISPATCHER: &str = "crates/core/src/exec.rs";

/// The one file that computes a step's device footprint, and the subtree
/// of comparator cost models the rule does not cover.
const FOOTPRINT_MODULE: &str = "crates/core/src/footprint.rs";
const COMPARATORS: &str = "crates/core/src/systems/";

/// The cone packer, the builders it packs with, and the verifier pass
/// that re-packs a journaled cone.
const PACKERS: [&str; 4] = [
    "crates/core/src/serve.rs",
    "crates/partition/src/two_level.rs",
    "crates/partition/src/subgraph.rs",
    "crates/verify/src/cache.rs",
];

/// The runtime crates' sources, and the files in them that may build a
/// session's full communication plans.
const RUNTIME_SOURCES: [&str; 4] = [
    "crates/core/src/",
    "crates/serving/src/",
    "crates/delta/src/",
    "crates/cache/src/",
];
const PLAN_BUILDERS: [&str; 3] = [
    "crates/core/src/engine.rs",
    "crates/core/src/commit.rs",
    "crates/core/src/reorg.rs",
];

/// The chunk scan's own module, and the verifier that may regrow with it.
const SCAN_MODULE: &str = "crates/partition/src/cone.rs";
const VERIFIER: &str = "crates/verify/";

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();

    let sources = rust_sources(&root);
    check_diag_catalogue(&root, &mut violations);
    check_unsafe_discipline(&root, &sources, &mut violations);
    check_tag_chokepoint(&root, &sources, &mut violations);
    check_exec_chokepoint(&root, &sources, &mut violations);
    check_no_deprecation(&root, &sources, &mut violations);
    check_footprint_chokepoint(&root, &sources, &mut violations);
    check_cone_plan_chokepoint(&root, &sources, &mut violations);
    check_cone_scan_chokepoint(&root, &sources, &mut violations);

    if violations.is_empty() {
        println!("lint: clean ({} source files scanned)", sources.len());
        return;
    }
    for v in &violations {
        eprintln!("lint: {v}");
    }
    eprintln!("lint: {} violation(s)", violations.len());
    std::process::exit(1);
}

/// All `.rs` files under `src/` and `crates/`, skipping build output.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["src", "crates"] {
        walk(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// The `(1-based line number, line)` pairs of a file's non-test code: up
/// to its `#[cfg(test)]` module, comment lines skipped.
fn code_lines(src: &str) -> impl Iterator<Item = (usize, &str)> {
    src.lines()
        .enumerate()
        .take_while(|(_, line)| !line.trim_start().starts_with("#[cfg(test)]"))
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
        .map(|(idx, line)| (idx + 1, line))
}

// ---------------------------------------- rule 1: diagnostic catalogue

/// Extracts `(Variant, "CODE")` pairs from the `DiagCode::code()` match.
/// Filters on shape — a single-identifier variant mapped to a
/// letter+digits code — so the `paper_ref()` arms (multi-variant
/// patterns, `§`-prefixed strings) in the same file don't match.
fn diag_codes(diag_src: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in diag_src.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("DiagCode::") else {
            continue;
        };
        let Some((variant, rhs)) = rest.split_once("=>") else {
            continue;
        };
        let variant = variant.trim();
        if variant.is_empty() || !variant.chars().all(|c| c.is_ascii_alphanumeric()) {
            continue;
        }
        let Some(code) = rhs
            .trim()
            .strip_prefix('"')
            .and_then(|r| r.split('"').next())
        else {
            continue;
        };
        let mut chars = code.chars();
        let shaped = chars.next().is_some_and(|c| c.is_ascii_uppercase())
            && code.len() > 1
            && chars.all(|c| c.is_ascii_digit());
        if !shaped {
            continue;
        }
        if !out.iter().any(|(v, _)| v == variant) {
            out.push((variant.to_string(), code.to_string()));
        }
    }
    out
}

fn check_diag_catalogue(root: &Path, violations: &mut Vec<String>) {
    let diag_src = read(&root.join("crates/verify/src/diag.rs"));
    let codes = diag_codes(&diag_src);
    if codes.is_empty() {
        violations.push("crates/verify/src/diag.rs: no DiagCode code() arms found".to_string());
        return;
    }

    let design = read(&root.join("DESIGN.md"));
    let mut test_corpus = String::new();
    for dir in ["crates/verify/tests", "tests"] {
        let mut files = Vec::new();
        walk(&root.join(dir), &mut files);
        for f in files {
            test_corpus.push_str(&read(&f));
        }
    }

    for (variant, code) in &codes {
        let cell = format!("| {code} |");
        let rows = design.lines().filter(|l| l.contains(&cell)).count();
        if rows != 1 {
            violations.push(format!(
                "DESIGN.md: diagnostic {code} ({variant}) has {rows} catalogue rows, want \
                 exactly 1"
            ));
        }
        let by_variant = format!("DiagCode::{variant}");
        let by_code = format!("\"{code}\"");
        if !test_corpus.contains(&by_variant) && !test_corpus.contains(&by_code) {
            violations.push(format!(
                "{code} ({variant}): no mutation test references it under \
                 crates/verify/tests/ or tests/"
            ));
        }
    }
}

// ----------------------------------- rule 2: memory-safety discipline

fn check_unsafe_discipline(root: &Path, sources: &[PathBuf], violations: &mut Vec<String>) {
    for path in sources {
        let relpath = rel(root, path);
        let inside_parallel = relpath.starts_with("crates/parallel/");
        let src = read(path);
        let lines: Vec<&str> = src.lines().collect();
        for (idx, line) in lines.iter().enumerate() {
            if !line.contains(UNSAFE_TOKEN) {
                continue;
            }
            if !inside_parallel {
                violations.push(format!(
                    "{relpath}:{}: {}code outside crates/parallel",
                    idx + 1,
                    UNSAFE_TOKEN
                ));
                continue;
            }
            if line.trim_start().starts_with("//") {
                continue;
            }
            let start = idx.saturating_sub(8);
            let documented = lines[start..idx].iter().any(|l| l.contains("SAFETY"));
            if !documented {
                violations.push(format!(
                    "{relpath}:{}: undocumented {}block (add a // SAFETY: comment within \
                     the preceding 8 lines)",
                    idx + 1,
                    UNSAFE_TOKEN
                ));
            }
        }
    }
}

// ------------------------------------------ rule 3: tagging chokepoint

fn check_tag_chokepoint(root: &Path, sources: &[PathBuf], violations: &mut Vec<String>) {
    for path in sources {
        let relpath = rel(root, path);
        if TAG_ALLOWLIST.contains(&relpath.as_str()) {
            continue;
        }
        let src = read(path);
        for (idx, line) in src.lines().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            if line.contains(TAG_TOKEN) {
                violations.push(format!(
                    "{relpath}:{}: GpuLane::tag call outside the engine's emission layer \
                     (allowed: {})",
                    idx + 1,
                    TAG_ALLOWLIST.join(", ")
                ));
            }
        }
    }
}

// --------------------------------- rule 4: execution-mode chokepoint

/// Whether `line` branches on an `ExecutionMode` variant: names one as
/// a match-arm pattern, compares against one, or tests one with
/// `matches!`. Naming a variant as a *value* (struct field, builder
/// default, parser result) is how configurations are built and is fine.
fn branches_on_exec_variant(line: &str) -> bool {
    let Some(at) = line.find(EXEC_VARIANT_TOKEN) else {
        return false;
    };
    let (before, after) = line.split_at(at);
    after.contains("=>")
        || before.trim_end().ends_with("==")
        || before.trim_end().ends_with("!=")
        || before.contains("matches!(")
}

fn check_exec_chokepoint(root: &Path, sources: &[PathBuf], violations: &mut Vec<String>) {
    for path in sources {
        let relpath = rel(root, path);
        if !relpath.starts_with("crates/core/src/") {
            continue;
        }
        let src = read(path);
        let mut dispatcher_reads = 0usize;
        for (lineno, line) in code_lines(&src) {
            let reads = line.contains(EXEC_READ_TOKEN);
            if relpath == EXEC_DISPATCHER {
                dispatcher_reads += usize::from(reads);
            } else if reads || branches_on_exec_variant(line) {
                violations.push(format!(
                    "{relpath}:{lineno}: execution mode consulted outside the per-GPU \
                     dispatcher ({EXEC_DISPATCHER})"
                ));
            }
        }
        if relpath == EXEC_DISPATCHER && dispatcher_reads != 1 {
            violations.push(format!(
                "{relpath}: the configured execution mode is read at {dispatcher_reads} sites, \
                 want exactly 1 (the dispatcher)"
            ));
        }
    }
}

// ------------------------------------- rule 5: no deprecation shims

fn check_no_deprecation(root: &Path, sources: &[PathBuf], violations: &mut Vec<String>) {
    let mut files = sources.to_vec();
    for dir in ["tests", "examples", "benchmark/src"] {
        walk(&root.join(dir), &mut files);
    }
    for path in &files {
        let src = read(path);
        for (idx, line) in src.lines().enumerate() {
            if DEPRECATED_TOKENS.iter().any(|t| line.contains(t)) {
                violations.push(format!(
                    "{}:{}: deprecation attribute — delete the item and migrate its callers \
                     instead",
                    rel(root, path),
                    idx + 1
                ));
            }
        }
    }
}

// ------------------------------------- rule 6: footprint chokepoint

fn check_footprint_chokepoint(root: &Path, sources: &[PathBuf], violations: &mut Vec<String>) {
    for path in sources {
        let relpath = rel(root, path);
        if !relpath.starts_with("crates/core/src/")
            || relpath.starts_with(COMPARATORS)
            || relpath == FOOTPRINT_MODULE
        {
            continue;
        }
        let src = read(path);
        for (lineno, line) in code_lines(&src) {
            if FOOTPRINT_TOKENS.iter().any(|t| line.contains(t)) {
                violations.push(format!(
                    "{relpath}:{lineno}: step footprint arithmetic outside {FOOTPRINT_MODULE} — \
                     read the `Footprint` value instead"
                ));
            }
        }
    }
}

// ------------------------------------ rule 7: cone-plan chokepoint

fn check_cone_plan_chokepoint(root: &Path, sources: &[PathBuf], violations: &mut Vec<String>) {
    for path in sources {
        let relpath = rel(root, path);
        if relpath.contains("/tests/") {
            continue;
        }
        let packs = !PACKERS.contains(&relpath.as_str());
        let builds = RUNTIME_SOURCES.iter().any(|dir| relpath.starts_with(dir))
            && !PLAN_BUILDERS.contains(&relpath.as_str());
        if !packs && !builds {
            continue;
        }
        let src = read(path);
        for (lineno, line) in code_lines(&src) {
            if packs && PACK_TOKENS.iter().any(|t| line.contains(t)) {
                violations.push(format!(
                    "{relpath}:{lineno}: packed cone plan built outside the packer — \
                     derive the cone with Session::plan_cone"
                ));
            }
            if builds && PLAN_BUILDER_TOKENS.iter().any(|t| line.contains(t)) {
                violations.push(format!(
                    "{relpath}:{lineno}: full communication plans built outside session \
                     derivation — a cone counts its plans from the packer's unions"
                ));
            }
        }
    }
}

// ----------------------------------- rule 8: delta-cone growth chokepoint

fn check_cone_scan_chokepoint(root: &Path, sources: &[PathBuf], violations: &mut Vec<String>) {
    for path in sources {
        let relpath = rel(root, path);
        if relpath.contains("/tests/") || relpath.starts_with(VERIFIER) || relpath == SCAN_MODULE {
            continue;
        }
        let src = read(path);
        for (lineno, line) in code_lines(&src) {
            if SCAN_TOKENS.iter().any(|t| line.contains(t)) {
                violations.push(format!(
                    "{relpath}:{lineno}: delta cone grown by the chunk scan — grow it along \
                     the committed graph's out-edges with cone::upward"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_code_extraction_parses_match_arms() {
        let src = r#"
            match self {
                DiagCode::ChunkOverlap => "P001",
                DiagCode::DroppedContribution => "F801",
            }
        "#;
        assert_eq!(
            diag_codes(src),
            vec![
                ("ChunkOverlap".to_string(), "P001".to_string()),
                ("DroppedContribution".to_string(), "F801".to_string()),
            ]
        );
    }

    #[test]
    fn exec_variant_branches_are_told_from_values() {
        let variant = |rest: &str| format!("{EXEC_VARIANT_TOKEN}{rest}");
        assert!(branches_on_exec_variant(&variant("Parallel => fork(),")));
        assert!(branches_on_exec_variant(&format!(
            "if mode == {}",
            variant("Parallel {")
        )));
        assert!(branches_on_exec_variant(&format!(
            "matches!(mode, {})",
            variant("Sequential)")
        )));
        assert!(!branches_on_exec_variant(&format!(
            "exec: {}",
            variant("Sequential,")
        )));
        assert!(!branches_on_exec_variant(&format!(
            "\"par\" => Ok({}),",
            variant("Parallel)")
        )));
    }

    /// The lint must pass on the repo it ships in — this is the same
    /// invocation `tools/check.sh` runs, minus the process boundary.
    #[test]
    fn repo_is_lint_clean() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let sources = rust_sources(&root);
        assert!(!sources.is_empty());
        let mut violations = Vec::new();
        check_diag_catalogue(&root, &mut violations);
        check_unsafe_discipline(&root, &sources, &mut violations);
        check_tag_chokepoint(&root, &sources, &mut violations);
        check_exec_chokepoint(&root, &sources, &mut violations);
        check_no_deprecation(&root, &sources, &mut violations);
        check_footprint_chokepoint(&root, &sources, &mut violations);
        check_cone_plan_chokepoint(&root, &sources, &mut violations);
        check_cone_scan_chokepoint(&root, &sources, &mut violations);
        assert!(violations.is_empty(), "{}", violations.join("\n"));
    }
}
