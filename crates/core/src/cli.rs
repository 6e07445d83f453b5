//! Shared command-line flag parsing for the HongTu binaries.
//!
//! The CLIs (`train`, `infer`, `verify`) share one set of flag-value
//! parsers, so a flag is spelled the same way everywhere: each parser
//! accepts every spelling any of them takes (`--comm full` and `--comm
//! p2pru` alike).
//!
//! All parsers are `fn(&str) -> Result<T, String>` — the binaries decide
//! how to report errors (usage text, exit codes).

use crate::engine::{CommMode, ExecutionMode, MemoryStrategy, Mode, OverlapMode};
use hongtu_cache::{CachePolicy, DegreeRanked, FrequencyRanked, Off as CacheOff};
use hongtu_datasets::{all_keys, DatasetKey};
use hongtu_nn::ModelKind;
use hongtu_tensor::Matrix;

/// Parses one dataset key. Accepts the short key (`rdt`) and the real
/// dataset name (`reddit`).
pub fn parse_dataset(s: &str) -> Result<DatasetKey, String> {
    match s.to_ascii_lowercase().as_str() {
        "rdt" | "reddit" => Ok(DatasetKey::Rdt),
        "opt" | "products" => Ok(DatasetKey::Opt),
        "it" | "it-2004" => Ok(DatasetKey::It),
        "opr" | "papers" => Ok(DatasetKey::Opr),
        "fds" | "friendster" => Ok(DatasetKey::Fds),
        other => Err(format!(
            "unknown dataset {other:?} (want rdt|opt|it|opr|fds)"
        )),
    }
}

/// Parses a dataset selection that may be `all`.
pub fn parse_datasets(s: &str) -> Result<Vec<DatasetKey>, String> {
    if s.eq_ignore_ascii_case("all") {
        Ok(all_keys().to_vec())
    } else {
        parse_dataset(s)
            .map(|k| vec![k])
            .map_err(|e| e.replace("rdt|opt|it|opr|fds", "rdt|opt|it|opr|fds|all"))
    }
}

/// Parses a model kind.
pub fn parse_model(s: &str) -> Result<ModelKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "gcn" => Ok(ModelKind::Gcn),
        "gat" => Ok(ModelKind::Gat),
        "sage" => Ok(ModelKind::Sage),
        "gin" => Ok(ModelKind::Gin),
        "commnet" => Ok(ModelKind::CommNet),
        "ggnn" | "ggcn" => Ok(ModelKind::Ggnn),
        other => Err(format!(
            "unknown model {other:?} (want gcn|gat|sage|gin|commnet|ggnn)"
        )),
    }
}

/// Parses a communication mode. `full` and `p2p+ru` are aliases for
/// `p2pru`; `baseline` is an alias for `vanilla`.
pub fn parse_comm(s: &str) -> Result<CommMode, String> {
    match s.to_ascii_lowercase().as_str() {
        "vanilla" | "baseline" => Ok(CommMode::Vanilla),
        "p2p" => Ok(CommMode::P2p),
        "p2pru" | "p2p+ru" | "full" => Ok(CommMode::P2pRu),
        other => Err(format!(
            "unknown comm mode {other:?} (want vanilla|p2p|p2pru|full)"
        )),
    }
}

/// Parses an intermediate-data memory strategy.
pub fn parse_memory(s: &str) -> Result<MemoryStrategy, String> {
    match s.to_ascii_lowercase().as_str() {
        "recompute" => Ok(MemoryStrategy::Recompute),
        "hybrid" => Ok(MemoryStrategy::Hybrid),
        other => Err(format!(
            "unknown memory strategy {other:?} (want recompute|hybrid)"
        )),
    }
}

/// Parses a host execution mode.
pub fn parse_exec(s: &str) -> Result<ExecutionMode, String> {
    match s.to_ascii_lowercase().as_str() {
        "sequential" | "seq" => Ok(ExecutionMode::Sequential),
        "parallel" | "par" => Ok(ExecutionMode::Parallel),
        other => Err(format!(
            "unknown execution mode {other:?} (want sequential|parallel)"
        )),
    }
}

/// Parses a transfer/compute overlap mode.
pub fn parse_overlap(s: &str) -> Result<OverlapMode, String> {
    match s.to_ascii_lowercase().as_str() {
        "off" => Ok(OverlapMode::Off),
        "doublebuffer" | "db" => Ok(OverlapMode::DoubleBuffer),
        other => Err(format!(
            "unknown overlap mode {other:?} (want off|doublebuffer)"
        )),
    }
}

/// Parses a hot-vertex cache policy selection into the trait object the
/// [`HongTuConfigBuilder::cache`](crate::engine::HongTuConfigBuilder::cache)
/// setter takes.
pub fn parse_cache(s: &str) -> Result<std::sync::Arc<dyn CachePolicy>, String> {
    match s.to_ascii_lowercase().as_str() {
        "off" | "none" => Ok(std::sync::Arc::new(CacheOff)),
        "freq" | "frequency" => Ok(std::sync::Arc::new(FrequencyRanked)),
        "degree" | "deg" => Ok(std::sync::Arc::new(DegreeRanked)),
        other => Err(format!(
            "unknown cache policy {other:?} (want off|freq|degree)"
        )),
    }
}

/// Parses a session mode (training vs forward-only inference).
pub fn parse_mode(s: &str) -> Result<Mode, String> {
    match s.to_ascii_lowercase().as_str() {
        "train" => Ok(Mode::Train),
        "infer" | "inference" | "serve" => Ok(Mode::Infer),
        other => Err(format!("unknown mode {other:?} (want train|infer)")),
    }
}

/// Shared argv walker for the binaries' flag loops.
///
/// Every bin used to hand-roll the same `while let Some(flag) = it.next()`
/// loop with a local closure for pulling the flag's value token. This
/// wraps that loop: [`next_flag`](FlagParser::next_flag) yields raw flag
/// tokens, and the `value*` methods consume the following token with a
/// uniform `"--x requires a value"` error. Error *reporting* (usage
/// text, exit codes) stays with the caller, matching the rest of this
/// module.
pub struct FlagParser {
    args: std::vec::IntoIter<String>,
}

impl FlagParser {
    /// Walks `std::env::args()`, skipping the program name.
    pub fn from_env() -> Self {
        FlagParser {
            args: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        }
    }

    /// Walks an explicit argv vector (tests, pre-collected args).
    pub fn new(argv: Vec<String>) -> Self {
        FlagParser {
            args: argv.into_iter(),
        }
    }

    /// Next flag token, or `None` when argv is exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Consumes the value token following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// Consumes and `str::parse`s the value token following `flag`.
    pub fn parse_value<T>(&mut self, flag: &str) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }

    /// Consumes the value token following `flag` and feeds it through one
    /// of this module's `parse_*` helpers (or any compatible closure).
    pub fn value_with<T>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        parse(&self.value(flag)?)
    }
}

/// FNV-1a digest over a logits matrix's exact f32 bit patterns: two runs
/// print the same digest iff their logits are bitwise identical, which
/// is how the CLIs assert the determinism contract cheaply.
pub fn logits_digest(m: &Matrix) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &x in m.as_slice() {
        for b in x.to_bits().to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash ^= m.rows() as u64;
    hash = hash.wrapping_mul(PRIME);
    hash ^= m.cols() as u64;
    hash.wrapping_mul(PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_aliases_agree() {
        for s in ["p2pru", "p2p+ru", "full", "P2PRU"] {
            assert_eq!(parse_comm(s).unwrap(), CommMode::P2pRu, "{s}");
        }
        for s in ["vanilla", "baseline"] {
            assert_eq!(parse_comm(s).unwrap(), CommMode::Vanilla, "{s}");
        }
        assert!(parse_comm("nvlink").is_err());
    }

    #[test]
    fn datasets_all_expands() {
        assert_eq!(parse_datasets("all").unwrap(), all_keys().to_vec());
        assert_eq!(parse_datasets("reddit").unwrap(), vec![DatasetKey::Rdt]);
        assert!(parse_datasets("imagenet").is_err());
    }

    #[test]
    fn mode_and_exec_spellings() {
        assert_eq!(parse_mode("serve").unwrap(), Mode::Infer);
        assert_eq!(parse_mode("TRAIN").unwrap(), Mode::Train);
        assert!(parse_mode("eval").is_err());
        assert_eq!(parse_exec("par").unwrap(), ExecutionMode::Parallel);
        assert_eq!(parse_overlap("db").unwrap(), OverlapMode::DoubleBuffer);
    }

    #[test]
    fn cache_policy_spellings() {
        for (s, name, enabled) in [
            ("off", "off", false),
            ("none", "off", false),
            ("freq", "freq", true),
            ("FREQUENCY", "freq", true),
            ("degree", "degree", true),
            ("deg", "degree", true),
        ] {
            let p = parse_cache(s).unwrap();
            assert_eq!(p.name(), name, "{s}");
            assert_eq!(p.enabled(), enabled, "{s}");
        }
        assert!(parse_cache("lru").is_err());
    }

    #[test]
    fn flag_parser_walks_flags_and_values() {
        let argv: Vec<String> = ["--gpus", "4", "--comm", "full", "--measure"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut p = FlagParser::new(argv);
        assert_eq!(p.next_flag().as_deref(), Some("--gpus"));
        assert_eq!(p.parse_value::<usize>("--gpus").unwrap(), 4);
        assert_eq!(p.next_flag().as_deref(), Some("--comm"));
        assert_eq!(p.value_with("--comm", parse_comm).unwrap(), CommMode::P2pRu);
        assert_eq!(p.next_flag().as_deref(), Some("--measure"));
        assert_eq!(p.next_flag(), None);
        // A flag at the end of argv has no value token.
        let argv: Vec<String> = vec!["--seed".to_string()];
        let mut p = FlagParser::new(argv);
        p.next_flag();
        assert_eq!(
            p.parse_value::<u64>("--seed").unwrap_err(),
            "--seed requires a value"
        );
    }

    #[test]
    fn digest_separates_bitwise_differences() {
        let mut a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(3, 2);
        assert_eq!(logits_digest(&a), logits_digest(&b));
        // -0.0 == 0.0 under f32 comparison but differs bitwise: the
        // digest must see it.
        a.as_mut_slice()[0] = -0.0;
        assert_ne!(logits_digest(&a), logits_digest(&b));
        // Shape is part of the digest.
        assert_ne!(
            logits_digest(&Matrix::zeros(2, 3)),
            logits_digest(&Matrix::zeros(3, 2))
        );
    }
}
