//! Table 9: cost of communication deduplication — 100-epoch runtime of a
//! 2-layer GCN with and without CD, plus the preprocessing overhead.
//!
//! Per-epoch simulated time is deterministic for a fixed plan, so the
//! 100-epoch figure is `100 × epoch_time` (verified identical across
//! epochs by the integration tests).

use hongtu_bench::{config::ExperimentConfig as C, dataset, format_seconds, header, run, Table};
use hongtu_core::{CommMode, HongTuConfig};
use hongtu_datasets::registry::large_keys;
use hongtu_nn::ModelKind;

fn main() {
    header(
        "Table 9: cost of communication deduplication (100-epoch GCN-2)",
        "HongTu (SIGMOD 2023), Table 9",
    );
    let mut t = Table::new(vec!["Engine", "IT", "OPR", "FDS"]);
    let mut without = vec!["HongTu w/o CD".to_string()];
    let mut with_cd = vec!["HongTu w/ CD".to_string()];
    let mut prep = vec!["Preprocessing".to_string()];
    for key in large_keys() {
        let ds = dataset(key);
        let wo = run::hongtu_epoch_with(&ds, ModelKind::Gcn, 2, 4, CommMode::Vanilla)
            .expect("vanilla epoch");
        let mut session =
            run::hongtu_session_with(&ds, ModelKind::Gcn, 2, 4, HongTuConfig::full(C::machine(4)))
                .expect("session");
        let wc = session.trainer().epoch().expect("CD epoch");
        without.push(format_seconds(100.0 * wo.time));
        with_cd.push(format_seconds(100.0 * wc.time));
        prep.push(format!(
            "+{}",
            format_seconds(session.preprocessing().seconds)
        ));
    }
    t.row(without);
    t.row(with_cd);
    t.row(prep);
    t.print();
    println!();
    println!("paper: 502.8/6260.2/4907.5 s without CD vs 359.6/2513.0/1554.1 s with,");
    println!("       preprocessing +4.5/+33.9/+22.7 s (≤1.5% of the 100-epoch run).");
}
