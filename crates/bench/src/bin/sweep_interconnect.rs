//! Extension experiment: sensitivity of the dedup speedup to the
//! inter-GPU : host-GPU bandwidth ratio.
//!
//! §5.3 argues inter-GPU sharing helps exactly when `T_dd ≫ T_hd` while
//! intra-GPU reuse always helps. This sweep varies the NVLink bandwidth
//! from PCIe-parity (ratio 1) to NVLink-3.0 (ratio ~6.3) and beyond,
//! reporting the end-to-end dedup speedup on the duplication-heavy
//! friendster proxy.

use hongtu_bench::{config::ExperimentConfig as C, dataset, format_seconds, header, run, Table};
use hongtu_core::{CommMode, HongTuConfig};
use hongtu_datasets::DatasetKey;
use hongtu_nn::ModelKind;

fn main() {
    header(
        "Extension: dedup speedup vs inter-GPU bandwidth (FDS, GCN-2)",
        "HongTu (SIGMOD 2023), §5.3 'effectiveness with various interconnects'",
    );
    let ds = dataset(DatasetKey::Fds);
    let mut t = Table::new(vec![
        "T_dd / T_hd",
        "baseline",
        "+P2P",
        "+RU",
        "dedup speedup",
    ]);
    for ratio in [1.0f64, 2.0, 4.0, 6.25, 12.5, 25.0] {
        let mut machine = C::machine(4);
        machine.nvlink_bw = machine.pcie_bw * ratio;
        let time = |comm: CommMode| {
            let mut cfg = HongTuConfig::full(machine.clone());
            cfg.comm = comm;
            cfg.reorganize = comm != CommMode::Vanilla;
            run::hongtu_session_with(&ds, ModelKind::Gcn, 2, 4, cfg)
                .and_then(|mut s| s.trainer().epoch())
                .expect("epoch")
                .time
        };
        let base = time(CommMode::Vanilla);
        let p2p = time(CommMode::P2p);
        let ru = time(CommMode::P2pRu);
        t.row(vec![
            format!("{ratio:.2}x"),
            format_seconds(base),
            format_seconds(p2p),
            format_seconds(ru),
            format!("{:.2}x", base / ru),
        ]);
    }
    t.print();
    println!();
    println!("shape: at PCIe parity (1x) the gain comes from intra-GPU reuse alone;");
    println!("the inter-GPU contribution grows with the link ratio and saturates once");
    println!("D2D time vanishes from the critical path — matching §5.3's discussion.");
}
