//! Figure 10: runtime and peak GPU memory of HongTu when the chunk *size*
//! grows ×1..×4 (i.e. the chunk count shrinks /1../4) — the
//! memory-vs-communication knob of §7.5.
//!
//! NOTE: the paper sweeps chunk **size** upward by *reducing* the number
//! of chunks... (its Figure 10 shows memory ↓ and runtime ↑ as the factor
//! grows, i.e. the factor multiplies the chunk *count*). We follow the
//! measured behaviour: multiplying the chunk count by k reduces memory
//! 51–65% and increases runtime 1.5×–2.2× at k = 4.

use hongtu_bench::{
    config::ExperimentConfig as C, dataset, format_bytes, format_seconds, header, Table,
};
use hongtu_core::HongTuConfig;
use hongtu_datasets::registry::large_keys;
use hongtu_nn::ModelKind;

fn main() {
    header(
        "Figure 10: runtime & peak GPU memory vs chunk-count factor (GCN)",
        "HongTu (SIGMOD 2023), Figure 10",
    );
    for key in large_keys() {
        let ds = dataset(key);
        println!("\n--- {} ---", key.abbrev());
        let mut t = Table::new(vec![
            "factor",
            "chunks/part",
            "epoch time",
            "peak GPU mem",
            "vs x1",
        ]);
        let base_chunks = C::chunks(key, ModelKind::Gcn);
        let mut base: Option<(f64, usize)> = None;
        for factor in 1..=4usize {
            let n = base_chunks * factor;
            let mut session = hongtu_core::Session::new(
                &ds,
                ModelKind::Gcn,
                C::hidden(key),
                2,
                n,
                HongTuConfig::full(C::machine(4)),
            )
            .expect("session");
            let r = session.trainer().epoch().expect("epoch");
            let peak = session.machine().max_gpu_peak();
            let (bt, bp) = *base.get_or_insert((r.time, peak));
            t.row(vec![
                format!("x{factor}"),
                n.to_string(),
                format_seconds(r.time),
                format_bytes(peak),
                format!(
                    "time {:.2}x, mem {:.0}%",
                    r.time / bt,
                    100.0 * peak as f64 / bp as f64
                ),
            ]);
        }
        t.print();
    }
    println!();
    println!("paper shape: at x4 chunks, memory consumption drops 51%-65% while the");
    println!("epoch time grows 1.5x-2.2x, linearly or sub-linearly in the factor.");
}
