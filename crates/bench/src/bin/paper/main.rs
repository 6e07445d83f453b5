//! `paper <name>` prints one of the paper's tables or figures; `paper all`
//! rewrites every `results/<name>.txt`. Output is seeded and deterministic,
//! so `git diff results/` after `paper all` shows exactly what a change
//! moved.

mod extensions;
mod figures;
mod tables;

use hongtu_bench::Ctx;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

type Experiment = fn(&Ctx, &mut dyn Write) -> io::Result<()>;

/// Every table and figure, under the name of its `results/` file.
const EXPERIMENTS: [(&str, Experiment); 18] = [
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("table6", tables::table6),
    ("table7", tables::table7),
    ("table8", tables::table8),
    ("table9", tables::table9),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("ablation", extensions::ablation),
    ("calibrate", extensions::calibrate),
    ("models_matrix", extensions::models_matrix),
    ("sweep_interconnect", extensions::sweep_interconnect),
    ("time_to_accuracy", extensions::time_to_accuracy),
];

/// Rewrites every `results/<name>.txt`; each table's wall time to stderr.
fn all(ctx: &Ctx) -> io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (name, run) in EXPERIMENTS {
        let start = Instant::now();
        let mut out = Vec::new();
        run(ctx, &mut out)?;
        std::fs::write(dir.join(format!("{name}.txt")), out)?;
        eprintln!("{name:<20} {:>7.1} s", start.elapsed().as_secs_f64());
    }
    Ok(())
}

fn main() -> io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = Ctx::default();
    match args.as_slice() {
        [name] if name == "all" => all(&ctx),
        [name] => match EXPERIMENTS.iter().find(|(n, _)| n == name) {
            Some((_, run)) => run(&ctx, &mut io::stdout().lock()),
            None => usage(),
        },
        _ => usage(),
    }
}

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: paper <{}|all>", names.join("|"));
    std::process::exit(2)
}
