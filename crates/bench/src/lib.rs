//! Shared infrastructure for the `paper` binary, which prints the paper's
//! tables and figures on the dataset proxies and the simulated platform:
//! `config` holds the scaled constants, `ctx` is the one session factory
//! every table builds on, `table` renders aligned text tables.

#![forbid(unsafe_code)]

pub mod config;
pub mod ctx;
pub mod table;

pub use config::ExperimentConfig;
pub use ctx::Ctx;
pub use table::Table;

use hongtu_sim::SimError;
use std::io::{self, Write};

/// Master seed for every experiment (printed in each header).
pub const SEED: u64 = 20230246; // HongTu is article 246 of PACMMOD 1(4)

/// Formats a runtime cell: seconds with 3–4 significant digits, or "OOM".
pub fn time_cell(r: &Result<f64, SimError>) -> String {
    match r {
        Ok(t) => format_seconds(*t),
        Err(SimError::OutOfMemory { .. }) => "OOM".to_string(),
        Err(e) => format!("ERR({e})"),
    }
}

/// Human-readable seconds.
pub fn format_seconds(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else if t >= 1.0 {
        format!("{t:.2}")
    } else if t >= 1e-3 {
        format!("{:.3}ms", t * 1e3).replace(".000ms", "ms")
    } else {
        format!("{:.1}us", t * 1e6)
    }
}

/// Human-readable bytes.
pub fn format_bytes(b: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b}B")
    } else {
        format!("{v:.1}{}", UNITS[u])
    }
}

/// Writes the standard experiment header.
pub fn header(w: &mut dyn Write, what: &str, paper_ref: &str) -> io::Result<()> {
    let rule = "================================================================";
    writeln!(w, "{rule}\n{what}\nreproduces: {paper_ref}")?;
    writeln!(
        w,
        "seed: {SEED}   (all runtimes are simulated-platform seconds)\n{rule}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_seconds_ranges() {
        assert_eq!(format_seconds(123.4), "123");
        assert_eq!(format_seconds(1.234), "1.23");
        assert!(format_seconds(0.012).ends_with("ms"));
        assert!(format_seconds(1e-5).ends_with("us"));
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512B");
        assert_eq!(format_bytes(2048), "2.0KB");
        assert_eq!(format_bytes(3 << 20), "3.0MB");
    }

    #[test]
    fn oom_cell() {
        let e: Result<f64, SimError> = Err(SimError::OutOfMemory {
            device: "x".into(),
            label: "y".into(),
            requested: 1,
            in_use: 0,
            capacity: 0,
        });
        assert_eq!(time_cell(&e), "OOM");
        assert_eq!(time_cell(&Ok(2.0)), "2.00");
    }
}
