//! The repo's benchmark: four lifecycle workloads on two clocks.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run, one process
//! benchmark [--trace] [--repeat] [--smoke] [--seed N] [--seconds S]  every workload, a fresh process each
//! benchmark compare A B                                             two result files or directories
//! ```
//!
//! See `benchmark/README.md` for the metrics, the workloads and why.

mod compare;
mod gen;
mod json;
mod layers;
mod lifecycle;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: bool,
    smoke: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--repeat] [--smoke]\n\
         \x20      benchmark compare A B\n\
         workloads: {}",
        workloads::all()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: workloads::NOMINAL_SECONDS as f64,
        trace: false,
        repeat: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            // The driver passes `--trace 0|1`; by hand a bare `--trace` is on.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--repeat" => args.repeat = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke {
        args.seconds = workloads::NOMINAL_SECONDS as f64 / 10.0;
        args.workload
            .get_or_insert_with(|| "rdt_gat_dense".to_string());
    }
    Ok(args)
}

/// The benchmark's own directory: `HONGTU_BENCH_DIR` as `run.sh` sets
/// it, else `benchmark/` under the current directory.
fn bench_dir() -> PathBuf {
    std::env::var_os("HONGTU_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One workload in this process. Returns whether every check held.
fn run_one(origin: Instant, args: &Args, out_dir: &Path) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("run_one needs a workload");
    let w = workloads::by_name(name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?
        .scaled(args.seconds);
    let mut rec = Recorder::new(origin, args.trace);
    let mut out = lifecycle::run(&w, args.seed, &mut rec);
    report::print_outcome(&w, &out);
    let layers = args
        .trace
        .then(|| probes::run(&w, args.seed, &mut out, &mut rec));
    let stamp = report::stamp(args.seed, args.seconds);
    let record = report::run_json(&w, &out, stamp, layers.as_ref());
    let correct = out
        .checks
        .iter()
        .chain(layers.iter().flat_map(|l| &l.checks))
        .all(|c| c.ok);
    let tally = out.tally;

    let line = if let Some(layers) = &layers {
        probes::print(layers, &rec);
        write_file(
            &out_dir.join(format!("layers_{name}.json")),
            &record.render_pretty(),
        )?;
        write_file(
            &out_dir.join(format!("trace_{name}.json")),
            &spans::chrome_trace(rec.spans(), name).render(),
        )?;
        let metrics = layers.metrics.iter().map(|m| (m.name, m.value, m.unit));
        report::driver_line(correct, tally.attempted, tally.failed, metrics)
    } else {
        write_file(
            &out_dir.join(format!("{name}.json")),
            &record.render_pretty(),
        )?;
        let metrics = out
            .metrics
            .iter()
            .filter(|m| lifecycle::END_TO_END.contains(&m.name))
            .map(|m| (m.name, m.value, m.unit));
        report::driver_line(correct, tally.attempted, tally.failed, metrics)
    };
    println!("{line}");
    Ok(correct)
}

/// Every workload, each in a fresh process of this same executable so
/// `peak_rss_mb` is the workload's own. Result files land in `out_dir`.
fn run_set(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut all_ok = true;
    for w in workloads::all() {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .env("HONGTU_BENCH_OUT", out_dir)
            .status()
            .map_err(|e| format!("starting {}: {e}", w.name))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn run_all(args: &Args) -> Result<bool, String> {
    let out = bench_dir().join("out");
    if !args.repeat {
        let ok = run_set(args, &out)?;
        let prefix = if args.trace { "layers_" } else { "" };
        let merged = compare::merge_dir(&out, prefix)?;
        let name = if args.trace {
            "run_layers.json"
        } else {
            "run.json"
        };
        write_file(&out.join(name), &merged.render_pretty())?;
        println!("wrote {}", out.join(name).display());
        return Ok(ok);
    }
    let (a, b) = (out.join("a"), out.join("b"));
    let ok = run_set(args, &a)? & run_set(args, &b)?;
    let bounds = compare::load_bounds(&bench_dir().join("..").join("BENCHMARK.json"))?;
    let verdict = compare::compare_paths(&a, &b, &bounds)?;
    print!("{}", verdict.text);
    Ok(ok && verdict.ok)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a non-release build (use run.sh or --release)");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return usage();
        };
        let bounds = match compare::load_bounds(&bench_dir().join("..").join("BENCHMARK.json")) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::from(2);
            }
        };
        return match compare::compare_paths(Path::new(a), Path::new(b), &bounds) {
            Ok(v) => {
                print!("{}", v.text);
                if v.ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return usage();
        }
    };
    let result = if args.workload.is_some() {
        let out_dir = std::env::var_os("HONGTU_BENCH_OUT")
            .map_or_else(|| bench_dir().join("out"), PathBuf::from);
        run_one(origin, &args, &out_dir)
    } else {
        run_all(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_and_hand_form_of_trace_both_parse() {
        let a = parse(&[
            "--workload",
            "it_gcn_plan",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("it_gcn_plan"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, false));
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        let a = parse(&["--trace", "--repeat"]).unwrap();
        assert!(a.trace && a.repeat);
    }

    #[test]
    fn smoke_is_a_tenth_of_the_counts_on_one_workload() {
        let a = parse(&["--smoke"]).unwrap();
        assert_eq!(a.seconds, workloads::NOMINAL_SECONDS as f64 / 10.0);
        assert_eq!(a.workload.as_deref(), Some("rdt_gat_dense"));
    }

    #[test]
    fn bad_arguments_are_errors() {
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
