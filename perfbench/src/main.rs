//! `vom-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits 1
//! when any correctness check failed and 2 on a usage error.

use std::process::ExitCode;
use vom_perfbench::workloads::{Size, WorkloadId};
use vom_perfbench::{run, Config, DEFAULT_SEED};

const USAGE: &str = "usage: vom-perfbench --workload <yelp-plurality|yelp-dm-cumulative|\
rmat-1m-cumulative> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(WorkloadId::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !(seconds > 0.0 && f64::is_finite(seconds)) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut cfg = Config::new(workload, seed, seconds, trace, Size::Full);
    cfg.trace_dir = Some(concat!(env!("CARGO_MANIFEST_DIR"), "/traces").into());
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
