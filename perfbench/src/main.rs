//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! `[--write-expected]`
//!
//! Prints human-readable detail, then one JSON result line with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits 1 without
//! a result line when an answer is wrong or the run fails, 2 on bad
//! arguments.

use perfbench::{alloc::CountingAlloc, Options, Scale};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        write_expected: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--write-expected" => opts.write_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !perfbench::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            perfbench::WORKLOADS.join(", ")
        ));
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&opts) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            let counters: Vec<String> = report
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!("work counters: {}", counters.join(" "));
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
