//! Runs one benchmark workload and prints its result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result; everything
//! before it is a human-readable account of the run. The exit code is 0
//! only when every output check passed.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::trace::{self_time_by_name, to_chrome_json, Trace};
use perfbench::{workload, Workload};
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    println!(
        "workload {}  seed {}  seconds {}  trace {}  nproc {}  {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("PERFBENCH_RUSTC")
    );
    let mut trace = Trace::new(args.trace, Instant::now());
    let mut report = match &w {
        Workload::Eval(e) => {
            perfbench::eval::run(e, args.seed, args.seconds, args.trace, &mut trace)
        }
        Workload::Serve(s) => {
            perfbench::serve::run(s, args.seed, args.seconds, args.trace, &mut trace)
        }
    };
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in catalog {
        if let Some(v) = report.values.get(name) {
            println!("{name:>26}  {v:>14.4} {unit}");
        }
    }
    if args.trace {
        for (name, (count, self_ns)) in self_time_by_name(trace.spans()) {
            println!(
                "span {name:>20}  count {count:>8}  self {:>10.3} ms",
                self_ns as f64 / 1e6
            );
        }
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, to_chrome_json(trace.spans())))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    let line = report.json_line(catalog);
    println!("{line}");
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}
