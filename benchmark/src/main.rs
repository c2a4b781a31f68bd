//! `hourglass-benchmark --workload W --seed N --seconds S --trace 0|1`,
//! run from the repository root (see `run.sh`). Prints every metric by
//! name and, as the last line, the result object.

use hourglass_benchmark::{host, render_result, render_text, run_named, spec, Args};
use std::path::Path;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2)
    });
    if host::nproc() < spec::WORKERS as usize {
        eprintln!(
            "error: the benchmark runs k = {} workers and this host offers {} core(s)",
            spec::WORKERS,
            host::nproc()
        );
        std::process::exit(2);
    }
    let out = Path::new("benchmark/out");
    std::fs::create_dir_all(out).expect("create benchmark/out");
    let report = run_named(&args, out);
    print!("{}", render_text(&report, &args));
    println!("{}", render_result(&report));
}
