//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! run one workload and print its layer table (traced runs), a metadata
//! record, and, as the last line, the JSON result.

use crowd4u_perfbench::report::{self, Scale, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <answers_deep|answers_shallow|collab_market|worker_churn> \
         --seed <u64> --seconds <secs> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or invalid argument");
    };
    let record = report::run(workload, seed, seconds, trace, Scale::Full);
    if !record.table.is_empty() {
        println!("per-layer table, {}:", workload.name());
        print!("{}", record.table);
    }
    for f in &record.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", record.meta_json());
    println!("{}", record.result_json());
    if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
