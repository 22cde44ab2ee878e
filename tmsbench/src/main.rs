//! `tmsbench --workload <live|replay|monitor|fleet> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, then one JSON result line (see README.md). Exits 2 on a
//! usage error; a failed correctness check shows as `"correct": false`.

use tmsbench::{Options, Size, Workload};

const USAGE: &str =
    "usage: tmsbench --workload <live|replay|monitor|fleet> --seed <n> --seconds <s> --trace <0|1>";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage_error(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage_error(&format!("unknown workload {value}"))),
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed takes a whole number"));
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage_error("--seconds takes a number of seconds"));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                };
            }
            _ => usage_error(&format!("unknown flag {flag}")),
        }
    }
    Options {
        workload: workload.unwrap_or_else(|| usage_error("--workload is required")),
        seed,
        seconds,
        trace,
        size: Size::Full,
    }
}

fn main() {
    let report = tmsbench::run(&parse_args());
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.json_line());
}
