//! Benchmark runner over Optique's public API.
//!
//! ```text
//! perfbench --workload <fanout_cold|fleet_served|stream_tasks>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process (so peak RSS is per workload). With
//! `--trace 0` the run measures end-to-end metrics with the platform's
//! tracing off; with `--trace 1` it measures the per-layer breakdown from
//! bench-side timers, a bench-owned tracer and fragment-executor wrapper,
//! and the spans and counters the program already returns. Every run
//! checks its answers against a reference and its workload's defining
//! properties; the last stdout line is the JSON result. Exit code 1 means
//! a wrong answer or a drifted workload property, 2 a usage error.
//! `perfbench/run.py` builds this binary and is the command to run.

mod common;
mod fanout;
mod fleet;
mod probe;
mod stream;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <fanout_cold|fleet_served|stream_tasks> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number(),
            "--seconds" => seconds = number().max(1),
            "--trace" => trace = number() != 0,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let outcome = match workload.as_str() {
        "fanout_cold" => fanout::run(seed, seconds, trace),
        "fleet_served" => fleet::run(seed, seconds, trace),
        "stream_tasks" => stream::run(seed, seconds, trace),
        other => usage(&format!("unknown workload {other}")),
    };
    if !outcome.print(&workload, trace) {
        std::process::exit(1);
    }
}
