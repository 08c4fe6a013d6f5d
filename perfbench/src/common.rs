//! Shared plumbing: seeded inputs, sample statistics, the metric catalog
//! and the result line every workload prints.

use std::time::{Duration, Instant};

/// Federated pools in every workload use this many ExaStream workers.
pub const POOL_WORKERS: usize = 2;

/// Deterministic input generator (SplitMix64): the same seed always
/// yields the same inputs, independent of the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            out.swap(i, j);
        }
        out
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of an unsorted sample (`0.0` when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples strictly above the nearest-rank `p`-th percentile position.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Interquartile range over the median.
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 4 || m == 0.0 {
        return 0.0;
    }
    (percentile(samples, 75.0) - percentile(samples, 25.0)) / m
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `runs` times and returns the wall time of each build in
/// seconds with the last value built (earlier ones are dropped before the
/// next build starts, so peak memory holds one deployment).
pub fn timed_setups<T>(runs: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        drop(last.take());
        let started = Instant::now();
        let built = setup();
        times.push(started.elapsed().as_secs_f64());
        last = Some(built);
    }
    (times, last.expect("at least one setup"))
}

/// Consecutive blocks a stationary run's medians and rates are taken
/// over, and its tails (fewer, so each block keeps samples beyond its
/// tail).
const BLOCKS: usize = 5;
const TAIL_BLOCKS: usize = 3;

/// Percentile `p` of time-ordered `samples`, steady against host
/// slowdowns that hit only part of a run: the median of the percentile
/// over `blocks` consecutive, equal blocks of the samples (an odd count;
/// a remainder of fewer than `blocks` samples is left out).
/// Returns the median and the blocks' values.
pub fn block_percentile(samples: &[f64], p: f64, blocks: usize) -> (f64, Vec<f64>) {
    let per = samples.len() / blocks;
    if per == 0 {
        return (percentile(samples, p), Vec::new());
    }
    let stats: Vec<f64> = samples
        .chunks(per)
        .take(blocks)
        .map(|block| percentile(block, p))
        .collect();
    (median(&stats), stats)
}

/// Operations per second: the median over `blocks` equal spans of the
/// window of the operations finished in each (`done_at` in seconds since
/// the window opened). Returns the median and the blocks' rates.
pub fn block_rate(done_at: &[f64], elapsed: f64, blocks: usize) -> (f64, Vec<f64>) {
    let span = elapsed / blocks as f64;
    let mut counts = vec![0usize; blocks];
    for &at in done_at {
        counts[((at / span) as usize).min(blocks - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / span).collect();
    (median(&rates), rates)
}

/// Every end-to-end metric, in report order, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric (traced run), in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sparql.parse_us", "us"),
    ("sparql.cache_hit_ratio", "ratio"),
    ("sparql.cache_lookup_us", "us"),
    ("sparql.plan_us", "us"),
    ("sparql.semi_joins_pushed", "count"),
    ("sparql.bgp_self_us", "us"),
    ("sparql.finish_us", "us"),
    ("rewrite.us", "us"),
    ("rewrite.ucq_disjuncts", "count"),
    ("unfold.us", "us"),
    ("unfold.sql_disjuncts", "count"),
    ("federation.round_us", "us"),
    ("federation.fragments", "count"),
    ("federation.coordinator_us", "us"),
    ("federation.fallbacks", "count"),
    ("exastream.worker_busy_us", "us"),
    ("exastream.queue_us", "us"),
    ("exastream.skew", "ratio"),
    ("exastream.plan_cache_hit_ratio", "ratio"),
    ("exastream.wire_bytes", "bytes"),
    ("exastream.fragment_rows", "count"),
    ("exastream.shards_pruned", "count"),
    ("novelty.insert_us", "us"),
    ("novelty.depth_max", "rows"),
    ("novelty.merges", "count"),
    ("novelty.merge_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.shed", "count"),
    ("starql.tick_us", "us"),
    ("starql.tick_us.T01", "us"),
    ("starql.tick_us.T05", "us"),
    ("starql.tick_us.T09", "us"),
    ("starql.tick_us.T13", "us"),
    ("starql.tick_us.T17", "us"),
    ("starql.tick_us.T18", "us"),
    ("starql.tick_us.pane", "us"),
    ("starql.window_build_us", "us"),
    ("stream.wcache_lookup_us", "us"),
    ("starql.scatter_us", "us"),
    ("starql.r2s_us", "us"),
    ("starql.pane_combine_us", "us"),
    ("stream.wcache_hit_ratio", "ratio"),
    ("starql.pane_hit_ratio", "ratio"),
    ("starql.tuples_in_window", "count"),
    ("starql.stream_rows_shipped", "count"),
    ("starql.bindings_checked", "count"),
    ("starql.satisfied", "count"),
    ("append.self_us", "us"),
    ("static_query.unattributed_us", "us"),
    ("bgp.unattributed_us", "us"),
    ("federation.unattributed_us", "us"),
    ("tick.unattributed_us", "us"),
    ("coverage.static_query", "ratio"),
    ("coverage.bgp", "ratio"),
    ("coverage.exec", "ratio"),
    ("coverage.tick", "ratio"),
    ("tracing.overhead_ratio", "ratio"),
    ("tracing.overhead_iqr", "ratio"),
    ("single_node.throughput_ops_s", "1/s"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that errored, were shed, or answered wrongly.
    pub failed: u64,
    /// Answers that disagreed with the reference (a subset of `failed`).
    pub wrong: u64,
    /// Workload properties the run drifted from (each fails the run).
    pub violations: Vec<String>,
    /// `(name, value, samples)` — looked up against the catalogs above.
    pub metrics: Vec<(String, f64, usize)>,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        // `+ 0.0` turns a negative zero into zero.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.metrics.push((name.to_string(), value, samples));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn violation(&mut self, line: impl Into<String>) {
        self.violations.push(line.into());
    }

    /// Records one failed operation; `wrong` marks a wrong answer.
    pub fn fail(&mut self, wrong: bool, why: impl Into<String>) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
        // Keep the log readable: the first few failures say enough.
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {}", why.into()));
        }
    }

    /// Prints the human-readable report, then the result line, and returns
    /// whether the run passed (correct answers, no drifted property).
    pub fn print(&self, workload: &str, trace: bool) -> bool {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        println!(
            "# perfbench {workload} ({})",
            if trace { "traced" } else { "untraced" }
        );
        for note in &self.notes {
            println!("# {note}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "metric error_rate = {error_rate} ratio (n={})",
            self.attempted
        );
        let mut json = Vec::with_capacity(catalog.len());
        for (name, unit) in catalog {
            let (value, samples) = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or((0.0, 0), |(_, v, s)| (*v, *s));
            println!("metric {name} = {value} {unit} (n={samples})");
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for v in &self.violations {
            println!("# PROPERTY VIOLATED: {v}");
        }
        let correct = self.wrong == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        correct && self.violations.is_empty()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// What an untraced run measured, for [`report_end_to_end`].
pub struct Window {
    /// Wall time of each set-up (deploy + register + warm-up), seconds.
    pub setups: Vec<f64>,
    /// Primary-operation latencies in ms, in completion order.
    pub latencies: Vec<f64>,
    /// Write latencies in ms, in completion order.
    pub writes: Vec<f64>,
    /// The workload's fixed `(latency, write)` tail percentiles: the
    /// highest of p99/p95 its run length supports.
    pub tails: (f64, f64),
    /// When each operation counted in throughput finished, in seconds
    /// since the window opened.
    pub done_at: Vec<f64>,
    /// Length of the measured window, seconds.
    pub elapsed: f64,
    /// `VmHWM` read as the window closed, before any reference check.
    pub peak_rss_mb: f64,
    /// Whether the workload's data stays the same size through the window.
    /// Then a host slowdown that hits part of the run is the main noise,
    /// and each figure is the median of its value over consecutive blocks
    /// of the window, so such a slowdown moves one block, not the figure.
    /// A workload whose tables grow as it runs gets slower block by block;
    /// its figures are taken over the whole window, as a middle block
    /// would only sample fewer operations of the same trend.
    pub stationary: bool,
}

/// Latency, throughput, write and memory metrics of an untraced run. A
/// tail with fewer than ten samples beyond it violates the workload.
pub fn report_end_to_end(out: &mut Outcome, w: &Window) {
    for (what, samples, p) in [
        ("latency", &w.latencies, w.tails.0),
        ("write", &w.writes, w.tails.1),
    ] {
        let n = beyond(samples.len(), p);
        out.note(format!(
            "{what} tail = p{p} over {} samples ({n} beyond); p90/p95/p99/max = {:.3}/{:.3}/{:.3}/{:.3} ms",
            samples.len(),
            percentile(samples, 90.0),
            percentile(samples, 95.0),
            percentile(samples, 99.0),
            percentile(samples, 100.0),
        ));
        if n < 10 {
            out.violation(format!("{what} p{p} has {n} samples beyond it, under 10"));
        }
    }
    out.note(format!("setups {:.4?} s", w.setups));
    out.metric("setup_s", median(&w.setups), w.setups.len());
    let (blocks, tail_blocks) = if w.stationary {
        (BLOCKS, TAIL_BLOCKS)
    } else {
        (1, 1)
    };
    for (name, samples, p, blocks) in [
        ("latency_p50_ms", &w.latencies, 50.0, blocks),
        ("latency_tail_ms", &w.latencies, w.tails.0, tail_blocks),
        ("write_p50_ms", &w.writes, 50.0, blocks),
        ("write_tail_ms", &w.writes, w.tails.1, tail_blocks),
    ] {
        let (value, per_block) = block_percentile(samples, p, blocks);
        out.note(format!("{name} per block {per_block:.4?}"));
        out.metric(name, value, samples.len());
    }
    let (rate, per_block) = block_rate(&w.done_at, w.elapsed, blocks);
    out.note(format!("throughput_ops_s per block {per_block:.4?}"));
    out.metric("throughput_ops_s", rate, w.done_at.len());
    out.metric("peak_rss_mb", w.peak_rss_mb, 1);
}
