//! The traced arm: runs static queries through the same public pipeline
//! the platform wires (`parse_sparql` → `StaticPipeline::answer` over the
//! platform's snapshot, BGP cache and planner), with a bench-owned
//! [`Tracer`] and a timing [`FragmentExecutor`] wrapped around a
//! bench-built [`Federation`]. Nothing inside the program is instrumented:
//! every number here is a timer in this file, a span the pipeline already
//! records, or a counter a round already returns.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use optique::{Federation, OptiquePlatform, PlatformSnapshot};
use optique_relational::PlanFragment;
use optique_sparql::{
    parse_sparql, FragmentExecutor, FragmentRound, PipelineStats, SparqlResults, StaticPipeline,
};
use optique_telemetry::{AttrValue, Span, Tracer};

use crate::common::{median, micros, POOL_WORKERS};

/// Per-layer samples keyed by metric name; each entry holds one value per
/// traced operation (or per tick, for per-task tick times).
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    pub fn push(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn extend(&mut self, other: Layers) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> (f64, usize) {
        let v = self.get(name);
        (median(v), v.len())
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

/// What one executor round cost, read off the round itself.
#[derive(Clone, Copy, Default)]
pub struct RoundStats {
    pub wall_us: f64,
    pub fragments: usize,
    pub fallbacks: usize,
    pub max_worker_us: f64,
    pub worker_busy_us: f64,
    pub workers_active: usize,
    pub queue_us: f64,
    /// Fragment executions (a scattered fragment runs once per shard).
    pub executions: usize,
    pub wire_bytes: f64,
    pub rows: usize,
    pub shards_pruned: usize,
    pub plan_hits: u64,
    pub plan_misses: u64,
}

fn attr_u64(attrs: &[(String, AttrValue)], key: &str) -> f64 {
    attrs
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0.0, |(_, v)| match v {
            AttrValue::Uint(u) => *u as f64,
            AttrValue::Int(i) => *i as f64,
            AttrValue::Float(f) => *f,
            AttrValue::Text(_) => 0.0,
        })
}

/// A [`FragmentExecutor`] that times each round of the wrapped pool and
/// keeps the round's worker spans and counters.
pub struct TimedExecutor<'a> {
    inner: &'a Federation,
    rounds: Mutex<Vec<RoundStats>>,
}

impl<'a> TimedExecutor<'a> {
    pub fn new(inner: &'a Federation) -> Self {
        TimedExecutor {
            inner,
            rounds: Mutex::new(Vec::new()),
        }
    }

    pub fn rounds(self) -> Vec<RoundStats> {
        self.rounds.into_inner().expect("round log lock")
    }
}

impl FragmentExecutor for TimedExecutor<'_> {
    fn execute(&self, fragments: Vec<PlanFragment>) -> Result<FragmentRound, String> {
        let count = fragments.len();
        let started = Instant::now();
        let round = self.inner.execute(fragments)?;
        let wall_us = micros(started.elapsed());
        let mut stats = RoundStats {
            wall_us,
            fragments: count,
            fallbacks: round.coordinator_fallbacks,
            rows: round.tables.iter().map(|t| t.len()).sum(),
            shards_pruned: round.shards_pruned,
            plan_hits: round.plan_cache_hits,
            plan_misses: round.plan_cache_misses,
            ..RoundStats::default()
        };
        for span in &round.spans {
            match span.label.as_str() {
                "worker" => {
                    let d = span.duration_us as f64;
                    stats.worker_busy_us += d;
                    stats.max_worker_us = stats.max_worker_us.max(d);
                    stats.workers_active += 1;
                }
                "fragment" => {
                    stats.executions += 1;
                    stats.queue_us += attr_u64(&span.attrs, "queue_us");
                    stats.wire_bytes += attr_u64(&span.attrs, "bytes");
                }
                _ => {}
            }
        }
        self.rounds.lock().expect("round log lock").push(stats);
        Ok(round)
    }

    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn max_restriction_values(&self, base: usize) -> usize {
        self.inner.max_restriction_values(base)
    }
}

/// The bench's own federation pool, rebuilt over the platform's current
/// base catalog whenever a merge swaps it (the same validity rule the
/// platform applies to its pools).
#[derive(Default)]
pub struct BenchPool {
    pool: Mutex<Option<Arc<Federation>>>,
}

impl BenchPool {
    pub fn for_snapshot(
        &self,
        platform: &OptiquePlatform,
        snap: &PlatformSnapshot,
    ) -> Arc<Federation> {
        let mut slot = self.pool.lock().expect("bench pool lock");
        if let Some(pool) = slot.as_ref() {
            if Arc::ptr_eq(pool.catalog(), &snap.db) {
                return Arc::clone(pool);
            }
        }
        let pool = Arc::new(Federation::for_deployment(
            Arc::clone(&snap.db),
            POOL_WORKERS,
            snap.topology,
            &snap.stats,
            &platform.mappings,
            &[],
        ));
        *slot = Some(Arc::clone(&pool));
        pool
    }
}

fn end(span: &Span) -> u64 {
    span.start_us + span.duration_us
}

/// Answers `text` through the instrumented pipeline and records its
/// per-layer breakdown into `layers`; returns the answer and pipeline
/// stats.
pub fn traced_query(
    platform: &OptiquePlatform,
    pool: &BenchPool,
    text: &str,
    layers: &mut Layers,
) -> Result<(SparqlResults, PipelineStats), String> {
    let started = Instant::now();
    let tracer = Tracer::new();
    let root = tracer.span(None, "static_query");
    let root_id = root.id();

    let parse_started = Instant::now();
    let query = parse_sparql(text, &platform.namespaces).map_err(|e| e.to_string())?;
    let parse_us = micros(parse_started.elapsed());

    let snap = platform.snapshot();
    let federation = pool.for_snapshot(platform, &snap);
    let executor = TimedExecutor::new(&federation);
    let pipeline = StaticPipeline::new(&platform.ontology, &platform.mappings, &snap.view)
        .with_cache_versions(platform.bgp_cache(), &snap.versions)
        .with_planner(snap.planner)
        .with_table_stats(&snap.stats)
        .with_executor(&executor)
        .with_tracer(&tracer, Some(root_id));
    let answer_start = tracer.now_us();
    let (results, stats) = pipeline.answer(&query).map_err(|e| e.to_string())?;
    let answer_end = tracer.now_us();
    root.finish();
    let total_us = micros(started.elapsed());
    let rounds = executor.rounds();

    let spans = tracer.spans();
    let children = |parent: u64| spans.iter().filter(move |s| s.parent == Some(parent));
    let sum = |label: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.duration_us as f64)
            .sum()
    };

    // Under the root: BGP executions and planner batches; whatever runs
    // after the last of them inside `answer` is the residual algebra and
    // SELECT finishing.
    let top: Vec<&Span> = children(root_id).collect();
    let top_us: f64 = top.iter().map(|s| s.duration_us as f64).sum();
    let last_top_end = top.iter().map(|s| end(s)).max().unwrap_or(answer_start);
    let finish_us = answer_end.saturating_sub(last_top_end.max(answer_start)) as f64;

    // Inside each BGP: cache lookup, rewrite, unfold, exec as children;
    // the tail after the last child is the solution merge (and cache
    // store); any other gap is unattributed.
    let (mut bgp_us, mut bgp_children_us, mut bgp_tail_us) = (0.0, 0.0, 0.0);
    for bgp in spans.iter().filter(|s| s.label == "bgp") {
        let kids: Vec<&Span> = children(bgp.id).collect();
        bgp_us += bgp.duration_us as f64;
        bgp_children_us += kids.iter().map(|s| s.duration_us as f64).sum::<f64>();
        let last = kids.iter().map(|s| end(s)).max().unwrap_or(bgp.start_us);
        bgp_tail_us += end(bgp).saturating_sub(last) as f64;
    }
    let exec_us = sum("exec");
    let round_us: f64 = rounds.iter().map(|r| r.wall_us).sum();

    layers.push("sparql.parse_us", parse_us);
    layers.push("sparql.cache_lookup_us", sum("cache_lookup"));
    layers.push("sparql.plan_us", sum("plan_batch"));
    layers.push("sparql.semi_joins_pushed", stats.semi_joins_pushed as f64);
    layers.push("sparql.bgp_self_us", bgp_tail_us);
    layers.push("sparql.finish_us", finish_us);
    layers.push("sparql.cache_hits", stats.cache_hits as f64);
    layers.push("sparql.cache_misses", stats.cache_misses as f64);
    layers.push("rewrite.us", sum("rewrite"));
    layers.push("rewrite.ucq_disjuncts", stats.ucq_disjuncts as f64);
    layers.push("unfold.us", sum("unfold"));
    layers.push("unfold.sql_disjuncts", stats.sql_disjuncts as f64);
    layers.push(
        "bgp.unattributed_us",
        (bgp_us - bgp_children_us - bgp_tail_us).max(0.0),
    );
    layers.push(
        "static_query.unattributed_us",
        (total_us - parse_us - top_us - finish_us).max(0.0),
    );
    // Coverage: the share of each parent its recorded children explain
    // (the parse timer stands in for the platform's parse span). The
    // known gaps show here: the finish after the last BGP, the merge tail
    // of each BGP, and the coordinator's share of each executor round.
    layers.push(
        "coverage.static_query",
        ((parse_us + top_us) / total_us).min(1.0),
    );
    if bgp_us > 0.0 {
        layers.push("coverage.bgp", bgp_children_us / bgp_us);
    }
    if exec_us > 0.0 {
        let critical_us: f64 = rounds.iter().map(|r| r.max_worker_us).sum();
        layers.push("federation.unattributed_us", (exec_us - round_us).max(0.0));
        layers.push("coverage.exec", (critical_us / exec_us).min(1.0));
    }
    if !rounds.is_empty() {
        push_rounds(layers, &rounds);
    }
    Ok((results, stats))
}

/// Folds one operation's executor rounds into per-operation samples.
fn push_rounds(layers: &mut Layers, rounds: &[RoundStats]) {
    let total = |f: fn(&RoundStats) -> f64| rounds.iter().map(f).sum::<f64>();
    layers.push("federation.round_us", total(|r| r.wall_us));
    layers.push("federation.fragments", total(|r| r.fragments as f64));
    layers.push(
        "federation.coordinator_us",
        total(|r| (r.wall_us - r.max_worker_us).max(0.0)),
    );
    layers.push("federation.fallbacks", total(|r| r.fallbacks as f64));
    layers.push("exastream.worker_busy_us", total(|r| r.worker_busy_us));
    // Mean wait of a fragment execution in its worker's queue.
    layers.push(
        "exastream.queue_us",
        total(|r| r.queue_us) / total(|r| r.executions as f64).max(1.0),
    );
    layers.push("exastream.wire_bytes", total(|r| r.wire_bytes));
    layers.push("exastream.fragment_rows", total(|r| r.rows as f64));
    layers.push("exastream.shards_pruned", total(|r| r.shards_pruned as f64));
    layers.push("exastream.plan_hits", total(|r| r.plan_hits as f64));
    layers.push("exastream.plan_misses", total(|r| r.plan_misses as f64));
    for r in rounds.iter().filter(|r| r.workers_active > 0) {
        let mean = r.worker_busy_us / r.workers_active as f64;
        if mean > 0.0 {
            layers.push("exastream.skew", r.max_worker_us / mean);
        }
    }
}

/// Reports the static-pipeline layers gathered in `layers` as medians per
/// traced operation (ratios from their summed numerators/denominators).
pub fn report_static_layers(layers: &Layers, out: &mut crate::common::Outcome) {
    for name in [
        "sparql.parse_us",
        "sparql.cache_lookup_us",
        "sparql.plan_us",
        "sparql.semi_joins_pushed",
        "sparql.bgp_self_us",
        "sparql.finish_us",
        "rewrite.us",
        "rewrite.ucq_disjuncts",
        "unfold.us",
        "unfold.sql_disjuncts",
        "federation.round_us",
        "federation.fragments",
        "federation.coordinator_us",
        "federation.fallbacks",
        "exastream.worker_busy_us",
        "exastream.queue_us",
        "exastream.skew",
        "exastream.wire_bytes",
        "exastream.fragment_rows",
        "exastream.shards_pruned",
        "static_query.unattributed_us",
        "bgp.unattributed_us",
        "federation.unattributed_us",
        "coverage.static_query",
        "coverage.bgp",
        "coverage.exec",
    ] {
        let (value, n) = layers.median(name);
        out.metric(name, value, n);
    }
    let ratio = |hits: &str, misses: &str| {
        let (h, m) = (layers.sum(hits), layers.sum(misses));
        (h / (h + m).max(1.0), (h + m) as usize)
    };
    let (hit, n) = ratio("sparql.cache_hits", "sparql.cache_misses");
    out.metric("sparql.cache_hit_ratio", hit, n);
    let (hit, n) = ratio("exastream.plan_hits", "exastream.plan_misses");
    out.metric("exastream.plan_cache_hit_ratio", hit, n);
}

/// Tracing overhead from alternating traced/untraced pairs: the ratio of
/// the traced to the untraced median, and the relative IQR of per-block
/// ratios (blocks of 16 consecutive pairs).
pub fn overhead(traced: &[f64], untraced: &[f64], out: &mut crate::common::Outcome) {
    let ratio = median(traced) / median(untraced).max(f64::MIN_POSITIVE);
    let blocks: Vec<f64> = traced
        .chunks(16)
        .zip(untraced.chunks(16))
        .filter(|(t, _)| t.len() == 16)
        .map(|(t, u)| median(t) / median(u).max(f64::MIN_POSITIVE))
        .collect();
    out.metric(
        "tracing.overhead_ratio",
        ratio,
        traced.len().min(untraced.len()),
    );
    out.metric(
        "tracing.overhead_iqr",
        crate::common::relative_iqr(&blocks),
        blocks.len(),
    );
}
