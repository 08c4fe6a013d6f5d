//! `fanout_cold`: the 100-source fan-out — one property mapped through
//! 100 tables, empty TBox — probed by one closed-loop client through
//! `query_static_distributed(_, 2)`. Every probe anchors the object on a
//! key drawn without replacement from a key space far larger than the
//! 256-entry BGP cache, so every request is a cold BGP: it unfolds to 100
//! disjuncts, ships 100 fragments and returns about 100 rows. Rewrite does
//! nothing here; the fragment ship path is what is measured.
//!
//! Between probes, single-row inserts into the source tables (the write a
//! user of this deployment makes) run on a fixed clock of one per 100 ms,
//! the period at which each `fleet_served` client writes, so the mix does
//! not depend on the run length. The writes go to keys no probe asks for,
//! so the probes' answers do not change, and at about 0.2 ms each they
//! take about 0.2% of the client's time: the probes still measure the
//! ship path. Spreading the writes over the whole window matters: on a
//! shared host, speed shifts between regimes lasting from a fraction of a
//! second to seconds, and a write burst lands in just one of them. After
//! the window every written key is read back through the federated path.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use optique::OptiquePlatform;
use optique_mapping::{MappingAssertion, MappingCatalog, TermMap};
use optique_ontology::Ontology;
use optique_rdf::Iri;
use optique_relational::{table::table_of, ColumnType, Database, Value};
use optique_siemens::SiemensDeployment;
use optique_sparql::SparqlResults;

use crate::common::{
    median, micros, peak_rss_mb, report_end_to_end, timed_setups, Outcome, Rng, Window,
    POOL_WORKERS,
};
use crate::probe::{overhead, report_static_layers, traced_query, BenchPool, Layers};

/// Source tables: disjuncts (and fragments) per probe.
const SOURCES: usize = 100;
/// Key space of the probe constant; every table holds each key at most
/// once, so a probe returns one row per table that holds its key. Ten
/// times the ~650 probes of a 25 s run is ~6 500 keys; the rest leaves
/// room for a host half again as fast before the key-space check fails.
const KEYS: usize = 10240;
/// One key in `HOLE_EVERY` is missing from each table (a different residue
/// per table), so answer sizes follow from the fixture arithmetic rather
/// than being a constant.
const HOLE_EVERY: usize = 16;
/// One single-row insert per this period: ten a second, 250 in a 25 s run,
/// which keeps 12 samples beyond the write p95.
const WRITE_PERIOD: Duration = Duration::from_millis(100);
/// Deployment builds per run; `setup_s` is their median.
const SETUP_RUNS: usize = 15;
/// Distinct keys the writes go to (and that are read back).
const WRITE_KEYS: usize = 8;
/// Tail percentiles reported for probes and writes.
const LATENCY_TAIL: f64 = 95.0;
const WRITE_TAIL: f64 = 95.0;
/// Largest tolerated BGP-cache hit ratio: probes must stay cold.
const MAX_HIT_RATIO: f64 = 0.01;

fn holds(table: usize, key: usize, offset: usize) -> bool {
    !(key + table * 7 + offset).is_multiple_of(HOLE_EVERY)
}

struct Fixture {
    db: Database,
    catalog: MappingCatalog,
    offset: usize,
}

fn fixture(seed: u64) -> Fixture {
    let offset = (seed % HOLE_EVERY as u64) as usize;
    let mut db = Database::new();
    let mut catalog = MappingCatalog::new();
    for i in 0..SOURCES {
        let rows = (0..KEYS)
            .filter(|&k| holds(i, k, offset))
            .map(|k| vec![Value::Int((i * KEYS + k) as i64), Value::Int(k as i64)])
            .collect();
        db.put_table(
            format!("t{i}"),
            table_of(
                &format!("t{i}"),
                &[("a", ColumnType::Int), ("b", ColumnType::Int)],
                rows,
            )
            .expect("valid table"),
        );
        catalog
            .add(
                MappingAssertion::property(
                    format!("p-src{i}"),
                    Iri::new("http://x/p"),
                    format!("SELECT a, b FROM t{i}"),
                    TermMap::template("http://x/obj/{a}"),
                    TermMap::template("http://x/obj/{b}"),
                )
                .with_key(vec!["a".into(), "b".into()]),
            )
            .expect("valid mapping");
    }
    Fixture {
        db,
        catalog,
        offset,
    }
}

fn probe(key: usize) -> String {
    format!("SELECT ?a WHERE {{ ?a <http://x/p> <http://x/obj/{key}> }}")
}

/// The answer the fixture arithmetic predicts for `key`, plus `extra`
/// subjects written during the write phase.
fn expected(key: usize, offset: usize, extra: &[i64]) -> BTreeSet<String> {
    (0..SOURCES)
        .filter(|&i| holds(i, key, offset))
        .map(|i| (i * KEYS + key) as i64)
        .chain(extra.iter().copied())
        .map(|a| format!("<http://x/obj/{a}>"))
        .collect()
}

fn answer_set(results: &SparqlResults) -> BTreeSet<String> {
    results
        .rows()
        .iter()
        .map(|row| row[0].as_ref().map_or(String::new(), |t| t.to_string()))
        .collect()
}

fn deploy(fx: &Fixture, assets: &SiemensDeployment) -> OptiquePlatform {
    OptiquePlatform::deploy(
        fx.db.clone(),
        Ontology::new(),
        assets.namespaces.clone(),
        fx.catalog.clone(),
        assets.stream_to_rdf.clone(),
    )
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let fx = fixture(seed);
    let mut rng = Rng::new(seed);
    let keys = rng.permutation(KEYS);
    // The last keys of the permutation are reserved: warm-up and writes.
    let warm_key = keys[KEYS - 1];
    let write_keys: Vec<usize> = keys[KEYS - 1 - WRITE_KEYS..KEYS - 1].to_vec();
    let probe_keys = &keys[..KEYS - 1 - WRITE_KEYS];
    // Stream-side assets are unused by static queries.
    let assets = SiemensDeployment::small();

    let runs = if trace { 1 } else { SETUP_RUNS };
    let (setups, platform) = timed_setups(runs, || {
        let p = deploy(&fx, &assets);
        p.set_tracing(false);
        // Warm-up: builds the worker pool and planner statistics.
        p.query_static_distributed(&probe(warm_key), POOL_WORKERS)
            .expect("warm-up probe");
        p
    });
    out.note(format!(
        "fixture: {SOURCES} tables x {KEYS} keys (1 in {HOLE_EVERY} missing per table), \
         empty TBox, 1 closed-loop client, {POOL_WORKERS} pool workers, one insert every \
         {WRITE_PERIOD:?}"
    ));

    let pool = BenchPool::default();
    let mut layers = Layers::default();
    let mut writes = Vec::new();
    let mut written: Vec<Vec<i64>> = vec![Vec::new(); WRITE_KEYS];
    let mut depth_max = 0usize;
    let (mut latencies, mut done_at) = (Vec::new(), Vec::new());
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let (hits0, misses0) = (platform.bgp_cache().hits(), platform.bgp_cache().misses());
    let window = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut next = 0usize;
    let (mut next_write, mut w) = (started + WRITE_PERIOD, 0usize);
    while started.elapsed() < window {
        while Instant::now() >= next_write {
            next_write += WRITE_PERIOD;
            w += 1;
            let slot = w % WRITE_KEYS;
            let a = (SOURCES * KEYS + w) as i64;
            let row = vec![Value::Int(a), Value::Int(write_keys[slot] as i64)];
            out.attempted += 1;
            let t = Instant::now();
            match platform.insert_static(&format!("t{}", w % SOURCES), vec![row]) {
                Ok(_) => {
                    writes.push(micros(t.elapsed()) / 1e3);
                    written[slot].push(a);
                }
                Err(e) => out.fail(false, format!("write {w}: {e}")),
            }
            depth_max = depth_max.max(platform.novelty_depth());
        }
        let Some(&key) = probe_keys.get(next) else {
            out.violation(format!("probe keys exhausted after {next} requests"));
            break;
        };
        // The traced run alternates traced and untraced requests in pairs.
        let traced_turn = trace && next.is_multiple_of(2);
        next += 1;
        out.attempted += 1;
        let text = probe(key);
        let t = Instant::now();
        let answered = if traced_turn {
            traced_query(&platform, &pool, &text, &mut layers)
        } else {
            platform.query_static_distributed_with_stats(&text, POOL_WORKERS)
        };
        let us = micros(t.elapsed());
        match answered {
            Err(e) => out.fail(false, format!("probe {key}: {e}")),
            Ok((results, stats)) => {
                let want = expected(key, fx.offset, &[]);
                if answer_set(&results) != want || results.len() != want.len() {
                    out.fail(true, format!("probe {key}: {} rows", results.len()));
                }
                if stats.fragments != SOURCES {
                    out.violation(format!(
                        "probe {key} shipped {} fragments, not {SOURCES}",
                        stats.fragments
                    ));
                }
                latencies.push(us / 1e3);
                done_at.push(started.elapsed().as_secs_f64());
                if trace {
                    if traced_turn {
                        traced.push(us);
                    } else {
                        untraced.push(us);
                    }
                }
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();
    let hits = platform.bgp_cache().hits() - hits0;
    let misses = platform.bgp_cache().misses() - misses0;
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    out.note(format!(
        "{next} probes in {elapsed:.3} s, BGP cache {hits} hits / {misses} misses"
    ));
    if hit_ratio > MAX_HIT_RATIO {
        out.violation(format!(
            "BGP cache hit ratio {hit_ratio:.3} > {MAX_HIT_RATIO}: probes are not cold"
        ));
    }
    if next * 10 > KEYS {
        out.violation(format!(
            "{next} probes: the key space ({KEYS}) is under 10x the requests per run"
        ));
    }

    for (slot, &key) in write_keys.iter().enumerate() {
        out.attempted += 1;
        match platform.query_static_distributed(&probe(key), POOL_WORKERS) {
            Ok(results) => {
                if answer_set(&results) != expected(key, fx.offset, &written[slot]) {
                    out.fail(true, format!("read-back of written key {key}"));
                }
            }
            Err(e) => out.fail(false, format!("read-back {key}: {e}")),
        }
    }

    if trace {
        report_static_layers(&layers, &mut out);
        overhead(&traced, &untraced, &mut out);
        out.metric("novelty.insert_us", median(&writes) * 1e3, writes.len());
        out.metric("novelty.depth_max", depth_max as f64, writes.len());
        let snap = platform.metrics_snapshot();
        let merges = snap.histogram("novelty.merge_us");
        out.metric("novelty.merges", merges.map_or(0, |h| h.count) as f64, 1);
        out.metric("novelty.merge_us", merges.map_or(0, |h| h.p50) as f64, 1);
    } else {
        let window = Window {
            setups,
            latencies,
            writes,
            tails: (LATENCY_TAIL, WRITE_TAIL),
            done_at,
            elapsed,
            peak_rss_mb: rss_mb,
            stationary: true,
        };
        report_end_to_end(&mut out, &window);
    }
    out
}
