//! Long-running append-driven streams keep their per-append cost and their
//! cache state flat.
//!
//! The task set is the streaming benchmark's: catalog tasks T01, T05, T09,
//! T13, T17 and T18 — 10 s, 30 s and 1 min windows on 1 s and 5 s slides —
//! plus a pane-combinable `SUM` task, all distributed over 2 workers, fed
//! 1 s batches of 40 sensors through `append_stream`. After every append
//! the window-cache and state-memo gauges must stay within what the
//! registered windows can still use. The flatness check (ignored by
//! default; a timing test, run it with `--release -- --ignored`) drives
//! 2 000 appends and requires the median append of the last 300 to stay
//! within 1.5× of the first 300's, distributed and single-node.

use std::time::Instant;

use optique::OptiquePlatform;
use optique_relational::{table::table_of, ColumnType, Database, Value};
use optique_siemens::catalog::TaskQuery;
use optique_siemens::streamgen::build_stream;
use optique_siemens::{diagnostic_tasks, FleetConfig, SiemensDeployment, StreamConfig};

/// Sensors producing measurements (1 Hz each).
const STREAM_SENSORS: usize = 40;
/// First stream instant: the tasks' pulse start (00:10:00).
const START_MS: i64 = 600_000;
/// Seconds of stream per generated segment.
const SEGMENT_S: i64 = 60;
/// Distinct window specs of the task set (10 s, 30 s, 1 min): the most
/// windows one round can leave cached.
const WINDOW_SPECS: i64 = 3;
/// Instants the longest window (1 min) spans, plus one 5 s slide it may
/// lag behind the 1 s-slide tasks: the most states the memo may keep.
const MAX_LIVE_INSTANTS: i64 = 60 + 5;

fn task_texts() -> Vec<String> {
    let catalog = diagnostic_tasks();
    let mut texts: Vec<String> = ["T01", "T05", "T09", "T13", "T17", "T18"]
        .iter()
        .map(|id| {
            let task = catalog.iter().find(|t| t.id == *id).unwrap();
            let TaskQuery::StarQl(text) = &task.query else {
                panic!("{id} is a STARQL task");
            };
            text.clone()
        })
        .collect();
    texts.push(
        "PREFIX sie: <http://siemens.example/ontology#>\n\
         PREFIX : <http://siemens.example/ontology#>\n\
         CREATE STREAM S_HotSum AS\n\
         CONSTRUCT GRAPH NOW { ?c2 a :HotSum }\n\
         FROM STREAM S_Msmt [NOW-\"PT10S\"^^xsd:duration, NOW]->\"PT1S\"^^xsd:duration\n\
         USING PULSE WITH START = \"00:10:00CET\", FREQUENCY = \"PT1S\"\n\
         WHERE { ?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2. }\n\
         SEQUENCE BY StdSeq AS seq\n\
         HAVING SUM(?c2, sie:hasValue) >= 640\n"
            .to_string(),
    );
    texts
}

/// The small fleet with an empty stream and the task set registered
/// (`workers: None` = single-node), plus the streamed sensors.
fn platform(workers: Option<usize>) -> (OptiquePlatform, Vec<i64>) {
    let d = SiemensDeployment::build(FleetConfig::small(), STREAM_SENSORS).unwrap();
    let mut db = d.db.clone();
    db.put_table(
        "S_Msmt",
        table_of(
            "S_Msmt",
            &[
                ("ts", ColumnType::Timestamp),
                ("sensor_id", ColumnType::Int),
                ("value", ColumnType::Float),
                ("event", ColumnType::Text),
            ],
            Vec::new(),
        )
        .unwrap(),
    );
    let p = OptiquePlatform::deploy(
        db,
        d.ontology.clone(),
        d.namespaces.clone(),
        d.mappings.clone(),
        d.stream_to_rdf.clone(),
    );
    for text in task_texts() {
        match workers {
            Some(w) => p.register_starql_distributed(&text, w),
            None => p.register_starql(&text),
        }
        .unwrap();
    }
    let sensors = d.sensor_ids.iter().copied().take(STREAM_SENSORS).collect();
    (p, sensors)
}

/// `n` one-second batches of generated measurements, in time order.
fn batches(sensors: &[i64], n: usize) -> Vec<Vec<Vec<Value>>> {
    let mut out = Vec::with_capacity(n);
    let mut segment = 0i64;
    while out.len() < n {
        let config = StreamConfig {
            sensor_ids: sensors.to_vec(),
            start_ms: START_MS + segment * SEGMENT_S * 1_000,
            duration_ms: SEGMENT_S * 1_000,
            period_ms: 1_000,
            seed: 7 + segment as u64,
            ramp_failures: 4,
            correlated_pairs: 1,
            hot_bursts: 3,
        };
        segment += 1;
        let mut db = Database::new();
        build_stream(&mut db, &config).unwrap();
        let table = db.table("S_Msmt").unwrap();
        let mut current: Vec<Vec<Value>> = Vec::new();
        for row in &table.rows {
            if current.first().is_some_and(|first| first[0] != row[0]) {
                out.push(std::mem::take(&mut current));
            }
            current.push(row.clone());
        }
        out.push(current);
    }
    out.truncate(n);
    out
}

fn gauge(p: &OptiquePlatform, name: &str) -> i64 {
    p.metrics_snapshot().gauge(name).unwrap_or(0)
}

/// Appends `batches`, returning each append's wall time in microseconds
/// after checking both cache gauges against their bounds.
fn drive(p: &OptiquePlatform, batches: Vec<Vec<Vec<Value>>>) -> Vec<u128> {
    let mut latencies = Vec::with_capacity(batches.len());
    for (i, batch) in batches.into_iter().enumerate() {
        let started = Instant::now();
        p.append_stream("S_Msmt", batch).unwrap();
        latencies.push(started.elapsed().as_micros());
        let windows = gauge(p, "stream.wcache_entries");
        let states = gauge(p, "stream.state_memo_entries");
        assert!(
            windows <= WINDOW_SPECS,
            "append {i}: {windows} cached windows"
        );
        assert!(
            states <= MAX_LIVE_INSTANTS,
            "append {i}: {states} memoized states"
        );
    }
    latencies
}

fn median(xs: &[u128]) -> u128 {
    let mut xs = xs.to_vec();
    xs.sort_unstable();
    xs[xs.len() / 2]
}

#[test]
fn append_driven_caches_stay_bounded() {
    let (p, sensors) = platform(Some(2));
    drive(&p, batches(&sensors, 150));
    assert!(p.state_memo().hits() > 0, "windows share their states");
    assert!(gauge(&p, "stream.state_memo_entries") > 0);
}

#[test]
#[ignore = "timing test: cargo test --release -p optique --test stream_soak -- --ignored"]
fn append_cost_stays_flat_over_2000_appends() {
    for workers in [Some(2), None] {
        let (p, sensors) = platform(workers);
        let latencies = drive(&p, batches(&sensors, 2_000));
        let (first, last) = (
            median(&latencies[..300]),
            median(&latencies[latencies.len() - 300..]),
        );
        println!("{workers:?} workers: median append {first} µs first 300, {last} µs last 300");
        assert!(
            last * 2 <= first * 3,
            "{workers:?} workers: median append grew from {first} µs to {last} µs"
        );
    }
}
