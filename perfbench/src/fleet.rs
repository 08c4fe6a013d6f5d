//! `fleet_served`: a 4 000-sensor Siemens deployment (200 turbines × 4
//! assemblies × 5 sensors) served through `optique::server` (2 server
//! workers) to 2 closed-loop clients. The mix per client:
//!
//! * reads in a fixed cycle of nine: two rounds of the four anchored
//!   ontology-join shapes, each on a random assembly or turbine constant
//!   out of 1 000 (cold in the BGP cache, since writes keep evicting what
//!   they read), then the next query of a fixed dashboard of unanchored
//!   enrichment/join queries (warm until a write to a table they read
//!   evicts them);
//! * inserts into `sensors` and `turbines` on a fixed schedule (about one
//!   operation in ten), in batches sized so that every run crosses the
//!   default 4 096-row merge threshold several times. Writes follow the
//!   clock rather than the read rate, so every run of a given length
//!   grows the tables by the same number of rows. They call
//!   `insert_static` directly, as an ingest path beside the server does:
//!   routed through a server worker, a write's latency is mostly the wait
//!   for that worker to be scheduled on busy cores, which swamps
//!   the write itself run to run.
//!
//! A seeded sample of served reads is re-answered single-node at the
//! exact snapshot the read saw and compared.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use optique::{OptiquePlatform, Server, ServerConfig};
use optique_relational::{Database, Value};
use optique_siemens::{FleetConfig, SiemensDeployment};
use optique_sparql::{parse_sparql, SparqlResults, StaticPipeline};

use crate::common::{
    median, micros, peak_rss_mb, report_end_to_end, timed_setups, Outcome, Rng, Window,
    POOL_WORKERS,
};
use crate::probe::{overhead, report_static_layers, traced_query, BenchPool, Layers};

const TURBINES: usize = 200;
const ASSEMBLIES_PER_TURBINE: usize = 4;
const SENSORS_PER_ASSEMBLY: usize = 5;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Server worker threads.
const SERVER_WORKERS: usize = 2;
/// Streamed sensors in the deployment (the stream is unused here).
const STREAM_SENSORS: usize = 16;
/// Each client writes once per this period (both clients together make
/// about one operation in ten a write).
const WRITE_PERIOD: Duration = Duration::from_millis(100);
/// Rows per insert batch; three in four batches go to `sensors`. The
/// ~500 batches of a 25 s run add ~24 000 rows: 5-6 merges, where the
/// workload asks for at least 3.
const WRITE_BATCH: usize = 48;
/// Reads per cycle: `ANCHORED_SHAPES` × 2 anchored reads, then one
/// dashboard query.
const READ_CYCLE: u64 = 9;
const ANCHORED_SHAPES: u64 = 4;
/// Merges every run must perform (default 4 096-row threshold).
const MIN_MERGES: u64 = 3;
/// Tail percentiles reported for served reads and writes.
const LATENCY_TAIL: f64 = 99.0;
const WRITE_TAIL: f64 = 95.0;
/// One served read in this many is checked against a single-node answer.
const SAMPLE_EVERY: u64 = 25;
/// Deployment builds per run; `setup_s` is their median.
const SETUP_RUNS: usize = 15;

const SIE: &str = "PREFIX sie: <http://siemens.example/ontology#>\n";
const DATA: &str = "http://siemens.example/data";

/// The dashboard: unanchored enrichment and join queries over the fleet.
const DASHBOARD: &[&str] = &[
    "SELECT ?s WHERE { ?s a sie:Sensor }",
    "SELECT ?t WHERE { ?t a sie:GasTurbine }",
    "SELECT ?t ?c WHERE { ?t sie:locatedIn ?c }",
    "SELECT ?a ?t WHERE { ?a sie:partOf ?t . ?t a sie:SteamTurbine }",
    "SELECT ?a WHERE { ?a a sie:EquipmentPart }",
    "SELECT ?c WHERE { ?c a sie:Country }",
    "SELECT ?t ?m WHERE { ?t sie:hasModel ?m }",
    "SELECT ?a ?s WHERE { ?a sie:inAssembly ?s . ?s a sie:VibrationSensor }",
];

fn assemblies() -> usize {
    TURBINES * ASSEMBLIES_PER_TURBINE
}

/// Anchored ontology join `shape` on a random assembly or turbine.
fn anchored(rng: &mut Rng, shape: u64) -> String {
    let aid = rng.below(assemblies() as u64);
    let tid = rng.below(TURBINES as u64);
    let body = match shape {
        0 => format!(
            "SELECT ?s WHERE {{ <{DATA}/assembly/{aid}> sie:inAssembly ?s . ?s a sie:TemperatureSensor }}"
        ),
        1 => format!("SELECT ?s WHERE {{ <{DATA}/assembly/{aid}> sie:inAssembly ?s }}"),
        2 => format!(
            "SELECT ?a ?s WHERE {{ ?a sie:partOf <{DATA}/turbine/{tid}> . ?a sie:inAssembly ?s }}"
        ),
        _ => format!(
            "SELECT ?c ?m WHERE {{ <{DATA}/turbine/{tid}> sie:locatedIn ?c . <{DATA}/turbine/{tid}> sie:hasModel ?m }}"
        ),
    };
    format!("{SIE}{body}")
}

/// Insert batch `k`: new sensors (three in four) or new turbines, with
/// ids from a per-client range no other writer uses.
fn write_batch(
    rng: &mut Rng,
    client: usize,
    k: u64,
    counter: &mut i64,
) -> (&'static str, Vec<Vec<Value>>) {
    let sensors = k % 4 != 3;
    let rows = (0..WRITE_BATCH)
        .map(|_| {
            *counter += 1;
            let id = 1_000_000 * (client as i64 + 1) + *counter;
            if sensors {
                let kind = optique_siemens::fleet::SENSOR_KINDS[rng.below(4) as usize];
                vec![
                    Value::Int(id),
                    Value::Int(rng.below(assemblies() as u64) as i64),
                    Value::text(kind),
                ]
            } else {
                let model = optique_siemens::fleet::MODELS[rng.below(4) as usize];
                let kind = if model.starts_with("SST") {
                    "steam"
                } else {
                    "gas"
                };
                vec![
                    Value::Int(id),
                    Value::text(model),
                    Value::text(kind),
                    Value::Int(1 + rng.below(6) as i64),
                    Value::Int(2002 + rng.below(10) as i64),
                ]
            }
        })
        .collect();
    (if sensors { "sensors" } else { "turbines" }, rows)
}

fn row_set(results: &SparqlResults) -> BTreeSet<Vec<String>> {
    results
        .rows()
        .iter()
        .map(|row| {
            row.iter()
                .map(|t| t.as_ref().map_or(String::new(), |t| t.to_string()))
                .collect()
        })
        .collect()
}

/// A served read kept for the single-node comparison: only the catalog
/// the read saw is pinned, not the rest of its snapshot (pools, caches).
struct Sample {
    text: String,
    view: Arc<Database>,
    answer: BTreeSet<Vec<String>>,
}

/// What one client thread measured. Reads and writes are `(finished at,
/// seconds since the window opened; latency ms)`.
#[derive(Default)]
struct ClientLog {
    reads: Vec<(f64, f64)>,
    writes: Vec<(f64, f64)>,
    traced: Vec<f64>,
    untraced: Vec<f64>,
    attempted: u64,
    errors: Vec<String>,
    samples: Vec<Sample>,
    layers: Layers,
    depth_max: usize,
}

fn client_loop(
    server: &Server,
    pool: &BenchPool,
    client: usize,
    seed: u64,
    started: Instant,
    deadline: Instant,
    trace: bool,
) -> ClientLog {
    let platform = server.platform();
    let handle = server.client(&format!("client-{client}"));
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(client as u64 + 1));
    let mut log = ClientLog::default();
    let mut counter = 0i64;
    let (mut reads, mut writes) = (0u64, 0u64);
    // Clients write half a period apart.
    let mut next_write = Instant::now() + WRITE_PERIOD * (client as u32 + 1) / CLIENTS as u32;
    while Instant::now() < deadline {
        log.attempted += 1;
        if Instant::now() >= next_write {
            next_write += WRITE_PERIOD;
            let (table, rows) = write_batch(&mut rng, client, writes, &mut counter);
            writes += 1;
            let t = Instant::now();
            match platform.insert_static(table, rows) {
                Ok(n) if n == WRITE_BATCH => log
                    .writes
                    .push((started.elapsed().as_secs_f64(), micros(t.elapsed()) / 1e3)),
                Ok(n) => log
                    .errors
                    .push(format!("insert into {table} reported {n} rows")),
                Err(e) => log.errors.push(format!("insert into {table}: {e}")),
            }
            log.depth_max = log.depth_max.max(platform.novelty_depth());
            continue;
        }
        let slot = reads % READ_CYCLE;
        let text = if slot + 1 == READ_CYCLE {
            let dashboard = (reads / READ_CYCLE) as usize + client;
            format!("{SIE}{}", DASHBOARD[dashboard % DASHBOARD.len()])
        } else {
            anchored(&mut rng, slot % ANCHORED_SHAPES)
        };
        reads += 1;
        let sampled = rng.below(SAMPLE_EVERY) == 0;
        let traced_turn = trace && reads.is_multiple_of(2);
        let before = platform.snapshot();
        let t = Instant::now();
        let answer: Result<SparqlResults, String> = if traced_turn {
            traced_query(platform, pool, &text, &mut log.layers).map(|(r, _)| r)
        } else {
            handle
                .query_distributed(&text, POOL_WORKERS)
                .map_err(|e| e.to_string())
        };
        let ms = micros(t.elapsed()) / 1e3;
        match answer {
            Err(e) => log.errors.push(format!("read: {e}")),
            Ok(results) => {
                log.reads.push((started.elapsed().as_secs_f64(), ms));
                if trace {
                    if traced_turn {
                        log.traced.push(ms);
                    } else {
                        log.untraced.push(ms);
                    }
                }
                // Only a read no insert overlapped pins an exact snapshot
                // (merges leave the versions untouched: same contents).
                let after = platform.snapshot();
                if sampled && Arc::ptr_eq(&before.versions, &after.versions) {
                    log.samples.push(Sample {
                        text,
                        view: Arc::clone(&before.view),
                        answer: row_set(&results),
                    });
                }
            }
        }
    }
    log
}

/// Single-node reference answer at a pinned snapshot: no BGP cache, no
/// federation.
fn reference(platform: &OptiquePlatform, sample: &Sample) -> Result<BTreeSet<Vec<String>>, String> {
    let query = parse_sparql(&sample.text, &platform.namespaces).map_err(|e| e.to_string())?;
    let (results, _) = StaticPipeline::new(&platform.ontology, &platform.mappings, &sample.view)
        .answer(&query)
        .map_err(|e| e.to_string())?;
    Ok(row_set(&results))
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let fleet = FleetConfig {
        turbines: TURBINES,
        assemblies_per_turbine: ASSEMBLIES_PER_TURBINE,
        sensors_per_assembly: SENSORS_PER_ASSEMBLY,
        seed,
    };
    let d = SiemensDeployment::build(fleet, STREAM_SENSORS).expect("fleet deployment builds");
    let runs = if trace { 1 } else { SETUP_RUNS };
    let (setups, server) = timed_setups(runs, || {
        let platform = Arc::new(OptiquePlatform::deploy(
            d.db.clone(),
            d.ontology.clone(),
            d.namespaces.clone(),
            d.mappings.clone(),
            d.stream_to_rdf.clone(),
        ));
        platform.set_tracing(false);
        let server = Server::serve(
            platform,
            ServerConfig {
                workers: SERVER_WORKERS,
                ..ServerConfig::default()
            },
        );
        // Warm-up: the pool, planner statistics and the dashboard cache.
        let warm = server.client("warm-up");
        for q in DASHBOARD {
            warm.query_distributed(&format!("{SIE}{q}"), POOL_WORKERS)
                .expect("dashboard warm-up");
        }
        server
    });
    let platform = Arc::clone(server.platform());
    out.note(format!(
        "fleet: {TURBINES}x{ASSEMBLIES_PER_TURBINE}x{SENSORS_PER_ASSEMBLY} = {} sensors, \
         {CLIENTS} closed-loop clients, {SERVER_WORKERS} server workers, {POOL_WORKERS} pool \
         workers; each client writes {WRITE_BATCH} rows every {WRITE_PERIOD:?} and reads 8 \
         anchored then 1 dashboard query",
        fleet.sensor_count()
    ));

    let merges_before = platform
        .metrics_snapshot()
        .histogram("novelty.merge_us")
        .map_or(0, |h| h.count);
    let pool = BenchPool::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (server, pool) = (&server, &pool);
                scope.spawn(move || client_loop(server, pool, c, seed, started, deadline, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();
    let metrics = platform.metrics_snapshot();
    let merges = metrics.histogram("novelty.merge_us").map_or(0, |h| h.count) - merges_before;

    let (mut reads, mut writes, mut traced, mut untraced) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut layers = Layers::default();
    let mut samples = Vec::new();
    let mut depth_max = 0;
    for log in logs {
        out.attempted += log.attempted;
        for e in log.errors {
            out.fail(false, e);
        }
        reads.extend(log.reads);
        writes.extend(log.writes);
        traced.extend(log.traced);
        untraced.extend(log.untraced);
        layers.extend(log.layers);
        samples.extend(log.samples);
        depth_max = depth_max.max(log.depth_max);
    }
    // Both clients' operations in completion order.
    reads.sort_by(|a: &(f64, f64), b| a.0.total_cmp(&b.0));
    writes.sort_by(|a: &(f64, f64), b| a.0.total_cmp(&b.0));
    let latency = |ops: &[(f64, f64)]| ops.iter().map(|&(_, ms)| ms).collect::<Vec<f64>>();
    let (reads_ms, writes_ms) = (latency(&reads), latency(&writes));
    let checked = samples.len();
    for sample in &samples {
        match reference(&platform, sample) {
            Ok(want) if want == sample.answer => {}
            Ok(want) => out.fail(
                true,
                format!(
                    "served read disagrees with single-node ({} vs {} rows): {}",
                    sample.answer.len(),
                    want.len(),
                    sample.text.replace('\n', " ")
                ),
            ),
            Err(e) => out.fail(false, format!("reference failed: {e}")),
        }
    }
    out.note(format!(
        "{} reads, {} writes in {elapsed:.3} s; {merges} merges; {checked} reads checked \
         against single-node",
        reads.len(),
        writes.len()
    ));
    if merges < MIN_MERGES {
        out.violation(format!(
            "{merges} merges < {MIN_MERGES}: writes no longer cross the merge threshold"
        ));
    }
    if checked == 0 {
        out.violation("no served read was checked against single-node");
    }

    if trace {
        report_static_layers(&layers, &mut out);
        overhead(&traced, &untraced, &mut out);
        out.metric("novelty.insert_us", median(&writes_ms) * 1e3, writes.len());
        out.metric("novelty.depth_max", depth_max as f64, writes.len());
        out.metric("novelty.merges", merges as f64, 1);
        let merge = metrics.histogram("novelty.merge_us");
        out.metric(
            "novelty.merge_us",
            merge.map_or(0, |h| h.p50) as f64,
            merges as usize,
        );
        let wait = metrics.histogram("server.queue_wait_us");
        out.metric(
            "server.queue_wait_us",
            wait.map_or(0, |h| h.p50) as f64,
            wait.map_or(0, |h| h.count) as usize,
        );
        out.metric(
            "server.shed",
            metrics.counter("server.shed").unwrap_or(0) as f64,
            1,
        );
    } else {
        // Throughput counts every operation; latency is the served read's.
        let done_at = reads.iter().chain(&writes).map(|&(at, _)| at).collect();
        let window = Window {
            setups,
            latencies: reads_ms,
            writes: writes_ms,
            tails: (LATENCY_TAIL, WRITE_TAIL),
            done_at,
            elapsed,
            peak_rss_mb: rss_mb,
            stationary: false,
        };
        report_end_to_end(&mut out, &window);
    }
    drop(server);
    out
}
