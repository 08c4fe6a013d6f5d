//! E8: wCache — many concurrent queries sharing window materializations vs
//! each query slicing the stream itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use optique_relational::{Database, Value};
use optique_siemens::{FleetConfig, StreamConfig};
use optique_stream::{Stream, WCache, WindowKey};

fn source() -> (Database, usize) {
    let mut db = Database::new();
    let sensors = optique_siemens::fleet::build_fleet(&mut db, &FleetConfig::small()).unwrap();
    optique_siemens::streamgen::build_stream(&mut db, &StreamConfig::small(sensors)).unwrap();
    let n = db.table("S_Msmt").unwrap().len();
    (db, n)
}

fn bench(c: &mut Criterion) {
    let (db, _) = source();
    let table = db.table("S_Msmt").unwrap().clone();
    let mut group = c.benchmark_group("wcache");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    for queries in [1usize, 16, 64, 256] {
        // Without wCache: every query re-slices and copies its window.
        group.bench_with_input(BenchmarkId::new("unshared", queries), &queries, |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                for _ in 0..queries {
                    let stream = Stream::new("S_Msmt", (*table).clone(), 0).unwrap();
                    let rows: Vec<Vec<Value>> = stream.slice(600_000, 610_000).to_vec();
                    total += rows.len();
                }
                total
            })
        });
        // With wCache: first query materializes, the rest share the Arc.
        group.bench_with_input(BenchmarkId::new("wcache", queries), &queries, |b, _| {
            b.iter(|| {
                let cache = WCache::new();
                let window = WindowKey::new("S_Msmt", 600_000, 610_000);
                let mut total = 0usize;
                for _ in 0..queries {
                    let rows = cache.get_or_build(&window, || {
                        let stream = Stream::new("S_Msmt", (*table).clone(), 0).unwrap();
                        stream.slice(600_000, 610_000).to_vec()
                    });
                    total += rows.len();
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
