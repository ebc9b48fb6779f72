//! Serving-layer acceptance tests.
//!
//! The headline contract: under concurrent multi-client load (8+
//! client threads, in-process and over TCP) the broker's batched
//! answers are **bit-identical** to tables solved by the dense frontier
//! sweep ([`ValueTable::solve`]), a build that shares no code with the
//! broker's compressed path — the broker adds batching, coalescing and
//! eviction, never a different number. Plus the full
//! persistence loop: snapshot-on-evict under a memory budget, then a
//! warm start that serves without a single solve.

use cyclesteal_core::time::{secs, Time};
use cyclesteal_dp::{SolveOptions, ValueTable};
use cyclesteal_serve::{Broker, BrokerConfig, Client, GuaranteeAnswer, GuaranteeQuery, Server};
use std::collections::BTreeMap;
use std::sync::Arc;

const CLIENT_THREADS: usize = 8;

/// The mixed workload: two grids, several budgets and lifespans.
fn workload() -> Vec<GuaranteeQuery> {
    let mut queries = Vec::new();
    for (setup, ticks) in [(1.0, 8u32), (2.0, 4)] {
        for p in 1..=3u32 {
            for u in [0.0, 0.4, 17.0, 63.5, 120.0, 200.0] {
                queries.push(GuaranteeQuery {
                    setup: secs(setup),
                    ticks_per_setup: ticks,
                    interrupts: p,
                    lifespan: secs(u),
                });
            }
        }
    }
    queries
}

/// Reference answers from the dense frontier sweep (`ValueTable::solve`),
/// one solve per distinct grid at its largest budget and lifespan — a
/// build that shares no code with the broker's compressed path, which
/// must match it bit for bit.
fn reference_answers(queries: &[GuaranteeQuery]) -> Vec<GuaranteeAnswer> {
    let mut grids: BTreeMap<(u64, u32), (u32, Time)> = BTreeMap::new();
    for q in queries {
        let grid = grids
            .entry((q.setup.get().to_bits(), q.ticks_per_setup))
            .or_insert((0, secs(1.0)));
        grid.0 = grid.0.max(q.interrupts);
        grid.1 = Time::max(grid.1, q.lifespan);
    }
    let tables: BTreeMap<(u64, u32), ValueTable> = grids
        .into_iter()
        .map(|((setup_bits, ticks), (p, lifespan))| {
            let setup = Time::new(f64::from_bits(setup_bits));
            let table = ValueTable::solve(setup, ticks, lifespan, p, SolveOptions::default());
            ((setup_bits, ticks), table)
        })
        .collect();
    queries
        .iter()
        .map(|q| {
            let table = &tables[&(q.setup.get().to_bits(), q.ticks_per_setup)];
            let ticks = table
                .grid()
                .to_ticks(q.lifespan)
                .clamp(0, table.max_ticks());
            GuaranteeAnswer {
                value: table.value(q.interrupts, q.lifespan),
                value_ticks: table.value_ticks(q.interrupts, ticks),
            }
        })
        .collect()
}

fn assert_bit_identical(got: &[GuaranteeAnswer], want: &[GuaranteeAnswer], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: answer count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.value.get().to_bits(),
            w.value.get().to_bits(),
            "{ctx}: value bits differ at query {i} ({} vs {})",
            g.value,
            w.value
        );
        assert_eq!(
            g.value_ticks, w.value_ticks,
            "{ctx}: ticks differ at query {i}"
        );
    }
}

#[test]
fn broker_matches_dense_reference_bit_identically_under_concurrent_load() {
    let queries = workload();
    let want = reference_answers(&queries);
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());

    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let broker = broker.clone();
            let queries = &queries;
            let want = &want;
            scope.spawn(move || {
                for round in 0..4 {
                    // Each thread rotates the batch so concurrent
                    // requests overlap on every grid in every order.
                    let shift = (t * 5 + round) % queries.len();
                    let mut batch = queries.clone();
                    batch.rotate_left(shift);
                    let mut expect = want.clone();
                    expect.rotate_left(shift);
                    let got = broker.query_batch(&batch).unwrap();
                    assert_bit_identical(&got, &expect, &format!("thread {t} round {round}"));
                }
            });
        }
    });

    let stats = broker.stats();
    // Two grids → two solves, no matter how many threads hammered it.
    assert_eq!(
        stats.cache.misses, 2,
        "batching+coalescing broke: {stats:?}"
    );
    assert_eq!(stats.endpoints.len(), 1);
    assert_eq!(stats.endpoints[0].requests, (CLIENT_THREADS * 4) as u64);
}

#[test]
fn tcp_clients_match_dense_reference_bit_identically() {
    let queries = workload();
    let want = reference_answers(&queries);
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let queries = &queries;
            let want = &want;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..3 {
                    let got = client.query_batch(queries).unwrap();
                    assert_bit_identical(&got, want, &format!("tcp thread {t} round {round}"));
                }
            });
        }
    });

    let stats = broker.stats();
    assert_eq!(stats.cache.misses, 2);
    let tcp = stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == "tcp")
        .expect("tcp endpoint recorded");
    assert_eq!(tcp.requests, (CLIENT_THREADS * 3) as u64);
    assert_eq!(tcp.queries, (CLIENT_THREADS * 3 * queries.len()) as u64);
    assert!(tcp.p99_us >= tcp.p50_us);
    server.shutdown();
}

#[test]
fn eviction_snapshots_and_warm_start_serves_without_solving() {
    let dir = std::env::temp_dir().join(format!("cyclesteal-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let queries = workload();
    let want = reference_answers(&queries);

    // Phase 1: a budgeted broker under load — evictions must happen and
    // every evicted table must land in the snapshot dir.
    {
        let broker = Broker::new(BrokerConfig {
            threads: 2,
            memory_budget: Some(1), // evict everything immediately
            snapshot_dir: Some(dir.clone()),
            max_inflight: 0,
            ..BrokerConfig::default()
        })
        .unwrap();
        let got = broker.query_batch(&queries).unwrap();
        assert_bit_identical(&got, &want, "budgeted broker");
        let stats = broker.stats();
        assert!(stats.cache.evictions >= 2, "budget must evict: {stats:?}");
        assert_eq!(stats.cache.resident_bytes, 0);
    }
    let snapshots: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "cst"))
        .collect();
    assert_eq!(snapshots.len(), 2, "one snapshot per evicted grid");

    // Phase 2: a fresh broker warm-starts from the snapshots and serves
    // the whole workload without a single solve.
    {
        let broker = Broker::new(BrokerConfig {
            threads: 2,
            memory_budget: None,
            snapshot_dir: Some(dir.clone()),
            max_inflight: 0,
            ..BrokerConfig::default()
        })
        .unwrap();
        assert_eq!(broker.cache().stats().entries, 2, "warm start loaded");
        let got = broker.query_batch(&queries).unwrap();
        assert_bit_identical(&got, &want, "warm broker");
        let stats = broker.stats();
        assert_eq!(stats.cache.misses, 0, "warm start must skip every solve");

        // Graceful snapshot keeps the directory current.
        assert_eq!(broker.snapshot().unwrap(), 2);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
