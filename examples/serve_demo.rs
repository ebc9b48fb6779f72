//! Serve demo: the `cyclesteal-serve` broker and its TCP client/server
//! pair, end to end — batched guarantee queries, solve coalescing,
//! snapshot-on-evict and warm starts.
//!
//! ```sh
//! cargo run --release --example serve_demo                 # in-process demo
//! cargo run --release --example serve_demo -- server 127.0.0.1:7717
//! cargo run --release --example serve_demo -- client 127.0.0.1:7717
//! cargo run --release --example serve_demo -- smoke        # CI gate
//! ```
//!
//! `smoke` is the CI `serve-smoke` step: it starts a real TCP server,
//! fires a batched query set from 8 concurrent client threads, diffs
//! every answer **bit for bit** against the dense frontier sweep
//! ([`ValueTable::solve`], a build that shares no code with the
//! broker's compressed path), snapshots the cache, restarts a
//! broker warm from the snapshot directory and proves it serves the
//! whole workload without a single solve. Any mismatch panics (nonzero
//! exit).

use cyclesteal::prelude::*;
use cyclesteal_dp::{SolveOptions, ValueTable};
use cyclesteal_serve::{Broker, BrokerConfig, Client, GuaranteeAnswer, GuaranteeQuery, Server};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The demo/smoke workload: two grids × three budgets × six lifespans.
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
/// one solve per distinct grid — a build that shares no code with the
/// broker's compressed path, which must match it bit for bit.
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

fn diff(got: &[GuaranteeAnswer], want: &[GuaranteeAnswer], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: answer count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.value.get().to_bits(),
            w.value.get().to_bits(),
            "{ctx}: query {i} value {} != direct {}",
            g.value,
            w.value
        );
        assert_eq!(g.value_ticks, w.value_ticks, "{ctx}: query {i} ticks");
    }
}

fn print_stats(broker: &Broker) {
    let stats = broker.stats();
    println!(
        "[cache: {} hits / {} misses / {} evictions, {} cached table(s), {} KiB resident]",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.cache.entries,
        stats.cache.resident_bytes >> 10
    );
    for ep in &stats.endpoints {
        println!(
            "[{}: {} request(s) / {} queries, {} coalesced, p50 {} µs, p99 {} µs]",
            ep.endpoint, ep.requests, ep.queries, ep.coalesced, ep.p50_us, ep.p99_us
        );
    }
    let r = stats.resilience;
    if r != Default::default() {
        println!(
            "[resilience: {} shed, {} deadline rejects, {} contained panics, \
             {} flight retries, {} snapshot failures]",
            r.shed, r.deadline_rejects, r.solve_panics, r.flight_retries, r.snapshot_failures
        );
    }
    let (text, spans) = broker.metrics_snapshot();
    println!(
        "[obs: {} metric series, {} trace span(s) journaled — render with \
         `cargo run --release --example obs_dashboard -- pull <addr>`]",
        cyclesteal_obs::parse_exposition(&text).len(),
        spans.len()
    );
}

fn run_demo() {
    let queries = workload();
    println!("solving the reference answers directly…");
    let want = reference_answers(&queries);

    println!("starting a TCP server on an ephemeral port…");
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let got = client.query_batch(&queries).unwrap();
    diff(&got, &want, "demo batch");
    println!(
        "one batched request answered {} queries over TCP, bit-identical to the direct solves:",
        queries.len()
    );
    for (q, a) in queries.iter().zip(&got).step_by(7) {
        println!(
            "  W^({})({}) on q={} grid = {}  ({} ticks)",
            q.interrupts, q.lifespan, q.ticks_per_setup, a.value, a.value_ticks
        );
    }
    print_stats(&broker);
    server.shutdown();
}

fn run_server(addr: &str) {
    let broker = Arc::new(
        Broker::new(BrokerConfig {
            snapshot_dir: Some(std::path::PathBuf::from("serve-snapshots")),
            ..BrokerConfig::default()
        })
        .unwrap(),
    );
    // A long-running server profiles its solves: `obs_dashboard -- pull`
    // then renders the per-phase breakdown alongside the traffic tables.
    broker.enable_profiling();
    let server = Server::start(addr, broker.clone()).unwrap();
    println!(
        "serving guarantee queries on {} (snapshots in ./serve-snapshots, Ctrl-C to stop)",
        server.local_addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(30));
        print_stats(&broker);
        let _ = broker.snapshot();
    }
}

fn run_client(addr: &str) {
    let queries = workload();
    let mut client = Client::connect(addr).unwrap();
    let answers = client.query_batch(&queries).unwrap();
    for (q, a) in queries.iter().zip(&answers) {
        println!(
            "W^({})({}) on q={} grid = {}  ({} ticks)",
            q.interrupts, q.lifespan, q.ticks_per_setup, a.value, a.value_ticks
        );
    }
    // The server's cache counters ride the op-4 metrics pull as
    // per-shard gauges; their sums are the cache totals.
    let (text, _spans) = client.fetch_metrics().unwrap();
    let samples = cyclesteal_obs::parse_exposition(&text);
    let total = |name: &str| -> u64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    println!(
        "[server cache: {} hits / {} misses, {} cached table(s)]",
        total("cyclesteal_cache_shard_hits"),
        total("cyclesteal_cache_shard_misses"),
        total("cyclesteal_cache_shard_entries")
    );
}

fn run_smoke() {
    let dir = std::env::temp_dir().join(format!("cyclesteal-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let queries = workload();
    let want = reference_answers(&queries);

    // Phase 1: cold TCP server, 8 concurrent clients, bit-exact diff.
    println!("[smoke 1/3] cold server vs the dense ValueTable::solve reference…");
    {
        let broker = Arc::new(
            Broker::new(BrokerConfig {
                snapshot_dir: Some(dir.clone()),
                ..BrokerConfig::default()
            })
            .unwrap(),
        );
        let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let queries = &queries;
                let want = &want;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for round in 0..3 {
                        let got = client.query_batch(queries).unwrap();
                        diff(&got, want, &format!("smoke client {t} round {round}"));
                    }
                });
            }
        });
        let stats = broker.stats();
        assert_eq!(stats.cache.misses, 2, "two grids must mean two solves");
        let written = broker.snapshot().unwrap();
        assert_eq!(written, 2, "both tables must snapshot");
        print_stats(&broker);
        server.shutdown();
    }

    // Phase 2: a warm-started broker must serve without a single solve.
    println!("[smoke 2/3] warm start from {}…", dir.display());
    {
        let broker = Arc::new(
            Broker::new(BrokerConfig {
                snapshot_dir: Some(dir.clone()),
                ..BrokerConfig::default()
            })
            .unwrap(),
        );
        assert_eq!(
            broker.cache().stats().entries,
            2,
            "warm start must load both snapshots"
        );
        let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let got = client.query_batch(&queries).unwrap();
        diff(&got, &want, "warm server");
        let stats = broker.stats();
        assert_eq!(stats.cache.misses, 0, "warm start must skip every solve");
        print_stats(&broker);
        server.shutdown();
    }

    // Phase 3: a memory budget of one byte evicts-and-snapshots, and
    // the answers stay correct throughout.
    println!("[smoke 3/3] eviction under a 1-byte budget…");
    {
        let broker = Broker::new(BrokerConfig {
            memory_budget: Some(1),
            snapshot_dir: Some(dir.clone()),
            ..BrokerConfig::default()
        })
        .unwrap();
        let got = broker.query_batch(&queries).unwrap();
        diff(&got, &want, "budgeted broker");
        let stats = broker.stats();
        assert!(stats.cache.evictions >= 2, "budget must evict");
        assert_eq!(stats.cache.resident_bytes, 0);
        print_stats(&broker);
    }

    std::fs::remove_dir_all(&dir).unwrap();
    println!("serve smoke: all phases green (bit-identical answers, warm start, eviction)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => run_demo(),
        Some("server") => run_server(args.get(1).map_or("127.0.0.1:7717", String::as_str)),
        Some("client") => run_client(args.get(1).map_or("127.0.0.1:7717", String::as_str)),
        Some("smoke") => run_smoke(),
        Some(other) => {
            eprintln!("unknown mode {other}; use server/client/smoke or no argument");
            std::process::exit(2);
        }
    }
}
