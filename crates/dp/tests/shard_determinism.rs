//! `TableCache` against an independent spec. A ~100-line sequential
//! reference model — one `BTreeMap` of key → (table, stamp), LRU by
//! stamp, a byte budget, the larger-`p`-serves-smaller fallback and the
//! keep-larger rule on key collisions — is driven in lockstep with the
//! real sharded cache through one seeded get / `solve_many` / admit /
//! squeeze sequence. After every step the two must agree on hits,
//! misses, evictions, entries, resident bytes, the table each lookup
//! served and the eviction victim order, at shard counts {1, 4, 16}:
//! the shard-clock determinism rule (sharding is a contention knob,
//! never a semantics knob) checked against the spec rather than
//! against another shard count.

use cyclesteal_core::prelude::*;
use cyclesteal_dp::{CompressedTable, SolveConfig, TableCache};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Identity of a cached table: `(setup_bits, q, max_interrupts,
/// max_ticks)`.
type Ident = (u64, u32, u32, i64);

fn ident(t: &CompressedTable) -> Ident {
    (
        t.grid().setup().get().to_bits(),
        t.grid().q() as u32,
        t.max_interrupts(),
        t.max_ticks(),
    )
}

/// `(setup_bits, q, p_max)` — the cache key.
type Key = (u64, u32, u32);

/// The sequential spec of the cache policy.
#[derive(Default)]
struct Model {
    entries: BTreeMap<Key, (Arc<CompressedTable>, u64)>,
    clock: u64,
    budget: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
    victims: Vec<Ident>,
}

impl Model {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Exact key if it covers, else the smallest larger budget of the
    /// same grid that covers; a hit refreshes the entry's stamp.
    fn lookup(&mut self, (s, q, p): Key, lifespan: Time) -> Option<Arc<CompressedTable>> {
        let key = self
            .entries
            .iter()
            .filter(|(&(ks, kq, kp), (t, _))| ks == s && kq == q && kp >= p && t.covers(lifespan))
            .map(|(k, _)| *k)
            .min_by_key(|k| k.2)?;
        let stamp = self.tick();
        self.hits += 1;
        let entry = self.entries.get_mut(&key).expect("found above");
        entry.1 = stamp;
        Some(entry.0.clone())
    }

    /// Keep whichever table covers more; the survivor is most recent.
    fn insert(&mut self, key: Key, table: Arc<CompressedTable>) -> Arc<CompressedTable> {
        let stamp = self.tick();
        match self.entries.get_mut(&key) {
            Some(e) if e.0.max_ticks() >= table.max_ticks() => {
                e.1 = stamp;
                e.0.clone()
            }
            _ => {
                self.entries.insert(key, (table.clone(), stamp));
                table
            }
        }
    }

    fn resident(&self) -> usize {
        self.entries.values().map(|(t, _)| t.memory_bytes()).sum()
    }

    fn enforce(&mut self) {
        let Some(budget) = self.budget else { return };
        while self.resident() > budget {
            let (&key, _) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .expect("over budget means nonempty");
            let (table, _) = self.entries.remove(&key).expect("present");
            self.evictions += 1;
            self.victims.push(ident(&table));
        }
    }

    /// A miss solves with the cache's 25% lifespan headroom.
    fn get(&mut self, setup: Time, q: u32, lifespan: Time, p: u32) -> Arc<CompressedTable> {
        let key = (setup.get().to_bits(), q, p);
        if let Some(t) = self.lookup(key, lifespan) {
            return t;
        }
        self.misses += 1;
        let t = Arc::new(CompressedTable::solve(setup, q, lifespan * 1.25, p));
        let t = self.insert(key, t);
        self.enforce();
        t
    }

    /// Hits first; the misses coalesce to one solve per grid at its
    /// largest lifespan and budget, inserted in grid-key order.
    fn solve_many(&mut self, configs: &[SolveConfig]) {
        let mut pending: BTreeMap<(u64, u32), (Time, u32, u64)> = BTreeMap::new();
        for c in configs {
            let key = (c.setup.get().to_bits(), c.ticks_per_setup, c.max_interrupts);
            if self.lookup(key, c.max_lifespan).is_none() {
                let g =
                    pending
                        .entry((key.0, key.1))
                        .or_insert((c.max_lifespan, c.max_interrupts, 0));
                g.0 = Time::max(g.0, c.max_lifespan);
                g.1 = g.1.max(c.max_interrupts);
                g.2 += 1;
            }
        }
        for ((s, q), (lifespan, p, members)) in pending {
            self.misses += 1;
            self.hits += members - 1;
            let setup = Time::new(f64::from_bits(s));
            let t = CompressedTable::solve(setup, q, lifespan * 1.25, p);
            self.insert((s, q, p), Arc::new(t));
        }
        self.enforce();
    }

    fn admit(&mut self, t: Arc<CompressedTable>) {
        let (s, q, p, _) = ident(&t);
        self.insert((s, q, p), t);
        self.enforce();
    }

    fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
        self.enforce();
    }
}

/// SplitMix64, the repo's standard seedless mixing primitive — drives
/// the workload's grid/lifespan choices deterministically.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Everything the cache and the model must agree on after a step.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    hits: u64,
    misses: u64,
    evictions: u64,
    entries: usize,
    resident_bytes: usize,
    victims: Vec<Ident>,
}

/// Drives the seeded workload through a `shards`-way cache and the
/// model in lockstep, asserting agreement after every step; returns the
/// final eviction count.
fn run_against_model(seed: u64, shards: usize) -> u64 {
    let cache = TableCache::with_shards(shards);
    let victims: Arc<Mutex<Vec<Ident>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = victims.clone();
    cache.set_evict_hook(Some(Box::new(move |t| {
        sink.lock().unwrap().push(ident(t));
    })));
    let mut model = Model::default();

    // A fixed prologue resides two larger budgets of one grid, so the
    // fallback's choice of the *smallest* larger budget is observable.
    for (p, lifespan) in [(2, 500.0), (3, 500.0), (1, 100.0)] {
        let got = cache.get_compressed(secs(1.0), 4, secs(lifespan), p);
        let want = model.get(secs(1.0), 4, secs(lifespan), p);
        assert_eq!(ident(&got), ident(&want), "prologue p={p}: served table");
    }
    for step in 0..40u64 {
        let r = splitmix64(seed ^ step);
        let grid = 1 + r % 7;
        let setup = secs(grid as f64);
        let q = 4u32 << ((r >> 8) % 2);
        let p = 1 + ((r >> 16) % 3) as u32;
        let lifespan = secs(100.0 + ((r >> 24) % 400) as f64);
        let ctx = format!("seed {seed:#x}, {shards} shards, step {step}");
        match (r >> 40) % 5 {
            0 | 1 => {
                let got = cache.get_compressed(setup, q, lifespan, p);
                let want = model.get(setup, q, lifespan, p);
                assert_eq!(ident(&got), ident(&want), "{ctx}: served table");
            }
            2 => {
                let configs: Vec<SolveConfig> = (0..3)
                    .map(|i| SolveConfig {
                        setup: secs((1 + (grid + i) % 7) as f64),
                        ticks_per_setup: q,
                        max_lifespan: lifespan,
                        max_interrupts: p,
                    })
                    .collect();
                let _ = cache.solve_many(&configs);
                model.solve_many(&configs);
            }
            3 => {
                // No headroom: the admitted table is sometimes larger and
                // sometimes smaller than the one cached under its key.
                let table = Arc::new(CompressedTable::solve(setup, q, lifespan, p));
                let _ = cache.admit_compressed(table.clone());
                model.admit(table);
            }
            _ => {
                // Squeeze to half the current footprint, then unbound.
                let budget = Some(cache.stats().resident_bytes / 2);
                cache.set_memory_budget(budget);
                model.set_budget(budget);
                cache.set_memory_budget(None);
                model.set_budget(None);
            }
        }
        let s = cache.stats();
        let real = Observed {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            entries: s.entries,
            resident_bytes: s.resident_bytes,
            victims: victims.lock().unwrap().clone(),
        };
        let spec = Observed {
            hits: model.hits,
            misses: model.misses,
            evictions: model.evictions,
            entries: model.entries.len(),
            resident_bytes: model.resident(),
            victims: model.victims.clone(),
        };
        assert_eq!(real, spec, "{ctx}: cache diverged from the model");
    }
    // The snapshot listing is the model's map in key order.
    let listed: Vec<Ident> = cache.compressed_tables().iter().map(|t| ident(t)).collect();
    let modeled: Vec<Ident> = model.entries.values().map(|(t, _)| ident(t)).collect();
    assert_eq!(listed, modeled, "seed {seed:#x}, {shards} shards: listing");
    model.evictions
}

#[test]
fn cache_matches_the_reference_model_at_every_shard_count() {
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        for shards in [1usize, 4, 16] {
            let evictions = run_against_model(seed, shards);
            assert!(
                evictions > 0,
                "seed {seed:#x}: the workload must actually evict to pin the LRU"
            );
        }
    }
}

#[test]
fn compressed_snapshot_listing_is_shard_invariant() {
    // `compressed_tables()` feeds the persistence layer; its order must
    // not depend on shard layout either.
    let identity = |shards: usize| {
        let cache = TableCache::with_shards(shards);
        for grid in 1..=6u64 {
            let _ = cache.get_compressed(secs(grid as f64), 4, secs(150.0), 2);
        }
        cache
            .compressed_tables()
            .iter()
            .map(|t| (t.grid().setup().get().to_bits(), t.grid().q()))
            .collect::<Vec<_>>()
    };
    let baseline = identity(1);
    assert_eq!(baseline.len(), 6);
    assert_eq!(identity(4), baseline);
    assert_eq!(identity(16), baseline);
}
