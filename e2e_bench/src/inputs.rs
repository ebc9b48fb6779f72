//! The untimed prep step: generates every request of a run from the
//! seed, solves the reference tables in-process with
//! [`CompressedTable::solve_with`] (never through the broker), and
//! derives the expected answer of every request from them.
//!
//! Input *shapes* are stratified — each workload draws its grids,
//! window widths and contract sizes from fixed strata and the seed
//! picks the values inside each stratum, the query mix and the order.
//! So two seeds load the server alike and their figures are
//! comparable, while no seed repeats another's requests.

use crate::rng::{zipf_weights, Rng};
use cyclesteal_core::bounds::{m1_opt, w1_exact};
use cyclesteal_core::time::{secs, Time};
use cyclesteal_dp::{CompressedTable, Grid, InnerLoop, RowRepr, SolveOptions};
use cyclesteal_serve::{GuaranteeAnswer, GuaranteeQuery, SweepQuery};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmBatch,
    SweepStream,
    ColdMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WarmBatch,
        Workload::SweepStream,
        Workload::ColdMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmBatch => "warm_batch",
            Workload::SweepStream => "sweep_stream",
            Workload::ColdMix => "cold_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Queries per op-1 batch.
pub const BATCH: usize = 64;
/// Distinct batches each client cycles through.
const BATCH_POOL: usize = 256;
/// Queries per cold contract request.
const CONTRACT_QUERIES: usize = 8;

/// One tenant grid and the table extent it is solved to.
#[derive(Clone, Copy, Debug)]
pub struct Tenant {
    pub setup: Time,
    pub q: u32,
    pub p_max: u32,
    pub ticks: i64,
}

impl Tenant {
    fn grid(&self) -> Grid {
        Grid::new(self.setup, self.q)
    }

    pub fn max_lifespan(&self) -> Time {
        self.grid().to_time(self.ticks)
    }

    /// The reference solve: the production build (event-driven, run
    /// rows), called directly, one setup charge past the tenant's
    /// extent. Queries stay within the extent, so no query sits on the
    /// table's edge, where `value` clamps instead of interpolating and
    /// a table of another extent (such as the broker's, solved with
    /// headroom) would round the last bit differently.
    pub fn solve(&self) -> CompressedTable {
        let lifespan = self.grid().to_time(self.ticks + i64::from(self.q));
        CompressedTable::solve_with(self.setup, self.q, lifespan, self.p_max, production())
    }
}

/// The solve options the broker's cache uses on a miss.
pub fn production() -> SolveOptions {
    SolveOptions {
        keep_policy: false,
        inner: InnerLoop::EventDriven,
        repr: RowRepr::Runs,
        threads: 1,
    }
}

/// A check on one answer that does not consult any solved table.
#[derive(Clone, Copy, Debug)]
pub enum ClosedForm {
    None,
    /// Prop 4.1: `W = 0` for `L ≤ (p+1)·c` (queries are drawn strictly
    /// inside the region, clear of float rounding at its edge).
    Zero,
    /// §5.2 at `p = 1`: the grid value lies within `[lo, hi]` around
    /// `w1_exact(L, c)` — see [`w1_window`].
    W1 {
        lo: f64,
        hi: f64,
    },
}

/// The expected answer of one query: bit-exact reference values plus
/// the solver-free check.
#[derive(Clone, Copy, Debug)]
pub struct Expected {
    pub value_bits: u64,
    pub value_ticks: i64,
    pub closed: ClosedForm,
}

impl Expected {
    /// Whether a served answer is right: bit-identical to the reference
    /// and inside its closed-form window.
    pub fn accepts(&self, got: &GuaranteeAnswer) -> bool {
        let value = got.value.get();
        let closed = match self.closed {
            ClosedForm::None => true,
            ClosedForm::Zero => value == 0.0 && got.value_ticks == 0,
            ClosedForm::W1 { lo, hi } => (lo..=hi).contains(&value),
        };
        closed && value.to_bits() == self.value_bits && got.value_ticks == self.value_ticks
    }
}

/// The `p = 1` acceptance window around §5.2's closed form. The grid
/// solve can only lose against the continuum optimum, by at most
/// `(m+2)·c/Q` at grid points (the bound pinned by the solver's own
/// closed-form test); interpolating between two grid points adds at
/// most one tick either way, since both `W` and `w1_exact` are
/// monotone and 1-Lipschitz in `L`.
pub fn w1_window(lifespan: Time, setup: Time, q: u32) -> ClosedForm {
    let tick = setup.get() / f64::from(q);
    let w1 = w1_exact(lifespan, setup).get();
    let slack = (m1_opt(lifespan, setup) as f64 + 2.0) * setup.get() / f64::from(q);
    ClosedForm::W1 {
        lo: w1 - slack - tick,
        hi: w1 + tick + 1e-9,
    }
}

/// One op-1 request and its expected answers.
pub struct Batch {
    pub queries: Vec<GuaranteeQuery>,
    pub expected: Vec<Expected>,
}

impl Batch {
    /// Wrong answers in a served reply (a short reply counts every
    /// missing answer as wrong).
    pub fn wrong(&self, answers: &[GuaranteeAnswer]) -> u64 {
        let missing = self.expected.len().saturating_sub(answers.len());
        let bad = self
            .expected
            .iter()
            .zip(answers)
            .filter(|(e, a)| !e.accepts(a))
            .count();
        (missing + bad) as u64
    }
}

/// One op-3 request and its expected staircase, stored as the first
/// value plus one bit per later tick (the row is monotone and
/// 1-Lipschitz, so each step is 0 or 1).
pub struct Sweep {
    pub query: SweepQuery,
    first: i64,
    steps: Vec<u64>,
    /// Last tick of the Prop 4.1 zero region inside the window, if any.
    zero_until: Option<usize>,
}

impl Sweep {
    fn new(query: SweepQuery, table: &CompressedTable) -> Sweep {
        let p = query.interrupts;
        let count = query.count as usize;
        let first = table.value_ticks(p, query.first_tick);
        let mut steps = vec![0u64; count.div_ceil(64)];
        let mut prev = first;
        for i in 1..count {
            let v = table.value_ticks(p, query.first_tick + i as i64);
            match v - prev {
                0 => {}
                1 => steps[i / 64] |= 1 << (i % 64),
                d => panic!(
                    "reference row steps by {d} at tick {}",
                    query.first_tick + i as i64
                ),
            }
            prev = v;
        }
        let zero_edge = i64::from(p + 1) * i64::from(query.ticks_per_setup);
        let zero_until = (query.first_tick <= zero_edge)
            .then(|| ((zero_edge - query.first_tick) as usize).min(count - 1));
        Sweep {
            query,
            first,
            steps,
            zero_until,
        }
    }

    /// Whether a served, client-expanded staircase is exactly the
    /// reference one and zero across its Prop 4.1 region.
    pub fn accepts(&self, got: &[i64]) -> bool {
        if got.len() != self.query.count as usize || got[0] != self.first {
            return false;
        }
        if let Some(z) = self.zero_until {
            if got[..=z].iter().any(|&v| v != 0) {
                return false;
            }
        }
        let mut want = self.first;
        for (i, &v) in got.iter().enumerate().skip(1) {
            want += ((self.steps[i / 64] >> (i % 64)) & 1) as i64;
            if v != want {
                return false;
            }
        }
        true
    }
}

/// What one client thread sends.
pub enum Plan {
    /// Cycle through these batches (warm reads).
    Batches(Vec<Batch>),
    /// Cycle through these sweeps (warm bulk reads).
    Sweeps(Vec<Arc<Sweep>>),
    /// Cold contracts: fresh grids in seeded order, with a seeded share
    /// of revisits (see [`Contracts::order`]).
    Contracts(Contracts),
}

/// Client A's cold stream in `cold_mix`.
pub struct Contracts {
    pub contracts: Vec<Batch>,
    pub tenants: Vec<Tenant>,
    seed: u64,
}

impl Contracts {
    /// Share of requests that revisit one of the last few contracts.
    const REVISIT: f64 = 0.2;

    /// The request order: rounds of seeded permutations of the
    /// contract pool (the budget holds only part of the pool, so a
    /// contract is evicted before its round comes again), interleaved
    /// with revisits of one of the last three contracts sent. Each
    /// segment of a run (a fresh server) gets its own order.
    pub fn order(&self, segment: u64) -> impl Iterator<Item = usize> + '_ {
        let mut rng = Rng::new(self.seed).fork(segment);
        let n = self.contracts.len();
        let mut round: Vec<usize> = Vec::new();
        let mut recent: Vec<usize> = Vec::new();
        std::iter::from_fn(move || {
            let next = if recent.len() >= 3 && rng.unit() < Self::REVISIT {
                recent[recent.len() - 1 - rng.range(0, 2) as usize]
            } else {
                if round.is_empty() {
                    round = (0..n).collect();
                    rng.shuffle(&mut round);
                }
                round.pop().expect("refilled above")
            };
            recent.push(next);
            if recent.len() > 3 {
                recent.remove(0);
            }
            Some(next)
        })
    }
}

/// Everything one run needs, generated and checked before any timing.
pub struct Inputs {
    /// Tables the server warm-starts from (written as the snapshot
    /// corpus); also the references of the warm requests.
    pub corpus: Vec<Arc<CompressedTable>>,
    pub plans: [Plan; 2],
    pub memory_budget: Option<usize>,
    /// A warm query answered once per connection to end set-up.
    pub probe: Batch,
    /// Sweeps that only the traced replay sends, so a workload whose
    /// clients send none still measures the op-3 layers.
    pub replay_sweeps: Vec<Arc<Sweep>>,
}

/// `base · (1 ± spread/2)`, drawn by the seed.
fn jitter(rng: &mut Rng, base: f64, spread: f64) -> f64 {
    base * (1.0 + spread * (rng.unit() - 0.5))
}

fn tenant(rng: &mut Rng, setup: f64, q: u32, p_max: u32, ticks: f64) -> Tenant {
    Tenant {
        setup: secs(jitter(rng, setup, 0.05)),
        q,
        p_max,
        ticks: jitter(rng, ticks, 0.1).round() as i64,
    }
}

/// One query against `table`, with its expected answer: `p = 1` in one
/// of eight draws, a Prop 4.1 zero-region lifespan in another, else a
/// lifespan uniform over the rest of the table.
fn query(rng: &mut Rng, table: &CompressedTable, tenant: &Tenant) -> (GuaranteeQuery, Expected) {
    let c = tenant.setup.get();
    let p = if rng.range(0, 7) == 0 {
        1
    } else {
        rng.range(1, u64::from(tenant.p_max)) as u32
    };
    let edge = f64::from(p + 1) * c;
    let top = tenant.max_lifespan().get();
    let zero = rng.range(0, 7) == 0;
    let lifespan = if zero {
        secs(rng.unit() * 0.999 * edge)
    } else {
        secs(edge + rng.unit() * (top - edge))
    };
    expect(table, p, lifespan, zero)
}

fn expect(
    table: &CompressedTable,
    p: u32,
    lifespan: Time,
    zero: bool,
) -> (GuaranteeQuery, Expected) {
    let grid = *table.grid();
    let q = grid.q() as u32;
    let ticks = grid.to_ticks(lifespan).clamp(0, table.max_ticks());
    let closed = if zero {
        ClosedForm::Zero
    } else if p == 1 {
        w1_window(lifespan, grid.setup(), q)
    } else {
        ClosedForm::None
    };
    let expected = Expected {
        value_bits: table.value(p, lifespan).get().to_bits(),
        value_ticks: table.value_ticks(p, ticks),
        closed,
    };
    // The closed forms are checked on the reference too: a reference
    // outside them is a solver fault, not a serving one.
    let reference = GuaranteeAnswer {
        value: table.value(p, lifespan),
        value_ticks: expected.value_ticks,
    };
    assert!(
        expected.accepts(&reference),
        "reference fails its closed-form check at p={p} L={lifespan} on {grid:?}"
    );
    let query = GuaranteeQuery {
        setup: grid.setup(),
        ticks_per_setup: q,
        interrupts: p,
        lifespan,
    };
    (query, expected)
}

/// Solves each tenant's reference on up to two threads (prep only)
/// and maps it through `f` as soon as it is solved, so at most two
/// tables are alive at once unless `f` keeps them.
fn solve_map<T: Send>(
    tenants: &[Tenant],
    f: impl Fn(usize, CompressedTable) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = tenants.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(t) = tenants.get(i) else { break };
                let out = f(i, t.solve());
                *slots[i].lock().expect("prep slot lock") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("prep slot lock")
                .expect("every tenant solved")
        })
        .collect()
}

fn solve_all(tenants: &[Tenant]) -> Vec<Arc<CompressedTable>> {
    solve_map(tenants, |_, table| Arc::new(table))
}

/// Batches drawn with Zipf skew over `tables` (rank 0 hottest).
fn batches(rng: &mut Rng, tables: &[Arc<CompressedTable>], tenants: &[Tenant]) -> Vec<Batch> {
    let weights = zipf_weights(tables.len(), 1.1);
    (0..BATCH_POOL)
        .map(|_| {
            let (queries, expected) = (0..BATCH)
                .map(|_| {
                    let k = rng.weighted(&weights);
                    query(rng, &tables[k], &tenants[k])
                })
                .unzip();
            Batch { queries, expected }
        })
        .collect()
}

/// Generates a run's inputs from `seed` and solves its references.
pub fn prepare(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    match workload {
        Workload::WarmBatch => {
            // Eight tenant grids: distinct setup and Q, mixed p and L;
            // Zipf rank k always lands on stratum k.
            let strata = [
                (1.0, 16, 8, 6e5),
                (0.5, 8, 12, 4e5),
                (2.0, 32, 6, 1e6),
                (1.5, 8, 16, 2e5),
                (0.75, 16, 4, 8e5),
                (3.0, 32, 10, 3e5),
                (1.25, 8, 5, 1e6),
                (2.5, 16, 14, 1.5e5),
            ];
            let tenants: Vec<Tenant> = strata
                .iter()
                .map(|&(c, q, p, l)| tenant(&mut rng, c, q, p, l))
                .collect();
            let tables = solve_all(&tenants);
            let mut a = rng.fork(1);
            let mut b = rng.fork(2);
            Inputs {
                probe: probe(&tables[0], &tenants[0]),
                plans: [
                    Plan::Batches(batches(&mut a, &tables, &tenants)),
                    Plan::Batches(batches(&mut b, &tables, &tenants)),
                ],
                replay_sweeps: windows(&mut rng.fork(3), &tenants, &tables, 5.0),
                corpus: tables,
                memory_budget: None,
            }
        }
        Workload::SweepStream => {
            let tenants = [
                tenant(&mut rng, 1.0, 32, 8, 2e7),
                tenant(&mut rng, 0.5, 16, 4, 5e7),
            ];
            let tables = solve_all(&tenants);
            let sweeps = windows(&mut rng, &tenants, &tables, 6.0);
            // Fixed visiting orders (ascending widths, and a stride
            // through them), so allocation patterns repeat across seeds.
            let stride: Vec<Arc<Sweep>> = (0..SWEEP_WINDOWS)
                .map(|k| sweeps[k * 37 % SWEEP_WINDOWS].clone())
                .collect();
            let plans = [Plan::Sweeps(sweeps), Plan::Sweeps(stride)];
            Inputs {
                probe: probe(&tables[0], &tenants[0]),
                corpus: tables,
                plans,
                memory_budget: None,
                replay_sweeps: Vec::new(),
            }
        }
        Workload::ColdMix => {
            let resident = tenant(&mut rng, 1.0, 16, 8, 5e5);
            // 40 fresh grids: Q cycles 8/16/32, p spans 4–16, L spans
            // 10⁵–10⁷ ticks log-uniformly, plus two deep contracts.
            const POOL: usize = 40;
            const DEEP: usize = 2;
            let contract_tenants: Vec<Tenant> = (0..POOL)
                .map(|k| {
                    let q = [8, 16, 32][k % 3];
                    let p = 4 + (k as u32 * 7) % 13;
                    let ticks = if k >= POOL - DEEP {
                        3e7
                    } else {
                        10f64.powf(5.0 + 2.0 * (k as f64 + 0.5) / (POOL - DEEP) as f64)
                    };
                    // Distinct setups make every contract its own grid.
                    tenant(&mut rng, 0.3 + 0.05 * k as f64, q, p, ticks)
                })
                .collect();
            // Each contract keeps only its expected answers; its table is
            // dropped once they are drawn.
            let draws: Vec<Mutex<Rng>> = (0..POOL)
                .map(|k| Mutex::new(rng.fork(100 + k as u64)))
                .collect();
            let solved = solve_map(&contract_tenants, |k, table| {
                let t = &contract_tenants[k];
                let mut rng = draws[k].lock().expect("prep rng lock");
                // The first query pins the contract's full extent, so
                // the broker solves exactly this grid to this depth.
                let top = expect(&table, t.p_max, t.max_lifespan(), false);
                let (queries, expected) = std::iter::once(top)
                    .chain((1..CONTRACT_QUERIES).map(|_| query(&mut rng, &table, t)))
                    .unzip();
                (Batch { queries, expected }, table.memory_bytes())
            });
            let working_set: usize = solved.iter().map(|(_, bytes)| bytes).sum();
            let contracts = solved.into_iter().map(|(batch, _)| batch).collect();
            let tables = solve_all(&[resident]);
            let mut b = rng.fork(2);
            let b_batches = batches(&mut b, &tables, &[resident]);
            Inputs {
                probe: probe(&tables[0], &resident),
                memory_budget: Some(tables[0].memory_bytes() + working_set / 4),
                plans: [
                    Plan::Contracts(Contracts {
                        contracts,
                        tenants: contract_tenants,
                        seed: rng.next_u64(),
                    }),
                    Plan::Batches(b_batches),
                ],
                corpus: tables,
                replay_sweeps: Vec::new(),
            }
        }
    }
}

/// Sweep windows per run.
const SWEEP_WINDOWS: usize = 64;

/// Sweep windows over `tables`: widths fixed log-uniformly over
/// `10⁴ ..= 10^top_exp` ticks, tenants taken in turn, `p` cycling
/// through each table's budgets, and offsets spread over the table in
/// seeded strata. Every seed sends the same mix; the seed places each
/// window inside its stratum.
fn windows(
    rng: &mut Rng,
    tenants: &[Tenant],
    tables: &[Arc<CompressedTable>],
    top_exp: f64,
) -> Vec<Arc<Sweep>> {
    let n = tenants.len();
    let mut slots: Vec<usize> = (0..SWEEP_WINDOWS).collect();
    rng.shuffle(&mut slots);
    (0..SWEEP_WINDOWS)
        .map(|k| {
            let t = &tenants[k % n];
            let exp = 4.0 + (top_exp - 4.0) * k as f64 / (SWEEP_WINDOWS - 1) as f64;
            let count = 10f64.powf(exp).round() as i64;
            let p = 1 + (k / n) as u32 % t.p_max;
            let at = (slots[k] as f64 + rng.unit()) / SWEEP_WINDOWS as f64;
            let query = SweepQuery {
                setup: t.setup,
                ticks_per_setup: t.q,
                interrupts: p,
                first_tick: (at * (t.ticks - count) as f64) as i64,
                count: count as u32,
            };
            Arc::new(Sweep::new(query, &tables[k % n]))
        })
        .collect()
}

/// The set-up probe: `p = 1` at the tenant's full extent.
fn probe(table: &CompressedTable, tenant: &Tenant) -> Batch {
    let (query, expected) = expect(table, 1, tenant.max_lifespan(), false);
    Batch {
        queries: vec![query],
        expected: vec![expected],
    }
}
