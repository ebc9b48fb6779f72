//! # cyclesteal-dp
//!
//! The exact game solver for the guaranteed-output cycle-stealing model:
//! the ground truth every guideline in the paper is measured against.
//!
//! One build per table kind, and one independent oracle to check both:
//!
//! * [`compressed::CompressedTable`] — the production table, behind
//!   every served answer, the cache, the store and the simulator. Each
//!   level is built by the **event-driven (run-skipping) builder** of
//!   [`event`]: between breakpoints every quantity of the paper's §4
//!   recursion is linear in `L`, so the builder jumps lifespan event to
//!   event (stall ends, flat-tick onsets, branch/regime switches) in
//!   `O(p·k log k)` time — `10^9`-tick tables in about a second. Rows
//!   are 1-Lipschitz staircases whose flat ticks number only
//!   `O(√(QL) + pQ)`, and each is stored **second-order compressed**
//!   ([`run`]): the flat ticks recur near-arithmetically (once per
//!   optimal period), so a level is kept as arithmetic runs (start,
//!   fixed-point common difference, length) plus one `i8` residual per
//!   jittery breakpoint — an order of magnitude fewer descriptors than
//!   breakpoints at the `10⁹`-tick bench point, ≈1 byte per breakpoint.
//! * [`value::ValueTable`] — the dense table: `W^(p)[L]` at every grid
//!   lifespan in one flat arena, filled by the monotone **frontier
//!   sweep** in `O(p·L)` (the paper's §4 bootstrapping, executed rather
//!   than assumed). Reconstructs optimal episode schedules and
//!   implements [`cyclesteal_core::policy::WorkOracle`], so Theorem
//!   4.3's equalizer can be driven by exact values for any `p`. Values,
//!   argmax and episodes agree with the compressed table bit for bit.
//! * The oracle lives in the test suite (`tests/support/mod.rs`): the
//!   §4 recursion `W^(p)(L) = max_{1≤t≤L} min(W^(p−1)(L−t), (t ⊖ c) +
//!   W^(p)(L−t))` maximized over every `t`, with neither the wait
//!   shortcut nor the `t > Q` restriction the two builds share.
//!   `tests/equivalence_props.rs` checks both tables against it at
//!   every state of its seeded grids.
//!
//! Around them:
//!
//! * [`cache::TableCache`] — one compressed solve per `(setup,
//!   resolution, p_max)` serves a whole `(U/c, p)` sweep, from small
//!   grids to `10^9`-tick horizons; independent configurations solve
//!   in parallel through `cyclesteal-par`.
//! * [`snapshot`] — the persistence boundary: lossless decomposition of
//!   a [`compressed::CompressedTable`] into primitive, representation-
//!   native parts and exact (validated) reconstruction — what the
//!   `cyclesteal-store` snapshot format serializes, so a solved `10⁹`-
//!   tick table can be written to disk once and warm-started by every
//!   later process instead of re-solved.
//! * [`eval::evaluate_policy`] — the guaranteed work of an *arbitrary*
//!   policy against the optimal adversary, used by the E-series benches
//!   to score the §3 guidelines and the baselines;
//!   [`eval::evaluate_policy_compressed`] carries the same scoring to
//!   `10^7`–`10^9` tick grids on adaptively-sampled piecewise-linear
//!   rows instead of dense `f64` arenas, with collinear knots merged so
//!   continuations read from run-compressed knot rows.
//!
//! A symbol-by-symbol map from the paper's notation (`W^(p)[L]`, `Q`,
//! `h(s)`, episodes) to the types and functions here lives in
//! `docs/NOTATION.md` at the repository root.
//!
//! ```
//! use cyclesteal_core::prelude::*;
//! use cyclesteal_dp::value::{SolveOptions, ValueTable};
//! use cyclesteal_dp::compressed::CompressedTable;
//!
//! let c = secs(1.0);
//! let table = ValueTable::solve(c, 32, secs(200.0), 2, SolveOptions::default());
//! // Prop 4.1(b): more potential interrupts can only hurt.
//! assert!(table.value(2, secs(200.0)) <= table.value(1, secs(200.0)));
//! // §5.2's closed form is confirmed by the solver at p = 1:
//! let diff = (table.value(1, secs(200.0)) - w1_exact(secs(200.0), c)).abs();
//! assert!(diff.get() < 0.75);
//! // The production table stores the same function in a fraction of
//! // the bytes, with the same optimal first periods:
//! let small = CompressedTable::solve(c, 32, secs(200.0), 2);
//! assert_eq!(small.value_ticks(2, 6400), table.value_ticks(2, 6400));
//! assert_eq!(small.first_period_ticks(2, 6400), table.first_period_ticks(2, 6400));
//! assert!(small.memory_bytes() < table.memory_bytes());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod compressed;
pub mod eval;
pub mod event;
pub mod grid;
pub mod profile;
pub mod run;
pub mod snapshot;
pub mod value;

pub use cache::{CacheStats, EvictHook, ShardStats, SolveConfig, TableCache};
pub use compressed::{expand_value_runs, CompressedOptimalPolicy, CompressedTable, ValueRun};
pub use eval::{
    evaluate_policy, evaluate_policy_compressed, CompressedEvalOptions, CompressedPolicyValue,
    EvalOptions, PolicyValue,
};
pub use grid::Grid;
pub use profile::{Phase, PhaseRecorder, PhaseTimings, ProfileSink, PHASE_COUNT};
pub use snapshot::{PartsError, RowParts, RunParts, TableParts};
pub use value::{InnerLoop, OptimalPolicy, RowRepr, SolveOptions, ValueTable};

#[cfg(test)]
mod cross_tests {
    //! Cross-module validations: Theorem 4.3's equalizer driven by the
    //! exact oracle must reproduce the exact game value.
    use crate::value::{SolveOptions, ValueTable};
    use cyclesteal_core::prelude::*;

    #[test]
    fn equalizer_with_exact_oracle_matches_game_value() {
        let c = secs(1.0);
        let table = ValueTable::solve(c, 32, secs(160.0), 3, SolveOptions::default());
        for p in 1..=3u32 {
            for &u in &[40.0, 90.0, 160.0] {
                let opp = Opportunity::from_units(u, 1.0, p);
                let (sched, value) = equalized_schedule(&table, &opp).unwrap();
                let exact = table.value(p, secs(u));
                assert!(
                    (value - exact).abs() <= secs(0.25),
                    "p={p} U={u}: equalizer {value} vs DP {exact}"
                );
                assert!(sched.total().approx_eq(secs(u), secs(1e-6)));
                // The audit agrees with the constructed value.
                let report = verify_equalization(&table, &opp, &sched);
                assert!(
                    (report.value - value).abs() <= secs(0.05),
                    "p={p} U={u}: audit {} vs constructed {}",
                    report.value,
                    value
                );
            }
        }
    }

    #[test]
    fn equalizer_accepts_the_compressed_oracle_too() {
        // WorkOracle is representation-blind: the compressed table drives
        // Theorem 4.3 exactly like the dense one.
        let c = secs(1.0);
        let table = crate::compressed::CompressedTable::solve(c, 32, secs(120.0), 2);
        let opp = Opportunity::from_units(120.0, 1.0, 2);
        let (sched, value) = equalized_schedule(&table, &opp).unwrap();
        let exact = table.value(2, secs(120.0));
        assert!((value - exact).abs() <= secs(0.25));
        assert!(sched.total().approx_eq(secs(120.0), secs(1e-6)));
    }

    #[test]
    fn fully_productive_restriction_is_lossless_here() {
        // §4.1 admits the fully-productive restriction is a heuristic.
        // The DP searches ALL schedules (including nonproductive periods);
        // its optimum matching the equalizer's fully-productive
        // construction (above) and §5.2 (value.rs tests) is numerical
        // evidence the restriction loses nothing. Here: reconstructed
        // optimal episodes are always productive outside the zero region.
        let c = secs(1.0);
        let table = ValueTable::solve(c, 16, secs(120.0), 2, SolveOptions::default());
        for p in 1..=2u32 {
            for &u in &[20.0, 60.0, 120.0] {
                if table.value(p, secs(u)) > Work::ZERO {
                    let s = table.episode(p, secs(u)).unwrap();
                    assert!(
                        s.make_productive(c).work_uninterrupted(c) >= s.work_uninterrupted(c),
                        "Thm 4.1 sanity at p={p}, U={u}"
                    );
                }
            }
        }
    }
}
