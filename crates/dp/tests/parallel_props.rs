//! Thread-count properties. Both builds run sequentially within a solve
//! (`SolveOptions::threads` is accepted for source compatibility and
//! ignored), so every thread count must give the same table bit for
//! bit: the event-driven build's skeletons and event counts, and — held
//! against the dense frontier sweep — its values, argmax and episodes.
//! The dense comparisons run on the grids that pinned the retired
//! segmented dense solve (boundaries on zero-region edges, crossing
//! anchors, tables too small to split) and under `threads: 0`, which
//! resolves through `CYCLESTEAL_THREADS`, so the CI thread matrix
//! drives them.

use cyclesteal_core::prelude::*;
use cyclesteal_dp::{CompressedTable, SolveOptions, ValueTable};
use proptest::prelude::*;

fn solve_dense(q: u32, ticks: i64, p: u32, keep_policy: bool) -> ValueTable {
    ValueTable::solve(
        secs(1.0),
        q,
        secs(ticks as f64 / q as f64),
        p,
        SolveOptions {
            keep_policy,
            ..SolveOptions::default()
        },
    )
}

fn solve_compressed(q: u32, ticks: i64, p: u32, threads: usize) -> CompressedTable {
    CompressedTable::solve_with(
        secs(1.0),
        q,
        secs(ticks as f64 / q as f64),
        p,
        SolveOptions {
            keep_policy: false,
            threads,
            ..SolveOptions::default()
        },
    )
}

/// The production table must match the dense sweep on every value and,
/// when the dense table kept its policy, every argmax.
fn assert_matches_dense(dense: &ValueTable, prod: &CompressedTable, ctx: &str) {
    assert_eq!(dense.max_ticks(), prod.max_ticks(), "{ctx}: max_ticks");
    for p in 0..=dense.max_interrupts() {
        for l in 0..=dense.max_ticks() {
            assert_eq!(
                dense.value_ticks(p, l),
                prod.value_ticks(p, l),
                "{ctx}: value at p={p}, l={l}"
            );
            if l >= 1 && dense.has_policy() {
                assert_eq!(
                    dense.first_period_ticks(p, l),
                    prod.first_period_ticks(p, l),
                    "{ctx}: argmax at p={p}, l={l}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized grids, explicitly at 2 and 8 workers: the production
    /// table against the dense sweep, with and without the dense
    /// policy arena, episodes included.
    #[test]
    fn production_matches_dense_at_any_thread_count(
        q in 2u32..10,
        ticks in 600i64..6000,
        p in 1u32..4,
    ) {
        let dense = solve_dense(q, ticks, p, true);
        let bare = solve_dense(q, ticks, p, false);
        for threads in [2usize, 8] {
            let prod = solve_compressed(q, ticks, p, threads);
            let ctx = format!("q={q} ticks={ticks} p={p} threads={threads}");
            assert_matches_dense(&dense, &prod, &ctx);
            assert_matches_dense(&bare, &prod, &format!("bare {ctx}"));
            // Episode reconstruction goes through the same argmax; pin a
            // few lifespans end to end.
            for frac in [0.37, 0.81, 1.0] {
                let u = secs(ticks as f64 * frac / q as f64);
                if dense.value(p, u) > Work::ZERO {
                    let ed = dense.episode(p, u).unwrap();
                    let ep = prod.episode(p, u).unwrap();
                    prop_assert_eq!(ed.len(), ep.len());
                    for k in 0..ed.len() {
                        prop_assert_eq!(ed.period(k), ep.period(k), "period {} at {} threads", k, threads);
                    }
                }
            }
        }
    }

    /// The event-driven build at any thread count: the identical table
    /// — skeletons, values *and* event counts.
    #[test]
    fn compressed_build_is_thread_count_invariant(
        q in 2u32..10,
        ticks in 600i64..60_000,
        p in 1u32..4,
    ) {
        let seq = solve_compressed(q, ticks, p, 1);
        for threads in [2usize, 8] {
            let par = solve_compressed(q, ticks, p, threads);
            prop_assert_eq!(seq.events(), par.events(), "event count at {} threads", threads);
            for pp in 0..=p {
                prop_assert_eq!(seq.breakpoints(pp), par.breakpoints(pp),
                    "breakpoints at p={}, {} threads", pp, threads);
            }
            for l in 0..=seq.max_ticks() {
                prop_assert_eq!(seq.value_ticks(p, l), par.value_ticks(p, l),
                    "value at l={}, {} threads", l, threads);
            }
            prop_assert!(seq == par, "tables differ structurally at {} threads", threads);
        }
    }
}

/// Grids whose even splits land exactly on the structure the sweep
/// cares about: the zero-region edge, the first positive tick, and
/// even-division points (an `n` divisible by 16 puts every 2- and
/// 8-way boundary on a multiple of `n/16`).
#[test]
fn boundary_grids_match_dense_sweep() {
    for (q, n, p) in [
        (4u32, 4096i64, 3u32), // boundaries on powers of two
        (8, 4096 + 8, 2),      // zero region ends inside the first half
        (2, 513, 3),           // just past a two-way split threshold
        (6, 516 * 6, 4),       // boundaries land on multiples of Q
    ] {
        let dense = solve_dense(q, n, p, true);
        for threads in [2usize, 3, 8] {
            let prod = solve_compressed(q, n, p, threads);
            assert_matches_dense(
                &dense,
                &prod,
                &format!("q={q} n={n} p={p} threads={threads}"),
            );
        }
    }
}

/// Tables too small to split in any way.
#[test]
fn tiny_tables_match_dense_sweep() {
    for n in [0i64, 1, 40, 511] {
        let q = 3u32;
        let dense = solve_dense(q, n, 2, true);
        let prod = solve_compressed(q, n, 2, 8);
        assert_matches_dense(&dense, &prod, &format!("tiny n={n}"));
    }
}

/// `threads: 0` resolves through `CYCLESTEAL_THREADS`/available
/// parallelism — whatever it lands on, the result is pinned to the
/// dense sweep (this is the configuration the CI thread matrix runs at
/// 1 and 4 workers).
#[test]
fn auto_thread_count_matches_sequential() {
    let q = 5u32;
    let n = 7321i64;
    let dense = solve_dense(q, n, 3, true);
    let auto = solve_compressed(q, n, 3, 0);
    assert_matches_dense(&dense, &auto, "threads=0 (auto)");
    assert!(auto == solve_compressed(q, n, 3, 1), "threads=0 vs 1");
}
