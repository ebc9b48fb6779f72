//! Equivalence property tests: the two builds — the event-driven
//! production table ([`CompressedTable`]) and the dense frontier sweep
//! ([`ValueTable`]) — against the brute-force oracle of `support`, over
//! randomized `(q, L, p)` grids and at the documented edges (`t ≤ Q`
//! wait domination, `L ∈ {0, 1}`, single-breakpoint rows, all-flat
//! tails). Both tables must equal the oracle at every state, and both
//! tables' first periods must attain the oracle's maximum. The two
//! builds also share one crossing rule, so their argmax — and hence the
//! episodes they reconstruct — must be bit-identical to each other.

mod support;

use cyclesteal_core::prelude::*;
use cyclesteal_dp::{expand_value_runs, CompressedTable, SolveOptions, ValueTable};
use proptest::prelude::*;
use support::Oracle;

fn dense(q: u32, max_u: f64, p: u32) -> ValueTable {
    ValueTable::solve(secs(1.0), q, secs(max_u), p, SolveOptions::default())
}

fn production(q: u32, max_u: f64, p: u32) -> CompressedTable {
    CompressedTable::solve(secs(1.0), q, secs(max_u), p)
}

/// The dense table, the production table and the oracle on one grid,
/// after checking they cover the same lifespans.
fn solve_all(q: u32, max_u: f64, p: u32) -> (ValueTable, CompressedTable, Oracle) {
    let d = dense(q, max_u, p);
    let c = production(q, max_u, p);
    assert_eq!(d.max_ticks(), c.max_ticks(), "q={q} U={max_u}");
    let o = Oracle::solve(q, d.max_ticks(), p);
    (d, c, o)
}

/// Values of both tables equal the oracle at every state.
fn check_values(d: &ValueTable, c: &CompressedTable, o: &Oracle) {
    o.check_values("dense sweep", |p, l| d.value_ticks(p, l));
    o.check_values("production", |p, l| c.value_ticks(p, l));
}

/// Both tables' first periods attain the oracle's maximum, and the two
/// tables agree on them exactly.
fn check_argmax(d: &ValueTable, c: &CompressedTable, o: &Oracle) {
    o.check_argmax("dense sweep", |p, l| d.first_period_ticks(p, l));
    o.check_argmax("production", |p, l| c.first_period_ticks(p, l));
    for p in 0..=o.max_interrupts() {
        for l in 1..=o.max_ticks() {
            assert_eq!(
                d.first_period_ticks(p, l),
                c.first_period_ticks(p, l),
                "dense and production argmax differ at p={p}, l={l}"
            );
        }
    }
}

/// `answer` equals the two separate calls it replaces, bit for bit:
/// `value` at the lifespan, `value_ticks` at its clamped nearest tick.
/// The compressed `value` is `answer`'s own first half, so the value is
/// checked against the dense table's independent interpolation.
fn check_answer(d: &ValueTable, c: &CompressedTable, p: u32, lifespan: Time) {
    let (value, ticks) = c.answer(p, lifespan);
    let nearest = c.grid().to_ticks(lifespan).clamp(0, c.max_ticks());
    assert_eq!(
        value.get().to_bits(),
        d.value(p, lifespan).get().to_bits(),
        "value differs at p={p}, L={lifespan}"
    );
    assert_eq!(
        ticks,
        c.value_ticks(p, nearest),
        "value_ticks differs at p={p}, L={lifespan}"
    );
}

/// Worst-case value an episode schedule actually realizes at `(p, u)`,
/// scored by the Table-1 machinery against the exact oracle.
fn realized(table: &ValueTable, p: u32, u: f64, sched: &EpisodeSchedule) -> Work {
    let rows = table1(table, &Opportunity::from_units(u, 1.0, p), sched);
    adversary_value(&rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense and production values equal the oracle at every state.
    #[test]
    fn values_agree_everywhere(q in 2u32..12, max_u in 1.0f64..60.0, p in 0u32..4) {
        let (d, c, o) = solve_all(q, max_u, p);
        check_values(&d, &c, &o);
    }

    /// Dense and production first periods attain the oracle's maximum
    /// and coincide state by state.
    #[test]
    fn crossing_argmax_is_identical(q in 2u32..12, max_u in 1.0f64..60.0, p in 0u32..4) {
        let (d, c, o) = solve_all(q, max_u, p);
        check_argmax(&d, &c, &o);
    }

    /// Reconstructed episodes are bit-identical between the dense and
    /// production tables, and realize the value the tables claim.
    #[test]
    fn episode_outputs_are_equivalent(
        q in 4u32..10,
        max_u in 10.0f64..50.0,
        p in 1u32..3,
        frac in 0.3f64..1.0,
    ) {
        let (d, c, o) = solve_all(q, max_u, p);
        let u = max_u * frac;
        if d.value(p, secs(u)) > Work::ZERO {
            let ed = d.episode(p, secs(u)).unwrap();
            let ec = c.episode(p, secs(u)).unwrap();
            prop_assert_eq!(ed.len(), ec.len());
            for k in 0..ed.len() {
                prop_assert_eq!(ed.period(k), ec.period(k), "period {} differs", k);
            }
            // The episode realizes the claimed table value (a tick of
            // tolerance per side for off-grid drift), and the claim is
            // the oracle's at the quantized lifespan.
            let tick = secs(1.0 / q as f64);
            let claimed = d.value(p, secs(u));
            let vd = realized(&d, p, u, &ed);
            prop_assert!((vd - claimed).abs() <= tick * 2.0,
                "episode realizes {} but table claims {}", vd, claimed);
            let l = d.grid().to_ticks(secs(u)).min(d.max_ticks());
            prop_assert_eq!(c.value_ticks(p, l), o.value(p, l));
        }
    }

    /// `answer` matches `value` + `value_ticks` at random lifespans on
    /// the seeded grids, at every level and one past the top.
    #[test]
    fn answer_matches_value_and_value_ticks(
        q in 2u32..12,
        max_u in 1.0f64..60.0,
        p in 0u32..4,
        fracs in prop::collection::vec(0.0f64..1.0, 1..32),
    ) {
        let (d, c, _) = solve_all(q, max_u, p);
        let top = c.max_lifespan().get();
        for frac in fracs {
            for pp in 0..=p + 1 {
                check_answer(&d, &c, pp, secs(top * frac));
            }
        }
    }

    /// Wait-domination edge: just above the zero region every table
    /// agrees the optimum is positive, and below it everything is zero
    /// with the burn-it-all argmax.
    #[test]
    fn wait_domination_edge(q in 2u32..10, p in 1u32..4) {
        // Cover exactly the interesting band around (p+1)·Q ticks.
        let max_u = (p as f64 + 1.0) * 2.0 + 1.0;
        let (d, c, o) = solve_all(q, max_u, p);
        let qq = q as i64;
        let zero_edge = (p as i64 + 1) * qq;
        for l in 0..=d.max_ticks() {
            let w = o.value(p, l);
            prop_assert_eq!(w, d.value_ticks(p, l));
            prop_assert_eq!(w, c.value_ticks(p, l));
            if l <= zero_edge {
                prop_assert_eq!(w, 0, "W^{}[{}] must be 0 (≤ (p+1)Q)", p, l);
                if l >= 1 {
                    // Zero states burn the lifespan in one period — in
                    // both tables.
                    prop_assert_eq!(d.first_period_ticks(p, l), l);
                    prop_assert_eq!(c.first_period_ticks(p, l), l);
                }
            }
        }
        let above = (p as i64 + 1) * (qq + 1);
        if above <= d.max_ticks() {
            prop_assert!(o.value(p, above) >= 1);
        }
    }
}

#[test]
fn boundary_lifespans_zero_and_one_tick() {
    for q in [1u32, 2, 8] {
        for p in 0..=2u32 {
            // L = 0 ticks.
            let (d, c, o) = solve_all(q, 0.0, p);
            assert_eq!(d.max_ticks(), 0);
            check_values(&d, &c, &o);
            assert!(d.episode(p, secs(0.0)).is_err());
            assert!(c.episode(p, secs(0.0)).is_err());

            // L = 1 tick.
            let u1 = 1.0 / q as f64;
            let (d, c, o) = solve_all(q, u1, p);
            assert_eq!(d.max_ticks(), 1);
            check_values(&d, &c, &o);
            check_argmax(&d, &c, &o);
            // W^(p)(1 tick) = 1 ⊖ Q = 0 for every Q ≥ 1 and every p.
            assert_eq!(
                o.value(p, 1),
                0,
                "one tick can never out-bank the setup charge"
            );
            let e = c.episode(p, secs(u1)).unwrap();
            assert_eq!(e.len(), 1, "zero-value state burns the lifespan whole");
        }
    }
}

#[test]
fn single_breakpoint_rows_and_all_flat_tails() {
    // Rows whose skeleton is a single breakpoint (the zero-region edge,
    // no flats after): lifespans that never escape the zero region at
    // the deepest level, plus level 0 (W^(0) = l ⊖ Q exactly). And
    // all-flat tails: lifespans ending just inside the zero region of
    // the deepest level, where the event builder must not overrun `n`.
    for q in [1u32, 3, 16] {
        for p in 1..=3u32 {
            let qq = q as i64;
            // n lands exactly on, just below and just above (p+1)·Q —
            // the all-zero / first-positive boundary of level p.
            for n in [
                (p as i64 + 1) * qq - 1,
                (p as i64 + 1) * qq,
                (p as i64 + 1) * qq + 1,
                (p as i64 + 1) * (qq + 1),
                (p as i64 + 1) * (qq + 1) + 3,
            ] {
                if n < 0 {
                    continue;
                }
                let (d, c, o) = solve_all(q, n as f64 / q as f64, p);
                assert_eq!(d.max_ticks(), n, "q={q} p={p} n={n}");
                check_values(&d, &c, &o);
                check_argmax(&d, &c, &o);
                // Level 0 compresses to the single zero-edge breakpoint.
                assert_eq!(c.breakpoints(0), 1, "q={q} n={n}");
                assert_eq!(c.stored_breakpoints(0), 1, "q={q} n={n}");
            }
        }
    }
}

#[test]
fn fixed_grids_match_the_oracle() {
    // The grids the dense solver's own unit tests used to pin its
    // inner loops against each other, now pinned against the oracle:
    // Q = 4 over 60 ticks (the original brute-force cross-check), and
    // Q = 6 / Q = 7 over 80 / 90 setup charges.
    for (q, max_u, p) in [(4u32, 15.0, 3u32), (6, 80.0, 3), (7, 90.0, 3)] {
        let (d, c, o) = solve_all(q, max_u, p);
        check_values(&d, &c, &o);
        check_argmax(&d, &c, &o);
    }
}

#[test]
fn event_driven_matches_dense_sweep_at_a_million_ticks() {
    // The deep check behind the acceptance criterion: at 10⁶ ticks the
    // event build and the dense frontier sweep agree at *every* level
    // and lifespan, for a mid and a coarse resolution. The dense sweep
    // is itself pinned to the oracle by the properties above.
    for (q, p) in [(8u32, 2u32), (32, 3)] {
        let ticks: i64 = 1_000_000;
        let u = ticks as f64 / q as f64;
        let d = ValueTable::solve(
            secs(1.0),
            q,
            secs(u),
            p,
            SolveOptions {
                keep_policy: false,
                ..SolveOptions::default()
            },
        );
        let c = production(q, u, p);
        assert_eq!(d.max_ticks(), ticks);
        assert_eq!(c.max_ticks(), ticks);
        for pp in 0..=p {
            assert_eq!(
                expand_value_runs(&c.value_runs(pp, 0, ticks + 1)),
                d.row(pp),
                "row differs at q={q}, p={pp}"
            );
        }
        for l in 0..=ticks {
            assert_eq!(
                c.value_ticks(p, l),
                d.value_ticks(p, l),
                "value differs at q={q}, l={l}"
            );
        }
        // The second-order promise at depth: stored descriptors collapse
        // by an order of magnitude against the breakpoints they encode,
        // and the bytes fall below a flat list's 8 per breakpoint.
        let logical_k: usize = (0..=p).map(|pp| c.breakpoints(pp)).sum();
        let stored_k: usize = (0..=p).map(|pp| c.stored_breakpoints(pp)).sum();
        assert!(
            stored_k * 5 <= logical_k,
            "q={q}: stored {stored_k} descriptors for {logical_k} breakpoints (> 0.2×)"
        );
        assert!(
            c.memory_bytes() < logical_k * std::mem::size_of::<i64>(),
            "q={q}: {} B for {logical_k} breakpoints",
            c.memory_bytes()
        );
    }
}

#[test]
fn compressed_scales_where_dense_cannot() {
    // A lifespan deep into the 10⁷-tick range: the dense table would hold
    // 3 × (10⁷+1) i64 values (~240 MB with argmax); the skeleton holds
    // the same two levels in well under a megabyte and still answers
    // exact queries at the far end.
    let q = 8u32;
    let ticks: i64 = 10_000_000;
    let u = ticks as f64 / q as f64;
    let table = production(q, u, 1);
    assert_eq!(table.max_ticks(), ticks);
    assert!(
        table.memory_bytes() < 1 << 20,
        "skeleton too large: {} B",
        table.memory_bytes()
    );
    // Exact agreement with the p = 1 closed form at the far end, within
    // grid-quantization slack (the grid only loses, by O(m/Q)).
    let dp = table.value(1, secs(u));
    let cf = w1_exact(secs(u), secs(1.0));
    assert!(dp <= cf + secs(1e-6), "grid beats continuum: {dp} vs {cf}");
    let m = cyclesteal_core::bounds::m1_opt(secs(u), secs(1.0)) as f64;
    assert!(
        dp >= cf - secs((m + 2.0) / q as f64),
        "grid too lossy at U={u}: {dp} vs {cf}"
    );
}

#[test]
fn answer_matches_at_the_domain_edges_and_half_ticks() {
    for q in [1u32, 2, 3, 4, 7, 8] {
        for (max_u, p) in [(0.0, 1u32), (9.0, 2), (40.0, 3)] {
            let (d, c, _) = solve_all(q, max_u, p);
            let tick = c.grid().tick().get();
            let top = c.max_ticks() as f64;
            // Budgets up to two past the table's own, which clamp.
            for pp in 0..=p + 2 {
                // Within 1e-9 ticks of both ends of the domain.
                for x in [
                    -0.9e-9,
                    -0.5e-9,
                    0.0,
                    0.5e-9,
                    top - 0.5e-9,
                    top,
                    top + 0.5e-9,
                ] {
                    check_answer(&d, &c, pp, secs(x * tick));
                }
                // Exact half-ticks: rounding goes up to `i + 1`.
                for i in 0..c.max_ticks() {
                    let lifespan = secs((i as f64 + 0.5) * tick);
                    check_answer(&d, &c, pp, lifespan);
                    if q.is_power_of_two() {
                        // The half-tick is exact in binary here.
                        assert_eq!(c.answer(pp, lifespan).1, c.value_ticks(pp, i + 1));
                    }
                }
            }
        }
    }
}
