//! Persistence property tests: `load(save(table))` must be
//! **bit-identical** to the original (structural `PartialEq`, which
//! covers the run storage byte for byte) across grids, thread counts
//! and the degenerate lifespans `L ∈ {0, 1 tick, large}`, and the
//! restored table must answer exactly like the dense frontier sweep —
//! while every corruption of the byte stream (truncation, bit-flips,
//! wrong version) must come back as an error, never a panic and never a
//! silently different table.

use cyclesteal_core::time::secs;
use cyclesteal_dp::compressed::CompressedTable;
use cyclesteal_dp::{SolveOptions, ValueTable};
use cyclesteal_store::{from_bytes, load, save, to_bytes, StoreError};
use proptest::prelude::*;

fn solve(q: u32, max_u: f64, p: u32, threads: usize) -> CompressedTable {
    CompressedTable::solve_with(
        secs(1.0),
        q,
        secs(max_u),
        p,
        SolveOptions {
            keep_policy: false,
            threads,
            ..SolveOptions::default()
        },
    )
}

/// Panics unless a restored table answers like the dense frontier
/// sweep on the same grid at every state.
fn assert_matches_dense(back: &CompressedTable, q: u32, max_u: f64, p: u32, ctx: &str) {
    let dense = ValueTable::solve(secs(1.0), q, secs(max_u), p, SolveOptions::default());
    assert_eq!(back.max_ticks(), dense.max_ticks(), "{ctx}: max_ticks");
    for pp in 0..=p {
        for l in 0..=dense.max_ticks() {
            assert_eq!(
                back.value_ticks(pp, l),
                dense.value_ticks(pp, l),
                "{ctx}: value at p={pp}, l={l}"
            );
            if l > 0 {
                assert_eq!(
                    back.first_period_ticks(pp, l),
                    dense.first_period_ticks(pp, l),
                    "{ctx}: argmax at p={pp}, l={l}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Round trip over randomized grids and thread counts; the restored
    /// table answers like the dense sweep.
    #[test]
    fn round_trip_is_bit_identical(
        q in 2u32..12,
        max_u in 1.0f64..80.0,
        p in 0u32..4,
        threads in 1usize..4,
    ) {
        let table = solve(q, max_u, p, threads);
        let back = from_bytes(&to_bytes(&table))
            .expect("clean snapshot must decode");
        prop_assert_eq!(&table, &back,
            "round trip at q={}, threads={}", q, threads);
        assert_matches_dense(&back, q, max_u, p, &format!("q={q} U={max_u} p={p}"));
    }

    /// Every single-byte corruption of a snapshot errors — the CRCs and
    /// structural validation leave no byte whose flip goes unnoticed or
    /// panics the decoder.
    #[test]
    fn every_bit_flip_is_rejected(q in 2u32..10, max_u in 5.0f64..40.0, p in 1u32..3) {
        let bytes = to_bytes(&solve(q, max_u, p, 1));
        let stride = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(stride) {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << (pos % 8);
            prop_assert!(from_bytes(&bad).is_err(),
                "flip at byte {} of {} went unnoticed", pos, bytes.len());
        }
    }

    /// Every truncation errors, from the empty file up to one byte
    /// short of complete.
    #[test]
    fn every_truncation_is_rejected(q in 2u32..10, max_u in 5.0f64..40.0, p in 1u32..3) {
        let bytes = to_bytes(&solve(q, max_u, p, 1));
        let stride = (bytes.len() / 61).max(1);
        for cut in (0..bytes.len()).step_by(stride).chain([bytes.len() - 1]) {
            prop_assert!(from_bytes(&bytes[..cut]).is_err(),
                "truncation to {} of {} bytes went unnoticed", cut, bytes.len());
        }
    }
}

#[test]
fn degenerate_lifespans_round_trip() {
    // L = 0 (a single all-zero state per level), L = 1 tick (still
    // inside every zero region), and a large-L table.
    for (q, max_u, p) in [(8u32, 0.0f64, 2u32), (8, 0.125, 2), (16, 4000.0, 3)] {
        let table = solve(q, max_u, p, 2);
        let back = from_bytes(&to_bytes(&table)).unwrap();
        let ctx = format!("q={q} max_u={max_u} p={p}");
        assert_eq!(table, back, "{ctx}");
        assert_matches_dense(&back, q, max_u, p, &ctx);
    }
}

#[test]
fn thread_count_does_not_leak_into_the_snapshot() {
    // The solve is bit-identical across thread counts, so snapshots
    // must be byte-identical too — a warm start may be consumed by a
    // machine with a different worker count.
    let reference = to_bytes(&solve(8, 300.0, 3, 1));
    for threads in [2, 8] {
        let other = to_bytes(&solve(8, 300.0, 3, threads));
        assert_eq!(reference, other, "threads={threads}");
    }
}

#[test]
fn wrong_version_is_rejected_with_the_version_error() {
    let mut bytes = to_bytes(&solve(8, 50.0, 2, 1));
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        from_bytes(&bytes),
        Err(StoreError::UnsupportedVersion(2))
    ));
}

#[test]
fn file_round_trip_and_queries_survive() {
    let dir = std::env::temp_dir().join(format!("cyclesteal-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table = solve(16, 2000.0, 3, 1);
    let path = dir.join("t.cst");
    save(&table, &path).unwrap();
    let back = load(&path).unwrap();
    assert_eq!(table, back);
    // The restored table answers every query the original answers.
    for p in 0..=3u32 {
        for l in [0, 1, 17, 1000, table.max_ticks()] {
            assert_eq!(table.value_ticks(p, l), back.value_ticks(p, l));
            if l > 0 {
                assert_eq!(
                    table.first_period_ticks(p, l),
                    back.first_period_ticks(p, l)
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
