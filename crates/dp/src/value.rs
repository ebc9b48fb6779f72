//! The exact value table `W^(p)[L]` and the optimal policy it induces.
//!
//! ## The sequential formulation
//!
//! Within an episode no information reaches the owner, so committing an
//! episode schedule up front is equivalent to choosing period lengths one
//! at a time. The guaranteed-output game therefore satisfies
//!
//! ```text
//! W^(p)(L) = max_{0 < t ≤ L} min( W^(p−1)(L − t),          // interrupted
//!                                 (t ⊖ c) + W^(p)(L − t) ) // completed
//! W^(0)(L) = L ⊖ c
//! ```
//!
//! — the adversary interrupts the period at its last instant (any earlier
//! concedes more residual lifespan, and `W` is nondecreasing), or lets it
//! complete. The recursion is well-founded in `L` and is solved bottom-up
//! on the integer tick grid in exact `i64` arithmetic.
//!
//! ## The frontier sweep
//!
//! On `t ∈ [Q+1, L]` the interrupted branch `A(t) = W^(p−1)(L−t)` is
//! nonincreasing and the completed branch `B(t) = (t−Q) + W^(p)(L−t)` is
//! nondecreasing (both because `W` is nondecreasing and 1-Lipschitz), so
//! `max_t min(A,B)` sits at the crossing. Nonproductive lengths `t ≤ Q`
//! are dominated by the 1-tick "wait" candidate `W^(p)(L−1)`, which is
//! also what makes each row monotone. Substituting `s = L − t`, the
//! crossing condition `B ≥ A` reads `h(s) ≤ L − Q` for
//! `h(s) = s + W^(p−1)(s) − W^(p)(s)`, and `h` is **nondecreasing in
//! `s`** (both rows are 1-Lipschitz). As `L` grows by a tick the
//! threshold `L − Q` only rises, so the crossing residual `s*(L)` only
//! advances: one monotone pointer serves the whole level in `O(L)`
//! amortized — the solve is `O(p·L)` total.
//!
//! This sweep is the only way a dense table is filled. The event-driven
//! build behind [`crate::CompressedTable`] ([`crate::event`]) jumps the
//! same sweep from breakpoint to breakpoint and applies the same
//! crossing rule and tie-breaks, so dense and compressed tables agree on
//! values **and** argmax (hence on reconstructed episodes) exactly.
//! `tests/equivalence_props.rs` pins both against an independent
//! brute-force oracle that maximizes over every `t ∈ [1, L]`, with
//! neither the wait shortcut nor the `t > Q` restriction.
//!
//! ## Storage
//!
//! Rows live in one flat arena (`Vec<i64>` indexed by `p · stride + l`)
//! rather than nested `Vec<Vec<i64>>`: one allocation, no pointer chase
//! on the hot `prev[s]`/`cur[s]` loads, and the argmax sits in a parallel
//! flat `Vec<u32>`. For lifespans too large to hold densely at all, use
//! [`crate::compressed::CompressedTable`].

use crate::grid::Grid;
use cyclesteal_core::error::{ModelError, Result};
use cyclesteal_core::model::Opportunity;
use cyclesteal_core::policy::{EpisodePolicy, WorkOracle};
use cyclesteal_core::schedule::EpisodeSchedule;
use cyclesteal_core::time::{Time, Work};
use std::sync::Arc;

/// The inner-maximization algorithm. Retained only for source
/// compatibility with callers that name it in a [`SolveOptions`]
/// literal: each table kind has exactly one build — the frontier sweep
/// for a dense [`ValueTable`], the event-driven build of
/// [`crate::event`] for a [`crate::CompressedTable`] — and no solver
/// branches on this value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum InnerLoop {
    /// Event-driven run skipping: `O(k log k)` per level, `k` =
    /// breakpoints (see [`crate::event`]).
    #[default]
    EventDriven,
}

/// How compressed rows store their flat ticks. Retained only for source
/// compatibility: every [`crate::CompressedTable`] stores its levels as
/// arithmetic runs and no code branches on this value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum RowRepr {
    /// Second-order: arithmetic runs (start, fixed-point common
    /// difference, length) plus an `i8` residual per jittery flat — the
    /// stored descriptor count tracks regime changes, not breakpoints,
    /// and memory drops to ≈1 byte per breakpoint. See [`crate::run`].
    #[default]
    Runs,
}

/// Options for [`ValueTable::solve`] and
/// [`crate::CompressedTable::solve_with`].
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    /// Keep the argmax (first-period choice) per state, enabling
    /// [`ValueTable::episode`] and [`OptimalPolicy`]. Costs 4 bytes/state.
    /// Compressed tables ignore it: they re-derive the policy at query
    /// time.
    pub keep_policy: bool,
    /// Retained for source compatibility; see [`InnerLoop`].
    pub inner: InnerLoop,
    /// Retained for source compatibility: both builds run sequentially
    /// within a solve and ignore it. [`crate::TableCache::solve_many`]
    /// parallelizes across distinct solves instead.
    pub threads: usize,
    /// Retained for source compatibility; see [`RowRepr`].
    pub repr: RowRepr,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            keep_policy: true,
            inner: InnerLoop::EventDriven,
            threads: 1,
            repr: RowRepr::Runs,
        }
    }
}

/// The exact grid game value `W^(p)[L]` for all `p ≤ p_max` and all grid
/// lifespans `L ≤ L_max`, plus (optionally) the optimal first-period
/// choice per state. Dense flat-arena storage: `(p_max+1)·(L_max+1)`
/// values of 8 bytes (+4 with the policy).
#[derive(Clone, Debug)]
pub struct ValueTable {
    grid: Grid,
    max_ticks: i64,
    max_interrupts: u32,
    /// Row stride: `max_ticks + 1` states per level.
    stride: usize,
    /// `levels[p·stride + l]` = `W^(p)` at lifespan `l` ticks, in ticks.
    levels: Vec<i64>,
    /// `argmax[p·stride + l]` = optimal first-period ticks (0 ⇔ l = 0).
    argmax: Option<Vec<u32>>,
}

/// The frontier-sweep level fill: `cur[1..=n]` (and `arg` when `KEEP`)
/// from the completed `prev` row; `cur[0]` must already be 0. The
/// memory traffic is arranged so the steady-state tick performs **no
/// reads at all**:
///
/// * the wait candidate `cur[l−1]` is the carried local `last`;
/// * the four row values the candidates need — `prev`/`cur` at the
///   frontier `s` and at `s+1` — live in locals and are reloaded only
///   when the frontier *advances* (amortized ≤ 1 reload per tick across
///   the level, typically ~1 per period), which also removes the
///   per-tick bounds checks those indexed loads paid;
/// * the trivial prefix `l ≤ Q+1` (identically zero: the paper's
///   `(p+1)·c` zero region covers it for every level this fill solves)
///   is written by a dedicated loop instead of running the full
///   candidate machinery per tick.
///
/// The remaining per-tick slice accesses are the two sequential stores
/// (`cur[l]`, and `arg[l]` when `KEEP`).
fn sweep_fill<const KEEP: bool>(prev: &[i64], cur: &mut [i64], arg: &mut [u32], n: i64, q: i64) {
    // Zero prefix: W(l) = 0 for l ≤ Q+1 on every level p ≥ 1, and a
    // zero-value state burns its whole lifespan in one period.
    let trivial = n.min(q + 1);
    for l in 1..=trivial {
        cur[l as usize] = 0;
        if KEEP {
            arg[l as usize] = l as u32;
        }
    }
    if n <= q + 1 {
        return;
    }

    // Frontier pointer s* = L − t*, nondecreasing in L (module docs),
    // plus the cached row values at s* and s*+1. `cur[1]` is the zero
    // just written above; `prev[0]` is 0 by the `cur[0] = 0` contract.
    let mut frontier: i64 = 0;
    let (mut prev_s, mut cur_s) = (prev[0], 0i64);
    let (mut prev_s1, mut cur_s1) = (prev[1], cur[1]);
    let mut last = 0i64; // cur[q+1], end of the trivial prefix

    for l in q + 2..=n {
        // Advance s* while the crossing condition
        // h(s+1) = (s+1) + prev[s+1] − cur[s+1] ≤ L − Q still holds;
        // h is nondecreasing and the threshold only rises with l, so
        // the pointer never retreats.
        let tau = l - q;
        let s_cap = l - q - 1;
        while frontier < s_cap && frontier + 1 + prev_s1 - cur_s1 <= tau {
            frontier += 1;
            prev_s = prev_s1;
            cur_s = cur_s1;
            // s*+1 ≤ l − Q, solved strictly earlier in this row (Q ≥ 1),
            // so both reloads see final values.
            let s1 = (frontier + 1) as usize;
            prev_s1 = prev[s1];
            cur_s1 = cur[s1];
        }
        let t_star = l - frontier;
        let v_star = prev_s.min((t_star - q) + cur_s);
        // The maximum of min(A, B) sits at the crossing t* or one tick
        // before it; prefer t* on ties. t* > Q+1 ⇔ s* < s_cap.
        let (cand_t, cand_v) = if frontier < s_cap {
            let v_left = prev_s1.min((t_star - 1 - q) + cur_s1);
            if v_left > v_star {
                (t_star - 1, v_left)
            } else {
                (t_star, v_star)
            }
        } else {
            (t_star, v_star)
        };
        // Wait candidate: a 1-tick (nonproductive) period. Any t ≤ Q is
        // dominated by it; prefer a real period over waiting on ties.
        let (mut best, mut best_t) = (last, 1i64);
        if cand_v >= best {
            best = cand_v;
            best_t = cand_t;
        }
        if best == 0 {
            best_t = l;
        }
        cur[l as usize] = best;
        if KEEP {
            arg[l as usize] = best_t as u32;
        }
        last = best;
    }
}

impl ValueTable {
    /// Solves the game bottom-up for `interrupt` levels `0..=max_interrupts`
    /// and lifespans `0..=max_lifespan` at `ticks_per_setup` resolution.
    ///
    /// ```
    /// use cyclesteal_core::time::secs;
    /// use cyclesteal_dp::{SolveOptions, ValueTable};
    ///
    /// // W^(p)[L] for p ≤ 2 and lifespans up to 100 setup charges, at 8
    /// // ticks per charge.
    /// let table = ValueTable::solve(secs(1.0), 8, secs(100.0), 2, SolveOptions::default());
    /// // Rows are nondecreasing in lifespan and nonincreasing in the
    /// // adversary's interrupt budget (paper Prop. 4.1):
    /// assert!(table.value(1, secs(80.0)) >= table.value(1, secs(40.0)));
    /// assert!(table.value(2, secs(80.0)) <= table.value(1, secs(80.0)));
    /// // keep_policy (the default) also records the optimal first period
    /// // per state, so full episode schedules reconstruct exactly:
    /// let episode = table.episode(2, secs(80.0)).unwrap();
    /// assert!(episode.total().approx_eq(secs(80.0), secs(1e-9)));
    /// ```
    pub fn solve(
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
        opts: SolveOptions,
    ) -> ValueTable {
        let grid = Grid::new(setup, ticks_per_setup);
        let n = grid.to_ticks(max_lifespan).max(0);
        let q = grid.q();
        let stride = (n + 1) as usize;
        let p_levels = max_interrupts as usize + 1;

        let mut levels = vec![0i64; p_levels * stride];
        let mut argmax = opts.keep_policy.then(|| vec![0u32; p_levels * stride]);

        // Level 0: W^(0)(l) = l ⊖ Q; single period.
        for l in 0..=n {
            levels[l as usize] = (l - q).max(0);
        }
        if let Some(am) = argmax.as_mut() {
            for l in 0..=n {
                am[l as usize] = l as u32;
            }
        }

        for p in 1..=max_interrupts as usize {
            let (done, rest) = levels.split_at_mut(p * stride);
            let prev = &done[(p - 1) * stride..];
            let cur = &mut rest[..stride];
            let arg = argmax
                .as_mut()
                .map(|am| &mut am[p * stride..(p + 1) * stride]);
            match arg {
                Some(arg) => sweep_fill::<true>(prev, cur, arg, n, q),
                None => sweep_fill::<false>(prev, cur, &mut [], n, q),
            }
        }

        ValueTable {
            grid,
            max_ticks: n,
            max_interrupts,
            stride,
            levels,
            argmax,
        }
    }

    /// The grid the table was solved on.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Largest lifespan (in ticks) the table covers.
    pub fn max_ticks(&self) -> i64 {
        self.max_ticks
    }

    /// Largest lifespan the table covers.
    pub fn max_lifespan(&self) -> Time {
        self.grid.to_time(self.max_ticks)
    }

    /// Largest interrupt budget the table covers.
    pub fn max_interrupts(&self) -> u32 {
        self.max_interrupts
    }

    /// Whether the optimal first-period choice was kept per state.
    pub fn has_policy(&self) -> bool {
        self.argmax.is_some()
    }

    /// One solved row `W^(p)[0..=max_ticks]` as a slice into the arena.
    #[inline]
    pub fn row(&self, p: u32) -> &[i64] {
        let p = p.min(self.max_interrupts) as usize;
        &self.levels[p * self.stride..(p + 1) * self.stride]
    }

    /// Bytes held by the value arena and (if kept) the argmax arena.
    /// The accounting the `perf_dp` bench and the compression tests use.
    pub fn memory_bytes(&self) -> usize {
        self.levels.len() * std::mem::size_of::<i64>()
            + self
                .argmax
                .as_ref()
                .map_or(0, |am| am.len() * std::mem::size_of::<u32>())
    }

    /// Exact grid value in work ticks. `p` above the solved range clamps
    /// (the adversary never benefits from more interrupts than periods, and
    /// `W^(p)` is nonincreasing in `p`, so this is an upper bound there);
    /// `l` outside `[0, max]` panics.
    #[inline]
    pub fn value_ticks(&self, p: u32, l: i64) -> i64 {
        assert!(
            (0..=self.max_ticks).contains(&l),
            "lifespan {l} ticks outside solved range 0..={}",
            self.max_ticks
        );
        self.row(p)[l as usize]
    }

    /// Value at an arbitrary lifespan by linear interpolation between grid
    /// points (`W` is 1-Lipschitz, so the interpolation error is below half
    /// a tick). Lifespans beyond the solved range panic.
    pub fn value(&self, p: u32, lifespan: Time) -> Work {
        let tick = self.grid.tick().get();
        let x = lifespan.get() / tick;
        assert!(
            x >= -1e-9 && x <= self.max_ticks as f64 + 1e-9,
            "lifespan {lifespan} outside solved range {}",
            self.max_lifespan()
        );
        let x = x.clamp(0.0, self.max_ticks as f64);
        let i = x.floor() as i64;
        let row = self.row(p);
        if i >= self.max_ticks {
            return Time::new(row[self.max_ticks as usize] as f64 * tick);
        }
        let frac = x - i as f64;
        let lo = row[i as usize] as f64;
        let hi = row[i as usize + 1] as f64;
        Time::new((lo + (hi - lo) * frac) * tick)
    }

    /// The optimal first-period length (in ticks) at state `(p, l)`.
    /// Requires the table to have been solved with `keep_policy`;
    /// `l` outside `[0, max]` panics (it would otherwise silently read
    /// a neighbouring level's row in the flat arena).
    pub fn first_period_ticks(&self, p: u32, l: i64) -> i64 {
        assert!(
            (0..=self.max_ticks).contains(&l),
            "lifespan {l} ticks outside solved range 0..={}",
            self.max_ticks
        );
        let am = self
            .argmax
            .as_ref()
            .expect("table solved without keep_policy");
        let p = p.min(self.max_interrupts) as usize;
        am[p * self.stride + l as usize] as i64
    }

    /// Reconstructs the full optimal episode schedule at `(p, lifespan)`
    /// (the lifespan is quantized to the grid; the residual quantization
    /// drift is absorbed by the first period — see `assemble_episode` in
    /// this module for the coarse-grid guard).
    pub fn episode(&self, p: u32, lifespan: Time) -> Result<EpisodeSchedule> {
        let mut l = self.grid.to_ticks(lifespan);
        if l <= 0 {
            return Err(ModelError::NegativeLifespan { lifespan });
        }
        l = l.min(self.max_ticks);
        let mut periods_ticks: Vec<i64> = Vec::new();
        while l > 0 {
            let t = self.first_period_ticks(p, l).max(1).min(l);
            periods_ticks.push(t);
            l -= t;
        }
        assemble_episode(&self.grid, &periods_ticks, lifespan)
    }
}

/// Turns reconstructed on-grid period ticks into an [`EpisodeSchedule`]
/// at the requested (off-grid) lifespan. The quantization drift
/// `lifespan − Σ tᵢ·tick` is absorbed by the first period; when a
/// *negative* drift would consume the entire first period — reachable
/// only at very coarse grids, where half a tick can rival a whole period
/// — every period is instead scaled by the same positive factor, so the
/// schedule never contains a non-positive length and still sums to the
/// lifespan. Shared by the dense and compressed reconstructions so their
/// outputs stay bit-identical.
pub(crate) fn assemble_episode(
    grid: &Grid,
    periods_ticks: &[i64],
    lifespan: Time,
) -> Result<EpisodeSchedule> {
    let mut periods: Vec<Time> = periods_ticks.iter().map(|&t| grid.to_time(t)).collect();
    let total: Time = periods.iter().copied().sum();
    let drift = lifespan - total;
    if !drift.is_zero() {
        if (periods[0] + drift).is_positive() {
            periods[0] += drift;
        } else {
            let scale = lifespan.get() / total.get();
            for t in periods.iter_mut() {
                *t = Time::new(t.get() * scale);
            }
        }
    }
    EpisodeSchedule::for_lifespan(periods, lifespan)
}

impl WorkOracle for ValueTable {
    fn setup(&self) -> Time {
        self.grid.setup()
    }

    fn guaranteed_work(&self, interrupts: u32, lifespan: Time) -> Work {
        self.value(interrupts, lifespan)
    }
}

/// The exact-DP optimal strategy as an [`EpisodePolicy`].
#[derive(Clone)]
pub struct OptimalPolicy {
    table: Arc<ValueTable>,
}

impl OptimalPolicy {
    /// Wraps a solved table (must have been solved with `keep_policy`).
    pub fn new(table: Arc<ValueTable>) -> OptimalPolicy {
        assert!(
            table.argmax.is_some(),
            "OptimalPolicy needs a table solved with keep_policy"
        );
        OptimalPolicy { table }
    }

    /// The backing table.
    pub fn table(&self) -> &ValueTable {
        &self.table
    }
}

impl EpisodePolicy for OptimalPolicy {
    fn episode(&self, opp: &Opportunity) -> Result<EpisodeSchedule> {
        self.table.episode(opp.interrupts(), opp.lifespan())
    }

    fn name(&self) -> String {
        format!(
            "optimal-dp(q={}, p≤{})",
            self.table.grid.q(),
            self.table.max_interrupts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_core::bounds::{w0, w1_exact};
    use cyclesteal_core::time::secs;

    fn small_table(q: u32, max_u: f64, p: u32) -> ValueTable {
        ValueTable::solve(secs(1.0), q, secs(max_u), p, SolveOptions::default())
    }

    /// The production table on the same grid: the event-driven build
    /// behind every served answer.
    fn production(q: u32, max_u: f64, p: u32) -> crate::CompressedTable {
        crate::CompressedTable::solve(secs(1.0), q, secs(max_u), p)
    }

    #[test]
    fn level_zero_matches_prop_41d() {
        let t = small_table(8, 64.0, 0);
        for l in [0.0, 0.5, 1.0, 7.25, 64.0] {
            assert_eq!(t.value(0, secs(l)), w0(secs(l), secs(1.0)), "L={l}");
        }
    }

    #[test]
    fn monotone_in_lifespan_and_interrupts() {
        let t = small_table(8, 128.0, 4);
        for p in 0..=4u32 {
            for l in 1..=t.max_ticks() {
                assert!(
                    t.value_ticks(p, l) >= t.value_ticks(p, l - 1),
                    "Prop 4.1(a) fails at p={p}, l={l}"
                );
            }
        }
        for p in 1..=4u32 {
            for l in 0..=t.max_ticks() {
                assert!(
                    t.value_ticks(p, l) <= t.value_ticks(p - 1, l),
                    "Prop 4.1(b) fails at p={p}, l={l}"
                );
            }
        }
    }

    #[test]
    fn zero_region_is_prop_41c() {
        let dense = small_table(8, 64.0, 3);
        let served = production(8, 64.0, 3);
        // (dense, production) at one state.
        let w = |p: u32, l: i64| (dense.value_ticks(p, l), served.value_ticks(p, l));
        let q = 8i64;
        for p in 0..=3u32 {
            let threshold = (p as i64 + 1) * q;
            for l in 0..=threshold {
                assert_eq!(
                    w(p, l),
                    (0, 0),
                    "W^{p}[{l}] should be 0 (dense, production)"
                );
            }
            // Just above: (p+1) periods of Q+1 ticks leave one survivor
            // banking one tick even after p kills.
            let above = (p as i64 + 1) * (q + 1);
            if above <= dense.max_ticks() {
                let (d, c) = w(p, above);
                assert!(
                    d >= 1 && c >= 1,
                    "W^{p}[{above}] should be positive: {d}, {c}"
                );
            }
        }
    }

    #[test]
    fn p1_matches_section_52_closed_form() {
        // Grid restriction can only lose; the loss is O(tick · m).
        let q = 64u32;
        let dense = small_table(q, 200.0, 1);
        let served = production(q, 200.0, 1);
        let c = secs(1.0);
        for &u in &[3.0, 5.0, 10.0, 50.0, 100.0, 200.0] {
            let cf = w1_exact(secs(u), c);
            let m = cyclesteal_core::bounds::m1_opt(secs(u), c) as f64;
            let slack = secs((m + 2.0) / q as f64);
            for (name, dp) in [
                ("dense", dense.value(1, secs(u))),
                ("production", served.value(1, secs(u))),
            ] {
                assert!(
                    dp <= cf + secs(1e-9),
                    "{name} U={u}: grid value {dp} exceeds continuum optimum {cf}"
                );
                assert!(
                    dp >= cf - slack,
                    "{name} U={u}: grid value {dp} too far below optimum {cf} (slack {slack})"
                );
            }
        }
    }

    #[test]
    fn reconstructed_episode_covers_lifespan_and_starts_like_s_opt1() {
        let t = small_table(64, 300.0, 1);
        let u = secs(250.0);
        let s = t.episode(1, u).unwrap();
        assert!(s.total().approx_eq(u, secs(1e-9)));
        let reference = cyclesteal_core::schedules::optimal_p1_schedule(u, secs(1.0)).unwrap();
        let diff = (s.period(0) - reference.period(0)).abs();
        assert!(
            diff <= secs(0.2),
            "DP first period {} vs closed form {}",
            s.period(0),
            reference.period(0)
        );
    }

    #[test]
    fn interpolation_is_between_grid_points() {
        let t = small_table(4, 32.0, 2);
        let a = t.value(2, secs(10.0));
        let b = t.value(2, secs(10.25));
        let mid = t.value(2, secs(10.125));
        assert!(mid >= a.min(b) && mid <= a.max(b));
    }

    #[test]
    #[should_panic(expected = "outside solved range")]
    fn out_of_range_lifespan_panics() {
        let t = small_table(4, 32.0, 1);
        let _ = t.value(1, secs(1000.0));
    }

    #[test]
    fn memory_accounting_matches_arena_sizes() {
        let t = small_table(4, 32.0, 2);
        let states = (t.max_ticks() + 1) as usize * 3;
        assert_eq!(t.memory_bytes(), states * 8 + states * 4);
        let bare = ValueTable::solve(
            secs(1.0),
            4,
            secs(32.0),
            2,
            SolveOptions {
                keep_policy: false,
                ..SolveOptions::default()
            },
        );
        assert_eq!(bare.memory_bytes(), states * 8);
    }

    #[test]
    fn coarse_grid_episodes_never_emit_nonpositive_periods() {
        // Q = 1 is the coarsest grid: one tick per setup charge, so the
        // quantization drift (up to half a tick) rivals whole periods.
        // Every reconstructed episode must consist of strictly positive
        // periods summing to the requested lifespan — including lifespans
        // sitting right at the round-half-away boundary.
        let t = ValueTable::solve(secs(1.0), 1, secs(40.0), 2, SolveOptions::default());
        for p in 0..=2u32 {
            for k in 1..=39i64 {
                for du in [-0.5, -0.499, -0.25, 0.0, 0.25, 0.499] {
                    let u = secs(k as f64 + du);
                    if t.grid().to_ticks(u) <= 0 {
                        continue;
                    }
                    let s = t.episode(p, u).unwrap();
                    assert!(
                        s.periods().iter().all(|pd| pd.is_positive()),
                        "non-positive period at p={p}, U={u}: {:?}",
                        s.periods()
                    );
                    assert!(
                        s.total().approx_eq(u, secs(1e-9)),
                        "episode at p={p}, U={u} sums to {}",
                        s.total()
                    );
                }
            }
        }
    }

    #[test]
    fn assemble_episode_renormalizes_when_drift_consumes_first_period() {
        // Direct exercise of the guard: a 1-tick first period with a
        // negative drift larger than itself. Unreachable through today's
        // reconstruction loop (|drift| ≤ tick/2 < any period), but the
        // helper must never emit a non-positive length even if a future
        // caller feeds it a worse quantization.
        let grid = Grid::new(secs(1.0), 1);
        let periods_ticks = [1i64, 5, 5];
        let lifespan = secs(0.5); // total is 11.0 — drift −10.5 swallows t₁
        let s = assemble_episode(&grid, &periods_ticks, lifespan).unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.periods().iter().all(|pd| pd.is_positive()));
        assert!(s.total().approx_eq(lifespan, secs(1e-9)));
        // Proportions survive the renormalization.
        assert!(s.period(1).approx_eq(s.period(2), secs(1e-12)));
        assert!(s.period(1) > s.period(0));
    }

    #[test]
    fn optimal_policy_is_an_episode_policy() {
        let t = Arc::new(small_table(16, 100.0, 2));
        let pol = OptimalPolicy::new(t);
        let opp = Opportunity::from_units(80.0, 1.0, 2);
        let s = pol.episode(&opp).unwrap();
        assert!(s.total().approx_eq(secs(80.0), secs(1e-9)));
        assert!(pol.name().contains("optimal-dp"));
    }
}
