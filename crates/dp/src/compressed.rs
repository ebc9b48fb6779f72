//! Breakpoint-compressed `W^(p)[L]` tables — the production table.
//!
//! ## Why rows compress
//!
//! Every row `W^(p)[·]` is nondecreasing, 1-Lipschitz and integer on the
//! tick grid, so consecutive differences are bits: each tick either banks
//! a tick of work (slope 1) or loses it to the adversary (slope 0). The
//! total number of slope-0 ticks in a row is exactly the row's final loss
//! `L − W^(p)(L)`, which the paper bounds by `O(√(QL) + pQ)` — vanishing
//! relative to `L`. A row is therefore stored as its **flat-tick
//! skeleton** (the positions where the slope is 0, i.e. the breakpoints
//! of the piecewise-linear row) plus the zero-region prefix, and
//! evaluated by rank query: `W(l) = (l − z) − #{flats ≤ l}` for `l` past
//! the zero region `[0, z]`.
//!
//! ## Second-order storage
//!
//! The flat ticks themselves recur near-arithmetically (once per optimal
//! period), so each row stores them as arithmetic runs (start,
//! fixed-point common difference, length) with one `i8` residual per
//! jittery flat ([`crate::run`]): the stored descriptor count tracks
//! *regime changes* of the row rather than individual breakpoints, and
//! memory drops to ≈1 byte per breakpoint. The encoding is lossless, so
//! values, argmax and episodes are bit-identical to the dense
//! [`crate::ValueTable`] — the equivalence property suite pins both
//! against a brute-force oracle.
//!
//! ## Building level `p` on the skeleton of level `p−1`
//!
//! Every table is built by the event-driven builder of [`crate::event`]:
//! the dense solver's monotone frontier sweep (see [`crate::value`]),
//! jumped from breakpoint to breakpoint instead of walked tick by tick.
//! Level `p−1` is read through a forward cursor over its runs, so level
//! `p` is built in `O(k log k)` time and `O(k)` memory without ever
//! materializing a dense row. Total: `O(p·k log k)` time and `O(p·k)`
//! memory with `k ≪ L` — a `10^9`-tick table builds in about a second
//! and fits in megabytes where the dense arena would need tens of
//! gigabytes.
//!
//! ## Policy queries without an argmax arena
//!
//! The optimal first period at `(p, l)` is re-derived at query time from
//! the compressed rows alone: binary search the crossing residual
//! (`h(s) = s + W^(p−1)(s) − W^(p)(s)` is nondecreasing), then apply the
//! dense solver's exact tie-breaks. [`CompressedTable::episode`] is
//! therefore bit-identical to the dense [`crate::ValueTable::episode`]
//! at `O(m log L log k)` cost per reconstruction and zero bytes of
//! policy storage.

use crate::grid::Grid;
use crate::run::{RunCursor, RunFlatIter, RunRow};
use cyclesteal_core::error::{ModelError, Result};
use cyclesteal_core::model::Opportunity;
use cyclesteal_core::policy::{EpisodePolicy, WorkOracle};
use cyclesteal_core::schedule::EpisodeSchedule;
use cyclesteal_core::time::{Time, Work};
use std::sync::Arc;

/// One arithmetic run of the exact tick staircase `W^(p)[l]`: `len`
/// consecutive grid values starting at `start` with common difference
/// `step`. Produced by [`CompressedTable::value_runs`] and shipped by
/// the serving layer's streaming wire mode in place of dense arrays;
/// [`expand_value_runs`] is the exact inverse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueRun {
    /// Value (in work ticks) at the run's first lifespan tick.
    pub start: i64,
    /// Common difference between consecutive ticks — `0` in the zero
    /// region and on flat ticks, `1` on ramps (rows are monotone
    /// 1-Lipschitz, so no other slope occurs).
    pub step: i64,
    /// Number of consecutive lifespan ticks the run covers (`≥ 1`).
    pub len: i64,
}

/// Expand run descriptors back into the dense tick-value array they
/// describe — the client-side inverse of
/// [`CompressedTable::value_runs`], bit-identical by construction.
pub fn expand_value_runs(runs: &[ValueRun]) -> Vec<i64> {
    let total: i64 = runs.iter().map(|r| r.len.max(0)).sum();
    let mut out = Vec::with_capacity(usize::try_from(total).unwrap_or(0));
    for run in runs {
        let mut v = run.start;
        for _ in 0..run.len {
            out.push(v);
            v += run.step;
        }
    }
    out
}

/// One compressed row: the zero-region prefix plus the flat ticks past
/// it as arithmetic runs. Shared with the event-driven builder in
/// [`crate::event`], which emits rows in this exact form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CompressedRow {
    /// Largest `l` with `W(l) = 0` (the whole row when never positive).
    pub(crate) zero_until: i64,
    /// The flat ticks past the zero region.
    pub(crate) runs: RunRow,
}

impl CompressedRow {
    /// A row with no flat ticks past the zero region.
    pub(crate) fn empty(zero_until: i64) -> CompressedRow {
        CompressedRow::from_runs(zero_until, RunRow::default())
    }

    /// Wraps a run-compressed skeleton.
    pub(crate) fn from_runs(zero_until: i64, runs: RunRow) -> CompressedRow {
        CompressedRow { zero_until, runs }
    }

    /// Number of flat ticks (row loss past the zero region).
    #[inline]
    pub(crate) fn count(&self) -> i64 {
        self.runs.count()
    }

    /// `W(l)` by rank query over the flat ticks.
    #[inline]
    pub(crate) fn value(&self, l: i64) -> i64 {
        if l <= self.zero_until {
            return 0;
        }
        (l - self.zero_until) - self.runs.rank_le(l)
    }

    /// A fresh forward cursor over this row's flat ticks.
    pub(crate) fn cursor(&self) -> RowCursor<'_> {
        RowCursor {
            zero_until: self.zero_until,
            runs: &self.runs,
            cur: RunCursor::default(),
        }
    }

    /// The rank `#flats ≤ pos` plus an iterator over the flats strictly
    /// greater than `pos`, in increasing order.
    pub(crate) fn flats_after(&self, pos: i64) -> (i64, RunFlatIter<'_>) {
        let mut it = self.runs.iter();
        let rank = it.seek_after(pos);
        (rank, it)
    }

    /// Logical breakpoints: flat ticks + the zero-region edge. The
    /// resolution-independent first-order row size.
    pub(crate) fn breakpoints(&self) -> usize {
        self.count() as usize + 1
    }

    /// Breakpoints *stored* as explicit descriptors: arithmetic-run
    /// descriptors + 1 for the zero edge — the second-order `k` the
    /// bench reports.
    pub(crate) fn stored_breakpoints(&self) -> usize {
        self.runs.descriptors() + 1
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        std::mem::size_of::<CompressedRow>() + self.runs.memory_bytes()
    }
}

/// Forward cursor over a row's flat ticks: rank (`#flats ≤ pos`),
/// membership, next-flat and zero-edge queries in `O(1)` amortized for
/// positions that move (nearly) monotonically forward — the event
/// builder's view of the completed previous level.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowCursor<'a> {
    zero_until: i64,
    runs: &'a RunRow,
    cur: RunCursor,
}

impl RowCursor<'_> {
    /// The row's zero-region edge.
    #[inline]
    pub(crate) fn zero_until(&self) -> i64 {
        self.zero_until
    }

    /// `#flats ≤ pos`; positions the cursor for the sibling queries.
    #[inline]
    pub(crate) fn rank_le(&mut self, pos: i64) -> i64 {
        self.cur.rank_le(self.runs, pos)
    }

    /// Whether `pos` itself is a flat tick. Only valid immediately
    /// after [`Self::rank_le`] with the same `pos`.
    #[inline]
    pub(crate) fn is_flat(&self, pos: i64) -> bool {
        self.cur.is_flat(self.runs, pos)
    }

    /// The `k`-th flat tick strictly past the last [`Self::rank_le`]
    /// position (`k = 0` ⇒ the first), or [`crate::run::NO_FLAT`]. Only
    /// valid immediately after [`Self::rank_le`].
    #[inline]
    pub(crate) fn peek(&self, k: u32) -> i64 {
        self.cur.peek(self.runs, k)
    }
}

/// `W^(p)[L]` for all `p ≤ p_max`, `L ≤ L_max`, stored as run-compressed
/// breakpoint skeletons: `O(p·k)` memory with `k ≪ L`, exact agreement
/// with the dense [`crate::ValueTable`] on values, argmax and episodes.
///
/// Equality is **structural**: two tables compare equal only when every
/// field — grid, extent, event count and each row's run storage —
/// matches exactly. This is the bit-identical round-trip contract of the
/// persistence layer (`from_parts(to_parts(t)) == t`, see
/// [`crate::snapshot`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CompressedTable {
    pub(crate) grid: Grid,
    pub(crate) max_ticks: i64,
    pub(crate) max_interrupts: u32,
    pub(crate) rows: Vec<CompressedRow>,
    /// Build-loop iterations summed over all levels: one per breakpoint
    /// event (see [`Self::events`]).
    pub(crate) events: u64,
}

impl CompressedTable {
    /// Solves the game bottom-up for interrupt levels `0..=max_interrupts`
    /// and lifespans `0..=max_lifespan` at `ticks_per_setup` resolution
    /// with the event-driven build ([`crate::event`], `O(p·k log k)`
    /// time, `k` = breakpoints), storing each level as its run-compressed
    /// breakpoint skeleton ([`crate::run`]). The one way a compressed
    /// table is built; values, argmax and episodes are bit-identical to
    /// the dense [`crate::ValueTable`].
    ///
    /// ```
    /// use cyclesteal_core::time::secs;
    /// use cyclesteal_dp::{CompressedTable, SolveOptions, ValueTable};
    ///
    /// let table = CompressedTable::solve(secs(1.0), 8, secs(500.0), 2);
    /// // Bit-identical to the dense frontier sweep:
    /// let dense = ValueTable::solve(secs(1.0), 8, secs(500.0), 2, SolveOptions::default());
    /// assert_eq!(table.value_ticks(2, 4000), dense.value_ticks(2, 4000));
    /// // …while storing far fewer descriptors than breakpoints:
    /// assert!(table.stored_breakpoints(2) < table.breakpoints(2));
    /// ```
    pub fn solve(
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
    ) -> CompressedTable {
        Self::solve_inner(setup, ticks_per_setup, max_lifespan, max_interrupts, None)
    }

    /// [`Self::solve`], accepting a [`crate::SolveOptions`] for source
    /// compatibility: no field of it changes the build or the table
    /// (`keep_policy` is moot — compressed tables re-derive the policy
    /// at query time for free).
    pub fn solve_with(
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
        _opts: crate::value::SolveOptions,
    ) -> CompressedTable {
        Self::solve_inner(setup, ticks_per_setup, max_lifespan, max_interrupts, None)
    }

    /// [`Self::solve_with`] with per-phase timing recorded into
    /// `recorder` (see [`crate::profile`]): each level's event-driven
    /// build loop is attributed to [`crate::Phase::EventLoop`] and its
    /// run compression to [`crate::Phase::RunCompression`]. The clock
    /// is read only between phases, so the emitted table is
    /// bit-identical to the unprofiled solve.
    pub fn solve_profiled(
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
        _opts: crate::value::SolveOptions,
        recorder: &crate::profile::PhaseRecorder<'_>,
    ) -> CompressedTable {
        Self::solve_inner(
            setup,
            ticks_per_setup,
            max_lifespan,
            max_interrupts,
            Some(recorder),
        )
    }

    fn solve_inner(
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
        prof: Option<&crate::profile::PhaseRecorder<'_>>,
    ) -> CompressedTable {
        use crate::profile::{time_opt, Phase};
        let grid = Grid::new(setup, ticks_per_setup);
        let n = grid.to_ticks(max_lifespan).max(0);
        let q = grid.q();

        let mut rows = Vec::with_capacity(max_interrupts as usize + 1);
        let mut events: u64 = 0;
        // Level 0: W^(0)(l) = l ⊖ Q — a pure zero region, no flats after.
        rows.push(CompressedRow::empty(q.min(n)));
        for _p in 1..=max_interrupts {
            let prev = rows.last().expect("level p−1 present");
            let (built, level_events) = time_opt(prof, Phase::EventLoop, || {
                crate::event::build_level_events(prev, n, q)
            });
            events += level_events;
            rows.push(time_opt(prof, Phase::RunCompression, || built.into_row()));
        }

        CompressedTable {
            grid,
            max_ticks: n,
            max_interrupts,
            rows,
            events,
        }
    }

    /// Build-loop iterations summed over all levels: the number of
    /// breakpoint events (skips, stalls and boundary single-steps) the
    /// event-driven build took. The `perf_dp` bench reports this as
    /// `event_count`.
    pub fn events(&self) -> u64 {
        self.events
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

    /// Whether the table can answer every query up to `max_lifespan`,
    /// with the same tolerance [`Self::value`] accepts — the coverage
    /// check the [`crate::TableCache`] and the serving layer share, so
    /// a "covered" table can never panic on the promised range.
    pub fn covers(&self, max_lifespan: Time) -> bool {
        max_lifespan.get() / self.grid.tick().get() <= self.max_ticks as f64 + 1e-9
    }

    /// Largest interrupt budget the table covers.
    pub fn max_interrupts(&self) -> u32 {
        self.max_interrupts
    }

    /// Logical breakpoints at level `p` (flat ticks + the zero edge) —
    /// the resolution-independent row size.
    pub fn breakpoints(&self, p: u32) -> usize {
        self.rows[p.min(self.max_interrupts) as usize].breakpoints()
    }

    /// Breakpoints *stored* as explicit descriptors at level `p`: the
    /// arithmetic-run descriptor count plus the zero edge — the
    /// `run_compressed_breakpoints` number of the `perf_dp` bench.
    pub fn stored_breakpoints(&self, p: u32) -> usize {
        self.rows[p.min(self.max_interrupts) as usize].stored_breakpoints()
    }

    /// Bytes held by all row skeletons — the number the `perf_dp` bench
    /// compares against [`crate::ValueTable::memory_bytes`] and reports
    /// as `run_memory_bytes`.
    pub fn memory_bytes(&self) -> usize {
        self.rows.iter().map(CompressedRow::memory_bytes).sum()
    }

    /// Exact grid value in work ticks; same domain contract as
    /// [`crate::ValueTable::value_ticks`].
    #[inline]
    pub fn value_ticks(&self, p: u32, l: i64) -> i64 {
        assert!(
            (0..=self.max_ticks).contains(&l),
            "lifespan {l} ticks outside solved range 0..={}",
            self.max_ticks
        );
        self.rows[p.min(self.max_interrupts) as usize].value(l)
    }

    /// The exact tick staircase `W^(p)[l]` over `first_tick ..
    /// first_tick + count` as arithmetic-run descriptors (typically one
    /// per breakpoint in range) — what the serving layer's streaming
    /// wire mode ships for sweep-shaped queries instead of a dense
    /// array. Derived from the zero-region edge and the flat-tick
    /// iterator only; [`expand_value_runs`] reproduces
    /// [`Self::value_ticks`] at every covered tick bit for bit.
    ///
    /// # Panics
    ///
    /// If `count < 1` or the range extends outside the solved
    /// `0..=max_ticks` domain (same contract as [`Self::value_ticks`]).
    pub fn value_runs(&self, p: u32, first_tick: i64, count: i64) -> Vec<ValueRun> {
        assert!(count >= 1, "empty sweep: count {count} must be >= 1");
        let last = first_tick + count - 1;
        assert!(
            first_tick >= 0 && last <= self.max_ticks,
            "sweep {first_tick}..={last} outside solved range 0..={}",
            self.max_ticks
        );
        let row = &self.rows[p.min(self.max_interrupts) as usize];
        let zero = row.zero_until;
        let mut runs = Vec::new();
        let mut l = first_tick;
        if l <= zero {
            // The zero region is one constant run.
            let end = zero.min(last);
            runs.push(ValueRun {
                start: 0,
                step: 0,
                len: end - l + 1,
            });
            l = end + 1;
        }
        if l > last {
            return runs;
        }
        // Past the zero region `W(l) = (l - zero) - #flats ≤ l`: slope 1
        // except at flat ticks. Walk the flats once; each gap becomes a
        // step-1 ramp, each maximal group of consecutive flats a
        // constant run.
        let (mut rank, mut flats) = row.flats_after(l - 1);
        let mut next_flat = flats.next().unwrap_or(i64::MAX);
        while l <= last {
            if l < next_flat {
                let end = (next_flat - 1).min(last);
                runs.push(ValueRun {
                    start: (l - zero) - rank,
                    step: 1,
                    len: end - l + 1,
                });
                l = end + 1;
            } else {
                let start = (l - zero) - (rank + 1);
                let mut len = 0;
                while next_flat == l + len && l + len <= last {
                    len += 1;
                    rank += 1;
                    next_flat = flats.next().unwrap_or(i64::MAX);
                }
                runs.push(ValueRun {
                    start,
                    step: 0,
                    len,
                });
                l += len;
            }
        }
        runs
    }

    /// Value at an arbitrary lifespan by linear interpolation between grid
    /// points; same contract as [`crate::ValueTable::value`].
    pub fn value(&self, p: u32, lifespan: Time) -> Work {
        self.answer(p, lifespan).0
    }

    /// Both views of one guarantee query at once: [`Self::value`] at
    /// `lifespan` and [`Self::value_ticks`] at its nearest grid tick
    /// (`grid().to_ticks(lifespan)` clamped to `0..=max_ticks`) —
    /// bit-identical to the two calls, from two row lookups instead of
    /// three. The interpolation reads ticks `i = floor(x)` and `i + 1`,
    /// and rounding `x` lands on one of them, so the tick answer is
    /// always one of the two values already read. Same domain contract
    /// as [`Self::value`].
    pub fn answer(&self, p: u32, lifespan: Time) -> (Work, i64) {
        let tick = self.grid.tick().get();
        let x = lifespan.get() / tick;
        assert!(
            x >= -1e-9 && x <= self.max_ticks as f64 + 1e-9,
            "lifespan {lifespan} outside solved range {}",
            self.max_lifespan()
        );
        // The nearest tick: `Grid::to_ticks` rounds the unclamped quotient.
        let nearest = (x.round() as i64).clamp(0, self.max_ticks);
        let x = x.clamp(0.0, self.max_ticks as f64);
        let i = x.floor() as i64;
        let row = &self.rows[p.min(self.max_interrupts) as usize];
        if i >= self.max_ticks {
            let v = row.value(self.max_ticks);
            return (Time::new(v as f64 * tick), v);
        }
        let frac = x - i as f64;
        let lo = row.value(i);
        let hi = row.value(i + 1);
        debug_assert!(nearest == i || nearest == i + 1);
        let value = Time::new((lo as f64 + (hi as f64 - lo as f64) * frac) * tick);
        (value, if nearest == i { lo } else { hi })
    }

    /// The optimal first-period length (in ticks) at state `(p, l)`,
    /// re-derived from the skeletons with the dense solver's exact
    /// tie-breaks — bit-identical to
    /// [`crate::ValueTable::first_period_ticks`].
    pub fn first_period_ticks(&self, p: u32, l: i64) -> i64 {
        assert!(
            (0..=self.max_ticks).contains(&l),
            "lifespan {l} ticks outside solved range 0..={}",
            self.max_ticks
        );
        let p = p.min(self.max_interrupts);
        if l == 0 {
            return 0;
        }
        if p == 0 {
            // Level 0: a single period consuming the whole lifespan.
            return l;
        }
        let q = self.grid.q();
        let prev = &self.rows[p as usize - 1];
        let cur = &self.rows[p as usize];

        let mut best = cur.value(l - 1);
        let mut best_t: i64 = 1;
        if l > q {
            let tau = l - q;
            // Largest s ∈ [0, l−q−1] with h(s) = s + prev(s) − cur(s) ≤ τ;
            // h is nondecreasing and h(0) = 0, so the search is total.
            let (mut lo_s, mut hi_s) = (0i64, l - q - 1);
            while lo_s < hi_s {
                let mid = lo_s + (hi_s - lo_s + 1) / 2;
                if mid + prev.value(mid) - cur.value(mid) <= tau {
                    lo_s = mid;
                } else {
                    hi_s = mid - 1;
                }
            }
            let s = lo_s;
            let t_star = l - s;
            let v_star = prev.value(s).min((t_star - q) + cur.value(s));
            let (cand_t, cand_v) = if t_star > q + 1 {
                let v_left = prev.value(s + 1).min((t_star - 1 - q) + cur.value(s + 1));
                if v_left > v_star {
                    (t_star - 1, v_left)
                } else {
                    (t_star, v_star)
                }
            } else {
                (t_star, v_star)
            };
            if cand_v >= best {
                best = cand_v;
                best_t = cand_t;
            }
        }
        if best == 0 {
            best_t = l;
        }
        best_t
    }

    /// Reconstructs the full optimal episode schedule at `(p, lifespan)`;
    /// same contract (and output) as [`crate::ValueTable::episode`],
    /// including the shared coarse-grid drift guard
    /// (`crate::value::assemble_episode`).
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
        crate::value::assemble_episode(&self.grid, &periods_ticks, lifespan)
    }
}

impl WorkOracle for CompressedTable {
    fn setup(&self) -> Time {
        self.grid.setup()
    }

    fn guaranteed_work(&self, interrupts: u32, lifespan: Time) -> Work {
        self.value(interrupts, lifespan)
    }
}

/// The compressed table's optimal strategy as an [`EpisodePolicy`].
#[derive(Clone)]
pub struct CompressedOptimalPolicy {
    table: Arc<CompressedTable>,
}

impl CompressedOptimalPolicy {
    /// Wraps a solved compressed table (the policy is always available —
    /// no `keep_policy` arena is needed).
    pub fn new(table: Arc<CompressedTable>) -> CompressedOptimalPolicy {
        CompressedOptimalPolicy { table }
    }

    /// The backing table.
    pub fn table(&self) -> &CompressedTable {
        &self.table
    }
}

impl EpisodePolicy for CompressedOptimalPolicy {
    fn episode(&self, opp: &Opportunity) -> Result<EpisodeSchedule> {
        self.table.episode(opp.interrupts(), opp.lifespan())
    }

    fn name(&self) -> String {
        format!(
            "optimal-dp-compressed(q={}, p≤{})",
            self.table.grid.q(),
            self.table.max_interrupts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{SolveOptions, ValueTable};
    use cyclesteal_core::time::secs;

    fn dense(q: u32, max_u: f64, p: u32) -> ValueTable {
        ValueTable::solve(secs(1.0), q, secs(max_u), p, SolveOptions::default())
    }

    fn solve(q: u32, max_u: f64, p: u32) -> CompressedTable {
        CompressedTable::solve(secs(1.0), q, secs(max_u), p)
    }

    #[test]
    fn matches_dense_values_exactly() {
        for (q, max_u, p) in [
            (4u32, 60.0, 3u32),
            (8, 120.0, 2),
            (32, 40.0, 4),
            (16, 1.0, 2),
        ] {
            let d = dense(q, max_u, p);
            let c = solve(q, max_u, p);
            assert_eq!(d.max_ticks(), c.max_ticks());
            for pp in 0..=p {
                for l in 0..=d.max_ticks() {
                    assert_eq!(
                        d.value_ticks(pp, l),
                        c.value_ticks(pp, l),
                        "value mismatch at q={q}, p={pp}, l={l}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_dense_argmax_exactly() {
        let d = dense(8, 100.0, 3);
        let c = solve(8, 100.0, 3);
        for p in 0..=3u32 {
            for l in 1..=d.max_ticks() {
                assert_eq!(
                    d.first_period_ticks(p, l),
                    c.first_period_ticks(p, l),
                    "argmax mismatch at p={p}, l={l}"
                );
            }
        }
    }

    #[test]
    fn episodes_are_bit_identical_to_dense() {
        let d = dense(16, 200.0, 2);
        let c = solve(16, 200.0, 2);
        for p in 1..=2u32 {
            for &u in &[17.0, 63.0, 128.5, 200.0] {
                let de = d.episode(p, secs(u)).unwrap();
                let ce = c.episode(p, secs(u)).unwrap();
                assert_eq!(de.len(), ce.len(), "period count at p={p}, U={u}");
                for k in 0..de.len() {
                    assert_eq!(de.period(k), ce.period(k), "period {k} at p={p}, U={u}");
                }
            }
        }
    }

    #[test]
    fn row_size_tracks_loss_not_lifespan() {
        // Doubling the lifespan must not double the skeleton: breakpoints
        // scale like the √-loss, not like L.
        let a = solve(16, 500.0, 2);
        let b = solve(16, 2000.0, 2);
        let (ka, kb) = (a.breakpoints(2), b.breakpoints(2));
        assert!(
            (kb as f64) < 3.0 * ka as f64,
            "4× lifespan grew breakpoints {ka} -> {kb} (≥3×): not sublinear"
        );
        // And the compressed form must beat the dense arena handily.
        let d = dense(16, 2000.0, 2);
        assert!(
            d.memory_bytes() >= 10 * b.memory_bytes(),
            "dense {} vs compressed {}",
            d.memory_bytes(),
            b.memory_bytes()
        );
    }

    #[test]
    fn run_backed_rows_store_fewer_descriptors() {
        // Second-order compression: the stored descriptor count drops
        // well below the logical breakpoints, and the footprint below
        // the 8 bytes per flat tick a flat list would hold.
        let runs = solve(16, 4000.0, 2);
        assert!(
            runs.stored_breakpoints(2) * 2 < runs.breakpoints(2),
            "runs stored {} of {} breakpoints — second-order compression inert",
            runs.stored_breakpoints(2),
            runs.breakpoints(2)
        );
        let flats: usize = (0..=2).map(|p| runs.breakpoints(p) - 1).sum();
        assert!(
            runs.memory_bytes() < flats * std::mem::size_of::<i64>(),
            "run-backed table no smaller than a flat list: {} B for {flats} flats",
            runs.memory_bytes()
        );
    }

    #[test]
    fn degenerate_lifespans() {
        // L = 0: one all-zero state per level.
        let c = solve(8, 0.0, 2);
        assert_eq!(c.max_ticks(), 0);
        for p in 0..=2 {
            assert_eq!(c.value_ticks(p, 0), 0);
        }
        assert!(c.episode(1, secs(0.0)).is_err());
        // L = 1 tick: still inside every zero region.
        let c = solve(8, 0.125, 2);
        assert_eq!(c.max_ticks(), 1);
        assert_eq!(c.value_ticks(1, 1), 0);
        let e = c.episode(1, secs(0.125)).unwrap();
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn interpolation_matches_dense() {
        let d = dense(8, 64.0, 2);
        let c = solve(8, 64.0, 2);
        for &u in &[0.06, 10.33, 29.99, 64.0] {
            assert_eq!(d.value(2, secs(u)), c.value(2, secs(u)), "U={u}");
        }
    }

    #[test]
    fn value_runs_expand_to_the_exact_staircase() {
        // The streaming descriptors must reproduce value_ticks bit for
        // bit at every covered tick, for every window placement.
        let table = solve(8, 120.0, 3);
        let max = table.max_ticks();
        for p in 0..=3u32 {
            for (first, count) in [
                (0, 1),
                (0, max),
                (0, max + 1),
                (1, max),
                (max, 1),
                (7, 200),
                (max / 2, max / 3),
            ] {
                let got = expand_value_runs(&table.value_runs(p, first, count));
                assert_eq!(got.len() as i64, count, "p={p} first={first}");
                for (j, &v) in got.iter().enumerate() {
                    assert_eq!(
                        v,
                        table.value_ticks(p, first + j as i64),
                        "p={p} tick={}",
                        first + j as i64
                    );
                }
            }
        }
        // Compression: one descriptor per breakpoint in range (the
        // O(√(QL) + pQ) flat count), not one per tick.
        let descriptors = table.value_runs(3, 0, max + 1).len();
        assert!(
            descriptors <= table.breakpoints(3) * 2 + 2,
            "{descriptors} runs vs {} breakpoints",
            table.breakpoints(3)
        );
        assert!(
            (descriptors as i64) * 2 < max,
            "{descriptors} runs for {max} ticks — no compression win"
        );
    }
}
