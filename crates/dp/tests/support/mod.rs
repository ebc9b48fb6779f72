//! The brute-force oracle shared by the dp integration suites: the
//! paper's §4 recursion evaluated literally on the tick grid,
//!
//! ```text
//! W^(p)(L) = max_{1 ≤ t ≤ L} min( W^(p−1)(L − t), (t ⊖ Q) + W^(p)(L − t) )
//! W^(0)(L) = L ⊖ Q
//! ```
//!
//! maximized over **every** period length `t ∈ [1, L]`: no wait-candidate
//! shortcut, no `t > Q` restriction, no crossing search. Both builds —
//! the dense frontier sweep and the event-driven compressed build —
//! share those shortcuts, so this is the one reference that checks them
//! rather than each other. `O(p·L²)`: only for the suites' small grids.

#![allow(dead_code)] // each suite uses the part it needs

/// Exact `W^(p)[l]` for every `p ≤ p_max` and `l ≤ n` ticks.
pub struct Oracle {
    q: i64,
    levels: Vec<Vec<i64>>,
}

impl Oracle {
    /// Solves the recursion at `q` ticks per setup charge.
    pub fn solve(q: u32, n: i64, p_max: u32) -> Oracle {
        let q = i64::from(q);
        let n = n.max(0);
        let mut levels: Vec<Vec<i64>> = vec![(0..=n).map(|l| (l - q).max(0)).collect()];
        for p in 1..=p_max as usize {
            let mut cur = vec![0i64; (n + 1) as usize];
            for l in 1..=n {
                let mut best = 0;
                for t in 1..=l {
                    let rest = (l - t) as usize;
                    let interrupted = levels[p - 1][rest];
                    let completed = (t - q).max(0) + cur[rest];
                    best = best.max(interrupted.min(completed));
                }
                cur[l as usize] = best;
            }
            levels.push(cur);
        }
        Oracle { q, levels }
    }

    /// Largest interrupt budget solved.
    pub fn max_interrupts(&self) -> u32 {
        (self.levels.len() - 1) as u32
    }

    /// Largest lifespan solved, in ticks.
    pub fn max_ticks(&self) -> i64 {
        self.levels[0].len() as i64 - 1
    }

    /// `W^(p)[l]` in ticks.
    pub fn value(&self, p: u32, l: i64) -> i64 {
        self.levels[p as usize][l as usize]
    }

    /// What a first period of `t` ticks guarantees at `(p, l)`: the
    /// adversary's better reply — interrupt at its last instant, or let
    /// it complete. At `p = 0` no interrupt is left.
    pub fn first_period_value(&self, p: u32, l: i64, t: i64) -> i64 {
        let rest = (l - t) as usize;
        let completed = (t - self.q).max(0) + self.levels[p as usize][rest];
        if p == 0 {
            completed
        } else {
            completed.min(self.levels[p as usize - 1][rest])
        }
    }

    /// Panics unless `value(p, l)` equals the oracle at every state.
    pub fn check_values(&self, what: &str, value: impl Fn(u32, i64) -> i64) {
        for p in 0..=self.max_interrupts() {
            for l in 0..=self.max_ticks() {
                assert_eq!(
                    value(p, l),
                    self.value(p, l),
                    "{what} differs from the oracle at q={}, p={p}, l={l}",
                    self.q
                );
            }
        }
    }

    /// Panics unless the first period `first_period(p, l)` attains the
    /// oracle's maximum at every state with `l ≥ 1`. Ties may break
    /// either way; only the guaranteed value is pinned.
    pub fn check_argmax(&self, what: &str, first_period: impl Fn(u32, i64) -> i64) {
        for p in 0..=self.max_interrupts() {
            for l in 1..=self.max_ticks() {
                let t = first_period(p, l);
                assert!(
                    (1..=l).contains(&t),
                    "{what} picks first period {t} outside [1, {l}] at q={}, p={p}",
                    self.q
                );
                assert_eq!(
                    self.first_period_value(p, l, t),
                    self.value(p, l),
                    "{what}'s first period {t} misses the maximum at q={}, p={p}, l={l}",
                    self.q
                );
            }
        }
    }
}
