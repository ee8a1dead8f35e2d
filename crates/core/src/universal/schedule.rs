//! Visitation schedules for the universal constructions.

use crate::enumeration::{LinearSchedule, TriangularSchedule};
use crate::snap::{SnapError, SnapReader, SnapState, SnapWriter};

/// The strategy-visitation schedule of the compact universal user.
///
/// [`Schedule::Triangular`] is the correct construction (every strategy
/// recurs infinitely often). [`Schedule::Linear`] is the naive one-pass
/// order kept for ablation E8: it can permanently strand the user if a
/// viable strategy was abandoned on a spurious negative indication.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// 0; 0, 1; 0, 1, 2; … — every index recurs infinitely often.
    Triangular(TriangularSchedule),
    /// 0, 1, 2, … — each index visited once (saturating for finite classes).
    Linear(LinearSchedule),
}

impl Schedule {
    /// The default (correct) schedule for a class of `len` strategies
    /// (`None` = infinite class).
    ///
    /// # Panics
    ///
    /// Panics if `len == Some(0)`.
    pub fn triangular(len: Option<usize>) -> Self {
        match len {
            Some(n) => Schedule::Triangular(TriangularSchedule::bounded(n)),
            None => Schedule::Triangular(TriangularSchedule::unbounded()),
        }
    }

    /// The naive one-pass schedule (ablation E8).
    ///
    /// # Panics
    ///
    /// Panics if `len == Some(0)`.
    pub fn linear(len: Option<usize>) -> Self {
        match len {
            Some(n) => Schedule::Linear(LinearSchedule::bounded(n)),
            None => Schedule::Linear(LinearSchedule::unbounded()),
        }
    }
}

impl Iterator for Schedule {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Schedule::Triangular(s) => s.next(),
            Schedule::Linear(s) => s.next(),
        }
    }
}

impl SnapState for Schedule {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        match self {
            Schedule::Triangular(s) => {
                w.u8(0);
                s.encode(w);
            }
            Schedule::Linear(s) => {
                w.u8(1);
                s.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8("schedule tag")? {
            0 => Ok(Schedule::Triangular(TriangularSchedule::decode(r)?)),
            1 => Ok(Schedule::Linear(LinearSchedule::decode(r)?)),
            found => Err(SnapError::BadTag { context: "schedule tag", found }),
        }
    }
}

/// Levin's dovetailing schedule of `(candidate index, round budget)` slots.
///
/// In phase *k* (k = 0, 1, 2, …) candidate *i* ∈ {0, …, k} receives a budget
/// of `base × 2^(k − i)` rounds, so the total work spent on candidate *i*
/// before phase *k* completes is within a constant factor of the work spent
/// on candidate 0 — the classic "universal search" accounting that makes the
/// slowdown for the (unknown) right candidate a constant factor per index.
///
/// # Examples
///
/// ```
/// use goc_core::universal::LevinSchedule;
///
/// let slots: Vec<(usize, u64)> = LevinSchedule::new(1, None).take(6).collect();
/// assert_eq!(slots, vec![(0, 1), (0, 2), (1, 1), (0, 4), (1, 2), (2, 1)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevinSchedule {
    base: u64,
    phase: u32,
    pos: u32,
    bound: Option<usize>,
}

impl LevinSchedule {
    /// A schedule with budget unit `base` over a class of `bound` strategies
    /// (`None` = infinite).
    ///
    /// # Panics
    ///
    /// Panics if `base == 0` or `bound == Some(0)`.
    pub fn new(base: u64, bound: Option<usize>) -> Self {
        assert!(base > 0, "LevinSchedule requires a positive base budget");
        assert!(bound != Some(0), "LevinSchedule requires a non-empty class");
        LevinSchedule { base, phase: 0, pos: 0, bound }
    }

    /// Budget for candidate `i` in phase `k` (saturating).
    fn budget(&self, k: u32, i: u32) -> u64 {
        let exp = (k - i).min(62);
        self.base.saturating_mul(1u64 << exp)
    }
}

impl Iterator for LevinSchedule {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        loop {
            if self.pos > self.phase {
                self.phase = self.phase.saturating_add(1);
                self.pos = 0;
            }
            let i = self.pos;
            self.pos = self.pos.saturating_add(1);
            if let Some(n) = self.bound {
                if (i as usize) >= n {
                    // Finite class: every remaining slot of this phase names
                    // a non-existent candidate too, so advance the phase
                    // directly — the budgets of the real candidates still
                    // grow, and the cursor stays total even for decoded
                    // cursors with absurd phase values.
                    self.phase = self.phase.saturating_add(1);
                    self.pos = 0;
                    continue;
                }
            }
            return Some((i as usize, self.budget(self.phase, i)));
        }
    }
}

impl SnapState for LevinSchedule {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        w.u64(self.base);
        w.u32(self.phase);
        w.u32(self.pos);
        self.bound.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let base = r.u64("levin base")?;
        let phase = r.u32("levin phase")?;
        let pos = r.u32("levin pos")?;
        let bound = Option::<usize>::decode(r)?;
        if base == 0 || bound == Some(0) {
            // The constructor's invariants: base 0 degenerates every budget,
            // an empty bound makes `next` spin forever.
            return Err(SnapError::Malformed { context: "levin schedule" });
        }
        // A live cursor keeps `pos ≤ phase + 1` (the wrap fires as soon as
        // the position passes the phase) and, when bounded, `pos ≤ n`
        // (every yield has `i < n`; the skip resets to 0).
        let honest = u64::from(pos) <= u64::from(phase) + 1
            && bound.map_or(true, |n| pos as usize <= n);
        if !honest {
            return Err(SnapError::Malformed { context: "levin cursor" });
        }
        Ok(LevinSchedule { base, phase, pos, bound })
    }
}

/// Round-robin with doubling budgets: pass *p* gives **every** candidate a
/// budget of `base × 2^p` rounds.
///
/// For a **finite** class of n strategies this improves on the classic
/// Levin weighting: if candidate *i* succeeds within *b* rounds, the total
/// cost is O(n · b) instead of O(2^i · b) — linear in the class size and
/// independent of where the candidate sits in the enumeration. (For infinite
/// classes a pass never ends, so this schedule requires `Some(n)`.)
///
/// # Examples
///
/// ```
/// use goc_core::universal::RoundRobinDoubling;
///
/// let slots: Vec<(usize, u64)> = RoundRobinDoubling::new(2, 3).take(7).collect();
/// assert_eq!(slots, vec![(0, 2), (1, 2), (2, 2), (0, 4), (1, 4), (2, 4), (0, 8)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundRobinDoubling {
    base: u64,
    n: usize,
    pos: usize,
    pass: u32,
}

impl RoundRobinDoubling {
    /// A round-robin schedule over `n` candidates with starting budget
    /// `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base == 0` or `n == 0`.
    pub fn new(base: u64, n: usize) -> Self {
        assert!(base > 0, "RoundRobinDoubling requires a positive base budget");
        assert!(n > 0, "RoundRobinDoubling requires a non-empty class");
        RoundRobinDoubling { base, n, pos: 0, pass: 0 }
    }
}

impl Iterator for RoundRobinDoubling {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        if self.pos == self.n {
            self.pos = 0;
            self.pass = self.pass.saturating_add(1).min(62);
        }
        let i = self.pos;
        self.pos = self.pos.saturating_add(1);
        Some((i, self.base.saturating_mul(1u64 << self.pass)))
    }
}

impl SnapState for RoundRobinDoubling {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        w.u64(self.base);
        w.usize(self.n);
        w.usize(self.pos);
        w.u32(self.pass);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let base = r.u64("round-robin base")?;
        let n = r.usize("round-robin n")?;
        let pos = r.usize("round-robin pos")?;
        let pass = r.u32("round-robin pass")?;
        // `pass > 62` can never be reached (the doubling saturates there),
        // and `1u64 << pass` would panic on it — a hostile snapshot must
        // not pick the shift amount.
        if base == 0 || n == 0 || pos > n || pass > 62 {
            return Err(SnapError::Malformed { context: "round-robin schedule" });
        }
        Ok(RoundRobinDoubling { base, n, pos, pass })
    }
}

/// The budget schedule driving the finite-goal universal user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BudgetSchedule {
    /// Classic Levin weighting (works for infinite classes; overhead 2^i for
    /// candidate i).
    Levin(LevinSchedule),
    /// Round-robin doubling (finite classes; overhead linear in class size).
    RoundRobin(RoundRobinDoubling),
}

impl BudgetSchedule {
    /// Classic Levin weighting.
    pub fn levin(base: u64, bound: Option<usize>) -> Self {
        BudgetSchedule::Levin(LevinSchedule::new(base, bound))
    }

    /// Round-robin doubling over a finite class of `n` strategies.
    pub fn round_robin(base: u64, n: usize) -> Self {
        BudgetSchedule::RoundRobin(RoundRobinDoubling::new(base, n))
    }
}

impl SnapState for BudgetSchedule {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        match self {
            BudgetSchedule::Levin(s) => {
                w.u8(0);
                s.encode(w);
            }
            BudgetSchedule::RoundRobin(s) => {
                w.u8(1);
                s.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8("budget schedule tag")? {
            0 => Ok(BudgetSchedule::Levin(LevinSchedule::decode(r)?)),
            1 => Ok(BudgetSchedule::RoundRobin(RoundRobinDoubling::decode(r)?)),
            found => Err(SnapError::BadTag { context: "budget schedule tag", found }),
        }
    }
}

impl Iterator for BudgetSchedule {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        match self {
            BudgetSchedule::Levin(s) => s.next(),
            BudgetSchedule::RoundRobin(s) => s.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_budgets_double_per_pass() {
        let slots: Vec<(usize, u64)> = RoundRobinDoubling::new(5, 2).take(6).collect();
        assert_eq!(slots, vec![(0, 5), (1, 5), (0, 10), (1, 10), (0, 20), (1, 20)]);
    }

    #[test]
    fn round_robin_total_cost_linear_in_class() {
        // Cost to give candidate i its first slot is (i + 1) · base — linear,
        // versus the Levin schedule's ~2^i · base.
        let n = 100;
        let mut cost = 0u64;
        for (idx, budget) in RoundRobinDoubling::new(4, n) {
            if idx == n - 1 {
                break;
            }
            cost += budget;
        }
        assert_eq!(cost, 4 * (n as u64 - 1));
    }

    #[test]
    #[should_panic(expected = "non-empty class")]
    fn round_robin_empty_panics() {
        let _ = RoundRobinDoubling::new(1, 0);
    }

    #[test]
    fn budget_schedule_dispatches() {
        let mut l = BudgetSchedule::levin(1, None);
        assert_eq!(l.next(), Some((0, 1)));
        let mut r = BudgetSchedule::round_robin(1, 3);
        assert_eq!(r.next(), Some((0, 1)));
        assert_eq!(r.next(), Some((1, 1)));
    }

    #[test]
    fn triangular_schedule_wraps() {
        let s = Schedule::triangular(Some(2));
        let order: Vec<usize> = s.take(7).collect();
        assert_eq!(order, vec![0, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn linear_schedule_saturates() {
        let s = Schedule::linear(Some(2));
        let order: Vec<usize> = s.take(5).collect();
        assert_eq!(order, vec![0, 1, 1, 1, 1]);
    }

    #[test]
    fn unbounded_schedules() {
        let t: Vec<usize> = Schedule::triangular(None).take(6).collect();
        assert_eq!(t, vec![0, 0, 1, 0, 1, 2]);
        let l: Vec<usize> = Schedule::linear(None).take(4).collect();
        assert_eq!(l, vec![0, 1, 2, 3]);
    }

    #[test]
    fn levin_budgets_double_per_phase() {
        let slots: Vec<(usize, u64)> = LevinSchedule::new(10, None).take(10).collect();
        assert_eq!(
            slots,
            vec![
                (0, 10),
                (0, 20),
                (1, 10),
                (0, 40),
                (1, 20),
                (2, 10),
                (0, 80),
                (1, 40),
                (2, 20),
                (3, 10)
            ]
        );
    }

    #[test]
    fn levin_bounded_skips_missing_candidates() {
        let slots: Vec<(usize, u64)> = LevinSchedule::new(1, Some(2)).take(7).collect();
        assert_eq!(
            slots,
            vec![(0, 1), (0, 2), (1, 1), (0, 4), (1, 2), (0, 8), (1, 4)]
        );
    }

    #[test]
    fn levin_total_work_for_early_candidate_dominates() {
        // Across the first phases, candidate 0 receives at least as much
        // budget as any other candidate — Levin's accounting invariant.
        let slots: Vec<(usize, u64)> = LevinSchedule::new(1, None).take(100).collect();
        let total = |c: usize| -> u64 {
            slots.iter().filter(|(i, _)| *i == c).map(|(_, b)| *b).sum()
        };
        assert!(total(0) >= total(1));
        assert!(total(1) >= total(2));
    }

    #[test]
    #[should_panic(expected = "positive base")]
    fn levin_zero_base_panics() {
        let _ = LevinSchedule::new(0, None);
    }

    #[test]
    fn levin_budget_saturates_at_large_phase() {
        let s = LevinSchedule::new(u64::MAX / 2, None);
        // budget() must not overflow even for huge phase gaps.
        assert_eq!(s.budget(80, 0), u64::MAX);
    }
}
