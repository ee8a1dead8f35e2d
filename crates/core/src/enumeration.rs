//! Enumerable classes of user strategies.
//!
//! The universal constructions of Theorem 1 "enumerate all relevant user
//! strategies". A [`StrategyEnumerator`] is any effectively enumerable class:
//! the i-th call instantiates a *fresh* copy of the i-th strategy. Classes
//! may be finite (parametric families — the "broad classes" the paper's §3
//! closes with) or infinite (e.g. all programs of the `goc-vm` language).
//!
//! The compact construction additionally needs every strategy to **recur
//! infinitely often** in the switching schedule: viability only promises
//! *finitely many* negative indications for a viable strategy, so a schedule
//! that abandons a strategy forever after one spurious negative would strand
//! the user. [`TriangularSchedule`] provides the classic fix, visiting
//! strategies in the order 0; 0, 1; 0, 1, 2; …

use crate::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use crate::strategy::BoxedUser;
use std::fmt::Debug;

/// An effectively enumerable class of user strategies.
pub trait StrategyEnumerator: Debug {
    /// The number of strategies, or `None` if the class is infinite.
    fn len(&self) -> Option<usize>;

    /// Returns `true` if the class is empty.
    fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    /// Instantiates a fresh copy of the `index`-th strategy, or `None` if the
    /// index is out of range (finite classes only).
    fn strategy(&self, index: usize) -> Option<BoxedUser>;

    /// Instantiates a batch of strategies at once, one per entry of
    /// `indices`, preserving order.
    ///
    /// The universal users use this to pre-materialise the next few scheduled
    /// candidates in one call. The default is a sequential loop over
    /// [`StrategyEnumerator::strategy`]; overrides must be observably
    /// identical to it: same instances, same order, `None` exactly where
    /// `strategy` returns `None`.
    fn batch(&self, indices: &[usize]) -> Vec<Option<BoxedUser>> {
        indices.iter().map(|&i| self.strategy(i)).collect()
    }

    /// A short human-readable name for diagnostics.
    fn name(&self) -> String {
        "enumeration".to_string()
    }
}

impl<E: StrategyEnumerator + ?Sized> StrategyEnumerator for Box<E> {
    fn len(&self) -> Option<usize> {
        (**self).len()
    }

    fn strategy(&self, index: usize) -> Option<BoxedUser> {
        (**self).strategy(index)
    }

    fn batch(&self, indices: &[usize]) -> Vec<Option<BoxedUser>> {
        (**self).batch(indices)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

/// A finite class given by a list of factories.
pub struct SliceEnumerator {
    label: String,
    factories: Vec<Box<dyn Fn() -> BoxedUser>>,
}

impl Debug for SliceEnumerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SliceEnumerator")
            .field("label", &self.label)
            .field("len", &self.factories.len())
            .finish()
    }
}

impl SliceEnumerator {
    /// Creates an empty class (useful as a builder seed).
    pub fn new(label: impl Into<String>) -> Self {
        SliceEnumerator { label: label.into(), factories: Vec::new() }
    }

    /// Appends a strategy factory; returns `self` for chaining.
    pub fn with(mut self, factory: impl Fn() -> BoxedUser + 'static) -> Self {
        self.factories.push(Box::new(factory));
        self
    }

    /// Appends a strategy factory.
    pub fn push(&mut self, factory: impl Fn() -> BoxedUser + 'static) {
        self.factories.push(Box::new(factory));
    }
}

impl StrategyEnumerator for SliceEnumerator {
    fn len(&self) -> Option<usize> {
        Some(self.factories.len())
    }

    fn strategy(&self, index: usize) -> Option<BoxedUser> {
        self.factories.get(index).map(|f| f())
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// A class given by an index-to-strategy closure; `len = None` makes it
/// infinite.
pub struct FnEnumerator<F> {
    label: String,
    len: Option<usize>,
    f: F,
}

impl<F> Debug for FnEnumerator<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnEnumerator")
            .field("label", &self.label)
            .field("len", &self.len)
            .finish()
    }
}

impl<F> FnEnumerator<F>
where
    F: Fn(usize) -> Option<BoxedUser>,
{
    /// Creates a class from a closure. Pass `len = None` for an infinite
    /// class (the closure must then return `Some` for every index).
    pub fn new(label: impl Into<String>, len: Option<usize>, f: F) -> Self {
        FnEnumerator { label: label.into(), len, f }
    }
}

impl<F> StrategyEnumerator for FnEnumerator<F>
where
    F: Fn(usize) -> Option<BoxedUser>,
{
    fn len(&self) -> Option<usize> {
        self.len
    }

    fn strategy(&self, index: usize) -> Option<BoxedUser> {
        if let Some(n) = self.len {
            if index >= n {
                return None;
            }
        }
        (self.f)(index)
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// Concatenates two enumerable classes (first exhausting `a` if finite).
///
/// For an infinite `a`, `b` is never reached; this mirrors the set-union
/// of classes only for finite `a` and is primarily used to append fallback
/// strategies after a parametric family.
#[derive(Debug)]
pub struct ChainEnumerator<A, B> {
    a: A,
    b: B,
}

impl<A: StrategyEnumerator, B: StrategyEnumerator> ChainEnumerator<A, B> {
    /// Chains `a` then `b`.
    pub fn new(a: A, b: B) -> Self {
        ChainEnumerator { a, b }
    }
}

impl<A: StrategyEnumerator, B: StrategyEnumerator> StrategyEnumerator for ChainEnumerator<A, B> {
    fn len(&self) -> Option<usize> {
        match (self.a.len(), self.b.len()) {
            (Some(x), Some(y)) => Some(x + y),
            _ => None,
        }
    }

    fn strategy(&self, index: usize) -> Option<BoxedUser> {
        match self.a.len() {
            Some(n) if index >= n => self.b.strategy(index - n),
            _ => self.a.strategy(index),
        }
    }

    fn name(&self) -> String {
        format!("{} ++ {}", self.a.name(), self.b.name())
    }
}

/// The triangular visitation order 0; 0, 1; 0, 1, 2; 0, 1, 2, 3; …
///
/// Every index recurs infinitely often, and index *i* first appears after
/// O(i²) steps — the bookkeeping behind the compact universal user's
/// enumeration (see module docs).
///
/// For a **finite** class of size `n`, indices ≥ `n` are skipped, which turns
/// the schedule into a simple round-robin of period `n` once the triangle
/// width reaches `n`.
///
/// # Examples
///
/// ```
/// use goc_core::enumeration::TriangularSchedule;
///
/// let order: Vec<usize> = TriangularSchedule::unbounded().take(10).collect();
/// assert_eq!(order, vec![0, 0, 1, 0, 1, 2, 0, 1, 2, 3]);
///
/// let bounded: Vec<usize> = TriangularSchedule::bounded(2).take(7).collect();
/// assert_eq!(bounded, vec![0, 0, 1, 0, 1, 0, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct TriangularSchedule {
    row: usize,
    col: usize,
    bound: Option<usize>,
}

impl TriangularSchedule {
    /// A schedule over an infinite class.
    pub fn unbounded() -> Self {
        TriangularSchedule { row: 0, col: 0, bound: None }
    }

    /// A schedule over a finite class of `n` strategies.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn bounded(n: usize) -> Self {
        assert!(n > 0, "TriangularSchedule requires a non-empty class");
        TriangularSchedule { row: 0, col: 0, bound: Some(n) }
    }
}

impl Iterator for TriangularSchedule {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.col > self.row {
                self.row = self.row.saturating_add(1);
                self.col = 0;
            }
            let idx = self.col;
            self.col = self.col.saturating_add(1);
            match self.bound {
                Some(n) if idx >= n => {
                    // Everything up to the end of this row is filtered too:
                    // wrap directly instead of spinning `row − col` times.
                    // Rows ≥ n all emit the same 0..n pass, so capping the
                    // row keeps the cursor total even for decoded cursors
                    // with absurd row values.
                    self.row = self.row.saturating_add(1).min(n);
                    self.col = 0;
                }
                _ => return Some(idx),
            }
        }
    }
}

impl SnapState for TriangularSchedule {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        w.usize(self.row);
        w.usize(self.col);
        self.bound.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let row = r.usize("triangular row")?;
        let col = r.usize("triangular col")?;
        let bound = Option::<usize>::decode(r)?;
        if bound == Some(0) {
            // An empty bound would make `next` spin forever skipping
            // non-existent indices; the constructors forbid it.
            return Err(SnapError::Malformed { context: "triangular bound" });
        }
        // A live cursor keeps `col ≤ row + 1` (the wrap fires as soon as the
        // column passes the row) and, when bounded, `row ≤ n` and `col ≤ n`
        // (the skip branch caps the row and every yield has `idx < n`).
        // Reject anything outside that envelope rather than iterating from a
        // state the schedule can never reach.
        let honest = match bound {
            Some(n) => row <= n && col <= n,
            None => col <= row.saturating_add(1) && row < usize::MAX,
        };
        if !honest {
            return Err(SnapError::Malformed { context: "triangular cursor" });
        }
        Ok(TriangularSchedule { row, col, bound })
    }
}

/// The one-pass visitation order 0, 1, 2, … (no recurrence).
///
/// This is the **naive** schedule used by ablation E8: it is *incorrect* for
/// compact goals in general, because a viable strategy abandoned on an early
/// spurious negative is never revisited.
#[derive(Clone, Debug, Default)]
pub struct LinearSchedule {
    next: usize,
    bound: Option<usize>,
}

impl LinearSchedule {
    /// An unbounded linear schedule.
    pub fn unbounded() -> Self {
        LinearSchedule { next: 0, bound: None }
    }

    /// A linear schedule that stops permanently at index `n - 1` (keeps
    /// returning the last index once the class is exhausted).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn bounded(n: usize) -> Self {
        assert!(n > 0, "LinearSchedule requires a non-empty class");
        LinearSchedule { next: 0, bound: Some(n) }
    }
}

impl Iterator for LinearSchedule {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let idx = match self.bound {
            Some(n) => self.next.min(n - 1),
            None => self.next,
        };
        self.next = self.next.saturating_add(1);
        Some(idx)
    }
}

impl SnapState for LinearSchedule {
    fn encode(&self, w: &mut SnapWriter<'_>) {
        w.usize(self.next);
        self.bound.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let next = r.usize("linear next")?;
        let bound = Option::<usize>::decode(r)?;
        if bound == Some(0) {
            // `next` computes `n - 1`; the constructors forbid `n == 0`.
            return Err(SnapError::Malformed { context: "linear bound" });
        }
        Ok(LinearSchedule { next, bound })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{SilentUser, UserStrategy};

    fn silent_class(n: usize) -> SliceEnumerator {
        let mut e = SliceEnumerator::new(format!("silent-x{n}"));
        for _ in 0..n {
            e.push(|| Box::new(SilentUser));
        }
        e
    }

    #[test]
    fn slice_enumerator_basics() {
        let e = silent_class(3);
        assert_eq!(e.len(), Some(3));
        assert!(!e.is_empty());
        assert!(e.strategy(0).is_some());
        assert!(e.strategy(2).is_some());
        assert!(e.strategy(3).is_none());
        assert!(silent_class(0).is_empty());
    }

    #[test]
    fn slice_enumerator_yields_fresh_instances() {
        let e = SliceEnumerator::new("x").with(|| Box::new(SilentUser));
        let a = e.strategy(0).unwrap();
        let b = e.strategy(0).unwrap();
        assert_eq!(a.name(), b.name());
    }

    #[test]
    fn fn_enumerator_infinite() {
        let e = FnEnumerator::new("inf", None, |_i| Some(Box::new(SilentUser) as BoxedUser));
        assert_eq!(e.len(), None);
        assert!(!e.is_empty());
        assert!(e.strategy(1_000_000).is_some());
    }

    #[test]
    fn fn_enumerator_bounded_respects_len() {
        let e = FnEnumerator::new("b", Some(2), |_i| Some(Box::new(SilentUser) as BoxedUser));
        assert!(e.strategy(1).is_some());
        assert!(e.strategy(2).is_none());
    }

    #[test]
    fn chain_concatenates() {
        let e = ChainEnumerator::new(silent_class(2), silent_class(3));
        assert_eq!(e.len(), Some(5));
        assert!(e.strategy(4).is_some());
        assert!(e.strategy(5).is_none());
        assert_eq!(e.name(), "silent-x2 ++ silent-x3");
    }

    #[test]
    fn chain_with_infinite_tail() {
        let inf = FnEnumerator::new("inf", None, |_i| Some(Box::new(SilentUser) as BoxedUser));
        let e = ChainEnumerator::new(silent_class(2), inf);
        assert_eq!(e.len(), None);
        assert!(e.strategy(100).is_some());
    }

    #[test]
    fn triangular_every_index_recurs() {
        let order: Vec<usize> = TriangularSchedule::unbounded().take(50).collect();
        for idx in 0..5 {
            let occurrences = order.iter().filter(|&&i| i == idx).count();
            assert!(occurrences >= 3, "index {idx} occurred only {occurrences} times");
        }
    }

    #[test]
    fn triangular_bounded_becomes_round_robin() {
        let order: Vec<usize> = TriangularSchedule::bounded(3).take(12).collect();
        assert_eq!(order, vec![0, 0, 1, 0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn linear_bounded_saturates() {
        let order: Vec<usize> = LinearSchedule::bounded(3).take(6).collect();
        assert_eq!(order, vec![0, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn linear_unbounded_counts_up() {
        let order: Vec<usize> = LinearSchedule::unbounded().take(4).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn batch_matches_strategy_per_index() {
        let e = silent_class(3);
        let got = e.batch(&[0, 2, 3, 1]);
        assert_eq!(got.len(), 4);
        assert!(got[0].is_some());
        assert!(got[1].is_some());
        assert!(got[2].is_none(), "out-of-range index must stay None in batch");
        assert!(got[3].is_some());
    }

    #[test]
    fn boxed_enumerator_delegates() {
        let b: Box<dyn StrategyEnumerator> = Box::new(silent_class(2));
        assert_eq!(b.len(), Some(2));
        assert!(b.strategy(1).is_some());
        assert_eq!(b.name(), "silent-x2");
    }
}
