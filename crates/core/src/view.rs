//! The user's view of an execution — the domain of sensing functions.
//!
//! Sensing (paper §3) is a predicate of "the history of the portion of the
//! system visible to the user": the messages the user received and sent each
//! round. Crucially the view does **not** include the world's internal state
//! (otherwise sensing would trivially simulate the referee) nor the server's.

use crate::msg::{UserIn, UserOut};

/// What the user saw and did in one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewEvent {
    /// The round index.
    pub round: u64,
    /// The incoming profile the user consumed this round.
    pub received: UserIn,
    /// The outgoing profile the user emitted this round.
    pub sent: UserOut,
}

/// The full per-round history of the user's interactions.
///
/// # Examples
///
/// ```
/// use goc_core::view::{UserView, ViewEvent};
/// use goc_core::msg::{UserIn, UserOut};
///
/// let mut view = UserView::new();
/// view.push(ViewEvent { round: 0, received: UserIn::default(), sent: UserOut::silence() });
/// assert_eq!(view.len(), 1);
/// assert!(view.latest().is_some());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UserView {
    events: Vec<ViewEvent>,
}

impl UserView {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a round's event.
    pub fn push(&mut self, event: ViewEvent) {
        self.events.push(event);
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no rounds have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All recorded events, oldest first.
    pub fn events(&self) -> &[ViewEvent] {
        &self.events
    }

    /// The most recent event, if any.
    pub fn latest(&self) -> Option<&ViewEvent> {
        self.events.last()
    }

    /// Iterates over events, oldest first.
    pub fn iter(&self) -> std::slice::Iter<'_, ViewEvent> {
        self.events.iter()
    }

    /// The suffix of events starting at round `from` (inclusive).
    pub fn since(&self, from: u64) -> &[ViewEvent] {
        let start = self.events.partition_point(|e| e.round < from);
        &self.events[start..]
    }
}

impl<'a> IntoIterator for &'a UserView {
    type Item = &'a ViewEvent;
    type IntoIter = std::slice::Iter<'a, ViewEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl FromIterator<ViewEvent> for UserView {
    fn from_iter<T: IntoIterator<Item = ViewEvent>>(iter: T) -> Self {
        UserView { events: iter.into_iter().collect() }
    }
}

impl Extend<ViewEvent> for UserView {
    fn extend<T: IntoIterator<Item = ViewEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Message, UserIn, UserOut};

    fn ev(round: u64) -> ViewEvent {
        ViewEvent {
            round,
            received: UserIn {
                from_server: Message::from(format!("s{round}")),
                from_world: Message::silence(),
            },
            sent: UserOut::silence(),
        }
    }

    #[test]
    fn push_and_len() {
        let mut v = UserView::new();
        assert!(v.is_empty());
        v.push(ev(0));
        v.push(ev(1));
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert_eq!(v.latest().unwrap().round, 1);
    }

    #[test]
    fn since_returns_suffix() {
        let v: UserView = (0..10).map(ev).collect();
        assert_eq!(v.since(7).len(), 3);
        assert_eq!(v.since(0).len(), 10);
        assert!(v.since(10).is_empty());
        assert_eq!(v.since(7)[0].round, 7);
    }

    #[test]
    fn iteration_orders_oldest_first() {
        let v: UserView = (0..5).map(ev).collect();
        let rounds: Vec<u64> = v.iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![0, 1, 2, 3, 4]);
        let rounds2: Vec<u64> = (&v).into_iter().map(|e| e.round).collect();
        assert_eq!(rounds2, rounds);
    }

    #[test]
    fn extend_appends() {
        let mut v: UserView = (0..2).map(ev).collect();
        v.extend((2..4).map(ev));
        assert_eq!(v.len(), 4);
        assert_eq!(v.events()[3].round, 3);
    }
}
