//! Per-core miss-type classification (§4.4, Figure 10).
//!
//! The five classes are keyed off what last happened to the line in *this
//! core's* cache: never seen → **Cold**; previously evicted (by the L1
//! itself or by an inclusive-L2 back-invalidation) → **Capacity**; removed
//! by another core's exclusive request → **Sharing**; previously accessed
//! remotely at the shared L2 → **Word**; and a write hitting an S copy is
//! an **Upgrade** miss regardless of history.

use lacc_model::{LineAddr, LineMap, MissClass};

use crate::classifier::RemovalReason;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PastEvent {
    Evicted,
    Invalidated,
    RemoteAccessed,
}

/// Tracks per-line history for one core and classifies its misses.
#[derive(Clone, Debug, Default)]
pub struct MissClassifier {
    /// Read on every miss, written on every removal, never iterated.
    history: LineMap<PastEvent>,
}

impl MissClassifier {
    /// Creates an empty classifier.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies a miss on `line`; `upgrade` marks a write that found an
    /// S copy.
    #[must_use]
    pub fn classify(&self, line: LineAddr, upgrade: bool) -> MissClass {
        if upgrade {
            return MissClass::Upgrade;
        }
        match self.history.get(&line) {
            None => MissClass::Cold,
            Some(PastEvent::Evicted) => MissClass::Capacity,
            Some(PastEvent::Invalidated) => MissClass::Sharing,
            Some(PastEvent::RemoteAccessed) => MissClass::Word,
        }
    }

    /// Records that this core's copy of `line` was removed.
    pub fn record_removal(&mut self, line: LineAddr, reason: RemovalReason) {
        let ev = match reason {
            // A back-invalidation is capacity pressure at the L2, not
            // communication: the next miss counts as Capacity.
            RemovalReason::Eviction | RemovalReason::BackInvalidation => PastEvent::Evicted,
            RemovalReason::Invalidation => PastEvent::Invalidated,
        };
        self.history.insert(line, ev);
    }

    /// Records that this core accessed `line` remotely (word access at the
    /// shared L2): its next miss on the line is a Word miss.
    pub fn record_remote_access(&mut self, line: LineAddr) {
        self.history.insert(line, PastEvent::RemoteAccessed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn first_touch_is_cold() {
        let mc = MissClassifier::new();
        assert_eq!(mc.classify(l(1), false), MissClass::Cold);
    }

    #[test]
    fn upgrade_overrides_history() {
        let mut mc = MissClassifier::new();
        mc.record_removal(l(1), RemovalReason::Invalidation);
        assert_eq!(mc.classify(l(1), true), MissClass::Upgrade);
    }

    #[test]
    fn eviction_makes_capacity() {
        let mut mc = MissClassifier::new();
        mc.record_removal(l(1), RemovalReason::Eviction);
        assert_eq!(mc.classify(l(1), false), MissClass::Capacity);
    }

    #[test]
    fn back_invalidation_counts_as_capacity() {
        let mut mc = MissClassifier::new();
        mc.record_removal(l(1), RemovalReason::BackInvalidation);
        assert_eq!(mc.classify(l(1), false), MissClass::Capacity);
    }

    #[test]
    fn invalidation_makes_sharing() {
        let mut mc = MissClassifier::new();
        mc.record_removal(l(1), RemovalReason::Invalidation);
        assert_eq!(mc.classify(l(1), false), MissClass::Sharing);
    }

    #[test]
    fn remote_access_makes_word() {
        let mut mc = MissClassifier::new();
        mc.record_remote_access(l(1));
        assert_eq!(mc.classify(l(1), false), MissClass::Word);
    }

    #[test]
    fn latest_event_wins() {
        let mut mc = MissClassifier::new();
        mc.record_removal(l(1), RemovalReason::Invalidation);
        mc.record_remote_access(l(1));
        assert_eq!(mc.classify(l(1), false), MissClass::Word);
        mc.record_removal(l(1), RemovalReason::Eviction);
        assert_eq!(mc.classify(l(1), false), MissClass::Capacity);
    }
}
