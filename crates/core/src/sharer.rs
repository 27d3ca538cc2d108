//! Directory sharer tracking: ACKwise_p, and the full map as ACKwise_n.
//!
//! ACKwise_p (§3.1) keeps up to `p` exact sharer pointers. When a line
//! gains a sharer beyond `p`, the identities are dropped and only a count
//! is maintained; exclusive requests then *broadcast* the invalidation, but
//! acknowledgements are expected "from only the actual sharers of the
//! data", which is exactly the count the directory kept.
//!
//! [`SharerTracker`] is the one sharer-set type: a directory entry's
//! sharers, the set an invalidation round must reach (an `Exact` set is a
//! unicast round, a `CountOnly` count a broadcast), and the responses a
//! home still awaits, drained by [`SharerTracker::remove`].
//!
//! An exact set is sized to the machine, not to the largest machine the
//! simulator accepts: cores 0..63 live in one inline word, and cores 64
//! and up in a boxed [`CoreSet`] that exists only while one of them is a
//! member. On a machine of at most 64 cores (Table 1 and every figure) a
//! sharer set never allocates. Iteration is ascending, the low word first,
//! so unicast invalidation rounds visit sharers in ascending core order.

use std::fmt;

use lacc_model::{CoreId, CoreSet};

/// Cores below this index live in the inline word of a [`SharerSet`].
const LOW_CORES: usize = 64;

/// An exact set of sharers: an inline word for cores 0..63 and, only
/// while a core at index 64 or above is a member, a boxed [`CoreSet`]
/// holding those cores.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SharerSet {
    low: u64,
    /// Members at index 64 and above; `None` whenever there are none.
    high: Option<Box<CoreSet>>,
}

impl SharerSet {
    /// Creates an empty set.
    #[must_use]
    pub const fn new() -> Self {
        SharerSet { low: 0, high: None }
    }

    /// Number of member cores.
    #[must_use]
    pub fn len(&self) -> usize {
        self.low.count_ones() as usize + self.high.as_ref().map_or(0, |h| h.len())
    }

    /// `true` when no core is a member.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_none()
    }

    /// Whether `core` is a member.
    #[must_use]
    pub fn contains(&self, core: CoreId) -> bool {
        let i = core.index();
        if i < LOW_CORES {
            self.low >> i & 1 == 1
        } else {
            self.high.as_ref().is_some_and(|h| h.contains(core))
        }
    }

    /// Adds `core`; returns `true` if it was not already a member.
    pub fn insert(&mut self, core: CoreId) -> bool {
        let i = core.index();
        if i < LOW_CORES {
            let fresh = self.low >> i & 1 == 0;
            self.low |= 1 << i;
            fresh
        } else {
            self.high.get_or_insert_with(Box::default).insert(core)
        }
    }

    /// Removes `core`; returns `true` if it was a member. The boxed part
    /// is freed when its last member leaves.
    pub fn remove(&mut self, core: CoreId) -> bool {
        let i = core.index();
        if i < LOW_CORES {
            let present = self.low >> i & 1 == 1;
            self.low &= !(1 << i);
            return present;
        }
        let Some(high) = &mut self.high else { return false };
        let present = high.remove(core);
        if high.is_empty() {
            self.high = None;
        }
        present
    }

    /// Iterates the members in ascending core order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        let mut low = self.low;
        std::iter::from_fn(move || {
            (low != 0).then(|| {
                let bit = low.trailing_zeros() as usize;
                low &= low - 1;
                CoreId::new(bit)
            })
        })
        .chain(self.high.iter().flat_map(|h| h.iter()))
    }
}

impl fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|c| c.index())).finish()
    }
}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut s = SharerSet::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// Sharer-set representation for one directory entry: ACKwise_p (§3.1),
/// exact pointers until overflow, then a bare count (identities dropped).
/// The same type carries an invalidation round and the acks it awaits.
///
/// The pointer budget `p` is a machine-wide setting passed to
/// [`SharerTracker::add`]. A full map is ACKwise_n on an n-core machine:
/// a core outside a set of n sharers does not exist, so n pointers never
/// overflow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SharerTracker {
    /// Exact sharer pointers (count <= p).
    Exact(SharerSet),
    /// Sharer count only, after pointer overflow.
    CountOnly(u32),
}

// Every resident L2 line and every in-flight invalidation round holds one.
const _: () = assert!(std::mem::size_of::<SharerTracker>() <= 24);

impl Default for SharerTracker {
    fn default() -> Self {
        SharerTracker::Exact(SharerSet::new())
    }
}

impl SharerTracker {
    /// Number of sharers (exact in both representations — ACKwise always
    /// knows the count, just not always the identities).
    #[must_use]
    pub fn count(&self) -> usize {
        match self {
            SharerTracker::Exact(s) => s.len(),
            SharerTracker::CountOnly(n) => *n as usize,
        }
    }

    /// `true` when no core holds a private copy.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            SharerTracker::Exact(s) => s.is_empty(),
            SharerTracker::CountOnly(n) => *n == 0,
        }
    }

    /// Whether `core` is a sharer: `Some(bool)` when the representation
    /// knows, `None` after overflow (identities dropped).
    #[must_use]
    pub fn contains(&self, core: CoreId) -> Option<bool> {
        match self {
            SharerTracker::Exact(s) => Some(s.contains(core)),
            SharerTracker::CountOnly(_) => None,
        }
    }

    /// Records that `core` received a private copy, with `pointers` the
    /// ACKwise pointer budget.
    ///
    /// Adding a core that is already tracked is a no-op for exact
    /// pointers; after overflow the caller must only add genuinely new
    /// sharers (the protocol guarantees this: a core with a valid copy
    /// never re-requests the line).
    pub fn add(&mut self, core: CoreId, pointers: usize) {
        match self {
            SharerTracker::Exact(s) => {
                if !s.contains(core) {
                    let len = s.len();
                    if len == pointers {
                        // Overflow: drop identities, keep the count.
                        *self = SharerTracker::CountOnly(len as u32 + 1);
                    } else {
                        s.insert(core);
                    }
                }
            }
            SharerTracker::CountOnly(n) => *n += 1,
        }
    }

    /// Records that `core` no longer holds a copy (eviction notify or
    /// invalidation ack). Returns `true` if the count changed.
    ///
    /// After overflow the identity is unknown, so any removal decrements
    /// the count; when it reaches zero the tracker returns to exact
    /// (empty) mode, and later removals count nothing. A home drains the
    /// responses it awaits the same way.
    pub fn remove(&mut self, core: CoreId) -> bool {
        match self {
            SharerTracker::Exact(s) => s.remove(core),
            SharerTracker::CountOnly(n) => {
                debug_assert!(*n > 0, "removing sharer from empty overflow set");
                *n = n.saturating_sub(1);
                if *n == 0 {
                    *self = SharerTracker::default();
                }
                true
            }
        }
    }

    /// Whether an exact set holds a core at index 64 or above, and so a
    /// boxed part.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> bool {
        matches!(self, SharerTracker::Exact(s) if s.high.is_some())
    }

    /// Sharer identities, when known exactly.
    #[must_use]
    pub fn known_sharers(&self) -> Option<CoreSet> {
        match self {
            SharerTracker::Exact(s) => Some(s.iter().collect()),
            SharerTracker::CountOnly(_) => None,
        }
    }

    /// The sharers to invalidate: every sharer except `skip` (the
    /// requester itself during an upgrade), or `None` when there is
    /// nothing to do. An `Exact` set is a unicast round; a `CountOnly`
    /// count is a broadcast awaiting that many responses.
    #[must_use]
    pub fn invalidation_plan(&self, skip: Option<CoreId>) -> Option<SharerTracker> {
        let mut plan = self.clone();
        if let (SharerTracker::Exact(set), Some(s)) = (&mut plan, skip) {
            set.remove(s);
        }
        // Overflowed ACKwise keeps no identities, so no `skip` applies:
        // `begin_request` plans with `None`, the writer's own copy is
        // invalidated and acked with the rest, and the writer gets a full
        // M line.
        (!plan.is_empty()).then_some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: usize) -> CoreId {
        CoreId::new(n)
    }

    fn set(cores: &[usize]) -> CoreSet {
        cores.iter().map(|&n| c(n)).collect()
    }

    fn exact(cores: &[usize]) -> SharerTracker {
        SharerTracker::Exact(cores.iter().map(|&n| c(n)).collect())
    }

    /// The pointer budget of a full map on the largest machine.
    const FULL: usize = lacc_model::coreset::MAX_CORES;

    #[test]
    fn full_map_add_remove() {
        let mut t = SharerTracker::default();
        t.add(c(0), FULL);
        t.add(c(127), FULL);
        t.add(c(127), FULL); // idempotent
        assert_eq!(t.count(), 2);
        assert_eq!(t.contains(c(127)), Some(true));
        assert_eq!(t.contains(c(3)), Some(false));
        assert!(t.remove(c(127)));
        assert!(!t.remove(c(127)));
        assert_eq!(t.count(), 1);
        assert_eq!(t.known_sharers(), Some(set(&[0])));
    }

    #[test]
    fn ackwise_exact_until_overflow() {
        let mut t = SharerTracker::default();
        t.add(c(1), 2);
        t.add(c(2), 2);
        assert_eq!(t.known_sharers(), Some(set(&[1, 2])));
        t.add(c(3), 2); // overflow: identities dropped
        assert_eq!(t.count(), 3);
        assert_eq!(t.known_sharers(), None);
        assert_eq!(t.contains(c(1)), None);
    }

    #[test]
    fn ackwise_overflow_recovers_at_zero() {
        let mut t = SharerTracker::default();
        t.add(c(1), 1);
        t.add(c(2), 1);
        assert_eq!(t.known_sharers(), None);
        t.remove(c(1));
        t.remove(c(2));
        assert!(t.is_empty());
        // Back to exact mode.
        t.add(c(5), 1);
        assert_eq!(t.known_sharers(), Some(set(&[5])));
    }

    #[test]
    fn invalidation_plans() {
        let mut t = SharerTracker::default();
        assert_eq!(t.invalidation_plan(None), None);
        t.add(c(1), 4);
        t.add(c(2), 4);
        assert_eq!(t.invalidation_plan(None), Some(exact(&[1, 2])));
        // Skip the requester during an upgrade.
        assert_eq!(t.invalidation_plan(Some(c(1))), Some(exact(&[2])));
        assert_eq!(t.invalidation_plan(Some(c(9))).unwrap().count(), 2);
        t.remove(c(2));
        assert_eq!(t.invalidation_plan(Some(c(1))), None, "only the requester holds it");
        for i in 2..=5 {
            t.add(c(i), 4);
        }
        assert_eq!(t.invalidation_plan(None), Some(SharerTracker::CountOnly(5)));
        // A broadcast cannot skip anyone.
        assert_eq!(t.invalidation_plan(Some(c(1))), Some(SharerTracker::CountOnly(5)));
    }

    /// Cores below 64 stay in the inline word; the first core at 64 or
    /// above boxes the rest of the set, and the box goes with the last one.
    #[test]
    fn high_cores_spill_and_return() {
        let mut s: SharerSet = [63, 0, 5].into_iter().map(c).collect();
        assert!(s.high.is_none(), "cores below 64 allocate nothing");
        assert!(s.insert(c(700)));
        assert!(s.insert(c(64)));
        assert!(!s.insert(c(64)));
        assert_eq!(s.len(), 5);
        assert!(s.contains(c(700)) && s.contains(c(63)) && !s.contains(c(65)));
        let order: Vec<usize> = s.iter().map(CoreId::index).collect();
        assert_eq!(order, [0, 5, 63, 64, 700], "ascending, the inline word first");
        assert_eq!(format!("{s:?}"), "{0, 5, 63, 64, 700}");
        assert!(s.remove(c(64)));
        assert!(!s.remove(c(64)));
        assert!(s.remove(c(700)));
        assert!(s.high.is_none(), "the box goes with its last core");
        assert!(!s.remove(c(900)));
        assert_eq!(s, [0, 5, 63].into_iter().map(c).collect());
    }

    /// A home awaiting a unicast round counts each awaited core once.
    #[test]
    fn exact_remove_tracks_identities() {
        let mut a = exact(&[1, 4]);
        assert!(!a.is_empty());
        assert!(a.remove(c(4)));
        assert!(!a.remove(c(4)), "double response not awaited");
        assert!(!a.remove(c(9)), "stranger not awaited");
        assert!(a.remove(c(1)));
        assert!(a.is_empty());
    }

    /// A home awaiting a broadcast round counts responses, not cores.
    #[test]
    fn count_only_remove_saturates() {
        let mut a = SharerTracker::CountOnly(2);
        assert!(a.remove(c(0)));
        assert!(a.remove(c(0)), "count mode ignores identities");
        assert!(a.is_empty());
        assert!(!a.remove(c(1)), "nothing more is counted at zero");
        assert!(a.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::BTreeSet;

    use super::*;
    use lacc_model::MAX_CORES as MAX;
    use proptest::prelude::*;

    /// The reference ACKwise_p tracker: a `BTreeSet` of identities, or a
    /// bare count after overflow.
    #[derive(Clone, Debug)]
    enum Model {
        Exact(BTreeSet<usize>),
        Count(usize),
    }

    impl Model {
        fn add(&mut self, core: usize, pointers: usize) {
            match self {
                Model::Exact(set) if !set.contains(&core) && set.len() == pointers => {
                    *self = Model::Count(set.len() + 1);
                }
                Model::Exact(set) => {
                    set.insert(core);
                }
                Model::Count(n) => *n += 1,
            }
        }

        fn remove(&mut self, core: usize) -> bool {
            match self {
                Model::Exact(set) => set.remove(&core),
                Model::Count(n) => {
                    *n -= 1;
                    if *n == 0 {
                        *self = Model::Exact(BTreeSet::new());
                    }
                    true
                }
            }
        }

        fn plan(&self, skip: Option<usize>) -> Option<Result<Vec<usize>, usize>> {
            match self {
                Model::Exact(set) => {
                    let rest: Vec<usize> =
                        set.iter().copied().filter(|&c| Some(c) != skip).collect();
                    (!rest.is_empty()).then_some(Ok(rest))
                }
                Model::Count(n) => Some(Err(*n)),
            }
        }
    }

    /// What a tracker shows: its identities in iteration order, or its
    /// bare count.
    fn observe(t: &SharerTracker) -> Result<Vec<usize>, usize> {
        match t {
            SharerTracker::Exact(set) => Ok(set.iter().map(CoreId::index).collect()),
            SharerTracker::CountOnly(n) => Err(*n as usize),
        }
    }

    proptest! {
        /// The tracker agrees with the reference after every add and
        /// remove, over the whole 1024-core range (so the boxed part of a
        /// set is reached) and pointer budgets from ACKwise_1 to a full
        /// map: count, membership, known identities, ascending iteration
        /// and the invalidation plan with and without a skipped core.
        #[test]
        fn tracker_matches_reference(
            ops in proptest::collection::vec(
                (prop_oneof![0usize..80, 0usize..MAX], proptest::bool::ANY),
                1..120,
            ),
            budget in 0usize..4,
        ) {
            let pointers = [1, 4, 64, MAX][budget];
            let mut t = SharerTracker::default();
            let mut model = Model::Exact(BTreeSet::new());
            for (core, add) in ops {
                let id = CoreId::new(core);
                if add {
                    t.add(id, pointers);
                    model.add(core, pointers);
                } else {
                    prop_assert_eq!(t.remove(id), model.remove(core));
                }
                let shown = observe(&t);
                match &model {
                    Model::Exact(set) => {
                        prop_assert_eq!(&shown, &Ok(set.iter().copied().collect::<Vec<_>>()));
                        prop_assert_eq!(t.count(), set.len());
                        for probe in [core, 0, 63, 64, MAX - 1] {
                            prop_assert_eq!(t.contains(CoreId::new(probe)), Some(set.contains(&probe)));
                        }
                        let known = t.known_sharers().map(|k| k.iter().map(CoreId::index).collect());
                        prop_assert_eq!(known, Some(set.iter().copied().collect::<Vec<_>>()));
                    }
                    Model::Count(n) => {
                        prop_assert_eq!(&shown, &Err(*n));
                        prop_assert_eq!(t.count(), *n);
                        prop_assert_eq!(t.contains(id), None);
                        prop_assert!(t.known_sharers().is_none());
                    }
                }
                prop_assert_eq!(t.is_empty(), t.count() == 0);
                for skip in [None, Some(core)] {
                    let plan = t.invalidation_plan(skip.map(CoreId::new));
                    prop_assert_eq!(plan.as_ref().map(observe), model.plan(skip));
                }
            }
        }

        /// ACKwise always reports the exact sharer count, matching a
        /// reference set, no matter how adds and removes interleave — the
        /// property that makes broadcast-ack collection terminate.
        #[test]
        fn ackwise_count_is_exact(
            ops in proptest::collection::vec((0usize..16, proptest::bool::ANY), 1..100),
            p in 1usize..6,
        ) {
            let mut t = SharerTracker::default();
            let mut model = std::collections::BTreeSet::new();
            for (core, add) in ops {
                if add {
                    if !model.contains(&core) {
                        model.insert(core);
                        t.add(CoreId::new(core), p);
                    }
                } else if model.remove(&core) {
                    t.remove(CoreId::new(core));
                }
                prop_assert_eq!(t.count(), model.len());
            }
        }

        /// A full map (ACKwise_n, here n = 80) tracks identities exactly.
        #[test]
        fn full_map_matches_set(
            ops in proptest::collection::vec((0usize..80, proptest::bool::ANY), 1..100)
        ) {
            let mut t = SharerTracker::default();
            let mut model = std::collections::BTreeSet::new();
            for (core, add) in ops {
                if add {
                    model.insert(core);
                    t.add(CoreId::new(core), 80);
                } else {
                    model.remove(&core);
                    t.remove(CoreId::new(core));
                }
            }
            let known: Vec<usize> =
                t.known_sharers().unwrap().iter().map(|c| c.index()).collect();
            let expect: Vec<usize> = model.into_iter().collect();
            prop_assert_eq!(known, expect);
        }
    }
}
