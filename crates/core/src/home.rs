//! Home-tile (directory) decision logic of the locality-aware protocol.
//!
//! A [`DirectoryEntry`] lives beside every line resident in a shared-L2
//! slice ("the coherence directory is integrated with the L2 slices by
//! extending the L2 tag arrays", §3.1). [`DirectoryEntry::begin_request`]
//! is the pure decision kernel of §3.2: it consults the locality classifier
//! and produces a [`HomeDecision`] describing *what* must happen — fetch
//! data from a dirty owner, invalidate private sharers, and finally grant a
//! line or serve a word. The simulator executes the decision with real
//! timing; this crate stays free of clocks and queues so the protocol can
//! be unit- and property-tested exhaustively.
//!
//! Message-size notes from §3.6 that the simulator applies:
//! * every miss request carries the cache-line offset and a 1-bit
//!   access-width indicator (they fit in the 64-bit header flit);
//! * write requests additionally carry the 64-bit word to be written
//!   (one extra flit) because the requester cannot know whether it is a
//!   private or remote sharer — only the directory knows;
//! * invalidation acknowledgements and eviction notifies carry the private
//!   utilization counter inside the header flit (42-bit line address +
//!   12-bit core ids + 2-bit counter + 8-bit type fit in 64 bits).

use std::sync::Arc;

use lacc_model::config::ClassifierConfig;
use lacc_model::{CoreId, Cycle};

use crate::classifier::{
    ClassifierPolicy, ClassifyOutcome, LocalityClassifier, RemovalReason, RequestHints, SharerMode,
};
use crate::mesi::DirState;
use crate::sharer::SharerTracker;
use crate::DirectoryKind;

/// Load or store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load (or instruction fetch).
    Read,
    /// A store.
    Write,
}

/// A miss request as seen by the home tile.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HomeRequest {
    /// The requesting core.
    pub core: CoreId,
    /// Load or store.
    pub kind: AccessKind,
    /// L1 set-pressure hints carried in the request message (§3.2–3.3).
    pub hints: RequestHints,
    /// `true` for instruction lines: they are read-only and always served
    /// as private copies (the protocol adapts *data* caching).
    pub instruction: bool,
}

/// What the home hands the requester once prerequisite steps finish.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Grant {
    /// Whole line, read-only, other sharers exist (MESI S).
    LineShared,
    /// Whole line, read-only, no other sharers (MESI E).
    LineExclusive,
    /// Whole line, writable (MESI M).
    LineModified,
    /// Write permission only — the requester already holds the line in S
    /// (an *upgrade miss*; reply carries no data).
    Upgrade,
    /// One word read at the L2 (requester is a remote sharer).
    WordRead,
    /// One word written at the L2 (requester is a remote sharer); the L2
    /// copy becomes dirty.
    WordWrite,
}

impl Grant {
    /// `true` when the requester becomes a private sharer.
    #[must_use]
    pub fn is_private(self) -> bool {
        !matches!(self, Grant::WordRead | Grant::WordWrite)
    }
}

/// The home's plan for serving one request, in execution order:
/// first `fetch_from_owner`, then `invalidate`, then the `grant`.
#[derive(Clone, PartialEq, Debug)]
pub struct HomeDecision {
    /// Fetch the line from this (possibly dirty) exclusive owner before
    /// replying; the owner downgrades M/E→S and *remains* a sharer
    /// (synchronous write-back, read paths only).
    pub fetch_from_owner: Option<CoreId>,
    /// Invalidate these private sharers and collect one response each
    /// (write paths only): unicast to an `Exact` set, or broadcast and
    /// await `count()` responses after ACKwise overflow. A dirty owner's
    /// data rides its ack.
    pub invalidate: Option<SharerTracker>,
    /// What to send the requester afterwards.
    pub grant: Grant,
    /// The classifier's verdict (for statistics).
    pub outcome: ClassifyOutcome,
}

// Each request's decision moves through the home; this pins its size.
const _: () = assert!(std::mem::size_of::<HomeDecision>() <= 32);

/// The directory settings of one machine, shared by all its entries: the
/// sharer pointer budget and the classifier policy.
#[derive(PartialEq, Eq, Debug)]
pub struct DirectoryPolicy {
    /// ACKwise pointers per entry: `p` for ACKwise_p, `num_cores` for a
    /// full map (ACKwise_n never overflows).
    pointers: usize,
    classifier: ClassifierPolicy,
}

impl DirectoryPolicy {
    /// Builds the policy for a machine of `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics on a classifier configuration [`ClassifierPolicy::new`]
    /// rejects.
    #[must_use]
    pub fn new(dir: DirectoryKind, classifier: &ClassifierConfig, num_cores: usize) -> Self {
        let pointers = match dir {
            DirectoryKind::FullMap => num_cores,
            DirectoryKind::AckWise { pointers } => pointers,
        };
        DirectoryPolicy { pointers, classifier: ClassifierPolicy::new(classifier, num_cores) }
    }
}

/// Directory entry: MESI summary + sharer tracker + locality classifier +
/// the line's L2 last-access time (used by the Timestamp check). The
/// entry holds only its line's state; the settings live in the machine's
/// one [`DirectoryPolicy`], which every entry shares.
#[derive(Clone, PartialEq, Debug)]
pub struct DirectoryEntry {
    /// Coherence state summary of the L1 copies.
    pub state: DirState,
    /// Private-sharer tracking (ACKwise_p; a full map is ACKwise_n).
    pub sharers: SharerTracker,
    /// The §3 locality classifier.
    pub classifier: LocalityClassifier,
    /// Last cycle at which any core accessed this line at the L2.
    pub last_access: Cycle,
    /// The line has served an instruction fetch: it is always private, so
    /// the classifier never sees its requests or its removals.
    instruction: bool,
    policy: Arc<DirectoryPolicy>,
}

impl DirectoryEntry {
    /// Creates the entry for a line just installed in an L2 slice, with
    /// a policy of its own. A simulator builds the policy once and calls
    /// [`DirectoryEntry::with_policy`] instead.
    ///
    /// # Panics
    ///
    /// Same as [`DirectoryPolicy::new`].
    #[must_use]
    pub fn new(dir: DirectoryKind, classifier: &ClassifierConfig, num_cores: usize) -> Self {
        Self::with_policy(Arc::new(DirectoryPolicy::new(dir, classifier, num_cores)))
    }

    /// Creates the entry for a line just installed in an L2 slice, under
    /// the machine's shared `policy`.
    #[must_use]
    pub fn with_policy(policy: Arc<DirectoryPolicy>) -> Self {
        DirectoryEntry {
            state: DirState::Uncached,
            sharers: SharerTracker::default(),
            classifier: LocalityClassifier::default(),
            last_access: 0,
            instruction: false,
            policy,
        }
    }

    /// Classifies and plans one miss request (§3.2). Mutates the
    /// classifier's utilization counters; sharer/state updates are deferred
    /// to [`DirectoryEntry::sharer_response`] (as acks arrive) and
    /// [`DirectoryEntry::complete_grant`] (when the reply is sent).
    ///
    /// # Panics
    ///
    /// Panics on a write to an instruction line (the workload generators
    /// never produce self-modifying code).
    pub fn begin_request(&mut self, req: &HomeRequest, now: Cycle) -> HomeDecision {
        let outcome = if req.instruction {
            assert!(req.kind == AccessKind::Read, "instruction lines are read-only");
            self.instruction = true;
            ClassifyOutcome { mode: SharerMode::Private, promoted: false, tracked: false }
        } else {
            self.classifier.classify_request(
                &self.policy.classifier,
                req.core,
                req.hints,
                self.last_access,
            )
        };
        self.last_access = now;

        match (req.kind, outcome.mode) {
            (AccessKind::Read, SharerMode::Private) => {
                let owner = self.state.owner().filter(|&o| o != req.core);
                let grant = if owner.is_none() && self.sharers.is_empty() {
                    Grant::LineExclusive
                } else {
                    Grant::LineShared
                };
                HomeDecision { fetch_from_owner: owner, invalidate: None, grant, outcome }
            }
            (AccessKind::Read, SharerMode::Remote) => HomeDecision {
                fetch_from_owner: self.state.owner(),
                invalidate: None,
                grant: Grant::WordRead,
                outcome,
            },
            (AccessKind::Write, SharerMode::Private) => {
                // An upgrade only when the directory *knows* the requester
                // holds an S copy; after ACKwise overflow it cannot know,
                // so the requester's copy is invalidated with the rest and
                // a full M line is granted.
                let is_sharer =
                    self.sharers.contains(req.core) == Some(true) && self.state == DirState::Shared;
                let skip = if is_sharer { Some(req.core) } else { None };
                let plan = self.sharers.invalidation_plan(skip);
                self.classifier.on_write(req.core);
                HomeDecision {
                    fetch_from_owner: None,
                    invalidate: plan,
                    grant: if is_sharer { Grant::Upgrade } else { Grant::LineModified },
                    outcome,
                }
            }
            (AccessKind::Write, SharerMode::Remote) => {
                let plan = self.sharers.invalidation_plan(None);
                self.classifier.on_write(req.core);
                HomeDecision {
                    fetch_from_owner: None,
                    invalidate: plan,
                    grant: Grant::WordWrite,
                    outcome,
                }
            }
        }
    }

    /// Processes one sharer response: an invalidation ack, an eviction
    /// notify, or a back-invalidation ack, carrying the private utilization
    /// counter (§3.2 "Evictions and Invalidations"). Removes the core from
    /// the sharer set, runs the demotion classification, and fixes the
    /// MESI summary. Returns the core's new mode, or `None` if the core
    /// contributed no sharer slot (a stale response — ignored). An
    /// instruction line's sharers stay private and skip the classifier.
    pub fn sharer_response(
        &mut self,
        core: CoreId,
        private_util: u32,
        reason: RemovalReason,
    ) -> Option<SharerMode> {
        let removed = self.sharers.remove(core);
        if !removed {
            return None;
        }
        let mode = if self.instruction {
            SharerMode::Private
        } else {
            self.classifier.on_sharer_removed(&self.policy.classifier, core, private_util, reason)
        };
        if self.state.owner() == Some(core) || self.sharers.is_empty() {
            self.state =
                if self.sharers.is_empty() { DirState::Uncached } else { DirState::Shared };
        }
        Some(mode)
    }

    /// Records that the exclusive owner supplied its data and downgraded to
    /// S (synchronous write-back on a read path). The owner remains a
    /// sharer.
    pub fn owner_downgraded(&mut self, owner: CoreId) {
        debug_assert_eq!(self.state.owner(), Some(owner), "downgrade from non-owner");
        self.state = DirState::Shared;
    }

    /// Finalizes a grant: updates the sharer set and MESI summary to
    /// reflect the reply being sent.
    ///
    /// # Panics
    ///
    /// Panics (debug) if invariants are violated, e.g. granting M while
    /// sharers remain.
    pub fn complete_grant(&mut self, core: CoreId, grant: Grant) {
        let pointers = self.policy.pointers;
        match grant {
            Grant::LineShared => {
                self.sharers.add(core, pointers);
                self.state = DirState::Shared;
            }
            Grant::LineExclusive => {
                debug_assert!(self.sharers.is_empty());
                self.sharers.add(core, pointers);
                self.state = DirState::Exclusive(core);
            }
            Grant::LineModified => {
                debug_assert!(
                    self.sharers.is_empty(),
                    "M grant with live sharers: {:?}",
                    self.sharers
                );
                self.sharers.add(core, pointers);
                self.state = DirState::Exclusive(core);
            }
            Grant::Upgrade => {
                debug_assert_eq!(self.sharers.contains(core), Some(true));
                debug_assert_eq!(self.sharers.count(), 1);
                self.state = DirState::Exclusive(core);
            }
            Grant::WordRead => {}
            Grant::WordWrite => {
                debug_assert!(self.sharers.is_empty(), "word write with live sharers");
                self.state = DirState::Uncached;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacc_model::config::{MechanismKind, TrackingKind};

    fn entry() -> DirectoryEntry {
        let ccfg = ClassifierConfig {
            pct: 4,
            tracking: TrackingKind::Complete,
            mechanism: MechanismKind::rat_default(),
            one_way: false,
            shortcut: false,
        };
        DirectoryEntry::new(DirectoryKind::ackwise4(), &ccfg, 8)
    }

    fn c(n: usize) -> CoreId {
        CoreId::new(n)
    }

    /// Demotes `core` as an eviction with utilization 1 would.
    fn demote(e: &mut DirectoryEntry, core: CoreId) {
        e.classifier.on_sharer_removed(&e.policy.classifier, core, 1, RemovalReason::Eviction);
    }

    fn read(core: usize) -> HomeRequest {
        HomeRequest {
            core: c(core),
            kind: AccessKind::Read,
            hints: RequestHints { set_min_last_access: 0, set_has_invalid: true },
            instruction: false,
        }
    }

    fn write(core: usize) -> HomeRequest {
        HomeRequest { kind: AccessKind::Write, ..read(core) }
    }

    #[test]
    fn first_read_grants_exclusive() {
        let mut e = entry();
        let d = e.begin_request(&read(0), 10);
        assert_eq!(d.grant, Grant::LineExclusive);
        assert_eq!(d.fetch_from_owner, None);
        assert_eq!(d.invalidate, None);
        e.complete_grant(c(0), d.grant);
        assert_eq!(e.state, DirState::Exclusive(c(0)));
        assert_eq!(e.last_access, 10);
    }

    #[test]
    fn second_read_fetches_from_owner_and_shares() {
        let mut e = entry();
        let d = e.begin_request(&read(0), 0);
        e.complete_grant(c(0), d.grant);
        let d = e.begin_request(&read(1), 1);
        assert_eq!(d.grant, Grant::LineShared);
        assert_eq!(d.fetch_from_owner, Some(c(0)), "owner may hold dirty data");
        e.owner_downgraded(c(0));
        e.complete_grant(c(1), d.grant);
        assert_eq!(e.state, DirState::Shared);
        assert_eq!(e.sharers.count(), 2);
    }

    #[test]
    fn write_invalidates_readers_then_grants_m() {
        let mut e = entry();
        for core in 0..3 {
            let d = e.begin_request(&read(core), core as u64);
            if let Some(o) = d.fetch_from_owner {
                e.owner_downgraded(o);
            }
            e.complete_grant(c(core), d.grant);
        }
        let d = e.begin_request(&write(5), 10);
        assert_eq!(d.grant, Grant::LineModified);
        let plan = d.invalidate.expect("three sharers to invalidate");
        assert_eq!(plan.count(), 3);
        // Acks arrive carrying utilization 1 (low locality): all demoted.
        for core in 0..3 {
            let m = e.sharer_response(c(core), 1, RemovalReason::Invalidation);
            assert_eq!(m, Some(SharerMode::Remote));
        }
        e.complete_grant(c(5), d.grant);
        assert_eq!(e.state, DirState::Exclusive(c(5)));
        assert_eq!(e.sharers.count(), 1);
    }

    #[test]
    fn upgrade_when_requester_is_known_sharer() {
        let mut e = entry();
        let d = e.begin_request(&read(0), 0);
        e.complete_grant(c(0), d.grant); // E owner
        let d = e.begin_request(&read(1), 1);
        e.owner_downgraded(c(0));
        e.complete_grant(c(1), d.grant); // S, sharers {0, 1}
        let d = e.begin_request(&write(1), 2);
        assert_eq!(d.grant, Grant::Upgrade, "requester holds an S copy");
        let plan = d.invalidate.unwrap();
        assert_eq!(plan.count(), 1, "only the other sharer");
        e.sharer_response(c(0), 1, RemovalReason::Invalidation);
        e.complete_grant(c(1), d.grant);
        assert_eq!(e.state, DirState::Exclusive(c(1)));
    }

    #[test]
    fn overflowed_directory_broadcasts_and_regrants_full_line() {
        let mut e = entry(); // ACKwise_4
        for core in 0..6 {
            let d = e.begin_request(&read(core), core as u64);
            if let Some(o) = d.fetch_from_owner {
                e.owner_downgraded(o);
            }
            e.complete_grant(c(core), d.grant);
        }
        assert_eq!(e.sharers.known_sharers(), None, "overflowed");
        // Core 2 (already a sharer!) writes: directory cannot know, so it
        // broadcasts to all 6 and grants a full M line.
        let d = e.begin_request(&write(2), 10);
        assert_eq!(d.grant, Grant::LineModified);
        assert_eq!(d.invalidate, Some(SharerTracker::CountOnly(6)));
        for core in 0..6 {
            e.sharer_response(c(core), 1, RemovalReason::Invalidation);
        }
        e.complete_grant(c(2), d.grant);
        assert_eq!(e.state, DirState::Exclusive(c(2)));
    }

    #[test]
    fn demoted_core_gets_word_reads() {
        let mut e = entry();
        // Demote core 0 (installed, then evicted with low utilization).
        let d = e.begin_request(&read(0), 0);
        e.complete_grant(c(0), d.grant);
        e.sharer_response(c(0), 1, RemovalReason::Eviction);
        assert_eq!(e.state, DirState::Uncached);
        // Next read is served remotely.
        let d = e.begin_request(&read(0), 5);
        assert_eq!(d.grant, Grant::WordRead);
        assert_eq!(d.fetch_from_owner, None, "no owner to fetch from");
        e.complete_grant(c(0), d.grant);
        assert_eq!(e.state, DirState::Uncached, "word reads leave no copy");
    }

    #[test]
    fn remote_read_syncs_dirty_owner() {
        let mut e = entry();
        let d = e.begin_request(&write(1), 0);
        e.complete_grant(c(1), d.grant); // M owner: core 1

        // Demote core 0 first so its read is remote.
        demote(&mut e, c(0));
        let d = e.begin_request(&read(0), 5);
        assert_eq!(d.grant, Grant::WordRead);
        assert_eq!(d.fetch_from_owner, Some(c(1)), "synchronous write-back required");
        e.owner_downgraded(c(1));
        assert_eq!(e.state, DirState::Shared);
        assert_eq!(e.sharers.count(), 1, "owner remains a (read) sharer");
    }

    #[test]
    fn remote_write_invalidates_everyone_and_stays_at_l2() {
        let mut e = entry();
        for core in 1..3 {
            let d = e.begin_request(&read(core), 0);
            if let Some(o) = d.fetch_from_owner {
                e.owner_downgraded(o);
            }
            e.complete_grant(c(core), d.grant);
        }
        demote(&mut e, c(0)); // core 0 remote
        let d = e.begin_request(&write(0), 9);
        assert_eq!(d.grant, Grant::WordWrite);
        assert_eq!(d.invalidate.as_ref().unwrap().count(), 2);
        e.sharer_response(c(1), 1, RemovalReason::Invalidation);
        e.sharer_response(c(2), 1, RemovalReason::Invalidation);
        e.complete_grant(c(0), d.grant);
        assert_eq!(e.state, DirState::Uncached);
        assert!(e.sharers.is_empty());
    }

    #[test]
    fn eviction_notify_clears_owner() {
        let mut e = entry();
        let d = e.begin_request(&write(3), 0);
        e.complete_grant(c(3), d.grant);
        let m = e.sharer_response(c(3), 6, RemovalReason::Eviction);
        assert_eq!(m, Some(SharerMode::Private), "utilization 6 >= PCT stays private");
        assert_eq!(e.state, DirState::Uncached);
    }

    #[test]
    fn stale_response_is_ignored() {
        let mut e = entry();
        assert_eq!(e.sharer_response(c(7), 1, RemovalReason::Eviction), None);
    }

    #[test]
    fn instruction_requests_bypass_classifier() {
        let mut e = entry();
        // Demote core 0 for data; instruction read must still grant a line.
        demote(&mut e, c(0));
        let req = HomeRequest { instruction: true, ..read(0) };
        let d = e.begin_request(&req, 0);
        assert!(matches!(d.grant, Grant::LineShared | Grant::LineExclusive));
    }

    /// An instruction line's removal, even at a utilization that demotes
    /// a data sharer, leaves its classifier empty and the sharer private.
    #[test]
    fn instruction_removals_bypass_classifier() {
        let mut e = entry();
        let d = e.begin_request(&HomeRequest { instruction: true, ..read(0) }, 0);
        e.complete_grant(c(0), d.grant);
        let m = e.sharer_response(c(0), 1, RemovalReason::Eviction);
        assert_eq!(m, Some(SharerMode::Private));
        assert_eq!(e.classifier, LocalityClassifier::default());
        assert_eq!(e.state, DirState::Uncached);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn instruction_write_panics() {
        let mut e = entry();
        let req = HomeRequest { instruction: true, ..write(0) };
        let _ = e.begin_request(&req, 0);
    }

    #[test]
    fn back_invalidation_plan_lists_all() {
        let mut e = entry();
        for core in 0..2 {
            let d = e.begin_request(&read(core), 0);
            if let Some(o) = d.fetch_from_owner {
                e.owner_downgraded(o);
            }
            e.complete_grant(c(core), d.grant);
        }
        // An L2 eviction invalidates the entry's sharers themselves.
        assert_eq!(e.sharers.count(), 2);
    }

    #[test]
    fn full_map_equals_ackwise_n() {
        let ccfg = ClassifierConfig::isca13_default();
        let policy = |dir| DirectoryPolicy::new(dir, &ccfg, 8);
        assert_eq!(policy(DirectoryKind::FullMap), policy(DirectoryKind::AckWise { pointers: 8 }));
        assert_ne!(policy(DirectoryKind::FullMap), policy(DirectoryKind::ackwise4()));
        // Every core of the machine shares the line: still exact.
        let mut e = DirectoryEntry::new(DirectoryKind::FullMap, &ccfg, 8);
        for core in 0..8 {
            e.complete_grant(c(core), Grant::LineShared);
        }
        assert_eq!(e.sharers.known_sharers().map(|s| s.len()), Some(8));
    }

    /// A Table-1 line (64 cores, ACKwise_4, Limited_3) keeps its sharers
    /// and its locality list inline through any mix of requests and
    /// removals: its directory state never allocates.
    #[test]
    fn table1_entry_state_stays_inline() {
        let cfg = lacc_model::SystemConfig::isca13_64core();
        let mut e = DirectoryEntry::new(cfg.directory, &cfg.classifier, cfg.num_cores);
        let mut now = 0;
        for round in 0..40usize {
            for core in (round % 7..64).step_by(5) {
                now += 1;
                let req = if (core + round) % 9 == 0 { write(core) } else { read(core) };
                let d = e.begin_request(&req, now);
                if let Some(o) = d.fetch_from_owner {
                    e.owner_downgraded(o);
                }
                if let Some(plan) = &d.invalidate {
                    let cores: Vec<CoreId> = match plan {
                        SharerTracker::Exact(set) => set.iter().collect(),
                        SharerTracker::CountOnly(_) => (0..64).map(c).collect(),
                    };
                    for s in cores {
                        e.sharer_response(s, (core % 5) as u32, RemovalReason::Invalidation);
                    }
                }
                e.complete_grant(c(core), d.grant);
                if core % 4 == 0 {
                    e.sharer_response(c(core), 2, RemovalReason::Eviction);
                }
                // A `CoreSet` boxes exactly its cores at 64 and up.
                let high =
                    e.sharers.known_sharers().is_some_and(|s| s.iter().any(|c| c.index() >= 64));
                assert!(!high, "sharers of 64 cores stay in one word");
                assert!(!e.classifier.spilled(), "Limited_3 records stay inline");
            }
        }
    }

    #[test]
    fn grant_helpers() {
        assert!(Grant::Upgrade.is_private());
        assert!(!Grant::WordWrite.is_private());
    }
}
