//! The locality classifier: private/remote modes, utilization counters,
//! Timestamp check, RAT levels, Limited_k tracking and the one-way variant.
//!
//! One [`LocalityClassifier`] lives in each directory entry, under the
//! machine's one [`ClassifierPolicy`], and answers the question at the
//! center of the paper: *when core C misses on this line, should it
//! receive a private copy, or be served a single word at the shared L2?*
//! (§3.2, Figure 4.)
//!
//! State machine per (line, core), from Figure 4:
//!
//! ```text
//!            utilization < PCT  (on eviction/invalidation)
//!   Private ────────────────────────────────────────────▶ Remote
//!      ▲                                                    │
//!      └────────────────────────────────────────────────────┘
//!            remote utilization >= threshold (PCT or RAT)
//! ```
//!
//! Cores start **Private** ("our protocol starts out as a conventional
//! directory protocol and initializes all cores as private sharers of all
//! cache lines"). Demotion happens when a private copy is removed with
//! `private + remote` utilization below `PCT`; promotion happens when
//! remote utilization reaches the promotion threshold, which is `PCT` under
//! the ideal Timestamp mechanism (§3.2) and the current RAT level under the
//! cost-efficient approximation (§3.3).

use lacc_model::config::{ClassifierConfig, MechanismKind, TrackingKind, MAX_RAT_LEVELS};
use lacc_model::{CoreId, Cycle};

/// Whether a core is a private or remote sharer of a line (Figure 4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SharerMode {
    /// The core receives whole-line copies in its private L1.
    Private,
    /// The core's misses are served as word accesses at the shared L2.
    Remote,
}

/// Why a private copy was removed from an L1, which the classifier needs
/// because §3.3 treats the two differently: an invalidation leaves an
/// invalid line (low set pressure, RAT unchanged) while an eviction
/// signals set pressure (RAT raised).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RemovalReason {
    /// Conflict/capacity eviction from the L1 (high set pressure).
    Eviction,
    /// Invalidation due to another core's exclusive request.
    Invalidation,
    /// Back-invalidation because the inclusive L2 evicted the line. The L1
    /// set gains an invalid way, like an invalidation, so the RAT is left
    /// unchanged.
    BackInvalidation,
}

/// Per-miss information from the requesting L1, carried in the request
/// message (§3.2–§3.3): the minimum last-access time over the target set
/// (for the Timestamp check) and whether the set has an invalid way (the
/// RAT shortcut — promotion cannot pollute the cache if a way is free).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RequestHints {
    /// Minimum last-access time across valid lines of the requester's L1
    /// set; `0` when the set has an invalid line (check trivially passes).
    pub set_min_last_access: Cycle,
    /// `true` when the requester's L1 set contains an invalid way.
    pub set_has_invalid: bool,
}

/// Result of classifying one request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClassifyOutcome {
    /// Serve as private (grant line) or remote (serve word).
    pub mode: SharerMode,
    /// `true` when this very request crossed the promotion threshold.
    pub promoted: bool,
    /// `false` when the core is untracked by a full Limited_k list and was
    /// classified by majority vote only.
    pub tracked: bool,
}

const FLAG_PRIVATE: u8 = 1;
const FLAG_ACTIVE: u8 = 2;
const FLAG_STICKY_REMOTE: u8 = 4;
/// The flags take the low three bits of [`CoreInfo::bits`] and the RAT
/// level (below [`MAX_RAT_LEVELS`], so three bits) the next three.
const FLAG_MASK: u8 = 0b111;
const RAT_SHIFT: u32 = 3;

/// Locality record for one core: mode bit, remote utilization counter and
/// RAT level (Figures 6 and 7), plus the active bit §3.4 uses to pick
/// replacement victims and the sticky bit of the one-way protocol (§3.7).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct CoreInfo {
    core: u16,
    /// The flags and the RAT level, packed (see [`RAT_SHIFT`]).
    bits: u8,
    remote_util: u8,
}

impl CoreInfo {
    fn fresh(core: CoreId, mode: SharerMode, one_way: bool) -> Self {
        let mut bits = if mode == SharerMode::Private { FLAG_PRIVATE } else { 0 };
        // Under Adapt1-way (§3.7) remote is absorbing: a core that *enters*
        // remote mode — whether by its own demotion or by majority-vote
        // initialization — can never be promoted.
        if one_way && mode == SharerMode::Remote {
            bits |= FLAG_STICKY_REMOTE;
        }
        CoreInfo { core: core.index() as u16, bits, remote_util: 0 }
    }

    fn flags(&self) -> u8 {
        self.bits & FLAG_MASK
    }

    fn rat_level(&self) -> u8 {
        self.bits >> RAT_SHIFT
    }

    fn set_rat_level(&mut self, level: u8) {
        debug_assert!(usize::from(level) < MAX_RAT_LEVELS, "RAT level {level} beyond the ladder");
        self.bits = self.flags() | level << RAT_SHIFT;
    }

    fn mode(&self) -> SharerMode {
        if self.bits & FLAG_PRIVATE != 0 {
            SharerMode::Private
        } else {
            SharerMode::Remote
        }
    }

    fn set_mode(&mut self, mode: SharerMode) {
        match mode {
            SharerMode::Private => self.bits |= FLAG_PRIVATE,
            SharerMode::Remote => self.bits &= !FLAG_PRIVATE,
        }
    }

    fn active(&self) -> bool {
        self.bits & FLAG_ACTIVE != 0
    }

    fn set_active(&mut self, a: bool) {
        if a {
            self.bits |= FLAG_ACTIVE;
        } else {
            self.bits &= !FLAG_ACTIVE;
        }
    }

    fn sticky_remote(&self) -> bool {
        self.bits & FLAG_STICKY_REMOTE != 0
    }
}

/// The classifier settings of one machine, shared by all its directory
/// entries: PCT, the RAT ladder and the tracking width are machine-wide
/// parameters (§3.6), not per-line state.
///
/// Complete tracking is Limited_k with `k = num_cores` (the caption of
/// Figure 13: Limited_64 is identical to Complete): a list that can hold
/// every core never replaces an entry nor leaves a core untracked.
#[derive(PartialEq, Eq, Debug)]
pub struct ClassifierPolicy {
    pct: u32,
    one_way: bool,
    timestamp_mech: bool,
    /// §5.3's suggested extension for the Complete classifier: "the
    /// Complete locality classifier can also be equipped with such a
    /// learning short-cut" — a core's first classification is the majority
    /// vote of the cores already tracked, instead of Private.
    infer_first: bool,
    /// Promotion thresholds indexed by RAT level (single entry = PCT for
    /// the Timestamp mechanism and for nRATlevels = 1).
    ladder: Vec<u32>,
    util_cap: u8,
    /// Number of cores whose locality one entry tracks.
    k: usize,
}

impl ClassifierPolicy {
    /// Builds the policy for a machine of `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero PCT, `k` of zero, more
    /// than [`MAX_RAT_LEVELS`] RAT levels).
    #[must_use]
    pub fn new(cfg: &ClassifierConfig, num_cores: usize) -> Self {
        assert!(cfg.pct >= 1, "pct must be at least 1");
        let ladder: Vec<u32> = cfg.mechanism.rat_ladder(cfg.pct).collect();
        assert!(ladder.len() <= MAX_RAT_LEVELS, "nRATlevels beyond {MAX_RAT_LEVELS}");
        let util_cap = ladder[ladder.len() - 1].max(cfg.pct).min(255) as u8;
        let k = match cfg.tracking {
            TrackingKind::Complete => num_cores,
            TrackingKind::Limited { k } => k,
        };
        assert!(k >= 1, "Limited_k needs k >= 1");
        ClassifierPolicy {
            pct: cfg.pct,
            one_way: cfg.one_way,
            timestamp_mech: matches!(cfg.mechanism, MechanismKind::Timestamp),
            infer_first: cfg.shortcut && cfg.tracking == TrackingKind::Complete,
            ladder,
            util_cap,
            k,
        }
    }
}

/// Records a classifier keeps inline: Table 1's Limited_3 list.
const INLINE: usize = 3;

/// A classifier's records in list order: inline up to [`INLINE`], then
/// on the heap. Only a list wider than that (Limited_k with k > 3, or
/// Complete) moves to the heap, when its fourth core arrives.
#[derive(Clone)]
enum Records {
    Inline { len: u8, infos: [CoreInfo; INLINE] },
    Spilled(Vec<CoreInfo>),
}

/// The per-directory-entry locality classifier: the locality records of
/// the tracked cores, in list order. It starts empty, and a list of at
/// most three cores (all of Limited_3's) allocates nothing.
#[derive(Clone)]
pub struct LocalityClassifier {
    records: Records,
}

// Every resident L2 line holds one.
const _: () = assert!(std::mem::size_of::<LocalityClassifier>() <= 24);

impl Default for LocalityClassifier {
    fn default() -> Self {
        LocalityClassifier {
            records: Records::Inline { len: 0, infos: [CoreInfo::default(); INLINE] },
        }
    }
}

impl PartialEq for LocalityClassifier {
    fn eq(&self, other: &Self) -> bool {
        self.infos() == other.infos()
    }
}

impl Eq for LocalityClassifier {}

impl std::fmt::Debug for LocalityClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.infos()).finish()
    }
}

impl LocalityClassifier {
    /// The tracked cores' records, in list order.
    fn infos(&self) -> &[CoreInfo] {
        match &self.records {
            Records::Inline { len, infos } => &infos[..usize::from(*len)],
            Records::Spilled(infos) => infos,
        }
    }

    fn infos_mut(&mut self) -> &mut [CoreInfo] {
        match &mut self.records {
            Records::Inline { len, infos } => &mut infos[..usize::from(*len)],
            Records::Spilled(infos) => infos,
        }
    }

    /// Appends `info` at the end of the list, moving a full inline list
    /// to the heap first.
    fn push(&mut self, info: CoreInfo) -> &mut CoreInfo {
        if let Records::Inline { len, infos } = &self.records {
            if usize::from(*len) == INLINE {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(infos);
                self.records = Records::Spilled(spilled);
            }
        }
        match &mut self.records {
            Records::Inline { len, infos } => {
                let slot = &mut infos[usize::from(*len)];
                *len += 1;
                *slot = info;
                slot
            }
            Records::Spilled(infos) => {
                infos.push(info);
                infos.last_mut().expect("just pushed")
            }
        }
    }

    /// The mode this entry would use for `core` right now, without updating
    /// any state (untracked cores report the majority vote).
    #[cfg(test)]
    fn mode_of(&self, core: CoreId) -> SharerMode {
        self.infos()
            .iter()
            .find(|i| i.core as usize == core.index())
            .map_or_else(|| self.majority_vote(), |i| i.mode())
    }

    /// Number of cores currently tracked.
    #[cfg(test)]
    fn tracked_count(&self) -> usize {
        self.infos().len()
    }

    /// Whether the records moved to the heap.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> bool {
        matches!(self.records, Records::Spilled(_))
    }

    /// Appends a canonical encoding of the classifier's mutable state to
    /// `out`, remapping core indices through `map` (the model checker's
    /// symmetry-reduction hook; identity for an unpermuted fingerprint).
    ///
    /// Entries are emitted in *list order*: the list position feeds the
    /// §3.4 replacement policy, so two states whose lists differ only in
    /// order are behaviorally distinct.
    pub fn encode_state(&self, out: &mut Vec<u64>, map: &mut dyn FnMut(usize) -> usize) {
        let infos = self.infos();
        out.push(infos.len() as u64);
        out.extend(infos.iter().map(|info| {
            ((map(info.core as usize) as u64) << 24)
                | (u64::from(info.flags()) << 16)
                | (u64::from(info.remote_util) << 8)
                | u64::from(info.rat_level())
        }));
    }

    /// Classifies a miss request from `core` and updates utilization
    /// counters per §3.2/§3.3.
    ///
    /// `line_last_access` is the line's last-access time at the L2 (used by
    /// the Timestamp check); `now` is the current cycle. The caller must
    /// afterwards call [`LocalityClassifier::on_write`] if the request is a
    /// write, and hand out a line or word according to the returned mode.
    pub fn classify_request(
        &mut self,
        policy: &ClassifierPolicy,
        core: CoreId,
        hints: RequestHints,
        line_last_access: Cycle,
    ) -> ClassifyOutcome {
        let Some(info) = self.lookup_or_allocate(policy, core) else {
            // Limited_k list full of active sharers: classify by majority
            // vote, leave the list unchanged (§3.4).
            return ClassifyOutcome { mode: self.majority_vote(), promoted: false, tracked: false };
        };

        if info.mode() == SharerMode::Private {
            info.set_active(true);
            return ClassifyOutcome { mode: SharerMode::Private, promoted: false, tracked: true };
        }

        // Remote sharer: update the remote utilization counter.
        if policy.timestamp_mech {
            // Timestamp check (§3.2): count the access only if the line at
            // the L2 is more recent than the coldest line of the
            // requester's L1 set (trivially true with an invalid way).
            let passes = hints.set_has_invalid || line_last_access > hints.set_min_last_access;
            if passes {
                info.remote_util = info.remote_util.saturating_add(1);
            } else {
                info.remote_util = 1;
            }
        } else {
            info.remote_util = info.remote_util.saturating_add(1).min(policy.util_cap);
        }

        // Promotion threshold: PCT under Timestamp; the RAT ladder under
        // the approximation, with the §3.3 shortcut that an invalid way in
        // the requester's set lowers the bar back to PCT (promotion cannot
        // pollute the cache).
        let threshold = if policy.timestamp_mech || hints.set_has_invalid {
            policy.pct
        } else {
            policy.ladder[usize::from(info.rat_level()).min(policy.ladder.len() - 1)]
        };

        if info.remote_util as u32 >= threshold && !(policy.one_way && info.sticky_remote()) {
            info.set_mode(SharerMode::Private);
            info.set_active(true);
            ClassifyOutcome { mode: SharerMode::Private, promoted: true, tracked: true }
        } else {
            info.set_active(true);
            ClassifyOutcome { mode: SharerMode::Remote, promoted: false, tracked: true }
        }
    }

    /// A write by `writer` has been serialized at this entry: the remote
    /// utilization counters of all *other* remote sharers are reset to zero
    /// and those sharers become inactive (§3.2, §3.4 — "a remote sharer
    /// becomes inactive on a write by another core").
    pub fn on_write(&mut self, writer: CoreId) {
        for info in self.infos_mut() {
            if info.core as usize != writer.index() && info.mode() == SharerMode::Remote {
                info.remote_util = 0;
                info.set_active(false);
            }
        }
    }

    /// A private copy held by `core` was removed (invalidation ack or
    /// eviction notify) carrying `private_util`. Runs the §3.2
    /// classification — stay private iff `private + remote >= PCT` — and
    /// the §3.3 RAT adjustment. Returns the core's new mode.
    pub fn on_sharer_removed(
        &mut self,
        policy: &ClassifierPolicy,
        core: CoreId,
        private_util: u32,
        reason: RemovalReason,
    ) -> SharerMode {
        let pct = policy.pct;
        let Some(info) = self.lookup_or_allocate(policy, core) else {
            // Untracked and unallocatable: the classification cannot be
            // stored. Compute it against a zero remote counter anyway so
            // the caller can at least report it.
            return if private_util >= pct { SharerMode::Private } else { SharerMode::Remote };
        };

        let total = private_util + info.remote_util as u32;
        let new_mode = if total >= pct && !(policy.one_way && info.sticky_remote()) {
            SharerMode::Private
        } else {
            SharerMode::Remote
        };
        match new_mode {
            SharerMode::Private => {
                // §3.3: classified private on removal -> RAT resets so the
                // core can re-learn its classification.
                info.set_rat_level(0);
                info.set_mode(SharerMode::Private);
            }
            SharerMode::Remote => {
                if reason == RemovalReason::Eviction {
                    // Eviction signals set pressure: harder to re-promote.
                    let max_level = (policy.ladder.len() - 1) as u8;
                    info.set_rat_level((info.rat_level() + 1).min(max_level));
                }
                info.set_mode(SharerMode::Remote);
                if policy.one_way {
                    info.bits |= FLAG_STICKY_REMOTE;
                }
            }
        }
        info.remote_util = 0;
        // A private sharer becomes inactive on invalidation or eviction.
        info.set_active(false);
        new_mode
    }

    /// Majority vote over tracked modes; ties and an empty list report
    /// `Private`, the §3.2 initial mode.
    fn majority_vote(&self) -> SharerMode {
        let infos = self.infos();
        let private = infos.iter().filter(|i| i.mode() == SharerMode::Private).count();
        if 2 * private >= infos.len() {
            SharerMode::Private
        } else {
            SharerMode::Remote
        }
    }

    /// Finds the record for `core`, allocating a free entry or replacing
    /// an inactive sharer. Returns `None` when the list holds `k` active
    /// sharers.
    fn lookup_or_allocate(
        &mut self,
        policy: &ClassifierPolicy,
        core: CoreId,
    ) -> Option<&mut CoreInfo> {
        if let Some(pos) = self.infos().iter().position(|i| i.core as usize == core.index()) {
            return Some(&mut self.infos_mut()[pos]);
        }
        if self.infos().len() < policy.k {
            // Free entry: "it allocates the entry to the core and the
            // actions described in Section 3.2 are carried out" — i.e. the
            // §3.2 initial mode, Private, unless the §5.3 shortcut infers
            // it from the cores already tracked.
            let mode = if policy.infer_first { self.majority_vote() } else { SharerMode::Private };
            return Some(self.push(CoreInfo::fresh(core, mode, policy.one_way)));
        }
        // Replace an inactive sharer if one exists (§3.4): an ideal
        // candidate "is a core that is currently not using the cache
        // line". It starts in the majority mode of the tracked cores.
        let mode = self.majority_vote();
        let pos = self.infos().iter().position(|i| !i.active())?;
        let slot = &mut self.infos_mut()[pos];
        *slot = CoreInfo::fresh(core, mode, policy.one_way);
        Some(slot)
    }
}

/// A classifier that keeps its unpacked records in one `Vec`, in list
/// order: the reference the inline store is checked against.
#[cfg(test)]
mod reference {
    use lacc_model::{CoreId, Cycle};

    use super::{
        ClassifierPolicy, ClassifyOutcome, RemovalReason, RequestHints, SharerMode, FLAG_ACTIVE,
        FLAG_PRIVATE, FLAG_STICKY_REMOTE,
    };

    /// Locality record for one core: mode bit, remote utilization counter and
    /// RAT level (Figures 6 and 7), plus the active bit §3.4 uses to pick
    /// replacement victims and the sticky bit of the one-way protocol (§3.7).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct CoreInfo {
        core: u16,
        flags: u8,
        remote_util: u8,
        rat_level: u8,
    }

    impl CoreInfo {
        fn fresh(core: CoreId, mode: SharerMode, one_way: bool) -> Self {
            let mut flags = if mode == SharerMode::Private { FLAG_PRIVATE } else { 0 };
            // Under Adapt1-way (§3.7) remote is absorbing: a core that *enters*
            // remote mode — whether by its own demotion or by majority-vote
            // initialization — can never be promoted.
            if one_way && mode == SharerMode::Remote {
                flags |= FLAG_STICKY_REMOTE;
            }
            CoreInfo { core: core.index() as u16, flags, remote_util: 0, rat_level: 0 }
        }

        fn mode(&self) -> SharerMode {
            if self.flags & FLAG_PRIVATE != 0 {
                SharerMode::Private
            } else {
                SharerMode::Remote
            }
        }

        fn set_mode(&mut self, mode: SharerMode) {
            match mode {
                SharerMode::Private => self.flags |= FLAG_PRIVATE,
                SharerMode::Remote => self.flags &= !FLAG_PRIVATE,
            }
        }

        fn active(&self) -> bool {
            self.flags & FLAG_ACTIVE != 0
        }

        fn set_active(&mut self, a: bool) {
            if a {
                self.flags |= FLAG_ACTIVE;
            } else {
                self.flags &= !FLAG_ACTIVE;
            }
        }

        fn sticky_remote(&self) -> bool {
            self.flags & FLAG_STICKY_REMOTE != 0
        }
    }

    /// The per-directory-entry locality classifier: the locality records of
    /// the tracked cores, in list order. It starts empty and allocates on the
    /// first tracked core, so an L2 install allocates nothing.
    #[derive(Clone, PartialEq, Eq, Debug, Default)]
    pub(super) struct LocalityClassifier {
        infos: Vec<CoreInfo>,
    }

    impl LocalityClassifier {
        /// Appends a canonical encoding of the classifier's mutable state to
        /// `out`, remapping core indices through `map` (the model checker's
        /// symmetry-reduction hook; identity for an unpermuted fingerprint).
        ///
        /// Entries are emitted in *list order*: the list position feeds the
        /// §3.4 replacement policy, so two states whose lists differ only in
        /// order are behaviorally distinct.
        pub(super) fn encode_state(&self, out: &mut Vec<u64>, map: &mut dyn FnMut(usize) -> usize) {
            out.push(self.infos.len() as u64);
            out.extend(self.infos.iter().map(|info| {
                ((map(info.core as usize) as u64) << 24)
                    | (u64::from(info.flags) << 16)
                    | (u64::from(info.remote_util) << 8)
                    | u64::from(info.rat_level)
            }));
        }

        /// Classifies a miss request from `core` and updates utilization
        /// counters per §3.2/§3.3.
        ///
        /// `line_last_access` is the line's last-access time at the L2 (used by
        /// the Timestamp check); `now` is the current cycle. The caller must
        /// afterwards call [`LocalityClassifier::on_write`] if the request is a
        /// write, and hand out a line or word according to the returned mode.
        pub(super) fn classify_request(
            &mut self,
            policy: &ClassifierPolicy,
            core: CoreId,
            hints: RequestHints,
            line_last_access: Cycle,
        ) -> ClassifyOutcome {
            let Some(info) = self.lookup_or_allocate(policy, core) else {
                // Limited_k list full of active sharers: classify by majority
                // vote, leave the list unchanged (§3.4).
                return ClassifyOutcome {
                    mode: self.majority_vote(),
                    promoted: false,
                    tracked: false,
                };
            };

            if info.mode() == SharerMode::Private {
                info.set_active(true);
                return ClassifyOutcome {
                    mode: SharerMode::Private,
                    promoted: false,
                    tracked: true,
                };
            }

            // Remote sharer: update the remote utilization counter.
            if policy.timestamp_mech {
                // Timestamp check (§3.2): count the access only if the line at
                // the L2 is more recent than the coldest line of the
                // requester's L1 set (trivially true with an invalid way).
                let passes = hints.set_has_invalid || line_last_access > hints.set_min_last_access;
                if passes {
                    info.remote_util = info.remote_util.saturating_add(1);
                } else {
                    info.remote_util = 1;
                }
            } else {
                info.remote_util = info.remote_util.saturating_add(1).min(policy.util_cap);
            }

            // Promotion threshold: PCT under Timestamp; the RAT ladder under
            // the approximation, with the §3.3 shortcut that an invalid way in
            // the requester's set lowers the bar back to PCT (promotion cannot
            // pollute the cache).
            let threshold = if policy.timestamp_mech || hints.set_has_invalid {
                policy.pct
            } else {
                policy.ladder[(info.rat_level as usize).min(policy.ladder.len() - 1)]
            };

            if info.remote_util as u32 >= threshold && !(policy.one_way && info.sticky_remote()) {
                info.set_mode(SharerMode::Private);
                info.set_active(true);
                ClassifyOutcome { mode: SharerMode::Private, promoted: true, tracked: true }
            } else {
                info.set_active(true);
                ClassifyOutcome { mode: SharerMode::Remote, promoted: false, tracked: true }
            }
        }

        /// A write by `writer` has been serialized at this entry: the remote
        /// utilization counters of all *other* remote sharers are reset to zero
        /// and those sharers become inactive (§3.2, §3.4 — "a remote sharer
        /// becomes inactive on a write by another core").
        pub(super) fn on_write(&mut self, writer: CoreId) {
            for info in &mut self.infos {
                if info.core as usize != writer.index() && info.mode() == SharerMode::Remote {
                    info.remote_util = 0;
                    info.set_active(false);
                }
            }
        }

        /// A private copy held by `core` was removed (invalidation ack or
        /// eviction notify) carrying `private_util`. Runs the §3.2
        /// classification — stay private iff `private + remote >= PCT` — and
        /// the §3.3 RAT adjustment. Returns the core's new mode.
        pub(super) fn on_sharer_removed(
            &mut self,
            policy: &ClassifierPolicy,
            core: CoreId,
            private_util: u32,
            reason: RemovalReason,
        ) -> SharerMode {
            let pct = policy.pct;
            let Some(info) = self.lookup_or_allocate(policy, core) else {
                // Untracked and unallocatable: the classification cannot be
                // stored. Compute it against a zero remote counter anyway so
                // the caller can at least report it.
                return if private_util >= pct { SharerMode::Private } else { SharerMode::Remote };
            };

            let total = private_util + info.remote_util as u32;
            let new_mode = if total >= pct && !(policy.one_way && info.sticky_remote()) {
                SharerMode::Private
            } else {
                SharerMode::Remote
            };
            match new_mode {
                SharerMode::Private => {
                    // §3.3: classified private on removal -> RAT resets so the
                    // core can re-learn its classification.
                    info.rat_level = 0;
                    info.set_mode(SharerMode::Private);
                }
                SharerMode::Remote => {
                    if reason == RemovalReason::Eviction {
                        // Eviction signals set pressure: harder to re-promote.
                        let max_level = (policy.ladder.len() - 1) as u8;
                        info.rat_level = (info.rat_level + 1).min(max_level);
                    }
                    info.set_mode(SharerMode::Remote);
                    if policy.one_way {
                        info.flags |= FLAG_STICKY_REMOTE;
                    }
                }
            }
            info.remote_util = 0;
            // A private sharer becomes inactive on invalidation or eviction.
            info.set_active(false);
            new_mode
        }

        /// Majority vote over tracked modes; ties and an empty list report
        /// `Private`, the §3.2 initial mode.
        fn majority_vote(&self) -> SharerMode {
            let private = self.infos.iter().filter(|i| i.mode() == SharerMode::Private).count();
            if 2 * private >= self.infos.len() {
                SharerMode::Private
            } else {
                SharerMode::Remote
            }
        }

        /// Finds the record for `core`, allocating a free entry or replacing
        /// an inactive sharer. Returns `None` when the list holds `k` active
        /// sharers.
        fn lookup_or_allocate(
            &mut self,
            policy: &ClassifierPolicy,
            core: CoreId,
        ) -> Option<&mut CoreInfo> {
            if let Some(pos) = self.infos.iter().position(|i| i.core as usize == core.index()) {
                return Some(&mut self.infos[pos]);
            }
            if self.infos.len() < policy.k {
                // Free entry: "it allocates the entry to the core and the
                // actions described in Section 3.2 are carried out" — i.e. the
                // §3.2 initial mode, Private, unless the §5.3 shortcut infers
                // it from the cores already tracked.
                let mode =
                    if policy.infer_first { self.majority_vote() } else { SharerMode::Private };
                self.infos.push(CoreInfo::fresh(core, mode, policy.one_way));
                return self.infos.last_mut();
            }
            // Replace an inactive sharer if one exists (§3.4): an ideal
            // candidate "is a core that is currently not using the cache
            // line". It starts in the majority mode of the tracked cores.
            let mode = self.majority_vote();
            let pos = self.infos.iter().position(|i| !i.active())?;
            self.infos[pos] = CoreInfo::fresh(core, mode, policy.one_way);
            Some(&mut self.infos[pos])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A classifier and its machine's policy, as one directory entry sees
    /// them.
    pub(super) struct Cl {
        policy: ClassifierPolicy,
        state: LocalityClassifier,
    }

    impl Cl {
        pub(super) fn new(cfg: &ClassifierConfig, num_cores: usize) -> Self {
            Cl {
                policy: ClassifierPolicy::new(cfg, num_cores),
                state: LocalityClassifier::default(),
            }
        }

        pub(super) fn classify_request(
            &mut self,
            core: CoreId,
            hints: RequestHints,
            line_last_access: Cycle,
        ) -> ClassifyOutcome {
            self.state.classify_request(&self.policy, core, hints, line_last_access)
        }

        pub(super) fn on_sharer_removed(
            &mut self,
            core: CoreId,
            private_util: u32,
            reason: RemovalReason,
        ) -> SharerMode {
            self.state.on_sharer_removed(&self.policy, core, private_util, reason)
        }
    }

    impl std::ops::Deref for Cl {
        type Target = LocalityClassifier;
        fn deref(&self) -> &LocalityClassifier {
            &self.state
        }
    }

    impl std::ops::DerefMut for Cl {
        fn deref_mut(&mut self) -> &mut LocalityClassifier {
            &mut self.state
        }
    }

    fn cfg(pct: u32) -> ClassifierConfig {
        ClassifierConfig {
            pct,
            tracking: TrackingKind::Complete,
            mechanism: MechanismKind::rat_default(),
            one_way: false,
            shortcut: false,
        }
    }

    fn c(n: usize) -> CoreId {
        CoreId::new(n)
    }

    const NO_HINT: RequestHints = RequestHints { set_min_last_access: 0, set_has_invalid: true };
    const PRESSURE: RequestHints =
        RequestHints { set_min_last_access: u64::MAX, set_has_invalid: false };

    #[test]
    fn cores_start_private() {
        let mut cl = Cl::new(&cfg(4), 8);
        let out = cl.classify_request(c(3), NO_HINT, 0);
        assert_eq!(out.mode, SharerMode::Private);
        assert!(!out.promoted);
    }

    #[test]
    fn demotion_below_pct_and_stay_at_pct() {
        let mut cl = Cl::new(&cfg(4), 8);
        assert_eq!(cl.on_sharer_removed(c(0), 3, RemovalReason::Eviction), SharerMode::Remote);
        assert_eq!(cl.on_sharer_removed(c(1), 4, RemovalReason::Eviction), SharerMode::Private);
        assert_eq!(cl.mode_of(c(0)), SharerMode::Remote);
        assert_eq!(cl.mode_of(c(1)), SharerMode::Private);
    }

    #[test]
    fn remote_utilization_promotes_at_pct_with_invalid_way() {
        let mut cl = Cl::new(&cfg(4), 8);
        cl.on_sharer_removed(c(0), 1, RemovalReason::Eviction);
        // Even though the eviction raised the RAT to 16, an invalid way in
        // the requester's set applies the §3.3 shortcut: threshold = PCT.
        for i in 1..4 {
            let out = cl.classify_request(c(0), NO_HINT, 0);
            assert_eq!(out.mode, SharerMode::Remote, "access {i} must stay remote");
        }
        let out = cl.classify_request(c(0), NO_HINT, 0);
        assert_eq!(out.mode, SharerMode::Private);
        assert!(out.promoted);
    }

    #[test]
    fn eviction_demotion_raises_rat() {
        let mut cl = Cl::new(&cfg(4), 8);
        cl.on_sharer_removed(c(0), 1, RemovalReason::Eviction); // RAT -> 16

        // Under set pressure (no invalid way), promotion now needs 16.
        for i in 1..16 {
            let out = cl.classify_request(c(0), PRESSURE, 0);
            assert_eq!(out.mode, SharerMode::Remote, "access {i} of 16");
        }
        let out = cl.classify_request(c(0), PRESSURE, 0);
        assert_eq!(out.mode, SharerMode::Private);
        assert!(out.promoted);
    }

    #[test]
    fn eviction_demotions_stop_at_the_top_rat_level() {
        // L-2,T-16 has two RAT levels, so §3.6 budgets one bit for the
        // stored level: further demotions must not store a level the
        // hardware cannot hold, nor tell apart states it cannot.
        let demoted = |evictions: usize| {
            let mut cl = Cl::new(&cfg(4), 8);
            for _ in 0..evictions {
                cl.on_sharer_removed(c(0), 1, RemovalReason::Eviction);
            }
            let mut state = Vec::new();
            cl.encode_state(&mut state, &mut |i| i);
            state
        };
        assert_ne!(demoted(0), demoted(1));
        assert_eq!(demoted(1), demoted(3));
    }

    #[test]
    fn invalidation_demotion_keeps_rat() {
        let mut cl = Cl::new(&cfg(4), 8);
        cl.on_sharer_removed(c(0), 1, RemovalReason::Invalidation); // RAT stays at PCT
        for _ in 0..3 {
            assert_eq!(cl.classify_request(c(0), PRESSURE, 0).mode, SharerMode::Remote);
        }
        assert_eq!(cl.classify_request(c(0), PRESSURE, 0).mode, SharerMode::Private);
    }

    #[test]
    fn back_invalidation_behaves_like_invalidation_for_rat() {
        let mut cl = Cl::new(&cfg(4), 8);
        cl.on_sharer_removed(c(0), 1, RemovalReason::BackInvalidation);
        for _ in 0..3 {
            assert_eq!(cl.classify_request(c(0), PRESSURE, 0).mode, SharerMode::Remote);
        }
        assert_eq!(cl.classify_request(c(0), PRESSURE, 0).mode, SharerMode::Private);
    }

    #[test]
    fn reclassification_as_private_resets_rat() {
        let mut cl = Cl::new(&cfg(4), 8);
        cl.on_sharer_removed(c(0), 1, RemovalReason::Eviction); // RAT -> 16

        // Build 16 remote accesses to promote under pressure.
        for _ in 0..16 {
            cl.classify_request(c(0), PRESSURE, 0);
        }
        assert_eq!(cl.mode_of(c(0)), SharerMode::Private);
        // Removed as a *private* sharer with good utilization: RAT resets.
        cl.on_sharer_removed(c(0), 4, RemovalReason::Eviction);
        assert_eq!(cl.mode_of(c(0)), SharerMode::Private);
        // Demote again; promotion threshold is PCT+RAT step from scratch:
        // eviction demotion raises to level 1 (=16) again, but the first
        // ladder rung after a private classification restarts at PCT:
        cl.on_sharer_removed(c(0), 1, RemovalReason::Invalidation); // no raise
        for _ in 0..3 {
            assert_eq!(cl.classify_request(c(0), PRESSURE, 0).mode, SharerMode::Remote);
        }
        assert_eq!(cl.classify_request(c(0), PRESSURE, 0).mode, SharerMode::Private);
    }

    #[test]
    fn remote_util_counts_toward_removal_classification() {
        // §3.2: classification on removal uses private + remote utilization.
        let mut cl = Cl::new(&cfg(4), 8);
        cl.on_sharer_removed(c(0), 1, RemovalReason::Invalidation); // remote

        // Two remote accesses (remote_util = 2), then promoted? no: stays
        // remote (2 < 4). Third and fourth accesses promote at PCT with
        // invalid way.
        cl.classify_request(c(0), NO_HINT, 0);
        cl.classify_request(c(0), NO_HINT, 0);
        cl.classify_request(c(0), NO_HINT, 0);
        let out = cl.classify_request(c(0), NO_HINT, 0);
        assert!(out.promoted);
        // Now removed with private_util = 1: 1 + remote_util(4) >= 4 keeps
        // it private — the paper's argument that the line would not have
        // been evicted earlier had it been cached at reset time.
        assert_eq!(cl.on_sharer_removed(c(0), 1, RemovalReason::Eviction), SharerMode::Private);
    }

    #[test]
    fn write_resets_other_remote_sharers() {
        let mut cl = Cl::new(&cfg(4), 8);
        for core in [0, 1, 2] {
            cl.on_sharer_removed(c(core), 1, RemovalReason::Invalidation);
        }
        // Cores 0 and 1 accumulate remote utilization.
        cl.classify_request(c(0), NO_HINT, 0);
        cl.classify_request(c(0), NO_HINT, 0);
        cl.classify_request(c(0), NO_HINT, 0);
        cl.classify_request(c(1), NO_HINT, 0);
        // Core 2 writes: everyone else's counters reset.
        cl.classify_request(c(2), NO_HINT, 0);
        cl.on_write(c(2));
        // Core 0 lost its 3 accesses: needs 4 fresh ones again.
        for _ in 0..3 {
            assert_eq!(cl.classify_request(c(0), NO_HINT, 0).mode, SharerMode::Remote);
        }
        assert_eq!(cl.classify_request(c(0), NO_HINT, 0).mode, SharerMode::Private);
    }

    #[test]
    fn timestamp_check_resets_counter_on_cold_line() {
        let cfg = ClassifierConfig {
            pct: 4,
            tracking: TrackingKind::Complete,
            mechanism: MechanismKind::Timestamp,
            one_way: false,
            shortcut: false,
        };
        let mut cl = Cl::new(&cfg, 8);
        cl.on_sharer_removed(c(0), 1, RemovalReason::Eviction);
        // Line last accessed at t=10; the requester's set min is 50 and no
        // invalid way: check fails -> counter resets to 1 every time, so
        // the core is never promoted (cache pollution avoided).
        let hints = RequestHints { set_min_last_access: 50, set_has_invalid: false };
        for _ in 0..20 {
            let out = cl.classify_request(c(0), hints, 10);
            assert_eq!(out.mode, SharerMode::Remote);
        }
        // A hot line (last access beyond the set minimum) counts up from
        // the resets' residual value of 1 and promotes at PCT.
        for _ in 0..2 {
            assert_eq!(cl.classify_request(c(0), hints, 100).mode, SharerMode::Remote);
        }
        assert!(cl.classify_request(c(0), hints, 100).promoted);
    }

    #[test]
    fn one_way_protocol_never_promotes() {
        let cfg = ClassifierConfig { one_way: true, ..cfg(4) };
        let mut cl = Cl::new(&cfg, 8);
        cl.on_sharer_removed(c(0), 1, RemovalReason::Eviction);
        for _ in 0..100 {
            let out = cl.classify_request(c(0), NO_HINT, 0);
            assert_eq!(out.mode, SharerMode::Remote, "Adapt1-way must never promote");
        }
    }

    #[test]
    fn pct_one_never_demotes() {
        let mut cl = Cl::new(&cfg(1), 8);
        // Any removal carries utilization >= 1 (the install itself).
        assert_eq!(cl.on_sharer_removed(c(0), 1, RemovalReason::Eviction), SharerMode::Private);
        assert_eq!(cl.mode_of(c(0)), SharerMode::Private);
    }

    // ---- Limited_k (§3.4) ----

    fn limited_cfg(k: usize) -> ClassifierConfig {
        ClassifierConfig { tracking: TrackingKind::Limited { k }, ..cfg(4) }
    }

    #[test]
    fn limited_allocates_free_entries_private() {
        let mut cl = Cl::new(&limited_cfg(3), 64);
        let out = cl.classify_request(c(0), NO_HINT, 0);
        assert_eq!(out.mode, SharerMode::Private);
        assert!(out.tracked);
        assert_eq!(cl.tracked_count(), 1);
    }

    #[test]
    fn limited_majority_vote_for_untracked() {
        let mut cl = Cl::new(&limited_cfg(3), 64);
        // Fill the list with three ACTIVE remote sharers.
        for core in 0..3 {
            cl.on_sharer_removed(c(core), 1, RemovalReason::Invalidation);
            cl.classify_request(c(core), NO_HINT, 0); // remote access: active
        }
        assert_eq!(cl.tracked_count(), 3);
        // A fourth core arrives; all entries active -> untracked, majority
        // vote says Remote.
        let out = cl.classify_request(c(50), NO_HINT, 0);
        assert_eq!(out.mode, SharerMode::Remote);
        assert!(!out.tracked);
        assert_eq!(cl.tracked_count(), 3, "list must be left unchanged");
    }

    #[test]
    fn limited_replaces_inactive_sharer() {
        let mut cl = Cl::new(&limited_cfg(2), 64);
        cl.classify_request(c(0), NO_HINT, 0); // private, active
        cl.classify_request(c(1), NO_HINT, 0); // private, active

        // Core 0's copy is invalidated -> inactive, stays private (util 4).
        cl.on_sharer_removed(c(0), 4, RemovalReason::Invalidation);
        // Core 2 arrives: replaces core 0's entry; majority of tracked
        // modes (2 private) -> starts private.
        let out = cl.classify_request(c(2), NO_HINT, 0);
        assert_eq!(out.mode, SharerMode::Private);
        assert!(out.tracked);
        assert_eq!(cl.tracked_count(), 2);
        // Core 0 is untracked now; its mode is the majority vote.
        assert_eq!(cl.mode_of(c(0)), SharerMode::Private);
    }

    #[test]
    fn limited_majority_vote_starts_new_sharers_remote() {
        // The streamcluster/dijkstra-ss effect (§5.3): once tracked sharers
        // are remote, new sharers skip the private classification phase.
        let mut cl = Cl::new(&limited_cfg(3), 64);
        for core in 0..3 {
            cl.on_sharer_removed(c(core), 1, RemovalReason::Invalidation); // remote, inactive
        }
        let out = cl.classify_request(c(10), NO_HINT, 0);
        assert_eq!(out.mode, SharerMode::Remote, "inferred from majority");
        assert!(out.tracked, "replaced an inactive entry");
    }

    #[test]
    fn limited_one_tracks_first_sharer_pathology() {
        // §5.3: with k=1 the first sharer's mode decides everyone's fate —
        // the radix/bodytrack pathologies.
        let mut cl = Cl::new(&limited_cfg(1), 64);
        cl.on_sharer_removed(c(0), 1, RemovalReason::Invalidation); // remote, inactive

        // Core 1 replaces it, inheriting Remote by majority vote even
        // though it might have wanted Private.
        let out = cl.classify_request(c(1), NO_HINT, 0);
        assert_eq!(out.mode, SharerMode::Remote);
    }

    #[test]
    fn limited_tie_votes_private() {
        let mut cl = Cl::new(&limited_cfg(2), 64);
        cl.classify_request(c(0), NO_HINT, 0); // private active
        cl.on_sharer_removed(c(1), 1, RemovalReason::Invalidation); // remote inactive

        // 1 private vs 1 remote: tie -> Private (the §3.2 initial mode).
        assert_eq!(cl.mode_of(c(9)), SharerMode::Private);
    }

    #[test]
    fn complete_shortcut_infers_first_classification() {
        // §5.3's suggested extension: once the demonstrated modes lean
        // remote, a fresh core skips the private classification phase.
        let sc_cfg = ClassifierConfig { shortcut: true, ..cfg(4) };
        let mut cl = Cl::new(&sc_cfg, 8);
        for core in 0..3 {
            // Touch + demote three cores.
            cl.classify_request(c(core), NO_HINT, 0);
            cl.on_sharer_removed(c(core), 1, RemovalReason::Invalidation);
        }
        let out = cl.classify_request(c(7), NO_HINT, 0);
        assert_eq!(out.mode, SharerMode::Remote, "inferred from the demonstrated majority");
        // Without the shortcut, the same history yields Private.
        let mut plain = Cl::new(&cfg(4), 8);
        for core in 0..3 {
            plain.classify_request(c(core), NO_HINT, 0);
            plain.on_sharer_removed(c(core), 1, RemovalReason::Invalidation);
        }
        assert_eq!(plain.classify_request(c(7), NO_HINT, 0).mode, SharerMode::Private);
    }

    #[test]
    fn complete_shortcut_with_no_history_stays_private() {
        let sc_cfg = ClassifierConfig { shortcut: true, ..cfg(4) };
        let mut cl = Cl::new(&sc_cfg, 8);
        assert_eq!(cl.classify_request(c(0), NO_HINT, 0).mode, SharerMode::Private);
    }

    #[test]
    fn complete_shortcut_private_majority_stays_private() {
        let sc_cfg = ClassifierConfig { shortcut: true, ..cfg(4) };
        let mut cl = Cl::new(&sc_cfg, 8);
        // Two well-behaved sharers, one demoted: majority private.
        cl.classify_request(c(0), NO_HINT, 0);
        cl.on_sharer_removed(c(0), 6, RemovalReason::Eviction);
        cl.classify_request(c(1), NO_HINT, 0);
        cl.on_sharer_removed(c(1), 5, RemovalReason::Eviction);
        cl.classify_request(c(2), NO_HINT, 0);
        cl.on_sharer_removed(c(2), 1, RemovalReason::Eviction);
        assert_eq!(cl.classify_request(c(7), NO_HINT, 0).mode, SharerMode::Private);
    }

    #[test]
    fn complete_equals_limited_n() {
        // The caption of Figure 13: Limited_64 is identical to Complete.
        assert_eq!(ClassifierPolicy::new(&cfg(4), 64), ClassifierPolicy::new(&limited_cfg(64), 64));
        assert_ne!(ClassifierPolicy::new(&cfg(4), 64), ClassifierPolicy::new(&limited_cfg(63), 64));
        // The §5.3 shortcut is what tells Complete apart from Limited_n.
        let sc_cfg = ClassifierConfig { shortcut: true, ..cfg(4) };
        assert_ne!(ClassifierPolicy::new(&sc_cfg, 64), ClassifierPolicy::new(&limited_cfg(64), 64));
    }

    #[test]
    fn shortcut_leaves_limited_k_unchanged() {
        // Limited_k infers new sharers' modes through its replacement
        // policy already; the flag only retrofits that to Complete.
        for k in [1, 3, 8] {
            let sc = ClassifierConfig { shortcut: true, ..limited_cfg(k) };
            assert_eq!(ClassifierPolicy::new(&sc, 8), ClassifierPolicy::new(&limited_cfg(k), 8));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::Cl;
    use super::*;
    use proptest::prelude::*;

    fn arb_cfg() -> impl Strategy<Value = ClassifierConfig> {
        (1u32..6, 1usize..5, prop_oneof![Just(true), Just(false)], 1usize..4).prop_map(
            |(pct, k, one_way, levels)| ClassifierConfig {
                pct,
                tracking: if k == 4 { TrackingKind::Complete } else { TrackingKind::Limited { k } },
                mechanism: MechanismKind::RatLevels { levels, rat_max: pct + 12 },
                one_way,
                shortcut: false,
            },
        )
    }

    fn state(encode: impl FnOnce(&mut Vec<u64>, &mut dyn FnMut(usize) -> usize)) -> Vec<u64> {
        let mut out = Vec::new();
        encode(&mut out, &mut |i| i);
        out
    }

    proptest! {
        /// The inline store behaves exactly like the `Vec`-backed
        /// reference on a 64-core machine: Limited_k with k of 1, 3
        /// (inline only), 5 and 64 (both spill to the heap), and
        /// Complete with or without the §5.3 shortcut. After every
        /// event, both return the same outcome and encode the same
        /// state, list order included.
        #[test]
        fn inline_store_matches_vec_reference(
            setting in (1u32..6, 0usize..5, 0usize..4, proptest::bool::ANY, proptest::bool::ANY),
            events in proptest::collection::vec(
                (prop_oneof![0usize..8, 0usize..64], 0u8..3, 0u32..8, 0u8..4, 0u64..16),
                1..200,
            ),
        ) {
            let (pct, tracking, levels, one_way, shortcut) = setting;
            let cfg = ClassifierConfig {
                pct,
                tracking: match tracking {
                    4 => TrackingKind::Complete,
                    i => TrackingKind::Limited { k: [1, 3, 5, 64][i] },
                },
                mechanism: match levels {
                    0 => MechanismKind::Timestamp,
                    levels => MechanismKind::RatLevels { levels, rat_max: pct + 12 },
                },
                one_way,
                shortcut,
            };
            let policy = ClassifierPolicy::new(&cfg, 64);
            let mut inline = LocalityClassifier::default();
            let mut reference = super::reference::LocalityClassifier::default();
            for (core, ev, util, how, when) in events {
                let core = CoreId::new(core);
                match ev {
                    0 => {
                        let hints =
                            RequestHints { set_min_last_access: when, set_has_invalid: how == 0 };
                        prop_assert_eq!(
                            inline.classify_request(&policy, core, hints, 8),
                            reference.classify_request(&policy, core, hints, 8)
                        );
                    }
                    1 => {
                        let reason = [
                            RemovalReason::Eviction,
                            RemovalReason::Invalidation,
                            RemovalReason::BackInvalidation,
                        ][usize::from(how % 3)];
                        prop_assert_eq!(
                            inline.on_sharer_removed(&policy, core, util, reason),
                            reference.on_sharer_removed(&policy, core, util, reason)
                        );
                    }
                    _ => {
                        inline.on_write(core);
                        reference.on_write(core);
                    }
                }
                prop_assert_eq!(
                    state(|out, map| inline.encode_state(out, map)),
                    state(|out, map| reference.encode_state(out, map))
                );
                if policy.k <= INLINE {
                    prop_assert!(!inline.spilled(), "a list of at most {} cores stays inline", INLINE);
                }
            }
        }

        /// The classifier never crashes and always returns a definite mode
        /// under arbitrary event interleavings, and Limited_k never tracks
        /// more than k cores.
        #[test]
        fn total_and_bounded(
            cfg in arb_cfg(),
            events in proptest::collection::vec((0usize..8, 0u8..3, 0u32..8, proptest::bool::ANY), 1..200),
        ) {
            let mut cl = Cl::new(&cfg, 8);
            let k = match cfg.tracking {
                TrackingKind::Complete => 8,
                TrackingKind::Limited { k } => k,
            };
            for (core, ev, util, invalid_way) in events {
                let core = CoreId::new(core);
                let hints = RequestHints { set_min_last_access: 5, set_has_invalid: invalid_way };
                match ev {
                    0 => {
                        let out = cl.classify_request(core, hints, 10);
                        if out.promoted {
                            prop_assert_eq!(out.mode, SharerMode::Private);
                        }
                    }
                    1 => {
                        let _ = cl.on_sharer_removed(core, util, RemovalReason::Eviction);
                    }
                    _ => cl.on_write(core),
                }
                prop_assert!(cl.tracked_count() <= k.max(8));
                if let TrackingKind::Limited { k } = cfg.tracking {
                    prop_assert!(cl.tracked_count() <= k);
                }
            }
        }

        /// Under the one-way protocol a demoted core never reports Private
        /// again (Figure 4 loses its return edge).
        #[test]
        fn one_way_is_absorbing(
            pct in 2u32..6,
            events in proptest::collection::vec((0u8..2, 0u32..4), 1..100),
        ) {
            let cfg = ClassifierConfig {
                pct,
                tracking: TrackingKind::Complete,
                mechanism: MechanismKind::rat_default(),
                one_way: true,
                shortcut: false,
            };
            let mut cl = Cl::new(&cfg, 2);
            let core = CoreId::new(0);
            let mut demoted = false;
            for (ev, util) in events {
                match ev {
                    0 => {
                        let out = cl.classify_request(
                            core,
                            RequestHints { set_min_last_access: 0, set_has_invalid: true },
                            0,
                        );
                        if demoted {
                            prop_assert_eq!(out.mode, SharerMode::Remote);
                        }
                    }
                    _ => {
                        let m = cl.on_sharer_removed(core, util, RemovalReason::Eviction);
                        if m == SharerMode::Remote {
                            demoted = true;
                        }
                        // util < pct can only happen pre-demotion; once
                        // sticky, on_sharer_removed must keep it remote.
                        if demoted {
                            prop_assert!(util >= pct || m == SharerMode::Remote);
                        }
                    }
                }
            }
        }
    }
}
