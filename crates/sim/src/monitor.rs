//! The coherence monitor: a functional-correctness oracle.
//!
//! Graphite "requires the memory system (including the cache hierarchy) to
//! be functionally correct to complete simulation", which the paper calls
//! "a good test that all our cache coherence protocols are working
//! correctly" (§4.1). This monitor is the equivalent for our simulator and
//! is stronger: it maintains a shadow copy of memory updated at every write
//! *serialization point* and asserts that **every read returns exactly the
//! shadow value**.
//!
//! Why that assertion is sound for an invalidation-based SWMR protocol, in
//! event-processing order: a write serializes only after every private copy
//! is invalidated, so while any private copy is readable its content equals
//! the shadow; remote (word) reads execute at the L2 at the serialization
//! point itself. Any stale read — a missed invalidation, a lost write-back,
//! a wrong merge — breaks the equality immediately.
//!
//! Beyond the per-run read check, the model checker (`lacc_mc`) uses the
//! monitor as the data-value reference: [`CoherenceMonitor::verify_resident`]
//! compares a resident cache copy word against the shadow at any state, and
//! [`CoherenceMonitor::record_swmr_breach`] lets an external invariant
//! checker report multiple-writer states through the same reporting path.

use lacc_model::collections::FxHashMap;
use lacc_model::{CoreId, Cycle, LineAddr};

/// Words per cache line in the shadow (64-byte lines of 8-byte words).
const WORDS_PER_LINE: usize = 8;

/// Lines per shadow page: one bit each in [`ShadowPage::written`].
const PAGE_LINES: u64 = 64;

/// 64 consecutive lines of the shadow (4 KiB of words plus the mask).
///
/// Words are plain `[u64; 8]`, not `LineData`: that type's 64-byte
/// alignment would pad every page.
#[derive(Clone, Debug)]
struct ShadowPage {
    /// Bit `i` is set once line `i` of the page has been written.
    written: u64,
    lines: [[u64; WORDS_PER_LINE]; PAGE_LINES as usize],
}

/// What kind of coherence property a violation broke.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// A read returned a value different from the last serialized write.
    StaleRead,
    /// More than one core held a writable (M/E) copy of a line.
    SwmrBreach,
    /// A resident cache copy disagreed with the shadow memory.
    ShadowMismatch,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ViolationKind::StaleRead => "stale read",
            ViolationKind::SwmrBreach => "SWMR breach",
            ViolationKind::ShadowMismatch => "shadow mismatch",
        })
    }
}

/// One recorded coherence violation: everything needed to diagnose the
/// failure without rerunning under `panic_on_violation`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ViolationRecord {
    /// Which property broke.
    pub kind: ViolationKind,
    /// The core whose access (or copy) exposed the violation.
    pub core: CoreId,
    /// The line involved.
    pub line: LineAddr,
    /// The word within the line (0 for whole-line violations).
    pub word: usize,
    /// The cycle at which the violation was observed.
    pub cycle: Cycle,
    /// The 1-based index of the dispatched event that exposed the
    /// violation. Within one cycle many events dispatch; `(cycle, seq)`
    /// names the exact event, so a reproduction can stop the run there.
    pub seq: u64,
    /// The value observed.
    pub got: u64,
    /// The value the shadow expected.
    pub expected: u64,
}

impl std::fmt::Display for ViolationRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coherence violation ({}): {} at {} word {} cycle {} event {}: got {:#x}, expected {:#x}",
            self.kind, self.core, self.line, self.word, self.cycle, self.seq, self.got, self.expected
        )
    }
}

/// Statistics and failure record of the monitor.
#[derive(Clone, Debug, Default)]
pub struct MonitorReport {
    /// Reads checked.
    pub reads_checked: u64,
    /// Writes recorded.
    pub writes_recorded: u64,
    /// The first violation, if any (line, cycle, core and kind — enough to
    /// diagnose without a rerun).
    pub first_violation: Option<ViolationRecord>,
    /// Total violations.
    pub violations: u64,
}

/// Shadow-memory coherence checker.
///
/// The shadow is paged and direct-indexed: a page holds the words of 64
/// consecutive lines, and a page-number index finds a page's slot in
/// `pages`. A page is created zero-filled on the first write to any of
/// its lines — untouched memory reads as zero, and reads never
/// allocate — and stays for the run. Its `written` mask records which
/// lines a write has reached, so the shadow encoding the model checker
/// fingerprints holds exactly the written lines.
#[derive(Clone, Debug)]
pub struct CoherenceMonitor {
    pages: Vec<ShadowPage>,
    page_index: FxHashMap<u64, u32>,
    enabled: bool,
    panic_on_violation: bool,
    word_skew: usize,
    event_seq: u64,
    report: MonitorReport,
}

impl CoherenceMonitor {
    /// Creates a monitor; `panic_on_violation` makes any violation a test
    /// failure (used by the test suite), otherwise violations are counted
    /// and reported.
    #[must_use]
    pub fn new(enabled: bool, panic_on_violation: bool) -> Self {
        CoherenceMonitor {
            pages: Vec::new(),
            page_index: FxHashMap::default(),
            enabled,
            panic_on_violation,
            word_skew: 0,
            event_seq: 0,
            report: MonitorReport::default(),
        }
    }

    /// Tells the monitor which event is committing: the simulator calls
    /// this once per dispatched event with its global commit index, and
    /// every violation recorded until the next call is stamped with it
    /// (see [`ViolationRecord::seq`]).
    pub fn set_event_seq(&mut self, seq: u64) {
        self.event_seq = seq;
    }

    /// Seeded bug (mutation testing): shadow writes land `skew` words away
    /// from the word actually written, so the oracle itself is off by one.
    /// The model checker's mutation harness uses this to prove the checker
    /// detects a broken monitor; never set in a normal run.
    pub fn set_word_skew(&mut self, skew: usize) {
        self.word_skew = skew;
    }

    /// The shadow value of `word` of `line` (zero if never written).
    #[inline]
    fn shadow_word(&self, line: LineAddr, word: usize) -> u64 {
        match self.page_index.get(&(line.raw() / PAGE_LINES)) {
            None => 0,
            Some(&slot) => {
                self.pages[slot as usize].lines[(line.raw() % PAGE_LINES) as usize][word]
            }
        }
    }

    fn record(&mut self, mut rec: ViolationRecord) {
        rec.seq = self.event_seq;
        self.report.violations += 1;
        if self.report.first_violation.is_none() {
            self.report.first_violation = Some(rec);
        }
        assert!(!self.panic_on_violation, "{rec}");
    }

    /// Records a serialized write of `value` to `word` of `line` at `now`.
    pub fn on_write(
        &mut self,
        _core: CoreId,
        line: LineAddr,
        word: usize,
        value: u64,
        _now: Cycle,
    ) {
        if !self.enabled {
            return;
        }
        self.report.writes_recorded += 1;
        let word = (word + self.word_skew) % WORDS_PER_LINE;
        let pages = &mut self.pages;
        let slot = *self.page_index.entry(line.raw() / PAGE_LINES).or_insert_with(|| {
            pages
                .push(ShadowPage { written: 0, lines: [[0; WORDS_PER_LINE]; PAGE_LINES as usize] });
            u32::try_from(pages.len() - 1).expect("shadow page count fits u32")
        });
        let page = &mut self.pages[slot as usize];
        let i = line.raw() % PAGE_LINES;
        page.written |= 1 << i;
        page.lines[i as usize][word] = value;
    }

    /// Checks a read of `word` of `line` that returned `value` at `now`.
    ///
    /// # Panics
    ///
    /// Panics on a violation when constructed with `panic_on_violation`.
    pub fn on_read(&mut self, core: CoreId, line: LineAddr, word: usize, value: u64, now: Cycle) {
        if !self.enabled {
            return;
        }
        self.report.reads_checked += 1;
        let expected = self.shadow_word(line, word);
        if value != expected {
            self.record(ViolationRecord {
                kind: ViolationKind::StaleRead,
                core,
                line,
                word,
                cycle: now,
                seq: 0, // stamped by `record`
                got: value,
                expected,
            });
        }
    }

    /// Checks a *resident* copy's word against the shadow without counting
    /// it as a read (the model checker's at-every-state data-value sweep).
    ///
    /// # Panics
    ///
    /// Panics on a violation when constructed with `panic_on_violation`.
    pub fn verify_resident(
        &mut self,
        core: CoreId,
        line: LineAddr,
        word: usize,
        value: u64,
        now: Cycle,
    ) {
        if !self.enabled {
            return;
        }
        let expected = self.shadow_word(line, word);
        if value != expected {
            self.record(ViolationRecord {
                kind: ViolationKind::ShadowMismatch,
                core,
                line,
                word,
                cycle: now,
                seq: 0, // stamped by `record`
                got: value,
                expected,
            });
        }
    }

    /// Reports that `core` holds a writable copy of `line` while another
    /// writable copy exists (detected by an external invariant checker;
    /// the monitor itself cannot see cache states).
    ///
    /// # Panics
    ///
    /// Panics when constructed with `panic_on_violation`.
    pub fn record_swmr_breach(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        if !self.enabled {
            return;
        }
        self.record(ViolationRecord {
            kind: ViolationKind::SwmrBreach,
            core,
            line,
            word: 0,
            cycle: now,
            seq: 0, // stamped by `record`
            got: 0,
            expected: 0,
        });
    }

    /// Appends a canonical encoding of the shadow memory to `out` (written
    /// lines sorted by address, eight words each) — the model checker
    /// fingerprints the oracle state alongside the machine state.
    pub(crate) fn encode_shadow(&self, out: &mut Vec<u64>) {
        let mut pages: Vec<(u64, &ShadowPage)> = self
            .page_index
            .iter()
            .map(|(&page, &slot)| (page, &self.pages[slot as usize]))
            .collect();
        pages.sort_unstable_by_key(|&(page, _)| page);
        out.push(pages.iter().map(|(_, p)| u64::from(p.written.count_ones())).sum());
        for (page, p) in pages {
            let mut mask = p.written;
            while mask != 0 {
                let i = u64::from(mask.trailing_zeros());
                mask &= mask - 1;
                out.push(page * PAGE_LINES + i);
                out.extend_from_slice(&p.lines[i as usize]);
            }
        }
    }

    /// The accumulated report.
    #[must_use]
    pub fn report(&self) -> &MonitorReport {
        &self.report
    }

    /// `true` when no violation was observed.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.report.violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn reads_of_untouched_memory_expect_zero() {
        let mut m = CoherenceMonitor::new(true, true);
        m.on_read(CoreId::new(0), l(5), 3, 0, 0);
        assert!(m.clean());
        assert_eq!(m.report().reads_checked, 1);
    }

    #[test]
    fn write_then_read_matches() {
        let mut m = CoherenceMonitor::new(true, true);
        m.on_write(CoreId::new(1), l(5), 3, 0xabc, 0);
        m.on_read(CoreId::new(2), l(5), 3, 0xabc, 1);
        assert!(m.clean());
    }

    #[test]
    #[should_panic(expected = "coherence violation")]
    fn stale_read_panics() {
        let mut m = CoherenceMonitor::new(true, true);
        m.on_write(CoreId::new(1), l(5), 3, 1, 0);
        m.on_write(CoreId::new(1), l(5), 3, 2, 1);
        m.on_read(CoreId::new(2), l(5), 3, 1, 2);
    }

    #[test]
    fn non_panicking_mode_records_the_first_violation() {
        let mut m = CoherenceMonitor::new(true, false);
        m.on_write(CoreId::new(0), l(1), 0, 7, 10);
        m.set_event_seq(41);
        m.on_read(CoreId::new(3), l(1), 0, 8, 20);
        m.set_event_seq(42);
        m.on_read(CoreId::new(0), l(1), 0, 9, 30);
        assert_eq!(m.report().violations, 2);
        let first = m.report().first_violation.expect("violation recorded");
        assert_eq!(first.kind, ViolationKind::StaleRead);
        assert_eq!(first.core, CoreId::new(3));
        assert_eq!(first.line, l(1));
        assert_eq!(first.word, 0);
        assert_eq!(first.cycle, 20);
        assert_eq!(first.seq, 41, "first violation keeps its own commit stamp");
        assert_eq!((first.got, first.expected), (8, 7));
        assert!(first.to_string().contains("expected 0x7"), "{first}");
        assert!(first.to_string().contains("event 41"), "{first}");
        assert!(!m.clean());
    }

    #[test]
    fn disabled_monitor_is_free() {
        let mut m = CoherenceMonitor::new(false, true);
        m.on_write(CoreId::new(0), l(1), 0, 7, 0);
        m.on_read(CoreId::new(0), l(1), 0, 999, 1);
        m.verify_resident(CoreId::new(0), l(1), 0, 999, 1);
        m.record_swmr_breach(CoreId::new(0), l(1), 1);
        assert!(m.clean());
        assert_eq!(m.report().reads_checked, 0);
    }

    #[test]
    fn words_are_independent() {
        let mut m = CoherenceMonitor::new(true, true);
        m.on_write(CoreId::new(0), l(1), 0, 7, 0);
        m.on_read(CoreId::new(0), l(1), 1, 0, 1);
        m.on_read(CoreId::new(0), l(1), 0, 7, 2);
        assert!(m.clean());
    }

    #[test]
    fn verify_resident_flags_shadow_mismatch_without_counting_reads() {
        let mut m = CoherenceMonitor::new(true, false);
        m.on_write(CoreId::new(1), l(9), 2, 0xbeef, 5);
        m.verify_resident(CoreId::new(2), l(9), 2, 0xbeef, 6);
        assert!(m.clean(), "matching resident copy is no violation");
        m.verify_resident(CoreId::new(2), l(9), 2, 0xdead, 7);
        assert_eq!(m.report().violations, 1);
        assert_eq!(m.report().reads_checked, 0, "resident sweeps are not reads");
        let first = m.report().first_violation.expect("recorded");
        assert_eq!(first.kind, ViolationKind::ShadowMismatch);
        assert_eq!((first.got, first.expected), (0xdead, 0xbeef));
        assert_eq!(first.cycle, 7);
    }

    #[test]
    fn swmr_breach_is_recorded_with_core_and_line() {
        let mut m = CoherenceMonitor::new(true, false);
        m.record_swmr_breach(CoreId::new(5), l(40), 123);
        assert_eq!(m.report().violations, 1);
        let first = m.report().first_violation.expect("recorded");
        assert_eq!(first.kind, ViolationKind::SwmrBreach);
        assert_eq!(first.core, CoreId::new(5));
        assert_eq!(first.line, l(40));
        assert_eq!(first.cycle, 123);
        assert!(first.to_string().contains("SWMR breach"));
    }

    #[test]
    #[should_panic(expected = "SWMR breach")]
    fn swmr_breach_panics_in_panicking_mode() {
        let mut m = CoherenceMonitor::new(true, true);
        m.record_swmr_breach(CoreId::new(0), l(1), 0);
    }

    #[test]
    #[should_panic(expected = "shadow mismatch")]
    fn shadow_mismatch_panics_in_panicking_mode() {
        let mut m = CoherenceMonitor::new(true, true);
        m.on_write(CoreId::new(0), l(1), 0, 1, 0);
        m.verify_resident(CoreId::new(1), l(1), 0, 2, 1);
    }

    #[test]
    fn word_skew_breaks_the_oracle_on_purpose() {
        let mut m = CoherenceMonitor::new(true, false);
        m.set_word_skew(1);
        m.on_write(CoreId::new(0), l(1), 0, 7, 0);
        // The shadow recorded the write at word 1; a correct protocol
        // returning 7 at word 0 now looks like a violation.
        m.on_read(CoreId::new(0), l(1), 0, 7, 1);
        assert_eq!(m.report().violations, 1);
        assert_eq!(m.report().first_violation.map(|v| v.expected), Some(0));
    }
}

#[cfg(test)]
mod shadow_model {
    use super::*;
    use lacc_model::LineMap;
    use proptest::prelude::*;

    /// Lines on both sides of the page boundaries at 64 and 128, a page
    /// of its own at 0, and a far page: each page holds written and
    /// unwritten lines in the sampled sequences.
    const LINES: [u64; 8] = [0, 63, 64, 65, 127, 128, 129, 1 << 40];

    /// Values drawn small so writes of 0 and matching reads are common.
    const VALUES: [u64; 4] = [0, 1, 7, u64::MAX];

    /// The reference: the line-granular `LineMap` shadow with the
    /// monitor's counting and first-violation rules, written out plainly.
    struct LineMapShadow {
        shadow: LineMap<[u64; WORDS_PER_LINE]>,
        skew: usize,
        report: MonitorReport,
    }

    impl LineMapShadow {
        fn expect(&mut self, rec: ViolationRecord, got: u64) {
            let expected = self.shadow.get(&rec.line).map_or(0, |w| w[rec.word]);
            if got != expected {
                self.report.violations += 1;
                self.report.first_violation.get_or_insert(ViolationRecord { got, expected, ..rec });
            }
        }

        fn encode(&self) -> Vec<u64> {
            let mut lines: Vec<_> = self.shadow.iter().collect();
            lines.sort_unstable_by_key(|&(l, _)| l.raw());
            let mut out = vec![lines.len() as u64];
            for (line, words) in lines {
                out.push(line.raw());
                out.extend_from_slice(words);
            }
            out
        }
    }

    proptest! {
        /// The paged shadow gives the same report and the same canonical
        /// encoding as the `LineMap` shadow for any sequence of writes,
        /// reads and resident checks, with and without a word skew.
        #[test]
        fn paged_shadow_matches_line_map_shadow(
            skew in 0usize..3,
            ops in proptest::collection::vec((0u8..3, 0usize..8, 0usize..8, 0usize..4), 1..120),
        ) {
            let mut paged = CoherenceMonitor::new(true, false);
            paged.set_word_skew(skew);
            let mut reference = LineMapShadow {
                shadow: LineMap::default(),
                skew,
                report: MonitorReport::default(),
            };
            for (seq, &(kind, line, word, value)) in ops.iter().enumerate() {
                let (core, line, value) = (CoreId::new(seq % 4), LineAddr::new(LINES[line]), VALUES[value]);
                let now = seq as Cycle;
                paged.set_event_seq(seq as u64);
                let rec = |kind| ViolationRecord {
                    kind, core, line, word, cycle: now, seq: seq as u64, got: 0, expected: 0,
                };
                match kind {
                    0 => {
                        paged.on_write(core, line, word, value, now);
                        reference.report.writes_recorded += 1;
                        let w = (word + reference.skew) % WORDS_PER_LINE;
                        reference.shadow.entry(line).or_default()[w] = value;
                    }
                    1 => {
                        paged.on_read(core, line, word, value, now);
                        reference.report.reads_checked += 1;
                        reference.expect(rec(ViolationKind::StaleRead), value);
                    }
                    _ => {
                        paged.verify_resident(core, line, word, value, now);
                        reference.expect(rec(ViolationKind::ShadowMismatch), value);
                    }
                }
            }
            let (got, want) = (paged.report(), &reference.report);
            prop_assert_eq!(got.reads_checked, want.reads_checked);
            prop_assert_eq!(got.writes_recorded, want.writes_recorded);
            prop_assert_eq!(got.violations, want.violations);
            prop_assert_eq!(got.first_violation, want.first_violation);
            let mut encoded = Vec::new();
            paged.encode_shadow(&mut encoded);
            prop_assert_eq!(encoded, reference.encode());
        }
    }
}
