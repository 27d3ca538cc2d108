//! Architectural configuration (Table 1 of the paper).
//!
//! [`SystemConfig`] aggregates every parameter of the evaluated machine:
//! core count, cache geometry, directory protocol, locality-classifier
//! settings, mesh timing and DRAM characteristics. The
//! [`SystemConfig::isca13_64core`] constructor reproduces Table 1 exactly;
//! experiments derive variants through the `with_*` chainers.

use crate::error::ConfigError;
use crate::time::Cycle;

/// Geometry and access latency of one cache (Table 1 rows "L1-I Cache",
/// "L1-D Cache", "L2 Cache").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Data-array access latency in cycles.
    pub latency: Cycle,
}

impl CacheConfig {
    /// Creates a cache configuration.
    #[must_use]
    pub fn new(size_bytes: usize, associativity: usize, latency: Cycle) -> Self {
        CacheConfig { size_bytes, associativity, latency }
    }

    /// Number of sets given a line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    #[must_use]
    pub fn num_sets(&self, line_bytes: usize) -> usize {
        let lines = self.size_bytes / line_bytes;
        assert_eq!(lines * line_bytes, self.size_bytes, "size not line-divisible");
        let sets = lines / self.associativity;
        assert_eq!(sets * self.associativity, lines, "lines not assoc-divisible");
        sets
    }

    /// Number of cache lines held.
    #[must_use]
    pub fn num_lines(&self, line_bytes: usize) -> usize {
        self.size_bytes / line_bytes
    }
}

/// Sharer-tracking organization of the coherence directory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DirectoryKind {
    /// One presence bit per core: exact sharer sets, no broadcasts. Runs
    /// as ACKwise_n on an n-core machine: n pointers never overflow.
    FullMap,
    /// ACKwise_p limited directory (Kurian et al., PACT 2010): up to
    /// `pointers` sharers are tracked exactly; beyond that only the sharer
    /// *count* is kept and exclusive requests broadcast invalidations, with
    /// acknowledgements expected only from actual sharers.
    AckWise {
        /// Number of hardware sharer pointers (`p`); Table 1 uses 4.
        pointers: usize,
    },
}

impl DirectoryKind {
    /// The paper's default: ACKwise with 4 pointers.
    #[must_use]
    pub fn ackwise4() -> Self {
        DirectoryKind::AckWise { pointers: 4 }
    }
}

/// How much locality state the directory keeps per cache line (§3.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TrackingKind {
    /// The *Complete* classifier: locality information for every core.
    /// Runs as Limited_n on an n-core machine (the caption of Figure 13:
    /// Limited_64 is identical to Complete), plus the §5.3 learning
    /// shortcut when [`ClassifierConfig::shortcut`] is set.
    Complete,
    /// The *Limited_k* classifier: locality information for at most `k`
    /// cores; untracked cores are classified by a majority vote of the
    /// tracked modes (§3.4).
    Limited {
        /// Number of tracked cores (`k`); Table 1 uses 3.
        k: usize,
    },
}

/// Upper bound on `nRATlevels` (the paper evaluates up to 8, Figure 12).
pub const MAX_RAT_LEVELS: usize = 8;

/// Largest PCT or RATmax a remote utilization counter (8 bits) can reach.
const MAX_UTIL: u32 = u8::MAX as u32;

/// Mechanism used to decide remote→private promotions (§3.2 vs §3.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MechanismKind {
    /// The idealized Timestamp check of §3.2: promote after `PCT` remote
    /// accesses, counting an access only if the line's last-access time at
    /// the L2 exceeds the minimum last-access time in the requester's L1
    /// set. Requires a 64-bit timestamp per L1 line and per directory entry.
    Timestamp,
    /// The cost-efficient approximation of §3.3: a per-core Remote Access
    /// Threshold (RAT) stepped between `PCT` and `rat_max` across
    /// `levels` levels, raised on eviction-demotions and reset when the core
    /// classifies as private.
    RatLevels {
        /// `nRATlevels`; Table 1 uses 2.
        levels: usize,
        /// `RATmax`; Table 1 uses 16.
        rat_max: u32,
    },
}

impl MechanismKind {
    /// The paper's default RAT mechanism (2 levels, RATmax = 16).
    #[must_use]
    pub fn rat_default() -> Self {
        MechanismKind::RatLevels { levels: 2, rat_max: 16 }
    }

    /// The threshold ladder for a RAT mechanism given `pct`, lowest rung
    /// first. The classifier collects it once per machine.
    ///
    /// §3.3: "RAT is additively increased in equal steps from PCT to RATmax,
    /// the number of steps being equal to (nRATlevels − 1)". With a single
    /// level (and for the Timestamp mechanism) the RAT stays pinned at
    /// `pct`.
    pub fn rat_ladder(&self, pct: u32) -> impl Iterator<Item = u32> {
        let (levels, rat_max) = match *self {
            MechanismKind::Timestamp => (1, pct),
            MechanismKind::RatLevels { levels, rat_max } => (levels.max(1), rat_max),
        };
        let span = rat_max.saturating_sub(pct) as f64;
        (0..levels).map(move |i| {
            if i == 0 {
                return pct;
            }
            let frac = i as f64 / (levels - 1) as f64;
            (pct as f64 + span * frac).round() as u32
        })
    }
}

/// Full configuration of the locality-aware adaptive protocol (§3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClassifierConfig {
    /// Private Caching Threshold: utilization at or above which a core is a
    /// private sharer (Table 1 default: 4). A `pct` of 1 disables remote
    /// accesses entirely and reduces the system to the baseline directory
    /// protocol that the paper normalizes against.
    pub pct: u32,
    /// How many cores the directory tracks locality for.
    pub tracking: TrackingKind,
    /// Timestamp-ideal or RAT-approximate promotion mechanism.
    pub mechanism: MechanismKind,
    /// §3.7's simpler Adapt1-way protocol: once demoted to remote, a core
    /// can never be promoted back.
    pub one_way: bool,
    /// The learning shortcut §5.3 suggests for the Complete classifier:
    /// a core's *first* classification is inferred by majority vote over
    /// the cores that have already demonstrated a mode, instead of
    /// defaulting to Private. (Limited_k has this behaviour built into its
    /// replacement policy; this flag retrofits it to Complete tracking.
    /// No effect on Limited_k.)
    pub shortcut: bool,
}

impl ClassifierConfig {
    /// Table 1 defaults: PCT 4, Limited_3 tracking, RAT(2 levels, max 16),
    /// two-way transitions.
    #[must_use]
    pub fn isca13_default() -> Self {
        ClassifierConfig {
            pct: 4,
            tracking: TrackingKind::Limited { k: 3 },
            mechanism: MechanismKind::rat_default(),
            one_way: false,
            shortcut: false,
        }
    }

    /// The baseline (locality-unaware) configuration: PCT 1 makes every
    /// sharer private on its first access.
    #[must_use]
    pub fn baseline() -> Self {
        ClassifierConfig { pct: 1, ..Self::isca13_default() }
    }
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        Self::isca13_default()
    }
}

/// Complete architectural configuration (Table 1).
///
/// Fields are public: this is a passive parameter record in the C-struct
/// spirit, validated as a whole by [`SystemConfig::validate`].
#[derive(Clone, PartialEq, Debug)]
pub struct SystemConfig {
    /// Number of cores / tiles (Table 1: 64 @ 1 GHz).
    pub num_cores: usize,
    /// Private L1 instruction cache (16 KB, 4-way, 1 cycle).
    pub l1i: CacheConfig,
    /// Private L1 data cache (32 KB, 4-way, 1 cycle).
    pub l1d: CacheConfig,
    /// Per-tile slice of the shared L2 (256 KB, 8-way, 7 cycles, inclusive).
    pub l2: CacheConfig,
    /// Cache line size in bytes. Must equal
    /// [`LINE_BYTES`](crate::addr::LINE_BYTES) (64): addresses, line
    /// payloads and message sizes are built for that line, so
    /// [`SystemConfig::validate`] rejects any other value.
    pub line_bytes: usize,
    /// Directory sharer tracking (ACKwise_4 by default).
    pub directory: DirectoryKind,
    /// Locality-aware protocol parameters.
    pub classifier: ClassifierConfig,
    /// Number of on-chip memory controllers (8).
    pub num_mem_ctrls: usize,
    /// DRAM access latency in cycles (100 ns @ 1 GHz).
    pub dram_latency: Cycle,
    /// DRAM bandwidth per controller in bytes per cycle (5 GBps @ 1 GHz).
    pub dram_bytes_per_cycle: f64,
    /// Router traversal latency per hop in cycles (Table 1: 1).
    pub hop_router_cycles: Cycle,
    /// Link traversal latency per hop in cycles (Table 1: 1).
    pub hop_link_cycles: Cycle,
    /// R-NUCA instruction-replication cluster size (4 cores).
    pub rnuca_cluster: usize,
}

impl SystemConfig {
    /// The exact Table 1 machine: 64 in-order cores at 1 GHz, 16 KB/32 KB
    /// L1-I/L1-D, 256 KB L2 slices, ACKwise_4, PCT 4, Limited_3 classifier
    /// with RATmax 16 and 2 RAT levels, 8 memory controllers at 5 GBps and
    /// 100 ns, an electrical 2-D mesh with 2-cycle hops and 64-bit flits.
    #[must_use]
    pub fn isca13_64core() -> Self {
        SystemConfig {
            num_cores: 64,
            l1i: CacheConfig::new(16 * 1024, 4, 1),
            l1d: CacheConfig::new(32 * 1024, 4, 1),
            l2: CacheConfig::new(256 * 1024, 8, 7),
            line_bytes: 64,
            directory: DirectoryKind::ackwise4(),
            classifier: ClassifierConfig::isca13_default(),
            num_mem_ctrls: 8,
            dram_latency: 100,
            dram_bytes_per_cycle: 5.0,
            hop_router_cycles: 1,
            hop_link_cycles: 1,
            rnuca_cluster: 4,
        }
    }

    /// A scaled-down machine for unit tests and doc examples: `n` cores with
    /// small caches so that evictions and contention appear quickly.
    #[must_use]
    pub fn small_for_tests(n: usize) -> Self {
        let mut cfg = SystemConfig {
            num_cores: n,
            l1i: CacheConfig::new(1024, 2, 1),
            l1d: CacheConfig::new(1024, 2, 1),
            l2: CacheConfig::new(8 * 1024, 4, 7),
            num_mem_ctrls: n.min(2),
            ..Self::isca13_64core()
        };
        cfg.classifier.tracking = TrackingKind::Limited { k: 3.min(n) };
        cfg.rnuca_cluster = if n % 4 == 0 { 4 } else { 1 };
        cfg
    }

    /// Replaces the Private Caching Threshold, raising `RATmax` to keep
    /// the §3.3 ladder well-formed when `pct` exceeds it (the Figure 11
    /// sweep reaches PCT 20 against the default RATmax of 16).
    #[must_use]
    pub fn with_pct(mut self, pct: u32) -> Self {
        self.classifier.pct = pct;
        if let MechanismKind::RatLevels { levels, rat_max } = self.classifier.mechanism {
            if rat_max < pct {
                self.classifier.mechanism = MechanismKind::RatLevels { levels, rat_max: pct };
            }
        }
        self
    }

    /// Replaces the classifier configuration.
    #[must_use]
    pub fn with_classifier(mut self, classifier: ClassifierConfig) -> Self {
        self.classifier = classifier;
        self
    }

    /// Replaces the directory organization.
    #[must_use]
    pub fn with_directory(mut self, directory: DirectoryKind) -> Self {
        self.directory = directory;
        self
    }

    /// Checks internal consistency of the whole parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint
    /// (zero cores, a line size other than 64 bytes, non-power-of-two
    /// geometry, a PCT of zero, a PCT or RATmax above 255 (the width of a
    /// remote utilization counter), RAT settings inconsistent with the PCT,
    /// more than [`MAX_RAT_LEVELS`] RAT levels, an oversubscribed Limited_k
    /// classifier, or more memory controllers than tiles).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_cores == 0 {
            return Err(ConfigError::new("num_cores must be at least 1"));
        }
        if self.num_cores > crate::coreset::MAX_CORES {
            return Err(ConfigError::new(format!(
                "num_cores must be at most {} (the paper's largest machine; fixed-width \
                 CoreSet bound)",
                crate::coreset::MAX_CORES
            )));
        }
        if self.num_mem_ctrls == 0 || self.num_mem_ctrls > self.num_cores {
            return Err(ConfigError::new("num_mem_ctrls must be in 1..=num_cores"));
        }
        if self.line_bytes as u64 != crate::addr::LINE_BYTES {
            return Err(ConfigError::new(format!(
                "line_bytes must be {} (the simulated line size)",
                crate::addr::LINE_BYTES
            )));
        }
        for (name, c) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            if c.size_bytes == 0 || c.associativity == 0 {
                return Err(ConfigError::new(format!("{name}: zero size or associativity")));
            }
            let lines = c.size_bytes / self.line_bytes;
            if lines * self.line_bytes != c.size_bytes || lines % c.associativity != 0 {
                return Err(ConfigError::new(format!("{name}: geometry not divisible")));
            }
            if !(lines / c.associativity).is_power_of_two() {
                return Err(ConfigError::new(format!("{name}: set count must be a power of two")));
            }
        }
        if self.classifier.pct == 0 {
            return Err(ConfigError::new("pct must be at least 1"));
        }
        if self.classifier.pct > MAX_UTIL {
            return Err(ConfigError::new(format!("pct must be at most {MAX_UTIL}")));
        }
        if let MechanismKind::RatLevels { levels, rat_max } = self.classifier.mechanism {
            if levels == 0 || levels > MAX_RAT_LEVELS {
                return Err(ConfigError::new(format!(
                    "nRATlevels must be in 1..={MAX_RAT_LEVELS}"
                )));
            }
            if rat_max < self.classifier.pct {
                return Err(ConfigError::new("RATmax must be >= PCT"));
            }
            if rat_max > MAX_UTIL {
                return Err(ConfigError::new(format!("RATmax must be at most {MAX_UTIL}")));
            }
        }
        if let TrackingKind::Limited { k } = self.classifier.tracking {
            if k == 0 || k > self.num_cores {
                return Err(ConfigError::new("Limited_k needs 1 <= k <= num_cores"));
            }
        }
        if let DirectoryKind::AckWise { pointers } = self.directory {
            if pointers == 0 {
                return Err(ConfigError::new("ACKwise needs at least one pointer"));
            }
        }
        if self.dram_bytes_per_cycle <= 0.0 {
            return Err(ConfigError::new("dram_bytes_per_cycle must be positive"));
        }
        if self.rnuca_cluster == 0 || self.num_cores % self.rnuca_cluster != 0 {
            return Err(ConfigError::new("rnuca_cluster must divide num_cores"));
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::isca13_64core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults_validate() {
        let cfg = SystemConfig::isca13_64core();
        cfg.validate().unwrap();
        assert_eq!(cfg.l1d.num_sets(cfg.line_bytes), 128);
        assert_eq!(cfg.l1i.num_sets(cfg.line_bytes), 64);
        assert_eq!(cfg.l2.num_sets(cfg.line_bytes), 512);
    }

    #[test]
    fn small_config_validates() {
        for n in [1, 2, 4, 16] {
            SystemConfig::small_for_tests(n).validate().unwrap();
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = SystemConfig::isca13_64core();
        let mut c = base.clone();
        c.num_cores = 0;
        assert!(c.validate().is_err());

        let c = base.clone().with_pct(0);
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.classifier.mechanism = MechanismKind::RatLevels { levels: 2, rat_max: 2 };
        assert!(c.validate().is_err(), "RATmax below PCT must fail");

        let mut c = base.clone();
        c.classifier.tracking = TrackingKind::Limited { k: 0 };
        assert!(c.validate().is_err());

        // Settings a directory entry cannot hold: a ninth RAT level, and a
        // threshold the 8-bit remote utilization counter never reaches.
        let mut c = base.clone();
        c.classifier.mechanism =
            MechanismKind::RatLevels { levels: MAX_RAT_LEVELS + 1, rat_max: 16 };
        let e = c.validate().unwrap_err();
        assert!(e.to_string().contains("nRATlevels"), "{e}");
        let mut c = base.clone();
        c.classifier.mechanism = MechanismKind::RatLevels { levels: MAX_RAT_LEVELS, rat_max: 16 };
        c.validate().unwrap();
        for pct in [256, 300] {
            let e = base.clone().with_pct(pct).validate().unwrap_err();
            assert!(e.to_string().contains("pct must be at most 255"), "{pct}: {e}");
        }
        base.clone().with_pct(255).validate().unwrap();
        let mut c = base.clone();
        c.classifier.mechanism = MechanismKind::RatLevels { levels: 2, rat_max: 256 };
        let e = c.validate().unwrap_err();
        assert!(e.to_string().contains("RATmax must be at most 255"), "{e}");

        let mut c = base.clone();
        c.num_mem_ctrls = 100;
        assert!(c.validate().is_err());

        // Lines are 64 bytes throughout the engine, whatever the config says.
        for line_bytes in [32, 128] {
            let mut c = base.clone();
            c.line_bytes = line_bytes;
            let e = c.validate().unwrap_err();
            assert!(e.to_string().contains("line_bytes must be 64"), "{line_bytes}: {e}");
        }

        let mut c = base;
        c.l1d = CacheConfig::new(1000, 3, 1);
        assert!(c.validate().is_err());
    }

    #[test]
    fn rat_ladder_matches_section_3_3() {
        let ladder = |m: MechanismKind, pct| m.rat_ladder(pct).collect::<Vec<_>>();
        // Table 1 defaults: 2 levels from PCT=4 to RATmax=16.
        assert_eq!(ladder(MechanismKind::rat_default(), 4), vec![4, 16]);
        // Four levels: equal additive steps.
        let m = MechanismKind::RatLevels { levels: 4, rat_max: 16 };
        assert_eq!(ladder(m, 4), vec![4, 8, 12, 16]);
        // A single level pins RAT at PCT.
        let m = MechanismKind::RatLevels { levels: 1, rat_max: 16 };
        assert_eq!(ladder(m, 4), vec![4]);
        // Timestamp mechanism has no ladder beyond PCT.
        assert_eq!(ladder(MechanismKind::Timestamp, 4), vec![4]);
    }

    #[test]
    fn pct1_is_the_baseline() {
        let b = ClassifierConfig::baseline();
        assert_eq!(b.pct, 1);
        assert!(!b.one_way);
    }
}
