//! Simulated time.
//!
//! Cores run at 1 GHz (Table 1), so one cycle equals one nanosecond: the
//! paper's nanosecond latencies are cycle counts as written (DRAM's 100 ns
//! is 100 cycles), and its 5 GBps per memory controller is 5 bytes per
//! cycle. A plain `u64` alias is used rather than a newtype because cycles
//! participate in arithmetic on every simulated event and the
//! protocol/simulator code stays markedly more readable with native integer
//! syntax.

/// A point in simulated time, or a duration, in core clock cycles @ 1 GHz.
pub type Cycle = u64;
