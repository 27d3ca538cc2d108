//! Protocol messages exchanged over the mesh.
//!
//! Flit sizing follows Table 1 and §3.6: 64-bit flits, a 1-flit header
//! (source, destination, address, type — with room for the line offset, a
//! 1-bit access-width indicator and the 2-bit utilization counter), 1 extra
//! flit per 64-bit data word, 8 extra flits for a full cache line.
//!
//! The in-memory representation mirrors that flit-level shape: no variant
//! embeds line content. Data-bearing messages carry a compact
//! [`DataRef`] handle into the simulator's [`DataSlab`]
//! (`Simulator::slab`), and messages that are header-only on the wire —
//! including *clean* [`Payload::InvAck`]/[`Payload::EvictNotify`] — carry
//! no payload at all (`data: None`). [`Payload::flits`] derives from the
//! same structure, so a message can never claim one size on the wire and
//! occupy another in memory. The handle-lifetime rule is
//! retain-on-send, consume-on-delivery: the sender puts one live handle
//! into the payload (usually a [`DataSlab::retain`] alias of its resident
//! line, or an outright transfer of a handle it owned), and the delivery
//! handler consumes it exactly once — by installing it as a resident
//! line, adopting it as the new L2/backing data, or releasing it. The
//! end-of-run refcount audit in `Simulator::run` catches any violation;
//! DESIGN.md §6.2 tabulates who retains and who consumes per message
//! type.
//!
//! A miss is one request to the line's home (`ReadReq` for a load or an
//! instruction fetch, `WriteReq` for a store) and one reply,
//! [`Payload::Reply`]: its [`Reply`] says what the home served (a line, an
//! upgrade, or a remote word read or write), and its annotation carries the
//! home's latency attribution.

use lacc_cache::DataRef;
use lacc_core::classifier::RequestHints;
use lacc_core::mesi::MesiState;
use lacc_model::addr::LINE_BYTES;
use lacc_model::{CoreId, LatencyAnnotation, LineAddr};

#[cfg(doc)]
use lacc_cache::DataSlab;

/// Flit width in bits (Table 1).
pub const FLIT_BITS: usize = 64;
/// Flits of a message carrying one 64-bit word: header + word.
pub const WORD_MSG_FLITS: usize = 1 + 64 / FLIT_BITS;
/// Flits of a message carrying a whole line: header + the line's words.
pub const LINE_MSG_FLITS: usize = 1 + LINE_BYTES as usize * 8 / FLIT_BITS;

/// Message payloads. `ann` fields carry the home's latency attribution
/// back to the requester (§4.4 breakdown).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Payload {
    /// L1 read miss → home. Header-only (offset + hints ride the header).
    ReadReq {
        /// Set-pressure hints (§3.2–3.3).
        hints: RequestHints,
        /// Which word missed (for a possible word reply).
        word: usize,
        /// Instruction fetch (always-private class).
        instr: bool,
    },
    /// L1 write miss / upgrade → home. Carries the word to be written
    /// because the requester cannot know whether it is a remote sharer.
    WriteReq {
        /// Set-pressure hints.
        hints: RequestHints,
        /// Word index within the line.
        word: usize,
        /// The 64-bit value to write.
        value: u64,
    },
    /// Home → requester: the one reply that ends a miss.
    Reply {
        /// Latency attribution.
        ann: LatencyAnnotation,
        /// What the home served.
        reply: Reply,
    },
    /// Home → sharer: invalidate your copy. `back` marks inclusive-L2
    /// back-invalidations (classified as capacity, not sharing).
    Inv {
        /// `true` for back-invalidations.
        back: bool,
    },
    /// Sharer → home: invalidation ack with the final private utilization
    /// (§3.2); dirty acks carry the line, clean acks carry nothing.
    InvAck {
        /// Final private utilization of the invalidated copy.
        util: u32,
        /// Line content when the copy was Modified; `None` for a clean
        /// copy (the ack is then a single header flit).
        data: Option<DataRef>,
        /// Response to a back-invalidation.
        back: bool,
    },
    /// Home → exclusive owner: supply your copy and downgrade to S.
    WbReq,
    /// Owner → home: synchronous write-back response. On the wire this
    /// always carries the line (9 flits); in memory a payload is only
    /// materialized when the copy was actually Modified — a clean copy
    /// matches the home's resident data, so `None`.
    WbData {
        /// Line content when the copy was dirty.
        data: Option<DataRef>,
    },
    /// Owner → home: copy already gone (the eviction notify, ordered
    /// ahead of this message, carries the data).
    WbNack,
    /// L1 → home: a line was evicted; carries the utilization counter and,
    /// if dirty, the data (§3.2 "Evictions and Invalidations").
    EvictNotify {
        /// Final private utilization.
        util: u32,
        /// Line content when the copy was Modified; `None` for a clean
        /// copy (the notify is then a single header flit).
        data: Option<DataRef>,
    },
    /// Home → memory-controller tile: fetch a line from DRAM.
    DramFetch,
    /// Memory-controller tile → home: the fetched line.
    DramData {
        /// Line content from DRAM.
        data: DataRef,
    },
    /// Home → memory-controller tile: write back a dirty line.
    DramWriteBack {
        /// Line content to store.
        data: DataRef,
    },
}

/// What a home's reply to a miss carries: the grant's line or
/// permission, or the remote word access it served.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Reply {
    /// A whole-line grant.
    Line {
        /// MESI state granted (S, E or M).
        mesi: MesiState,
        /// Line content (slab handle; consumed by the requester's L1).
        data: DataRef,
    },
    /// Write permission for a line already held in S.
    Upgrade,
    /// A remote word read.
    WordRead {
        /// The word value.
        value: u64,
    },
    /// A remote word write's acknowledgement.
    WordWrite,
}

impl Payload {
    /// Message size in flits (Table 1 / §3.6), derived from the payload
    /// shape: header-only variants (and acks/notifies with `data: None`)
    /// are 1 flit, word carriers are [`WORD_MSG_FLITS`] (2), line carriers
    /// are [`LINE_MSG_FLITS`] (9).
    #[must_use]
    pub fn flits(&self) -> usize {
        match self {
            // Header-only messages.
            Payload::ReadReq { .. }
            | Payload::Reply { reply: Reply::Upgrade | Reply::WordWrite, .. }
            | Payload::Inv { .. }
            | Payload::WbReq
            | Payload::WbNack
            | Payload::DramFetch => 1,
            // Header + one word.
            Payload::WriteReq { .. } | Payload::Reply { reply: Reply::WordRead { .. }, .. } => {
                WORD_MSG_FLITS
            }
            // Header + full line.
            Payload::Reply { reply: Reply::Line { .. }, .. }
            | Payload::WbData { .. }
            | Payload::DramData { .. }
            | Payload::DramWriteBack { .. } => LINE_MSG_FLITS,
            // Header only when clean (no payload at all); header + line
            // when the copy was dirty.
            Payload::InvAck { data, .. } | Payload::EvictNotify { data, .. } => {
                if data.is_some() {
                    LINE_MSG_FLITS
                } else {
                    1
                }
            }
        }
    }
}

/// A message in flight (or queued at its destination).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Message {
    /// Sending tile.
    pub src: CoreId,
    /// Destination tile.
    pub dst: CoreId,
    /// The cache line concerned.
    pub line: LineAddr,
    /// Payload.
    pub payload: Payload,
}

// Data-plane size pins. Every `Event::Deliver` moves a `Message` through
// the calendar queue, so these bounds are hot-path regressions, not
// style: pre-refactor (inline `LineData` payloads) the sizes were
// Payload = 96 and Message = 120 bytes; handle-carrying payloads bound
// them at 40 and 64, and a message keeps no send cycle, which nothing
// reads, so it is 56. Growing past the bound breaks the build here.
const _: () = {
    assert!(std::mem::size_of::<Payload>() <= 40);
    assert!(std::mem::size_of::<Message>() <= 56);
    // The whole point of `Option<DataRef>`: absence is free.
    assert!(std::mem::size_of::<Option<DataRef>>() == 8);
};

#[cfg(test)]
mod tests {
    use super::*;
    use lacc_cache::{DataSlab, LineData};

    #[test]
    fn flit_sizes_match_table1() {
        let mut slab = DataSlab::new();
        let mut r = || slab.alloc(LineData::zeroed());
        let h = RequestHints::default();
        assert_eq!(Payload::ReadReq { hints: h, word: 0, instr: false }.flits(), 1);
        assert_eq!(Payload::WriteReq { hints: h, word: 0, value: 0 }.flits(), 2);
        let reply = |reply| Payload::Reply { ann: LatencyAnnotation::default(), reply }.flits();
        assert_eq!(
            reply(Reply::Line { mesi: MesiState::Shared, data: r() }),
            9,
            "header + 8 data flits for a 64-byte line"
        );
        assert_eq!(reply(Reply::Upgrade), 1);
        assert_eq!(reply(Reply::WordRead { value: 0 }), 2);
        assert_eq!(reply(Reply::WordWrite), 1);
        assert_eq!(Payload::Inv { back: false }.flits(), 1);
        assert_eq!(Payload::InvAck { util: 3, data: Some(r()), back: false }.flits(), 9);
        assert_eq!(Payload::WbData { data: Some(r()) }.flits(), 9);
        assert_eq!(Payload::WbData { data: None }.flits(), 9, "clean WbData still ships the line");
        assert_eq!(Payload::DramFetch.flits(), 1);
        assert_eq!(Payload::DramData { data: r() }.flits(), 9);
    }

    /// §3.6: the utilization counter rides the header — a clean ack or
    /// notify is a single flit and, structurally, carries no data handle.
    #[test]
    fn clean_acks_are_header_only_and_carry_no_data() {
        let clean_ack = Payload::InvAck { util: 3, data: None, back: false };
        let clean_notify = Payload::EvictNotify { util: 1, data: None };
        assert_eq!(clean_ack.flits(), 1);
        assert_eq!(clean_notify.flits(), 1);
        for p in [clean_ack, clean_notify] {
            match p {
                Payload::InvAck { data, .. } | Payload::EvictNotify { data, .. } => {
                    assert!(data.is_none(), "clean messages must not hold a slab slot");
                }
                _ => unreachable!(),
            }
        }
        // And the dirty forms are full-line messages.
        let mut slab = DataSlab::new();
        let d = slab.alloc(LineData::zeroed());
        assert_eq!(Payload::InvAck { util: 3, data: Some(d), back: false }.flits(), 9);
        assert_eq!(Payload::EvictNotify { util: 1, data: Some(d) }.flits(), 9);
    }
}
