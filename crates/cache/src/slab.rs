//! Slab storage for cache-line payloads, with shared ownership.
//!
//! A [`DataSlab`] decouples *where line data lives* from *who is talking
//! about it*: producers allocate a slot, pass the compact 8-byte
//! [`DataRef`] handle around (through message payloads, resident cache
//! arrays, backing-store maps, shadow memories), and consumers release
//! their handle when done. Slots are **refcounted**: [`DataSlab::retain`]
//! mints another handle to the same slot, [`DataSlab::release`] drops one,
//! and the slot is recycled only when the last handle goes. That lets a
//! grant *alias* the home's resident line instead of copying 64 bytes, a
//! DRAM fill transfer its in-flight handle straight into the resident
//! array, and a clean eviction cost one counter decrement — the in-memory
//! mirror of the paper's flit-level distinction between header-only and
//! header+line messages (§3.6, Table 1), extended to the resident arrays.
//!
//! Writes go through copy-on-write: [`DataSlab::make_mut`] returns the
//! same handle when it is the sole owner and clones the line into a fresh
//! slot when it is shared, so an aliased reader can never observe another
//! owner's store. [`DataSlab::get_mut`] remains for slots that are never
//! shared (it panics on an aliased slot).
//!
//! Handles are *generational*: each slot carries a generation counter
//! that advances when the slot fills and when it empties, and a
//! [`DataRef`] is only valid while its generation matches. Use-after-free
//! and release-after-free therefore panic deterministically instead of
//! silently reading recycled data — handle-lifetime bugs fail loudly.
//! Aliased handles to the same live slot compare equal (retain does not
//! advance the generation).
//!
//! The API is deliberately iteration-free: there is no way to walk the
//! slab, so nothing can depend on slot order and determinism never
//! hinges on hash or allocation order. The free list is LIFO, making
//! allocation itself deterministic for a deterministic alloc/release
//! sequence (the simulator's event loop provides one).
//!
//! Every operation is metered in [`SlabStats`] — allocations, aliases,
//! CoW clones, and the bytes copied vs aliased — so "this path avoids a
//! copy" is a measured claim, not an asserted one.
//!
//! # Examples
//!
//! ```
//! use lacc_cache::{DataSlab, LineData};
//!
//! let mut slab = DataSlab::new();
//! let mut d = LineData::zeroed();
//! d.set_word(0, 42);
//! let r = slab.alloc(d);
//!
//! // Alias the line: one slot, two handles, zero bytes copied.
//! let alias = slab.retain(r);
//! assert_eq!(alias, r);
//! assert_eq!((slab.live(), slab.total_refs()), (1, 2));
//!
//! // Copy-on-write: the shared slot splits on the first write...
//! let own = slab.make_mut(alias);
//! assert_ne!(own, r);
//! slab.get_mut(own).set_word(0, 7);
//! assert_eq!(slab.get(r).word(0), 42, "the other owner is unaffected");
//!
//! // ...and a sole owner writes in place.
//! assert_eq!(slab.make_mut(own), own);
//!
//! slab.release(own);
//! slab.release(r);
//! assert_eq!((slab.live(), slab.total_refs()), (0, 0));
//! assert_eq!(slab.stats().cow_clones, 1);
//! ```

use std::num::NonZeroU32;

use crate::data::LineData;

/// Size of one stored line in bytes (the unit of [`SlabStats`] byte
/// accounting).
const LINE_BYTES: u64 = std::mem::size_of::<LineData>() as u64;

/// Compact handle to a [`LineData`] stored in a [`DataSlab`].
///
/// 8 bytes, `Copy`, and niche-optimized so `Option<DataRef>` is the same
/// size — a payload-bearing message costs one word where it used to cost
/// a whole cache line. A handle is valid from [`DataSlab::alloc`] (or
/// [`DataSlab::retain`]) until the matching [`DataSlab::release`]; using
/// it after the slot's last release panics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DataRef {
    index: u32,
    /// Slot generation at allocation time. Odd while the slot is live
    /// (and therefore never zero, providing the niche).
    generation: NonZeroU32,
}

impl DataRef {
    fn slot(self) -> usize {
        self.index as usize
    }
}

/// Hot-path copy accounting for a [`DataSlab`].
///
/// The counters are monotone over the slab's lifetime and obey
/// `live() == allocs + cow_clones - frees` and
/// `total_refs() == allocs + cow_clones + retains - releases` at every
/// step. `bytes_copied` meters real 64-byte line copies into the slab
/// (fills and CoW clones); `bytes_aliased` meters the copies *avoided* by
/// handing out an alias instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SlabStats {
    /// Slots filled with fresh line content ([`DataSlab::alloc`]).
    pub allocs: u64,
    /// Extra handles minted to live slots ([`DataSlab::retain`]).
    pub retains: u64,
    /// Handles dropped ([`DataSlab::release`], plus the shared handle
    /// [`DataSlab::make_mut`] trades in for its private clone).
    pub releases: u64,
    /// Slots recycled because their last handle was released.
    pub frees: u64,
    /// Shared slots split by [`DataSlab::make_mut`] (copy-on-write).
    pub cow_clones: u64,
    /// Bytes physically copied into slab slots (allocs + CoW clones).
    pub bytes_copied: u64,
    /// Bytes *not* copied because a retain aliased an existing slot.
    pub bytes_aliased: u64,
}

#[derive(Clone, Copy, Debug)]
struct SlotMeta {
    /// Odd = occupied, even = vacant. Advances by one when the slot
    /// fills and by one when it empties, so any handle from a previous
    /// occupancy mismatches.
    generation: u32,
    /// Live handles to this slot; 0 iff vacant.
    refs: u32,
}

/// Refcounted generational slab of [`LineData`] with free-list slot
/// reuse.
///
/// Storage is split struct-of-arrays style: the 8-byte bookkeeping
/// records (`meta`) and the 64-byte payloads (`data`) live in parallel
/// arrays. Handle traffic — retain, release, generation checks — touches
/// only the dense `meta` array, and because [`LineData`] is 64-byte
/// aligned every payload occupies exactly one host cache line (a 72-byte
/// interleaved slot would straddle two for almost every index).
///
/// See the [module docs](self) for the handle-lifetime and copy-on-write
/// rules.
#[derive(Clone, Debug, Default)]
pub struct DataSlab {
    meta: Vec<SlotMeta>,
    data: Vec<LineData>,
    free: Vec<u32>,
    live: usize,
    stats: SlabStats,
}

impl DataSlab {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn fill_slot(&mut self, data: LineData) -> DataRef {
        let slot = match self.free.pop() {
            Some(i) => {
                let meta = &mut self.meta[i as usize];
                debug_assert_eq!(meta.generation % 2, 0, "free-listed slot must be vacant");
                debug_assert_eq!(meta.refs, 0, "free-listed slot must have no handles");
                meta.generation = meta.generation.wrapping_add(1);
                meta.refs = 1;
                self.data[i as usize] = data;
                i
            }
            None => {
                let i = u32::try_from(self.meta.len()).expect("slab exceeds u32::MAX slots");
                self.meta.push(SlotMeta { generation: 1, refs: 1 });
                self.data.push(data);
                i
            }
        };
        self.live += 1;
        self.stats.bytes_copied += LINE_BYTES;
        let generation = NonZeroU32::new(self.meta[slot as usize].generation)
            .expect("odd generation is never zero");
        DataRef { index: slot, generation }
    }

    fn meta(&self, r: DataRef, ctx: &str) -> SlotMeta {
        let meta = self.meta[r.slot()];
        assert_eq!(meta.generation, r.generation.get(), "{ctx}");
        meta
    }

    fn meta_mut(&mut self, r: DataRef, ctx: &str) -> &mut SlotMeta {
        let meta = &mut self.meta[r.slot()];
        assert_eq!(meta.generation, r.generation.get(), "{ctx}");
        meta
    }

    /// Stores `data` in a recycled (LIFO) or fresh slot and returns its
    /// handle (refcount 1).
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX` slots.
    pub fn alloc(&mut self, data: LineData) -> DataRef {
        self.stats.allocs += 1;
        self.fill_slot(data)
    }

    /// Mints another handle to the slot behind `r` (refcount + 1) without
    /// touching the line content. The returned handle compares equal to
    /// `r`; each copy must eventually be [`DataSlab::release`]d.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale (the slot's last handle was released).
    #[must_use = "retain mints a handle that must be released"]
    pub fn retain(&mut self, r: DataRef) -> DataRef {
        self.meta_mut(r, "retain of stale DataRef").refs += 1;
        self.stats.retains += 1;
        self.stats.bytes_aliased += LINE_BYTES;
        r
    }

    /// Reads the line behind a live handle.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale (the slot was fully released).
    #[must_use]
    pub fn get(&self, r: DataRef) -> &LineData {
        self.meta(r, "stale DataRef: slot was released");
        &self.data[r.slot()]
    }

    /// Mutable access to the line behind a live handle that is the **sole
    /// owner** of its slot. For possibly-shared handles, go through
    /// [`DataSlab::make_mut`] first.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale, or if the slot is aliased (refcount > 1):
    /// writing through a shared slot would leak the store to every other
    /// owner.
    #[must_use]
    pub fn get_mut(&mut self, r: DataRef) -> &mut LineData {
        let meta = self.meta(r, "stale DataRef: slot was released");
        assert_eq!(meta.refs, 1, "get_mut of aliased DataRef: use make_mut");
        &mut self.data[r.slot()]
    }

    /// Prepares the line behind `r` for writing, copy-on-write style:
    /// returns `r` unchanged when it is the sole owner, otherwise moves
    /// this handle to a fresh private copy of the line (the other owners
    /// keep the original slot) and returns the new handle. The input
    /// handle must not be used afterwards — only the returned one.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale.
    #[must_use = "make_mut may move the handle; use the returned DataRef"]
    pub fn make_mut(&mut self, r: DataRef) -> DataRef {
        let meta = self.meta_mut(r, "make_mut of stale DataRef");
        if meta.refs == 1 {
            return r;
        }
        meta.refs -= 1;
        let data = self.data[r.slot()];
        // The writer's handle on the shared slot is dropped (counted as a
        // release) and replaced by a fresh private copy (counted as a CoW
        // clone), keeping the handle ledger balanced.
        self.stats.releases += 1;
        self.stats.cow_clones += 1;
        self.fill_slot(data)
    }

    /// Drops one handle to the slot behind `r`; the slot returns to the
    /// free list when this was the last one. The released handle (and,
    /// after the last release, every copy of it) is dead afterwards.
    ///
    /// # Panics
    ///
    /// Panics on release of a stale handle (double release past zero).
    pub fn release(&mut self, r: DataRef) {
        let meta = self.meta_mut(r, "double release of DataRef");
        meta.refs -= 1;
        let last = meta.refs == 0;
        if last {
            meta.generation = meta.generation.wrapping_add(1);
        }
        self.stats.releases += 1;
        if last {
            self.live -= 1;
            self.stats.frees += 1;
            self.free.push(r.index);
        }
    }

    /// Current refcount of the slot behind a live handle.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale.
    #[must_use]
    pub fn refs(&self, r: DataRef) -> u32 {
        self.meta(r, "refs of stale DataRef").refs
    }

    /// Number of live (occupied) slots — distinct lines resident in the
    /// slab.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of live handles outstanding — the refcount-audit quantity:
    /// at a quiescent point it must equal the number of handles the
    /// owners collectively hold.
    #[must_use]
    pub fn total_refs(&self) -> usize {
        let s = &self.stats;
        usize::try_from(s.allocs + s.cow_clones + s.retains - s.releases)
            .expect("outstanding handles fit usize")
    }

    /// The copy-accounting counters.
    #[must_use]
    pub fn stats(&self) -> SlabStats {
        self.stats
    }

    /// Total slots ever created (live + free-listed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the slab has never allocated (no slots at all).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(tag: u64) -> LineData {
        let mut d = LineData::zeroed();
        d.set_word(0, tag);
        d
    }

    #[test]
    fn alloc_get_release_roundtrip() {
        let mut s = DataSlab::new();
        let a = s.alloc(line(1));
        let b = s.alloc(line(2));
        assert_eq!(s.get(a).word(0), 1);
        assert_eq!(s.get(b).word(0), 2);
        assert_eq!((s.live(), s.len()), (2, 2));
        s.release(a);
        assert_eq!((s.live(), s.len()), (1, 2));
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut s = DataSlab::new();
        let a = s.alloc(line(1));
        let b = s.alloc(line(2));
        s.release(a);
        s.release(b);
        // LIFO: b's slot comes back first.
        let c = s.alloc(line(3));
        assert_eq!(c.slot(), b.slot());
        let d = s.alloc(line(4));
        assert_eq!(d.slot(), a.slot());
        assert_eq!(s.len(), 2, "no new slots were created");
    }

    #[test]
    fn get_mut_writes_through() {
        let mut s = DataSlab::new();
        let r = s.alloc(line(0));
        s.get_mut(r).set_word(3, 99);
        assert_eq!(s.get(r).word(3), 99);
    }

    #[test]
    fn retain_aliases_without_copying() {
        let mut s = DataSlab::new();
        let r = s.alloc(line(5));
        let copied_before = s.stats().bytes_copied;
        let alias = s.retain(r);
        assert_eq!(alias, r, "aliases are the same handle value");
        assert_eq!(s.refs(r), 2);
        assert_eq!((s.live(), s.total_refs()), (1, 2));
        assert_eq!(s.stats().bytes_copied, copied_before, "no bytes moved");
        assert_eq!(s.stats().bytes_aliased, 64);
        // The slot survives the first release...
        s.release(alias);
        assert_eq!(s.get(r).word(0), 5);
        assert_eq!((s.live(), s.total_refs()), (1, 1));
        // ...and dies on the last.
        s.release(r);
        assert_eq!((s.live(), s.total_refs()), (0, 0));
    }

    #[test]
    fn make_mut_is_identity_for_sole_owner() {
        let mut s = DataSlab::new();
        let r = s.alloc(line(1));
        assert_eq!(s.make_mut(r), r);
        assert_eq!(s.stats().cow_clones, 0);
        s.release(r);
    }

    #[test]
    fn make_mut_splits_shared_slots() {
        let mut s = DataSlab::new();
        let r = s.alloc(line(1));
        let alias = s.retain(r);
        let own = s.make_mut(alias);
        assert_ne!(own, r, "CoW must move the writer to a fresh slot");
        assert_eq!((s.refs(r), s.refs(own)), (1, 1));
        s.get_mut(own).set_word(0, 2);
        assert_eq!(s.get(r).word(0), 1, "reader unaffected by the write");
        assert_eq!(s.get(own).word(0), 2);
        assert_eq!(s.stats().cow_clones, 1);
        assert_eq!(s.stats().bytes_copied, 128, "one alloc + one clone");
        s.release(r);
        s.release(own);
        assert_eq!(s.total_refs(), 0);
    }

    #[test]
    #[should_panic(expected = "get_mut of aliased DataRef")]
    fn get_mut_of_shared_slot_panics() {
        let mut s = DataSlab::new();
        let r = s.alloc(line(1));
        let _alias = s.retain(r);
        let _ = s.get_mut(r);
    }

    #[test]
    #[should_panic(expected = "stale DataRef")]
    fn stale_read_panics() {
        let mut s = DataSlab::new();
        let r = s.alloc(line(1));
        s.release(r);
        let _ = s.get(r);
    }

    #[test]
    #[should_panic(expected = "stale DataRef")]
    fn stale_read_after_recycle_panics() {
        let mut s = DataSlab::new();
        let r = s.alloc(line(1));
        s.release(r);
        let _r2 = s.alloc(line(2)); // same slot, new generation
        let _ = s.get(r);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut s = DataSlab::new();
        let r = s.alloc(line(1));
        s.release(r);
        s.release(r);
    }

    #[test]
    #[should_panic(expected = "retain of stale DataRef")]
    fn retain_after_free_panics() {
        let mut s = DataSlab::new();
        let r = s.alloc(line(1));
        s.release(r);
        let _ = s.retain(r);
    }

    #[test]
    fn stats_track_the_ledger_identities() {
        let mut s = DataSlab::new();
        let a = s.alloc(line(1));
        let b = s.retain(a);
        let c = s.make_mut(b); // clone (shared)
        let d = s.alloc(line(2));
        s.release(d);
        let st = s.stats();
        assert_eq!((st.allocs, st.retains, st.cow_clones, st.frees), (2, 1, 1, 1));
        assert_eq!(s.live() as u64, st.allocs + st.cow_clones - st.frees);
        assert_eq!(s.total_refs() as u64, st.allocs + st.cow_clones + st.retains - st.releases);
        s.release(a);
        s.release(c);
        assert_eq!((s.live(), s.total_refs()), (0, 0));
    }

    #[test]
    fn option_dataref_is_pointer_sized() {
        use std::mem::size_of;
        assert_eq!(size_of::<DataRef>(), 8);
        assert_eq!(size_of::<Option<DataRef>>(), 8, "NonZero generation provides the niche");
    }
}
