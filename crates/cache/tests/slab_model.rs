//! Property test: the refcounted [`DataSlab`] against a `HashMap`
//! reference model.
//!
//! Interleaved allocations, retains, copy-on-write writes and releases
//! must behave exactly like a map from handle to (line content, refcount)
//! plus a multiset of outstanding handles — aliased handles read the same
//! bytes, a write splits a shared slot without disturbing its other
//! owners, and no content is lost across free-list recycling. The live
//! count, outstanding-handle count and per-slot refcounts must track the
//! model at every step, and the [`SlabStats`] ledger identities must hold
//! throughout.

use std::collections::HashMap;

use lacc_cache::{DataRef, DataSlab, LineData, SlabStats};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Allocate a line whose words are all this tag.
    Alloc(u64),
    /// Retain (alias) the `k % len`-th outstanding handle.
    Retain(usize),
    /// Read back the `k % len`-th outstanding handle and compare.
    Check(usize),
    /// Write one word through the `k % len`-th outstanding handle,
    /// copy-on-write style (`make_mut` then `get_mut`).
    Write(usize, usize, u64),
    /// Release the `k % len`-th outstanding handle.
    Release(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1000).prop_map(Op::Alloc),
        (0usize..64).prop_map(Op::Retain),
        (0usize..64).prop_map(Op::Check),
        (0usize..64, 0usize..8, 0u64..1000).prop_map(|(k, w, v)| Op::Write(k, w, v)),
        (0usize..64).prop_map(Op::Release),
    ]
}

fn tagged(tag: u64) -> LineData {
    LineData::from_words([tag; 8])
}

/// The reference model: per-slot content + refcount, and the multiset of
/// outstanding handles (aliases appear once per retain).
struct Model {
    slots: HashMap<DataRef, (LineData, u32)>,
    handles: Vec<DataRef>,
}

fn check_ledger(slab: &DataSlab, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(slab.live(), model.slots.len());
    prop_assert_eq!(slab.total_refs(), model.handles.len());
    let s: SlabStats = slab.stats();
    prop_assert_eq!(slab.live() as u64, s.allocs + s.cow_clones - s.frees);
    prop_assert_eq!(slab.total_refs() as u64, s.allocs + s.cow_clones + s.retains - s.releases);
    prop_assert_eq!(s.bytes_copied, 64 * (s.allocs + s.cow_clones));
    prop_assert_eq!(s.bytes_aliased, 64 * s.retains);
    Ok(())
}

proptest! {
    #[test]
    fn slab_matches_refcounted_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut slab = DataSlab::new();
        let mut model = Model { slots: HashMap::new(), handles: Vec::new() };
        for op in ops {
            match op {
                Op::Alloc(tag) => {
                    let r = slab.alloc(tagged(tag));
                    prop_assert!(!model.slots.contains_key(&r), "handle reuse while live");
                    model.slots.insert(r, (tagged(tag), 1));
                    model.handles.push(r);
                }
                Op::Retain(k) if !model.handles.is_empty() => {
                    let r = model.handles[k % model.handles.len()];
                    let alias = slab.retain(r);
                    prop_assert_eq!(alias, r, "aliases are the same handle value");
                    model.slots.get_mut(&r).unwrap().1 += 1;
                    model.handles.push(alias);
                }
                Op::Check(k) if !model.handles.is_empty() => {
                    let r = model.handles[k % model.handles.len()];
                    prop_assert_eq!(slab.get(r), &model.slots[&r].0);
                    prop_assert_eq!(slab.refs(r), model.slots[&r].1);
                }
                Op::Write(k, word, v) if !model.handles.is_empty() => {
                    let idx = k % model.handles.len();
                    let r = model.handles[idx];
                    let shared = model.slots[&r].1 > 1;
                    let own = slab.make_mut(r);
                    if shared {
                        // CoW split: the writer moves to a private slot,
                        // the other owners keep the original content.
                        prop_assert!(own != r, "make_mut of shared slot must move");
                        let content = model.slots[&r].0;
                        model.slots.get_mut(&r).unwrap().1 -= 1;
                        prop_assert!(!model.slots.contains_key(&own), "fresh slot already live");
                        model.slots.insert(own, (content, 1));
                        model.handles[idx] = own;
                    } else {
                        prop_assert_eq!(own, r, "sole owner writes in place");
                    }
                    slab.get_mut(own).set_word(word, v);
                    model.slots.get_mut(&own).unwrap().0.set_word(word, v);
                }
                Op::Release(k) if !model.handles.is_empty() => {
                    let r = model.handles.remove(k % model.handles.len());
                    slab.release(r);
                    let count = &mut model.slots.get_mut(&r).unwrap().1;
                    *count -= 1;
                    if *count == 0 {
                        model.slots.remove(&r);
                    }
                }
                _ => {} // Op with nothing outstanding: no-op.
            }
            check_ledger(&slab, &model)?;
        }
        // Drain; the slab must end empty of live lines and handles.
        while let Some(r) = model.handles.pop() {
            prop_assert_eq!(slab.get(r), &model.slots[&r].0);
            slab.release(r);
            let count = &mut model.slots.get_mut(&r).unwrap().1;
            *count -= 1;
            if *count == 0 {
                model.slots.remove(&r);
            }
        }
        prop_assert_eq!(slab.live(), 0);
        prop_assert_eq!(slab.total_refs(), 0);
    }

    /// Every handle that survives the full release/realloc cycle of its
    /// slot is detected as stale: reads, retains and releases (the
    /// double-release case) all panic on the generation mismatch.
    #[test]
    fn recycled_slots_reject_stale_handles(tags in proptest::collection::vec(0u64..100, 1..20)) {
        let mut slab = DataSlab::new();
        let stale: Vec<DataRef> = tags.iter().map(|&t| slab.alloc(tagged(t))).collect();
        for &r in &stale {
            slab.release(r);
        }
        // Reallocate into the same (recycled) slots.
        let _fresh: Vec<DataRef> = tags.iter().map(|&t| slab.alloc(tagged(t))).collect();
        for &r in &stale {
            let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = slab.get(r);
            }));
            prop_assert!(read.is_err(), "stale read of {r:?} must panic");
            let retain = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = slab.retain(r);
            }));
            prop_assert!(retain.is_err(), "stale retain of {r:?} must panic");
            let release = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                slab.release(r);
            }));
            prop_assert!(release.is_err(), "double release of {r:?} must panic");
        }
    }

    /// A retained slot survives any prefix of its releases: content stays
    /// readable through every remaining alias until the last one goes.
    #[test]
    fn aliases_keep_slots_alive(extra in 1usize..8, drop_order in proptest::bool::ANY) {
        let mut slab = DataSlab::new();
        let first = slab.alloc(tagged(7));
        let mut all = vec![first];
        for _ in 0..extra {
            all.push(slab.retain(first));
        }
        if drop_order {
            all.reverse();
        }
        let last = all.pop().unwrap();
        for r in all {
            slab.release(r);
            prop_assert_eq!(slab.get(last), &tagged(7), "survivors still read the line");
        }
        prop_assert_eq!(slab.refs(last), 1);
        slab.release(last);
        prop_assert_eq!(slab.live(), 0);
    }
}

#[test]
#[should_panic(expected = "double release")]
fn double_release_of_live_alias_panics_past_zero() {
    let mut slab = DataSlab::new();
    let r = slab.alloc(tagged(1));
    let alias = slab.retain(r);
    slab.release(r);
    slab.release(alias); // last handle: slot freed
    slab.release(alias); // past zero
}

#[test]
#[should_panic(expected = "get_mut of aliased DataRef")]
fn get_mut_of_shared_slot_panics() {
    let mut slab = DataSlab::new();
    let r = slab.alloc(tagged(1));
    let _alias = slab.retain(r);
    let _ = slab.get_mut(r);
}
