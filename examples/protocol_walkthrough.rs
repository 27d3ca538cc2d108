//! A guided walk through the protocol's state machine (Figure 4) using the
//! pure `lacc-core` API — no simulator, every step printed.
//!
//! ```sh
//! cargo run --example protocol_walkthrough
//! ```

use lacc::core::SharerTracker;
use lacc::prelude::*;

fn main() {
    // A directory entry for one cache line on an 8-core machine with the
    // paper's defaults (PCT = 4, Limited_3, RAT levels {4, 16}).
    let mut entry =
        DirectoryEntry::new(DirectoryKind::ackwise4(), &ClassifierConfig::isca13_default(), 8);
    let reader = CoreId::new(1);
    let writer = CoreId::new(2);
    let hints = RequestHints { set_min_last_access: 0, set_has_invalid: true };
    let read = |core| HomeRequest { core, kind: AccessKind::Read, hints, instruction: false };
    let write = |core| HomeRequest { core, kind: AccessKind::Write, hints, instruction: false };

    println!("== 1. Cores start as private sharers (Figure 4: Initial) ==");
    let d = entry.begin_request(&read(reader), 0);
    println!("core1 read  -> {:?} (a whole line is granted)", d.grant);
    entry.complete_grant(reader, d.grant);

    println!("\n== 2. A writer invalidates; utilization 1 < PCT=4 demotes ==");
    let d = entry.begin_request(&write(writer), 10);
    println!("core2 write -> {:?}, invalidating {}", d.grant, cores(d.invalidate));
    let mode = entry.sharer_response(reader, 1, RemovalReason::Invalidation);
    println!("core1 inv-ack with utilization 1 -> demoted to {mode:?}");
    entry.complete_grant(writer, d.grant);

    println!("\n== 3. Remote sharer: misses served as words at the shared L2 ==");
    for i in 1..=3 {
        let d = entry.begin_request(&read(reader), 20 + i);
        println!("core1 read #{i} -> {:?} (remote utilization builds)", d.grant);
        if let Some(owner) = d.fetch_from_owner {
            // core2 holds an M copy: synchronous write-back, owner keeps S.
            println!("        (synchronous write-back from {owner})");
            entry.owner_downgraded(owner);
        }
        entry.complete_grant(reader, d.grant);
    }

    println!("\n== 4. The PCT-th access promotes back to private (Figure 4) ==");
    let d = entry.begin_request(&read(reader), 30);
    println!("core1 read #4 -> {:?} (promoted: {})", d.grant, d.outcome.promoted);
    entry.complete_grant(reader, d.grant);

    println!("\n== 5. Eviction with good utilization stays private ==");
    let mode = entry.sharer_response(reader, 6, RemovalReason::Eviction);
    println!("core1 evicts with utilization 6 >= PCT -> stays {mode:?}");

    println!("\n== 6. Storage cost of all this (Section 3.6) ==");
    let r = lacc::core::overheads::storage_report(&SystemConfig::isca13_64core());
    println!(
        "Limited-3 classifier: {} bits/entry = {} KB/core ({}% over baseline)",
        r.classifier_bits_per_entry,
        r.classifier_kb,
        (100.0 * r.overhead_vs_baseline).round()
    );
}

/// The cores an invalidation round reaches, in words.
fn cores(plan: Option<SharerTracker>) -> String {
    match plan {
        None => "no one".into(),
        Some(SharerTracker::Exact(set)) => {
            set.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
        }
        Some(SharerTracker::CountOnly(n)) => format!("all cores by broadcast ({n} sharers)"),
    }
}
