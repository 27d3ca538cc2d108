//! L1-side engine: remote-initiated actions on a tile's private caches —
//! invalidations (unicast, broadcast, and back-invalidations on L2
//! eviction) and synchronous write-back requests from the home.

use lacc_core::classifier::RemovalReason;
use lacc_model::{CoreId, Cycle, LineAddr};

use crate::msg::Payload;

use super::Simulator;

impl Simulator {
    pub(crate) fn l1_invalidate(
        &mut self,
        tile: usize,
        home: CoreId,
        line: LineAddr,
        back: bool,
        now: Cycle,
    ) {
        // A broadcast invalidation is delivered to every tile that holds
        // the line or waits on a miss to it (`broadcast_inv`), but a copy
        // answers only to its own home. This matters for R-NUCA-replicated
        // instruction lines: the same address is homed per cluster, and a
        // broadcast from one cluster's home must not kill (or collect acks
        // from) another cluster's copies.
        if self.home_of(line, CoreId::new(tile)) != home {
            return;
        }
        let victim = self.tiles[tile]
            .l1d
            .process_inv(line)
            .or_else(|| self.tiles[tile].l1i.process_inv(line));
        if let Some(v) = victim {
            let reason =
                if back { RemovalReason::BackInvalidation } else { RemovalReason::Invalidation };
            self.cores[tile].miss_class.record_removal(line, reason);
            self.counts.l1d_fills += u64::from(v.dirty); // dirty read-out

            // A dirty copy's handle rides the ack to the home; a clean
            // copy's reference is simply dropped (bare-header ack).
            let data = if v.dirty {
                Some(v.data)
            } else {
                self.slab.release(v.data);
                None
            };
            self.send(
                CoreId::new(tile),
                home,
                line,
                Payload::InvAck { util: v.utilization, data, back },
                now,
            );
        }
        // No copy: stay silent. Either the copy's eviction notify is in
        // flight and the home counts it as the response, or this tile got
        // a broadcast `Inv` because its core waits on a miss to the line
        // that the home has not granted; a broadcast awaits acks from real
        // sharers only.
    }

    pub(crate) fn l1_writeback_req(
        &mut self,
        tile: usize,
        home: CoreId,
        line: LineAddr,
        now: Cycle,
    ) {
        let resp = self.tiles[tile]
            .l1d
            .process_downgrade(line)
            .or_else(|| self.tiles[tile].l1i.process_downgrade(line));
        let payload = match resp {
            // On the wire WbData always carries the line (9 flits); in
            // memory only a dirty copy materializes a payload — a clean
            // one matches the home's resident data. The L1 keeps its copy
            // in S, so the shipped handle is a retain (alias) of the
            // resident slot, not a move.
            Some((dirty, data)) => {
                Payload::WbData { data: if dirty { Some(self.slab.retain(data)) } else { None } }
            }
            None => Payload::WbNack,
        };
        self.send(CoreId::new(tile), home, line, payload, now);
    }
}
