//! Timed mesh model: unicast and broadcast with link contention.

use lacc_model::{CoreId, Cycle};

use crate::topology::Topology;

/// Aggregate traffic counters, consumed by the energy model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NetStats {
    /// Unicast messages injected.
    pub unicasts: u64,
    /// Broadcast messages injected.
    pub broadcasts: u64,
    /// Flit–router traversal events (one per flit per router visited).
    pub router_flits: u64,
    /// Flit–link traversal events (one per flit per link crossed).
    pub link_flits: u64,
    /// Cycles any message spent blocked on a busy link.
    pub contention_cycles: u64,
}

/// The timed 2-D mesh.
///
/// All methods take the current simulated time and return delivery times;
/// the mesh records per-link busy windows so later messages crossing the
/// same links queue behind earlier ones ("only link contention, infinite
/// input buffers" — Table 1).
///
/// The per-message paths allocate nothing: unicasts and broadcasts walk
/// their XY route or tree in place, and broadcast arrivals land in a
/// reused buffer.
#[derive(Clone, Debug)]
pub struct MeshNetwork {
    topo: Topology,
    hop_cycles: Cycle,
    link_next_free: Vec<Cycle>,
    /// Latest delivery per (source, destination), indexed `src * n + dst`.
    fifo_last: Vec<Cycle>,
    /// The arrivals [`MeshNetwork::broadcast`] returns, reused per call.
    arrivals: Vec<Cycle>,
    stats: NetStats,
}

impl MeshNetwork {
    /// Creates a mesh for `num_tiles` tiles with the given per-hop router
    /// and link latencies (Table 1: 1 + 1 = 2 cycles per hop).
    ///
    /// # Panics
    ///
    /// Panics if `num_tiles` is zero.
    #[must_use]
    pub fn new(num_tiles: usize, hop_router_cycles: Cycle, hop_link_cycles: Cycle) -> Self {
        let topo = Topology::for_tiles(num_tiles);
        let slots = topo.num_link_slots();
        MeshNetwork {
            hop_cycles: hop_router_cycles + hop_link_cycles,
            link_next_free: vec![0; slots],
            fifo_last: vec![0; num_tiles * num_tiles],
            arrivals: vec![0; num_tiles],
            stats: NetStats::default(),
            topo,
        }
    }

    /// Traffic counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Hop distance helper (Manhattan).
    #[must_use]
    pub fn hops(&self, src: CoreId, dst: CoreId) -> usize {
        self.topo.hops(src, dst)
    }

    /// Zero-load latency of a unicast: `hops * hop_cycles + (flits - 1)`.
    /// The tests' analytical reference; does not reserve links.
    #[cfg(test)]
    fn zero_load_latency(&self, src: CoreId, dst: CoreId, flits: usize) -> Cycle {
        if src == dst {
            return 0;
        }
        self.topo.hops(src, dst) as Cycle * self.hop_cycles + (flits as Cycle - 1)
    }

    /// Sends a `flits`-flit message from `src` to `dst` at time `now`;
    /// returns the cycle at which the message is fully received.
    ///
    /// A message to the local tile (`src == dst`) never enters the network
    /// and arrives at `now` (the R-NUCA case of private data homed at the
    /// requester's own L2 slice).
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    pub fn unicast(&mut self, src: CoreId, dst: CoreId, flits: usize, now: Cycle) -> Cycle {
        assert!(flits > 0, "messages carry at least the header flit");
        if src == dst {
            return now;
        }
        self.stats.unicasts += 1;
        let mut head = now;
        let mut hops = 0;
        self.topo.for_each_xy_link(src, dst, |li| {
            let depart = head.max(self.link_next_free[li]);
            self.stats.contention_cycles += depart - head;
            self.link_next_free[li] = depart + flits as Cycle;
            head = depart + self.hop_cycles;
            hops += 1;
        });
        // Head flit arrives at `head`; the tail arrives flits-1 later.
        let arrival = head + flits as Cycle - 1;
        let arrival = self.clamp_fifo(src, dst, arrival);
        self.stats.router_flits += (flits * (hops + 1)) as u64;
        self.stats.link_flits += (flits * hops) as u64;
        arrival
    }

    /// Injects a broadcast at `src` at time `now`; returns each tile's
    /// delivery time (index = tile id), valid until the next call. The
    /// source's own entry is `now`.
    ///
    /// The message is replicated along the XY broadcast tree; every tree
    /// link is occupied for `flits` cycles, so one injection reaches all
    /// tiles (§3.1) at the cost of `num_tiles - 1` link traversals.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    pub fn broadcast(&mut self, src: CoreId, flits: usize, now: Cycle) -> &[Cycle] {
        assert!(flits > 0, "messages carry at least the header flit");
        self.stats.broadcasts += 1;
        let n = self.topo.num_tiles();
        let s = src.index();
        // Head-flit times first. The tree reaches every tile exactly once,
        // parents before children, so every entry is written before it is
        // read and nothing needs clearing between calls.
        let head_at = &mut self.arrivals;
        head_at[s] = now;
        self.topo.for_each_broadcast_edge(src, |parent, li, child| {
            let ready = head_at[parent];
            let depart = ready.max(self.link_next_free[li]);
            self.stats.contention_cycles += depart - ready;
            self.link_next_free[li] = depart + flits as Cycle;
            head_at[child] = depart + self.hop_cycles;
        });
        self.stats.router_flits += (flits * n) as u64;
        self.stats.link_flits += (flits * (n - 1)) as u64;
        let fifo = &mut self.fifo_last[s * n..(s + 1) * n];
        for (i, (a, last)) in head_at.iter_mut().zip(fifo).enumerate() {
            if i != s {
                *a = (*a + flits as Cycle - 1).max(*last);
                *last = *a;
            }
        }
        &self.arrivals
    }

    fn clamp_fifo(&mut self, src: CoreId, dst: CoreId, arrival: Cycle) -> Cycle {
        let last = &mut self.fifo_last[src.index() * self.topo.num_tiles() + dst.index()];
        let clamped = arrival.max(*last);
        *last = clamped;
        clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: usize) -> CoreId {
        CoreId::new(n)
    }

    #[test]
    fn zero_load_matches_table1_hop_cost() {
        let mut net = MeshNetwork::new(64, 1, 1);
        // (0,0) -> (7,7): 14 hops * 2 cycles + 0 = 28 for 1 flit.
        assert_eq!(net.unicast(t(0), t(63), 1, 0), 28);
        // A 9-flit cache-line message adds 8 serialization cycles.
        assert_eq!(net.zero_load_latency(t(0), t(63), 9), 36);
    }

    #[test]
    fn local_delivery_is_free() {
        let mut net = MeshNetwork::new(16, 1, 1);
        assert_eq!(net.unicast(t(5), t(5), 9, 100), 100);
        assert_eq!(net.stats().unicasts, 0, "local messages never enter the network");
    }

    #[test]
    fn contention_serializes_same_link() {
        let mut net = MeshNetwork::new(4, 1, 1); // 2x2

        // Two 8-flit messages over the same single link 0->1 at t=0.
        let a = net.unicast(t(0), t(1), 8, 0);
        let b = net.unicast(t(0), t(1), 8, 0);
        assert_eq!(a, 2 + 7); // 1 hop * 2 + 7
                              // Second message departs when the link frees at t=8.
        assert_eq!(b, 8 + 2 + 7);
        assert_eq!(net.stats().contention_cycles, 8);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut net = MeshNetwork::new(16, 1, 1);
        let a = net.unicast(t(0), t(1), 8, 0);
        let b = net.unicast(t(4), t(5), 8, 0);
        assert_eq!(a, b, "independent links see no contention");
        assert_eq!(net.stats().contention_cycles, 0);
    }

    #[test]
    fn fifo_clamp_keeps_src_dst_order() {
        let mut net = MeshNetwork::new(16, 1, 1);
        // A big message then a small one on the same pair: the small one
        // must not overtake even though its serialization is shorter.
        let big = net.unicast(t(0), t(3), 9, 0);
        let small = net.unicast(t(0), t(3), 1, 0);
        assert!(small >= big, "FIFO violated: {small} < {big}");
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let mut net = MeshNetwork::new(16, 1, 1);
        let arrivals = net.broadcast(t(5), 1, 10).to_vec();
        assert_eq!(arrivals.len(), 16);
        assert_eq!(arrivals[5], 10);
        for (i, &a) in arrivals.iter().enumerate() {
            if i != 5 {
                assert!(a > 10, "tile {i} must be reached after injection");
                // No tile can be closer in time than its hop distance.
                assert!(a >= 10 + 2 * net.hops(t(5), t(i)) as Cycle);
            }
        }
        assert_eq!(net.stats().broadcasts, 1);
        assert_eq!(net.stats().link_flits, 15, "single injection: one flit per tree link");
    }

    #[test]
    fn broadcast_energy_counts_single_injection() {
        // §3.1/§5: ACKwise relies on broadcast being one injection, not N
        // unicasts. For an 8x8 mesh a 1-flit broadcast must cross exactly 63
        // links; 64 unicasts would cross sum-of-hops >> 63.
        let mut net = MeshNetwork::new(64, 1, 1);
        net.broadcast(t(0), 1, 0);
        assert_eq!(net.stats().link_flits, 63);
    }

    #[test]
    fn stats_accumulate() {
        let mut net = MeshNetwork::new(4, 1, 1);
        net.unicast(t(0), t(3), 2, 0); // 2 hops
        let s = net.stats();
        assert_eq!(s.unicasts, 1);
        assert_eq!(s.router_flits, 2 * 3); // 3 routers visited
        assert_eq!(s.link_flits, 2 * 2);
    }

    #[test]
    #[should_panic(expected = "at least the header flit")]
    fn zero_flit_message_panics() {
        let mut net = MeshNetwork::new(4, 1, 1);
        let _ = net.unicast(t(0), t(1), 0, 0);
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::HashMap;

    use super::*;
    use proptest::prelude::*;

    /// Reference mesh built on the topology's route lists: a fresh
    /// [`Topology::xy_route`] per unicast, a fresh
    /// [`Topology::broadcast_tree`] per broadcast, and a `(src, dst)` map
    /// for the FIFO clamp.
    struct RefMesh {
        topo: Topology,
        hop_cycles: Cycle,
        link_next_free: Vec<Cycle>,
        fifo_last: HashMap<(usize, usize), Cycle>,
        stats: NetStats,
    }

    impl RefMesh {
        fn new(n: usize) -> Self {
            let topo = Topology::for_tiles(n);
            let slots = topo.num_link_slots();
            RefMesh {
                topo,
                hop_cycles: 2,
                link_next_free: vec![0; slots],
                fifo_last: HashMap::new(),
                stats: NetStats::default(),
            }
        }

        fn clamp_fifo(&mut self, src: usize, dst: usize, arrival: Cycle) -> Cycle {
            let last = self.fifo_last.entry((src, dst)).or_insert(0);
            *last = arrival.max(*last);
            *last
        }

        fn unicast(&mut self, src: CoreId, dst: CoreId, flits: usize, now: Cycle) -> Cycle {
            if src == dst {
                return now;
            }
            self.stats.unicasts += 1;
            let route = self.topo.xy_route(src, dst);
            let mut head = now;
            for &(router, dir) in &route {
                let li = self.topo.link_index(router, dir);
                let depart = head.max(self.link_next_free[li]);
                self.stats.contention_cycles += depart - head;
                self.link_next_free[li] = depart + flits as Cycle;
                head = depart + self.hop_cycles;
            }
            self.stats.router_flits += (flits * (route.len() + 1)) as u64;
            self.stats.link_flits += (flits * route.len()) as u64;
            self.clamp_fifo(src.index(), dst.index(), head + flits as Cycle - 1)
        }

        fn broadcast(&mut self, src: CoreId, flits: usize, now: Cycle) -> Vec<Cycle> {
            self.stats.broadcasts += 1;
            let n = self.topo.num_tiles();
            let mut head_at = vec![0; n];
            head_at[src.index()] = now;
            let edges = self.topo.broadcast_tree(src);
            for &(parent, dir, child) in &edges {
                let li = self.topo.link_index(parent, dir);
                let ready = head_at[parent.index()];
                let depart = ready.max(self.link_next_free[li]);
                self.stats.contention_cycles += depart - ready;
                self.link_next_free[li] = depart + flits as Cycle;
                head_at[child.index()] = depart + self.hop_cycles;
            }
            self.stats.router_flits += (flits * n) as u64;
            self.stats.link_flits += (flits * edges.len()) as u64;
            (0..n)
                .map(|i| {
                    if i == src.index() {
                        now
                    } else {
                        self.clamp_fifo(src.index(), i, head_at[i] + flits as Cycle - 1)
                    }
                })
                .collect()
        }
    }

    proptest! {
        /// The allocation-free mesh is the reference walk, message for
        /// message: equal arrival cycles, equal per-link reservations and
        /// equal traffic counters, on a square (8×8), a rectangular (4×3)
        /// and a prime-count (13×1) mesh. One message in eight is a
        /// broadcast.
        #[test]
        fn matches_reference_walk(
            mesh in 0usize..3,
            msgs in proptest::collection::vec(
                (0u8..8, 0usize..64, 0usize..64, 1usize..10, 0u64..200),
                1..80,
            )
        ) {
            let n = [64, 12, 13][mesh];
            let mut net = MeshNetwork::new(n, 1, 1);
            let mut reference = RefMesh::new(n);
            for (kind, s, d, flits, now) in msgs {
                let (src, dst) = (CoreId::new(s % n), CoreId::new(d % n));
                if kind == 0 {
                    let want = reference.broadcast(src, flits, now);
                    prop_assert_eq!(net.broadcast(src, flits, now), &want[..]);
                } else {
                    let want = reference.unicast(src, dst, flits, now);
                    prop_assert_eq!(net.unicast(src, dst, flits, now), want);
                }
                prop_assert_eq!(&net.link_next_free, &reference.link_next_free);
                prop_assert_eq!(net.stats(), reference.stats);
            }
        }


        /// Delivery time is never earlier than the zero-load latency, and
        /// per-pair deliveries are monotone in injection order.
        #[test]
        fn timing_lower_bound_and_fifo(
            msgs in proptest::collection::vec((0usize..16, 0usize..16, 1usize..10, 0u64..50), 1..60)
        ) {
            let mut net = MeshNetwork::new(16, 1, 1);
            let mut last: std::collections::HashMap<(usize, usize), Cycle> =
                std::collections::HashMap::new();
            // Inject in nondecreasing time order like a real event loop.
            let mut msgs = msgs;
            msgs.sort_by_key(|m| m.3);
            for (s, d, f, now) in msgs {
                let src = CoreId::new(s);
                let dst = CoreId::new(d);
                let zl = net.zero_load_latency(src, dst, f);
                let arr = net.unicast(src, dst, f, now);
                prop_assert!(arr >= now + zl);
                if src != dst {
                    // Distinct tiles are at least one hop apart: one
                    // router cycle plus one link cycle.
                    prop_assert!(arr >= now + 2);
                }
                if let Some(prev) = last.get(&(s, d)) {
                    prop_assert!(arr >= *prev);
                }
                last.insert((s, d), arr);
            }
        }

        /// Broadcast arrival at each tile is at least its unicast zero-load
        /// latency from the source.
        #[test]
        fn broadcast_arrivals_bounded(src in 0usize..16, flits in 1usize..10, now in 0u64..100) {
            let mut net = MeshNetwork::new(16, 1, 1);
            let src = CoreId::new(src);
            let arr = net.broadcast(src, flits, now).to_vec();
            for (i, &a) in arr.iter().enumerate() {
                let dst = CoreId::new(i);
                if dst != src {
                    prop_assert!(a >= now + net.zero_load_latency(src, dst, flits));
                }
            }
        }
    }
}
