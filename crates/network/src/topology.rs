//! Mesh geometry: coordinates, directed links, XY routes, broadcast trees.

use lacc_model::CoreId;

/// One of the four mesh directions. The numeric value indexes a router's
/// output links.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Towards larger x.
    East = 0,
    /// Towards smaller x.
    West = 1,
    /// Towards larger y.
    North = 2,
    /// Towards smaller y.
    South = 3,
}

impl Direction {
    /// All directions in link-index order.
    pub const ALL: [Direction; 4] =
        [Direction::East, Direction::West, Direction::North, Direction::South];
}

/// Static geometry of a `width x height` mesh holding `num_tiles` tiles in
/// row-major order. The mesh is always an exact rectangle
/// (`width * height == num_tiles`), so every grid slot has a router and XY
/// routes never cross unpopulated slots.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Topology {
    width: usize,
    height: usize,
    num_tiles: usize,
}

impl Topology {
    /// Builds the most square exact-rectangle mesh holding `num_tiles`
    /// tiles: height is the largest divisor of `num_tiles` not exceeding
    /// its square root (64 → 8×8, 12 → 4×3, primes degrade to a line).
    ///
    /// # Panics
    ///
    /// Panics if `num_tiles` is zero.
    #[must_use]
    pub fn for_tiles(num_tiles: usize) -> Self {
        assert!(num_tiles > 0, "need at least one tile");
        let mut height = 1usize;
        let mut d = 1usize;
        while d * d <= num_tiles {
            if num_tiles % d == 0 {
                height = d;
            }
            d += 1;
        }
        let width = num_tiles / height;
        Topology { width, height, num_tiles }
    }

    /// Number of populated tiles.
    #[must_use]
    pub fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    /// `(x, y)` coordinate of a tile.
    ///
    /// # Panics
    ///
    /// Panics if the tile index is out of range.
    #[must_use]
    fn coord(&self, tile: CoreId) -> (usize, usize) {
        let i = tile.index();
        assert!(i < self.num_tiles, "tile {i} out of range");
        (i % self.width, i / self.width)
    }

    /// Tile at an `(x, y)` coordinate, if populated.
    #[must_use]
    fn tile_at(&self, x: usize, y: usize) -> Option<CoreId> {
        if x >= self.width || y >= self.height {
            return None;
        }
        let i = y * self.width + x;
        (i < self.num_tiles).then(|| CoreId::new(i))
    }

    /// Manhattan hop distance between two tiles.
    #[must_use]
    pub fn hops(&self, a: CoreId, b: CoreId) -> usize {
        let (ax, ay) = self.coord(a);
        let (bx, by) = self.coord(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Total number of directed link slots (4 per tile; edge slots exist
    /// but are never routed through).
    #[must_use]
    pub fn num_link_slots(&self) -> usize {
        self.num_tiles * 4
    }

    /// Index of the directed link leaving `tile` in `dir`.
    #[must_use]
    pub fn link_index(&self, tile: CoreId, dir: Direction) -> usize {
        link_slot(tile.index(), dir)
    }

    /// Neighbor of `tile` in `dir`, if populated.
    #[must_use]
    pub fn neighbor(&self, tile: CoreId, dir: Direction) -> Option<CoreId> {
        let (x, y) = self.coord(tile);
        match dir {
            Direction::East => self.tile_at(x + 1, y),
            Direction::West => x.checked_sub(1).and_then(|x| self.tile_at(x, y)),
            Direction::North => self.tile_at(x, y + 1),
            Direction::South => y.checked_sub(1).and_then(|y| self.tile_at(x, y)),
        }
    }

    /// Walks the XY (dimension-ordered: x first, then y) route from `src`
    /// to `dst`, calling `f` with the index of each directed link crossed,
    /// in order; no call when `src == dst`. Allocation-free: the mesh's
    /// per-message hot path.
    pub fn for_each_xy_link(&self, src: CoreId, dst: CoreId, mut f: impl FnMut(usize)) {
        let (mut x, mut y) = self.coord(src);
        let (dx, dy) = self.coord(dst);
        let mut tile = src.index();
        while x != dx {
            if x < dx {
                f(link_slot(tile, Direction::East));
                x += 1;
                tile += 1;
            } else {
                f(link_slot(tile, Direction::West));
                x -= 1;
                tile -= 1;
            }
        }
        while y != dy {
            if y < dy {
                f(link_slot(tile, Direction::North));
                y += 1;
                tile += self.width;
            } else {
                f(link_slot(tile, Direction::South));
                y -= 1;
                tile -= self.width;
            }
        }
    }

    /// The XY route from `src` to `dst` as a list of `(router, direction)`
    /// steps; empty when `src == dst`. The tests' reference for
    /// [`Topology::for_each_xy_link`].
    #[cfg(test)]
    #[must_use]
    pub(crate) fn xy_route(&self, src: CoreId, dst: CoreId) -> Vec<(CoreId, Direction)> {
        let (mut x, mut y) = self.coord(src);
        let (dx, dy) = self.coord(dst);
        let mut steps = Vec::with_capacity(self.hops(src, dst));
        while x != dx {
            let dir = if x < dx { Direction::East } else { Direction::West };
            steps.push((self.tile_at(x, y).expect("on-path tile"), dir));
            x = if x < dx { x + 1 } else { x - 1 };
        }
        while y != dy {
            let dir = if y < dy { Direction::North } else { Direction::South };
            steps.push((self.tile_at(x, y).expect("on-path tile"), dir));
            y = if y < dy { y + 1 } else { y - 1 };
        }
        steps
    }

    /// Walks the XY broadcast tree rooted at `src` (§3.1), calling
    /// `f(parent, link, child)` with tile and link indices per
    /// parent→child edge. The message first travels both ways along the
    /// root's row, and every router in that row replicates it up and down
    /// its column: row edges come first, then column edges, each run
    /// outward from the source, so every parent precedes its children and
    /// every tile is reached exactly once. Allocation-free: the mesh's
    /// per-broadcast hot path.
    pub fn for_each_broadcast_edge(&self, src: CoreId, mut f: impl FnMut(usize, usize, usize)) {
        let (sx, sy) = self.coord(src);
        let w = self.width;
        let at = |x: usize, y: usize| y * w + x;
        for x in sx..w - 1 {
            f(at(x, sy), link_slot(at(x, sy), Direction::East), at(x + 1, sy));
        }
        for x in (1..=sx).rev() {
            f(at(x, sy), link_slot(at(x, sy), Direction::West), at(x - 1, sy));
        }
        for x in 0..w {
            for y in sy..self.height - 1 {
                f(at(x, y), link_slot(at(x, y), Direction::North), at(x, y + 1));
            }
            for y in (1..=sy).rev() {
                f(at(x, y), link_slot(at(x, y), Direction::South), at(x, y - 1));
            }
        }
    }

    /// The XY broadcast tree rooted at `src` as a list of parent→child
    /// edges, built from neighbor lookups. The tests' reference for
    /// [`Topology::for_each_broadcast_edge`].
    #[cfg(test)]
    #[must_use]
    pub(crate) fn broadcast_tree(&self, src: CoreId) -> Vec<(CoreId, Direction, CoreId)> {
        let (sx, sy) = self.coord(src);
        let mut edges = Vec::with_capacity(self.num_tiles.saturating_sub(1));
        // Row edges, outward from the source.
        for x in sx..self.width.saturating_sub(1) {
            if let (Some(a), Some(b)) = (self.tile_at(x, sy), self.tile_at(x + 1, sy)) {
                edges.push((a, Direction::East, b));
            }
        }
        for x in (1..=sx).rev() {
            if let (Some(a), Some(b)) = (self.tile_at(x, sy), self.tile_at(x - 1, sy)) {
                edges.push((a, Direction::West, b));
            }
        }
        // Column edges from every row tile, outward from the source row.
        for x in 0..self.width {
            for y in sy..self.height.saturating_sub(1) {
                if let (Some(a), Some(b)) = (self.tile_at(x, y), self.tile_at(x, y + 1)) {
                    edges.push((a, Direction::North, b));
                }
            }
            for y in (1..=sy).rev() {
                if let (Some(a), Some(b)) = (self.tile_at(x, y), self.tile_at(x, y - 1)) {
                    edges.push((a, Direction::South, b));
                }
            }
        }
        edges
    }
}

/// Index of the directed link leaving tile index `tile` in `dir`.
fn link_slot(tile: usize, dir: Direction) -> usize {
    tile * 4 + dir as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: usize) -> CoreId {
        CoreId::new(n)
    }

    #[test]
    fn square_topology_for_64() {
        let topo = Topology::for_tiles(64);
        assert_eq!((topo.width, topo.height), (8, 8));
        assert_eq!(topo.coord(t(0)), (0, 0));
        assert_eq!(topo.coord(t(63)), (7, 7));
        assert_eq!(topo.hops(t(0), t(63)), 14);
    }

    #[test]
    fn non_square_counts_form_exact_rectangles() {
        let topo = Topology::for_tiles(12); // 4x3
        assert_eq!((topo.width, topo.height), (4, 3));
        assert_eq!(topo.tile_at(3, 2), Some(t(11)));
        let topo = Topology::for_tiles(5); // prime: 5x1 line
        assert_eq!((topo.width, topo.height), (5, 1));
        assert_eq!(topo.tile_at(4, 0), Some(t(4)));
        assert_eq!(topo.tile_at(0, 1), None);
    }

    #[test]
    fn xy_route_goes_x_then_y() {
        let topo = Topology::for_tiles(16); // 4x4
        let route = topo.xy_route(t(0), t(15)); // (0,0) -> (3,3)
        assert_eq!(route.len(), 6);
        let dirs: Vec<Direction> = route.iter().map(|&(_, d)| d).collect();
        assert_eq!(
            dirs,
            vec![
                Direction::East,
                Direction::East,
                Direction::East,
                Direction::North,
                Direction::North,
                Direction::North
            ]
        );
    }

    #[test]
    fn xy_route_adjacency() {
        let topo = Topology::for_tiles(16);
        for s in 0..16 {
            for d in 0..16 {
                let route = topo.xy_route(t(s), t(d));
                assert_eq!(route.len(), topo.hops(t(s), t(d)));
                // Each step moves to an adjacent tile; the walk ends at d.
                let mut cur = t(s);
                for &(router, dir) in &route {
                    assert_eq!(router, cur);
                    cur = topo.neighbor(cur, dir).expect("route stays on mesh");
                }
                assert_eq!(cur, t(d));
                // The allocation-free walk crosses the same links in order.
                let mut links = Vec::new();
                topo.for_each_xy_link(t(s), t(d), |li| links.push(li));
                let want: Vec<usize> =
                    route.iter().map(|&(router, dir)| topo.link_index(router, dir)).collect();
                assert_eq!(links, want);
            }
        }
    }

    #[test]
    fn broadcast_tree_covers_all_tiles_once() {
        for n in [1usize, 4, 5, 9, 16, 64] {
            let topo = Topology::for_tiles(n);
            for s in 0..n {
                let edges = topo.broadcast_tree(t(s));
                assert_eq!(edges.len(), n - 1, "tree edge count for n={n}, src={s}");
                let mut reached = vec![false; n];
                reached[s] = true;
                for &(a, dir, b) in &edges {
                    assert_eq!(topo.neighbor(a, dir), Some(b));
                    assert!(reached[a.index()], "parent {a} reached before child (src {s})");
                    assert!(!reached[b.index()], "tile {b} reached twice (src {s})");
                    reached[b.index()] = true;
                }
                assert!(reached.iter().all(|&r| r));
                // The allocation-free walk yields the same edges in order.
                let mut walked = Vec::new();
                topo.for_each_broadcast_edge(t(s), |a, li, b| walked.push((a, li, b)));
                let want: Vec<(usize, usize, usize)> = edges
                    .iter()
                    .map(|&(a, dir, b)| (a.index(), topo.link_index(a, dir), b.index()))
                    .collect();
                assert_eq!(walked, want, "n={n}, src={s}");
            }
        }
    }

    #[test]
    fn neighbor_edges() {
        let topo = Topology::for_tiles(4); // 2x2
        assert_eq!(topo.neighbor(t(0), Direction::East), Some(t(1)));
        assert_eq!(topo.neighbor(t(0), Direction::West), None);
        assert_eq!(topo.neighbor(t(0), Direction::North), Some(t(2)));
        assert_eq!(topo.neighbor(t(3), Direction::North), None);
    }

    #[test]
    fn link_indices_are_unique() {
        let topo = Topology::for_tiles(9);
        let mut seen = std::collections::HashSet::new();
        for i in 0..9 {
            for d in Direction::ALL {
                assert!(seen.insert(topo.link_index(t(i), d)));
            }
        }
        assert_eq!(seen.len(), topo.num_link_slots());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn routes_valid_on_random_meshes(n in 1usize..40, s in 0usize..40, d in 0usize..40) {
            let s = s % n;
            let d = d % n;
            let topo = Topology::for_tiles(n);
            let route = topo.xy_route(CoreId::new(s), CoreId::new(d));
            let mut cur = CoreId::new(s);
            for &(router, dir) in &route {
                prop_assert_eq!(router, cur);
                cur = topo.neighbor(cur, dir).expect("valid step");
            }
            prop_assert_eq!(cur, CoreId::new(d));
            prop_assert_eq!(route.len(), topo.hops(CoreId::new(s), CoreId::new(d)));
        }

        #[test]
        fn broadcast_tree_spans(n in 1usize..40, s in 0usize..40) {
            let s = s % n;
            let topo = Topology::for_tiles(n);
            let edges = topo.broadcast_tree(CoreId::new(s));
            prop_assert_eq!(edges.len(), n - 1);
        }
    }
}
