//! Breadth-first search and connected components.

use crate::graph::Graph;

/// Result of a BFS from a source: levels (`u32::MAX` for unreachable) and
/// the visit order.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `level[v]` = hop distance from the source, `u32::MAX` if unreachable.
    pub level: Vec<u32>,
    /// Vertices in visit order (only reachable ones).
    pub order: Vec<u32>,
}

impl BfsResult {
    /// The largest finite level (eccentricity of the source within its
    /// component).
    pub fn eccentricity(&self) -> u32 {
        self.order
            .iter()
            .map(|&v| self.level[v as usize])
            .max()
            .unwrap_or(0)
    }
}

/// BFS from `source` over the whole graph.
pub fn bfs(g: &Graph, source: u32) -> BfsResult {
    bfs_filtered(g, source, |_| true)
}

/// BFS from `source` restricted to vertices with `allow(v) == true`.
/// The source itself must be allowed.
pub fn bfs_filtered(g: &Graph, source: u32, allow: impl Fn(u32) -> bool) -> BfsResult {
    let n = g.n() as usize;
    let mut level = vec![u32::MAX; n];
    let mut order = Vec::new();
    debug_assert!(allow(source));
    level[source as usize] = 0;
    order.push(source);
    let mut head = 0usize;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &v in g.neighbors(u) {
            if level[v as usize] == u32::MAX && allow(v) {
                level[v as usize] = level[u as usize] + 1;
                order.push(v);
            }
        }
    }
    BfsResult { level, order }
}

/// A vertex far from an arbitrary start, found by repeated BFS — the
/// standard pseudo-peripheral heuristic used to seed level separators and
/// Cuthill-McKee.
pub fn pseudo_peripheral(g: &Graph, start: u32) -> u32 {
    let mut current = start;
    let mut ecc = bfs(g, current).eccentricity();
    loop {
        let res = bfs(g, current);
        let far = *res.order.last().unwrap_or(&current);
        let far_ecc = bfs(g, far).eccentricity();
        if far_ecc > ecc {
            ecc = far_ecc;
            current = far;
        } else {
            return far;
        }
    }
}

/// Connected component labelling.
#[derive(Debug, Clone)]
pub struct Components {
    /// `comp[v]` = component id in `0..count`.
    pub comp: Vec<u32>,
    /// Number of components.
    pub count: u32,
    /// `sizes[c]` = vertex count of component `c`.
    pub sizes: Vec<u32>,
}

impl Components {
    /// Component ids sorted by decreasing size.
    pub fn by_decreasing_size(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.count).collect();
        ids.sort_by_key(|&c| std::cmp::Reverse(self.sizes[c as usize]));
        ids
    }

    /// The vertices of each component, grouped: `groups[c]` lists the
    /// vertices of component `c` in increasing order.
    pub fn groups(&self) -> Vec<Vec<u32>> {
        let mut groups: Vec<Vec<u32>> = self
            .sizes
            .iter()
            .map(|&s| Vec::with_capacity(s as usize))
            .collect();
        for (v, &c) in self.comp.iter().enumerate() {
            groups[c as usize].push(v as u32);
        }
        groups
    }
}

/// Labels connected components with iterative BFS.
pub fn connected_components(g: &Graph) -> Components {
    let n = g.n() as usize;
    let mut comp = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = Vec::new();
    for s in 0..g.n() {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        let id = sizes.len() as u32;
        let mut size = 0u32;
        comp[s as usize] = id;
        queue.clear();
        queue.push(s);
        while let Some(u) = queue.pop() {
            size += 1;
            for &v in g.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = id;
                    queue.push(v);
                }
            }
        }
        sizes.push(size);
    }
    Components {
        comp,
        count: sizes.len() as u32,
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_components() -> Graph {
        // Path 0-1-2 and edge 3-4, isolated 5.
        Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)])
    }

    #[test]
    fn bfs_levels() {
        let g = two_components();
        let r = bfs(&g, 0);
        assert_eq!(r.level[0], 0);
        assert_eq!(r.level[1], 1);
        assert_eq!(r.level[2], 2);
        assert_eq!(r.level[3], u32::MAX);
        assert_eq!(r.eccentricity(), 2);
        assert_eq!(r.order.len(), 3);
    }

    #[test]
    fn bfs_filtered_respects_mask() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = bfs_filtered(&g, 0, |v| v != 1);
        assert_eq!(r.order, vec![0]);
        assert_eq!(r.level[2], u32::MAX);
    }

    #[test]
    fn components_found() {
        let g = two_components();
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.comp[0], c.comp[2]);
        assert_ne!(c.comp[0], c.comp[3]);
        let mut sizes = c.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert_eq!(c.by_decreasing_size().len(), 3);
        let groups = c.groups();
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), 6);
    }

    #[test]
    fn pseudo_peripheral_on_path() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = pseudo_peripheral(&g, 2);
        assert!(p == 0 || p == 4, "endpoint of the path expected, got {p}");
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::empty(1);
        let r = bfs(&g, 0);
        assert_eq!(r.order, vec![0]);
        let c = connected_components(&g);
        assert_eq!(c.count, 1);
    }
}
