//! `graph`: edge insertion into an adjacency-list graph (Table 3).
//!
//! This is exactly the motivating example of the paper's introduction:
//! inserting a node into a linked list writes the node *then* the head
//! pointer, and a reordered write-back of the pointer before the node
//! leaves a dangling pointer after a crash.

use pmacc_types::{Addr, Word, WORD_BYTES};

use crate::{MemSession, WorkloadParams};

const EDGE_WORDS: u64 = 8; // one cache line per edge node
const F_TO: u64 = 0;
const F_WEIGHT: u64 = 1;
const F_NEXT: u64 = 2;

/// A persistent directed graph stored as per-vertex edge lists.
#[derive(Debug, Clone)]
pub struct AdjacencyGraph {
    heads: Addr,
    n_vertices: u64,
}

impl AdjacencyGraph {
    /// Allocates a graph with `n_vertices` empty adjacency lists (setup).
    #[must_use]
    pub fn create(s: &mut MemSession, n_vertices: u64) -> Self {
        assert!(n_vertices > 0, "graph needs at least one vertex");
        let heads = s.alloc_p(n_vertices);
        for i in 0..n_vertices {
            s.write(heads.offset(i * WORD_BYTES), 0);
        }
        AdjacencyGraph { heads, n_vertices }
    }

    fn head_slot(&self, u: u64) -> Addr {
        assert!(u < self.n_vertices, "vertex {u} out of range");
        self.heads.offset(u * WORD_BYTES)
    }

    fn field(node: Word, f: u64) -> Addr {
        Addr::new(node + f * WORD_BYTES)
    }

    /// Inserts edge `u -> v` with `weight`, prepending to `u`'s list, in
    /// one transaction (node value writes before the head-pointer write,
    /// the ordering the paper's introduction worries about).
    pub fn insert_edge(&self, s: &mut MemSession, u: u64, v: u64, weight: Word) {
        let slot = self.head_slot(u);
        s.tx(|s| {
            s.compute(3); // bounds check + allocator bookkeeping
            let head = s.read(slot);
            let node = s.alloc_p(EDGE_WORDS).raw();
            s.write(Self::field(node, F_TO), v);
            s.write(Self::field(node, F_WEIGHT), weight);
            s.write(Self::field(node, F_NEXT), head);
            s.compute(2);
            s.write(slot, node);
        });
    }

    /// Inserts a random edge.
    pub fn insert_random_edge(&self, s: &mut MemSession) {
        let u = s.rng().gen_range(0..self.n_vertices);
        let v = s.rng().gen_range(0..self.n_vertices);
        let w: Word = s.rng().gen_range(1..1000);
        self.insert_edge(s, u, v, w);
    }

    /// The out-edges of `u` as `(to, weight)`, newest first (verification).
    #[must_use]
    pub fn edges(&self, s: &MemSession, u: u64) -> Vec<(u64, Word)> {
        let mut out = Vec::new();
        let mut cur = s.peek(self.head_slot(u));
        while cur != 0 {
            out.push((
                s.peek(Self::field(cur, F_TO)),
                s.peek(Self::field(cur, F_WEIGHT)),
            ));
            cur = s.peek(Self::field(cur, F_NEXT));
        }
        out
    }

    /// Verifies all edge targets are valid vertices and lists terminate.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check(&self, s: &MemSession) -> Result<(), String> {
        for u in 0..self.n_vertices {
            let mut cur = s.peek(self.head_slot(u));
            let mut hops = 0u64;
            while cur != 0 {
                let to = s.peek(Self::field(cur, F_TO));
                if to >= self.n_vertices {
                    return Err(format!("edge from {u} to invalid vertex {to}"));
                }
                hops += 1;
                if hops > 1_000_000 {
                    return Err(format!("cycle in adjacency list of {u}"));
                }
                cur = s.peek(Self::field(cur, F_NEXT));
            }
        }
        Ok(())
    }
}

/// The `graph` workload: random edges into a graph of `setup_items / 8`
/// vertices, unrecorded, then `num_ops` recorded edge inserts.
pub(crate) fn generate(s: &mut MemSession, p: &WorkloadParams) {
    // The vertex-head array is the hot set; edge nodes go cold.
    let vertices = (p.setup_items as u64 / 8).max(4);
    let g = AdjacencyGraph::create(s, vertices);
    for _ in 0..p.setup_items {
        g.insert_random_edge(s);
    }
    s.start_recording();
    for _ in 0..p.num_ops {
        g.insert_random_edge(s);
    }
    g.check(s).expect("graph invariants");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_prepend_newest_first() {
        let mut s = MemSession::new(0);
        let g = AdjacencyGraph::create(&mut s, 4);
        s.start_recording();
        g.insert_edge(&mut s, 0, 1, 10);
        g.insert_edge(&mut s, 0, 2, 20);
        assert_eq!(g.edges(&s, 0), vec![(2, 20), (1, 10)]);
        assert_eq!(g.edges(&s, 1), vec![]);
        g.check(&s).unwrap();
        assert_eq!(s.trace().transactions(), 2);
    }

    #[test]
    fn node_writes_precede_head_write_in_trace() {
        use pmacc_cpu::Op;
        let mut s = MemSession::new(0);
        let g = AdjacencyGraph::create(&mut s, 2);
        let slot_addr = g.head_slot(0);
        s.start_recording();
        g.insert_edge(&mut s, 0, 1, 5);
        let stores: Vec<Addr> = s
            .trace()
            .ops()
            .iter()
            .filter_map(|o| match o {
                Op::Store { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        assert_eq!(stores.len(), 4);
        assert_eq!(
            *stores.last().unwrap(),
            slot_addr,
            "head pointer written last"
        );
    }

    #[test]
    fn random_edges_stay_valid() {
        let mut s = MemSession::new(11);
        let g = AdjacencyGraph::create(&mut s, 16);
        for _ in 0..100 {
            g.insert_random_edge(&mut s);
        }
        g.check(&s).unwrap();
        let total: usize = (0..16).map(|u| g.edges(&s, u).len()).sum();
        assert_eq!(total, 100);
    }
}
