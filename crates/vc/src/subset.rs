//! Ligra's `vertexSubset`: a set of vertices in either sparse (id list) or
//! dense (bitmap) representation.

use dppr_graph::VertexId;

/// A subset of the vertices `0..n`, stored sparse or dense.
#[derive(Debug, Clone)]
pub struct VertexSubset {
    n: usize,
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    Sparse(Vec<VertexId>),
    Dense(Vec<bool>, usize),
}

impl VertexSubset {
    /// An empty subset over `n` vertices.
    pub fn empty(n: usize) -> Self {
        VertexSubset { n, repr: Repr::Sparse(Vec::new()) }
    }

    /// A sparse subset from an id list (ids must be `< n` and distinct).
    pub fn from_sparse(n: usize, ids: Vec<VertexId>) -> Self {
        debug_assert!(ids.iter().all(|&v| (v as usize) < n));
        VertexSubset { n, repr: Repr::Sparse(ids) }
    }

    /// A dense subset from a bitmap of length `n`.
    pub fn from_dense(bits: Vec<bool>) -> Self {
        let count = bits.iter().filter(|&&b| b).count();
        VertexSubset { n: bits.len(), repr: Repr::Dense(bits, count) }
    }

    /// The universe size `n`.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sparse(ids) => ids.len(),
            Repr::Dense(_, count) => *count,
        }
    }

    /// Whether the subset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test. O(1) dense, O(|S|) sparse.
    pub fn contains(&self, v: VertexId) -> bool {
        match &self.repr {
            Repr::Sparse(ids) => ids.contains(&v),
            Repr::Dense(bits, _) => bits.get(v as usize).copied().unwrap_or(false),
        }
    }

    /// Whether the current representation is dense.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(..))
    }

    /// Converts to the dense representation (idempotent).
    pub fn to_dense(&mut self) {
        if let Repr::Sparse(ids) = &self.repr {
            let mut bits = vec![false; self.n];
            for &v in ids {
                bits[v as usize] = true;
            }
            let count = ids.len();
            self.repr = Repr::Dense(bits, count);
        }
    }

    /// Converts to the sparse representation (idempotent).
    pub fn to_sparse(&mut self) {
        if let Repr::Dense(bits, _) = &self.repr {
            let ids: Vec<VertexId> =
                bits.iter().enumerate().filter_map(|(v, &b)| b.then_some(v as VertexId)).collect();
            self.repr = Repr::Sparse(ids);
        }
    }

    /// The member ids (forces a sparse conversion if needed).
    pub fn ids(&mut self) -> &[VertexId] {
        self.to_sparse();
        match &self.repr {
            Repr::Sparse(ids) => ids,
            Repr::Dense(..) => unreachable!(),
        }
    }

    /// Member ids without mutating the representation (allocates for
    /// dense subsets).
    pub fn collect_ids(&self) -> Vec<VertexId> {
        match &self.repr {
            Repr::Sparse(ids) => ids.clone(),
            Repr::Dense(bits, _) => {
                bits.iter().enumerate().filter_map(|(v, &b)| b.then_some(v as VertexId)).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_roundtrip() {
        let mut s = VertexSubset::from_sparse(10, vec![1, 5, 7]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(5));
        assert!(!s.contains(2));
        s.to_dense();
        assert!(s.is_dense());
        assert_eq!(s.len(), 3);
        assert!(s.contains(5));
        s.to_sparse();
        assert_eq!(s.ids(), &[1, 5, 7]);
    }

    #[test]
    fn dense_construction() {
        let s = VertexSubset::from_dense(vec![true, false, true]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.universe(), 3);
        assert_eq!(s.collect_ids(), vec![0, 2]);
    }

    #[test]
    fn empty_subset() {
        let mut s = VertexSubset::empty(4);
        assert!(s.is_empty());
        s.to_dense();
        assert!(s.is_empty());
        assert_eq!(s.collect_ids(), Vec::<VertexId>::new());
    }
}
