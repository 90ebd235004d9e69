//! One k-means assignment/accumulation pass over a 1-D f64 stream.
//!
//! K-means over scientific data is the heavyweight end of the classic
//! active-storage kernel suite (Son et al. ship a kmeans kernel with their
//! PVFS active storage). One `process` pass assigns each item to its nearest
//! centroid and accumulates per-cluster sums/counts; `finalize` emits the
//! updated centroids plus counts. The driver (or application) iterates
//! passes until convergence.

use crate::itemstream::ItemBuf;
use crate::kernel::{Complexity, Kernel, KernelError, KernelState, VarValue};

pub const OP_NAME: &str = "kmeans1d";

/// One streaming Lloyd's-algorithm pass.
#[derive(Debug, Clone)]
pub struct KMeansKernel {
    centroids: Vec<f64>,
    sums: Vec<f64>,
    counts: Vec<u64>,
    buf: ItemBuf,
    bytes: u64,
}

impl KMeansKernel {
    pub fn new(centroids: Vec<f64>) -> Result<Self, KernelError> {
        if centroids.is_empty() {
            return Err(KernelError::BadParams(
                "kmeans needs at least one centroid".into(),
            ));
        }
        let k = centroids.len();
        Ok(KMeansKernel {
            centroids,
            sums: vec![0.0; k],
            counts: vec![0; k],
            buf: ItemBuf::new(),
            bytes: 0,
        })
    }

    pub fn from_state(state: &KernelState) -> Result<Self, KernelError> {
        if state.op != OP_NAME {
            return Err(KernelError::WrongOp {
                expected: OP_NAME.into(),
                found: state.op.clone(),
            });
        }
        let centroids = state.get_f64_vec("centroids")?.to_vec();
        let sums = state.get_f64_vec("sums")?.to_vec();
        let counts = state.get_u64_vec("counts")?.to_vec();
        if centroids.is_empty() || sums.len() != centroids.len() || counts.len() != centroids.len()
        {
            return Err(KernelError::BadParams(
                "kmeans checkpoint arrays disagree on k".into(),
            ));
        }
        Ok(KMeansKernel {
            centroids,
            sums,
            counts,
            buf: ItemBuf::from_carry(state.get_bytes("carry")?.to_vec()),
            bytes: state.get_u64("bytes")?,
        })
    }

    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Updated centroids after this pass (clusters with no members keep
    /// their previous centroid).
    pub fn updated_centroids(&self) -> Vec<f64> {
        self.centroids
            .iter()
            .zip(self.sums.iter().zip(&self.counts))
            .map(|(&old, (&sum, &count))| if count > 0 { sum / count as f64 } else { old })
            .collect()
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Decode a result: `(updated_centroids, counts)`.
    pub fn decode_result(bytes: &[u8]) -> Option<(Vec<f64>, Vec<u64>)> {
        if bytes.len() < 8 || !(bytes.len() - 8).is_multiple_of(16) {
            return None;
        }
        let k = u64::from_le_bytes(bytes[0..8].try_into().unwrap()) as usize;
        if bytes.len() != 8 + 16 * k {
            return None;
        }
        let mut centroids = Vec::with_capacity(k);
        let mut counts = Vec::with_capacity(k);
        for i in 0..k {
            let off = 8 + i * 8;
            centroids.push(f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()));
        }
        for i in 0..k {
            let off = 8 + 8 * k + i * 8;
            counts.push(u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()));
        }
        Some((centroids, counts))
    }
}

impl Kernel for KMeansKernel {
    fn op_name(&self) -> &str {
        OP_NAME
    }

    fn process_chunk(&mut self, chunk: &[u8]) {
        self.bytes += chunk.len() as u64;
        let centroids = &self.centroids;
        let sums = &mut self.sums;
        let counts = &mut self.counts;
        self.buf.feed_f64(chunk, |v| {
            let mut best = 0usize;
            let mut best_d = (v - centroids[0]).abs();
            for (i, &c) in centroids.iter().enumerate().skip(1) {
                let d = (v - c).abs();
                if d < best_d {
                    best = i;
                    best_d = d;
                }
            }
            sums[best] += v;
            counts[best] += 1;
        });
    }

    fn finalize(&self) -> Vec<u8> {
        let k = self.k();
        let mut out = Vec::with_capacity(8 + 16 * k);
        out.extend_from_slice(&(k as u64).to_le_bytes());
        for c in self.updated_centroids() {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for &c in &self.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    fn checkpoint(&self) -> KernelState {
        let mut s = KernelState::new(OP_NAME);
        s.push("centroids", VarValue::F64Vec(self.centroids.clone()));
        s.push("sums", VarValue::F64Vec(self.sums.clone()));
        s.push("counts", VarValue::U64Vec(self.counts.clone()));
        s.push("carry", VarValue::Bytes(self.buf.carry().to_vec()));
        s.push("bytes", VarValue::U64(self.bytes));
        s
    }

    fn result_size(&self, _input_bytes: u64) -> u64 {
        8 + 16 * self.k() as u64
    }

    fn complexity(&self) -> Complexity {
        // ~k distance computations (1 sub + 1 abs + 1 cmp each) per item.
        let k = self.k() as u32;
        Complexity {
            muls_per_item: 0,
            adds_per_item: 3 * k,
            divs_per_item: 0,
            item_bytes: 8,
        }
    }

    fn bytes_processed(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(vals: &[f64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn assigns_to_nearest_centroid() {
        let mut k = KMeansKernel::new(vec![0.0, 10.0]).unwrap();
        k.process_chunk(&encode(&[1.0, 2.0, 9.0, 11.0]));
        assert_eq!(k.counts(), &[2, 2]);
        let c = k.updated_centroids();
        assert!((c[0] - 1.5).abs() < 1e-12);
        assert!((c[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_keeps_centroid() {
        let mut k = KMeansKernel::new(vec![0.0, 100.0]).unwrap();
        k.process_chunk(&encode(&[1.0, 2.0]));
        let c = k.updated_centroids();
        assert_eq!(c[1], 100.0);
        assert_eq!(k.counts(), &[2, 0]);
    }

    #[test]
    fn result_roundtrip() {
        let mut k = KMeansKernel::new(vec![0.0, 10.0]).unwrap();
        k.process_chunk(&encode(&[1.0, 9.0]));
        let (centroids, counts) = KMeansKernel::decode_result(&k.finalize()).unwrap();
        assert_eq!(centroids.len(), 2);
        assert_eq!(counts, vec![1, 1]);
        assert_eq!(k.result_size(1 << 30), 8 + 32);
    }

    #[test]
    fn checkpoint_restore_equivalence() {
        let data = encode(&[3.0, 7.0, 1.0, 9.5, 4.2, 8.8]);
        let mut whole = KMeansKernel::new(vec![2.0, 8.0]).unwrap();
        whole.process_chunk(&data);

        let mut a = KMeansKernel::new(vec![2.0, 8.0]).unwrap();
        a.process_chunk(&data[..21]);
        let mut b = KMeansKernel::from_state(&a.checkpoint()).unwrap();
        b.process_chunk(&data[21..]);
        assert_eq!(whole.finalize(), b.finalize());
    }

    #[test]
    fn no_centroids_rejected() {
        assert!(KMeansKernel::new(vec![]).is_err());
    }

    #[test]
    fn iterated_passes_converge() {
        // Two well-separated groups; Lloyd's converges in a few passes.
        let vals: Vec<f64> = (0..50)
            .map(|i| {
                if i % 2 == 0 {
                    1.0 + (i % 5) as f64 * 0.1
                } else {
                    50.0 + (i % 7) as f64 * 0.1
                }
            })
            .collect();
        let data = encode(&vals);
        let mut centroids = vec![0.0, 10.0];
        for _ in 0..5 {
            let mut k = KMeansKernel::new(centroids.clone()).unwrap();
            k.process_chunk(&data);
            centroids = k.updated_centroids();
        }
        assert!((centroids[0] - 1.2).abs() < 0.1, "{centroids:?}");
        assert!((centroids[1] - 50.3).abs() < 0.1, "{centroids:?}");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(KMeansKernel::decode_result(&[1, 2, 3]).is_none());
        // k claims 5 clusters but payload is for 1.
        let mut bad = 5u64.to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 16]);
        assert!(KMeansKernel::decode_result(&bad).is_none());
    }
}
