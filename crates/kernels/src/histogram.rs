//! Byte-histogram kernel: 256-bin frequency count.
//!
//! Frequency analysis over raw bytes — the cheapest possible data-reduction
//! kernel after SUM, useful as an extra point on the computation-complexity
//! axis (paper §IV-B1 studies how complexity moves the AS/TS crossover).

use crate::kernel::{Complexity, Kernel, KernelError, KernelState, VarValue};

pub const OP_NAME: &str = "histogram";

/// Streaming 256-bin byte histogram.
#[derive(Debug, Clone)]
pub struct HistogramKernel {
    bins: Vec<u64>,
    bytes: u64,
}

impl Default for HistogramKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramKernel {
    pub fn new() -> Self {
        HistogramKernel {
            bins: vec![0; 256],
            bytes: 0,
        }
    }

    pub fn from_state(state: &KernelState) -> Result<Self, KernelError> {
        if state.op != OP_NAME {
            return Err(KernelError::WrongOp {
                expected: OP_NAME.into(),
                found: state.op.clone(),
            });
        }
        let bins = state.get_u64_vec("bins")?.to_vec();
        if bins.len() != 256 {
            return Err(KernelError::BadParams(format!(
                "histogram checkpoint has {} bins, want 256",
                bins.len()
            )));
        }
        Ok(HistogramKernel {
            bins,
            bytes: state.get_u64("bytes")?,
        })
    }

    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    pub fn decode_result(bytes: &[u8]) -> Option<Vec<u64>> {
        if bytes.len() != 256 * 8 {
            return None;
        }
        Some(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        )
    }
}

impl Kernel for HistogramKernel {
    fn op_name(&self) -> &str {
        OP_NAME
    }

    fn process_chunk(&mut self, chunk: &[u8]) {
        self.bytes += chunk.len() as u64;
        for &b in chunk {
            self.bins[b as usize] += 1;
        }
    }

    fn finalize(&self) -> Vec<u8> {
        self.bins.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn checkpoint(&self) -> KernelState {
        let mut s = KernelState::new(OP_NAME);
        s.push("bins", VarValue::U64Vec(self.bins.clone()));
        s.push("bytes", VarValue::U64(self.bytes));
        s
    }

    fn result_size(&self, _input_bytes: u64) -> u64 {
        256 * 8
    }

    fn complexity(&self) -> Complexity {
        Complexity {
            muls_per_item: 0,
            adds_per_item: 1,
            divs_per_item: 0,
            item_bytes: 1,
        }
    }

    fn bytes_processed(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_byte_frequencies() {
        let mut k = HistogramKernel::new();
        k.process_chunk(&[0, 1, 1, 255, 255, 255]);
        assert_eq!(k.bins()[0], 1);
        assert_eq!(k.bins()[1], 2);
        assert_eq!(k.bins()[255], 3);
        assert_eq!(k.bytes_processed(), 6);
    }

    #[test]
    fn result_roundtrip() {
        let mut k = HistogramKernel::new();
        k.process_chunk(b"hello");
        let bins = HistogramKernel::decode_result(&k.finalize()).unwrap();
        assert_eq!(bins[b'l' as usize], 2);
        assert_eq!(bins.iter().sum::<u64>(), 5);
    }

    #[test]
    fn checkpoint_restore_equivalence() {
        let data: Vec<u8> = (0..=255).cycle().take(1000).collect();
        let mut whole = HistogramKernel::new();
        whole.process_chunk(&data);
        let mut a = HistogramKernel::new();
        a.process_chunk(&data[..333]);
        let mut b = HistogramKernel::from_state(&a.checkpoint()).unwrap();
        b.process_chunk(&data[333..]);
        assert_eq!(whole.finalize(), b.finalize());
    }

    #[test]
    fn bad_checkpoint_rejected() {
        let mut s = KernelState::new(OP_NAME);
        s.push("bins", VarValue::U64Vec(vec![0; 10]));
        s.push("bytes", VarValue::U64(0));
        assert!(matches!(
            HistogramKernel::from_state(&s),
            Err(KernelError::BadParams(_))
        ));
    }

    #[test]
    fn result_size_fixed() {
        assert_eq!(HistogramKernel::new().result_size(1 << 30), 2048);
    }
}
