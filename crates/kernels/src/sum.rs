//! SUM — the paper's low-complexity benchmark kernel (Table III).
//!
//! One addition per f64 data item; the paper measured 860 MB/s per core.
//! Result: the running sum plus the item count (16 bytes), so active I/O
//! replaces a multi-hundred-MB transfer with a constant-size result.

use crate::itemstream::ItemBuf;
use crate::kernel::{Complexity, Kernel, KernelError, KernelState, VarValue};

pub const OP_NAME: &str = "sum";

/// Streaming sum of little-endian f64 items.
#[derive(Debug, Clone, Default)]
pub struct SumKernel {
    sum: f64,
    count: u64,
    buf: ItemBuf,
    bytes: u64,
}

impl SumKernel {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild from a checkpoint written by [`Kernel::checkpoint`].
    pub fn from_state(state: &KernelState) -> Result<Self, KernelError> {
        if state.op != OP_NAME {
            return Err(KernelError::WrongOp {
                expected: OP_NAME.into(),
                found: state.op.clone(),
            });
        }
        Ok(SumKernel {
            sum: state.get_f64("sum")?,
            count: state.get_u64("count")?,
            buf: ItemBuf::from_carry(state.get_bytes("carry")?.to_vec()),
            bytes: state.get_u64("bytes")?,
        })
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Decode a result produced by [`Kernel::finalize`].
    pub fn decode_result(bytes: &[u8]) -> Option<(f64, u64)> {
        if bytes.len() != 16 {
            return None;
        }
        let sum = f64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let count = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        Some((sum, count))
    }
}

impl Kernel for SumKernel {
    fn op_name(&self) -> &str {
        OP_NAME
    }

    fn process_chunk(&mut self, chunk: &[u8]) {
        self.bytes += chunk.len() as u64;
        let mut sum = self.sum;
        let mut count = self.count;
        self.buf.feed_f64(chunk, |v| {
            sum += v;
            count += 1;
        });
        self.sum = sum;
        self.count = count;
    }

    fn finalize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out
    }

    fn checkpoint(&self) -> KernelState {
        let mut s = KernelState::new(OP_NAME);
        s.push("sum", VarValue::F64(self.sum));
        s.push("count", VarValue::U64(self.count));
        s.push("carry", VarValue::Bytes(self.buf.carry().to_vec()));
        s.push("bytes", VarValue::U64(self.bytes));
        s
    }

    fn result_size(&self, _input_bytes: u64) -> u64 {
        16
    }

    fn complexity(&self) -> Complexity {
        Complexity {
            muls_per_item: 0,
            adds_per_item: 1,
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
    fn sums_a_stream() {
        let mut k = SumKernel::new();
        k.process_chunk(&encode(&[1.0, 2.0, 3.5]));
        assert_eq!(k.sum(), 6.5);
        assert_eq!(k.count(), 3);
        assert_eq!(k.bytes_processed(), 24);
        assert_eq!(SumKernel::decode_result(&k.finalize()), Some((6.5, 3)));
    }

    #[test]
    fn chunk_boundaries_do_not_matter() {
        let data = encode(&[1.0, -2.0, 3.0, 4.25]);
        let mut whole = SumKernel::new();
        whole.process_chunk(&data);
        let mut split = SumKernel::new();
        split.process_chunk(&data[..13]);
        split.process_chunk(&data[13..]);
        assert_eq!(whole.finalize(), split.finalize());
    }

    #[test]
    fn checkpoint_restore_resumes_exactly() {
        let data = encode(&[5.0, 6.0, 7.0]);
        let mut a = SumKernel::new();
        a.process_chunk(&data);

        let mut b = SumKernel::new();
        b.process_chunk(&data[..10]); // mid-item
        let state = b.checkpoint();
        let mut b2 = SumKernel::from_state(&state).unwrap();
        b2.process_chunk(&data[10..]);
        assert_eq!(a.finalize(), b2.finalize());
        assert_eq!(b2.bytes_processed(), 24);
    }

    #[test]
    fn restore_rejects_wrong_op() {
        let state = KernelState::new("grep");
        assert!(matches!(
            SumKernel::from_state(&state),
            Err(KernelError::WrongOp { .. })
        ));
    }

    #[test]
    fn result_is_constant_size() {
        let k = SumKernel::new();
        assert_eq!(k.result_size(0), 16);
        assert_eq!(k.result_size(1 << 30), 16);
    }

    #[test]
    fn complexity_matches_table_iii() {
        let c = SumKernel::new().complexity();
        assert_eq!(c.adds_per_item, 1);
        assert_eq!(c.total_ops_per_item(), 1);
        assert_eq!(c.item_bytes, 8);
    }

    #[test]
    fn decode_rejects_bad_length() {
        assert_eq!(SumKernel::decode_result(&[0; 15]), None);
    }

    #[test]
    fn empty_input_finalizes_to_zero() {
        let k = SumKernel::new();
        assert_eq!(SumKernel::decode_result(&k.finalize()), Some((0.0, 0)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Sum over any values with any split point equals the naive sum.
        #[test]
        fn matches_naive_sum(
            vals in proptest::collection::vec(-1e6f64..1e6, 0..256),
            split in 0usize..2048,
        ) {
            let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            let cut = split.min(data.len());
            let mut k = SumKernel::new();
            k.process_chunk(&data[..cut]);
            // Interrupt + restore mid-stream.
            let mut k = SumKernel::from_state(&k.checkpoint()).unwrap();
            k.process_chunk(&data[cut..]);
            let (sum, count) = SumKernel::decode_result(&k.finalize()).unwrap();
            let naive: f64 = vals.iter().sum();
            prop_assert_eq!(count, vals.len() as u64);
            prop_assert!((sum - naive).abs() <= 1e-9 * naive.abs().max(1.0));
        }
    }
}
