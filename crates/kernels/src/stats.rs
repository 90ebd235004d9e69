//! Descriptive statistics kernel: min/max/mean/variance/count over f64 items.
//!
//! The climate-analysis style reduction active storage was designed for
//! (cf. Son et al.'s statistics kernels): hundreds of MB in, 40 bytes out.
//! Uses Welford's algorithm, whose state (count, mean, M2) checkpoints to
//! three scalars.

use crate::itemstream::ItemBuf;
use crate::kernel::{Complexity, Kernel, KernelError, KernelState, VarValue};

pub const OP_NAME: &str = "stats";

/// Streaming min/max/mean/variance.
#[derive(Debug, Clone)]
pub struct StatsKernel {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    buf: ItemBuf,
    bytes: u64,
}

impl Default for StatsKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsKernel {
    pub fn new() -> Self {
        StatsKernel {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buf: ItemBuf::new(),
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
        Ok(StatsKernel {
            count: state.get_u64("count")?,
            mean: state.get_f64("mean")?,
            m2: state.get_f64("m2")?,
            min: state.get_f64("min")?,
            max: state.get_f64("max")?,
            buf: ItemBuf::from_carry(state.get_bytes("carry")?.to_vec()),
            bytes: state.get_u64("bytes")?,
        })
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Decode a result: `(min, max, mean, variance, count)`.
    pub fn decode_result(bytes: &[u8]) -> Option<(f64, f64, f64, f64, u64)> {
        if bytes.len() != 40 {
            return None;
        }
        let f = |i: usize| f64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        Some((
            f(0),
            f(8),
            f(16),
            f(24),
            u64::from_le_bytes(bytes[32..40].try_into().unwrap()),
        ))
    }
}

impl Kernel for StatsKernel {
    fn op_name(&self) -> &str {
        OP_NAME
    }

    fn process_chunk(&mut self, chunk: &[u8]) {
        self.bytes += chunk.len() as u64;
        let mut count = self.count;
        let mut mean = self.mean;
        let mut m2 = self.m2;
        let mut min = self.min;
        let mut max = self.max;
        self.buf.feed_f64(chunk, |v| {
            count += 1;
            let delta = v - mean;
            mean += delta / count as f64;
            m2 += delta * (v - mean);
            min = min.min(v);
            max = max.max(v);
        });
        self.count = count;
        self.mean = mean;
        self.m2 = m2;
        self.min = min;
        self.max = max;
    }

    fn finalize(&self) -> Vec<u8> {
        let (min, max) = if self.count == 0 {
            (0.0, 0.0)
        } else {
            (self.min, self.max)
        };
        let mean = if self.count == 0 { 0.0 } else { self.mean };
        let var = if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        };
        let mut out = Vec::with_capacity(40);
        out.extend_from_slice(&min.to_le_bytes());
        out.extend_from_slice(&max.to_le_bytes());
        out.extend_from_slice(&mean.to_le_bytes());
        out.extend_from_slice(&var.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out
    }

    fn checkpoint(&self) -> KernelState {
        let mut s = KernelState::new(OP_NAME);
        s.push("count", VarValue::U64(self.count));
        s.push("mean", VarValue::F64(self.mean));
        s.push("m2", VarValue::F64(self.m2));
        s.push("min", VarValue::F64(self.min));
        s.push("max", VarValue::F64(self.max));
        s.push("carry", VarValue::Bytes(self.buf.carry().to_vec()));
        s.push("bytes", VarValue::U64(self.bytes));
        s
    }

    fn result_size(&self, _input_bytes: u64) -> u64 {
        40
    }

    fn complexity(&self) -> Complexity {
        Complexity {
            muls_per_item: 1,
            adds_per_item: 3,
            divs_per_item: 1,
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
    fn known_moments() {
        let mut k = StatsKernel::new();
        k.process_chunk(&encode(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]));
        let (min, max, mean, var, count) = StatsKernel::decode_result(&k.finalize()).unwrap();
        assert_eq!((min, max), (2.0, 9.0));
        assert!((mean - 5.0).abs() < 1e-12);
        assert!((var - 4.0).abs() < 1e-12);
        assert_eq!(count, 8);
    }

    #[test]
    fn empty_input_is_zeroes() {
        let k = StatsKernel::new();
        let (min, max, mean, var, count) = StatsKernel::decode_result(&k.finalize()).unwrap();
        assert_eq!((min, max, mean, var, count), (0.0, 0.0, 0.0, 0.0, 0));
        assert!(k.mean().is_nan());
        assert!(k.variance().is_nan());
    }

    #[test]
    fn checkpoint_restore_equivalence() {
        let data = encode(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut whole = StatsKernel::new();
        whole.process_chunk(&data);

        let mut a = StatsKernel::new();
        a.process_chunk(&data[..17]);
        let mut b = StatsKernel::from_state(&a.checkpoint()).unwrap();
        b.process_chunk(&data[17..]);
        assert_eq!(whole.finalize(), b.finalize());
    }

    #[test]
    fn wrong_op_rejected() {
        assert!(StatsKernel::from_state(&KernelState::new("sum")).is_err());
    }

    #[test]
    fn result_size_constant() {
        assert_eq!(StatsKernel::new().result_size(1 << 30), 40);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Stats match naive computation under any chunk split.
        #[test]
        fn matches_naive(
            vals in proptest::collection::vec(-1e5f64..1e5, 1..200),
            cut_frac in 0.0f64..1.0,
        ) {
            let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            let cut = ((data.len() as f64) * cut_frac) as usize;
            let mut k = StatsKernel::new();
            k.process_chunk(&data[..cut]);
            let mut k = StatsKernel::from_state(&k.checkpoint()).unwrap();
            k.process_chunk(&data[cut..]);
            let (min, max, mean, var, count) =
                StatsKernel::decode_result(&k.finalize()).unwrap();

            let n = vals.len() as f64;
            let nmean = vals.iter().sum::<f64>() / n;
            let nvar = vals.iter().map(|v| (v - nmean).powi(2)).sum::<f64>() / n;
            prop_assert_eq!(count, vals.len() as u64);
            prop_assert_eq!(min, vals.iter().cloned().fold(f64::INFINITY, f64::min));
            prop_assert_eq!(max, vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
            prop_assert!((mean - nmean).abs() < 1e-7 * nmean.abs().max(1.0));
            prop_assert!((var - nvar).abs() < 1e-5 * nvar.abs().max(1.0));
        }
    }
}
