//! Percentiles and the outcome-log digest.

use nod_broker::{OutcomeEvent, OutcomeKind};

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q · n` samples at or below it.
/// `None` on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// 64-bit FNV-1a, fed field by field.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorb raw bytes.
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorb a `u64`, little-endian.
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of an outcome log: every event's instant, session and kind
/// with all its fields. Equal logs give equal digests.
pub fn log_digest(events: &[OutcomeEvent]) -> u64 {
    let mut h = Fnv::default();
    for ev in events {
        h.u64(ev.at_ms);
        h.u64(ev.session as u64);
        match &ev.kind {
            OutcomeKind::Admitted { degraded, attempt } => {
                h.u64(0);
                h.u64(*degraded as u64);
                h.u64(*attempt as u64);
            }
            OutcomeKind::RetryScheduled { at_ms, attempt } => {
                h.u64(1);
                h.u64(*at_ms);
                h.u64(*attempt as u64);
            }
            OutcomeKind::Starved { attempts } => {
                h.u64(2);
                h.u64(*attempts as u64);
            }
            OutcomeKind::Rejected { status } => {
                h.u64(3);
                h.bytes(status.to_string().as_bytes());
            }
            OutcomeKind::Errored { error } => {
                h.u64(4);
                h.bytes(error.as_bytes());
            }
            OutcomeKind::Confirmed => h.u64(5),
            OutcomeKind::Departed => h.u64(6),
            OutcomeKind::FaultEdge => h.u64(7),
        }
    }
    h.finish()
}

/// One digest for a sequence of digests, order-sensitive.
pub fn combine_digests(digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    digests.iter().for_each(|&d| h.u64(d));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7, 9, 30], 0.5), Some(9));
        assert_eq!(percentile(&[7, 9, 30], 0.99), Some(30));
        assert_eq!(percentile(&[42], 0.01), Some(42));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
