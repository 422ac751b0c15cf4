//! The request outcome ledger — the load generator's determinism witness.
//!
//! Every client appends one entry per *finally resolved* request: the
//! operation, its line, a digest of the data that moved, and the outcome
//! class. Transient outcomes (`Busy` shed, reconnect after a dropped
//! connection, a CRC-corrupted response) are **not** entries — the client
//! retries until the request resolves, so the ledger records what the
//! service ultimately did, not how bumpy the road was. That collapse is
//! what makes the ledger *fault-invariant*: a run with injected connection
//! drops, shard stalls and response corruption produces byte-identical
//! ledgers to a clean run with the same seed, which CI exploits by diffing
//! both against one golden.
//!
//! Per-client ledgers digest to a CRC-32; the run-level digest chains the
//! per-client digests in client order, so it is independent of thread
//! interleaving as long as each client's own stream is deterministic
//! (clients own disjoint address partitions, so they are).

use reram_obs::crc32;

/// Outcome classes a resolved request can land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Read returned data.
    ReadOk,
    /// Write acknowledged clean.
    WriteOk,
    /// Write acknowledged with the line in degraded mode.
    WriteDegraded,
    /// Open-loop only: the request was shed with `Busy` and not retried.
    Shed,
    /// The server answered with a typed error.
    Error,
}

impl Outcome {
    fn tag(self) -> u8 {
        match self {
            Outcome::ReadOk => 1,
            Outcome::WriteOk => 2,
            Outcome::WriteDegraded => 3,
            Outcome::Shed => 4,
            Outcome::Error => 5,
        }
    }
}

/// One client's append-only outcome record.
#[derive(Debug, Default)]
pub struct Ledger {
    buf: Vec<u8>,
    entries: u64,
}

impl Ledger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one resolved request: `is_write`, the service line address,
    /// a digest of the payload (write data sent, or read data returned),
    /// and the outcome class.
    pub fn record(&mut self, is_write: bool, line: u64, data_crc: u32, outcome: Outcome) {
        self.buf.push(u8::from(is_write));
        self.buf.extend_from_slice(&line.to_le_bytes());
        self.buf.extend_from_slice(&data_crc.to_le_bytes());
        self.buf.push(outcome.tag());
        self.entries += 1;
    }

    /// Entries recorded.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// The ledger's CRC-32 digest.
    #[must_use]
    pub fn digest(&self) -> u32 {
        crc32(&self.buf)
    }
}

/// Chains per-client digests (in client order) into the run digest.
#[must_use]
pub fn combine_digests(digests: &[u32]) -> u32 {
    let mut buf = Vec::with_capacity(digests.len() * 4);
    for d in digests {
        buf.extend_from_slice(&d.to_le_bytes());
    }
    crc32(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_histories_digest_identically() {
        let mut a = Ledger::new();
        let mut b = Ledger::new();
        for k in 0..100u64 {
            a.record(k % 2 == 0, k, k as u32, Outcome::WriteOk);
            b.record(k % 2 == 0, k, k as u32, Outcome::WriteOk);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.entries(), 100);
    }

    #[test]
    fn any_divergence_changes_the_digest() {
        let mut base = Ledger::new();
        base.record(true, 7, 0xAAAA, Outcome::WriteOk);
        let variants = [
            (false, 7u64, 0xAAAAu32, Outcome::WriteOk), // op flipped
            (true, 8, 0xAAAA, Outcome::WriteOk),        // line changed
            (true, 7, 0xAAAB, Outcome::WriteOk),        // data changed
            (true, 7, 0xAAAA, Outcome::WriteDegraded),  // outcome changed
        ];
        for (w, l, c, o) in variants {
            let mut v = Ledger::new();
            v.record(w, l, c, o);
            assert_ne!(v.digest(), base.digest(), "{w} {l} {c} {o:?}");
        }
    }

    #[test]
    fn run_digest_depends_on_client_order() {
        let d = combine_digests(&[1, 2, 3]);
        assert_ne!(d, combine_digests(&[3, 2, 1]));
        assert_eq!(d, combine_digests(&[1, 2, 3]));
    }
}
