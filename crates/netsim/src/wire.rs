//! The segment wire format shared by host and guest, and the seeded
//! packet generator.
//!
//! A segment is `[conn, flags, seq, len, payload…, checksum]` with every
//! byte kept below 128: MiniC `char` loads stay in the non-negative
//! range, and the chaos corruption xor (`0x5a`) can never set the high
//! bit, so a corrupted segment is still a stream of valid "bytes" that
//! the checksum rejects. The checksum is a mod-128 byte sum over
//! everything before it; any single-byte corruption changes it.

use mcfi_chaos::XorShift64;

/// SYN flag: open a connection.
pub const FLAG_SYN: u8 = 1;
/// ACK flag: complete the handshake.
pub const FLAG_ACK: u8 = 2;
/// FIN flag: close an established connection (seq-checked).
pub const FLAG_FIN: u8 = 4;
/// RST flag: abort. Genuine only when the sequence number matches the
/// connection's expected one (RFC 5961-style blind-reset protection).
pub const FLAG_RST: u8 = 8;
/// DATA flag: payload segment, accepted in sequence order.
pub const FLAG_DATA: u8 = 16;

/// The sequence number forged resets carry: real connections never
/// reach it (the generator sends far fewer data segments), so an
/// injected `peer-abort` is always blind and always challenged.
pub const BLIND_SEQ: u8 = 119;

/// Mod-128 byte-sum checksum over `bytes` (the guest recomputes it).
pub fn checksum(bytes: &[u8]) -> u8 {
    bytes.iter().fold(7u32, |s, &b| (s + u32::from(b)) % 128) as u8
}

/// One client segment, pre-encoding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Connection id (guest table has 16 slots).
    pub conn: u8,
    /// Flag byte (one of the `FLAG_*` constants, or junk).
    pub flags: u8,
    /// Sequence number (data order within the connection).
    pub seq: u8,
    /// Payload bytes (data segments only; every byte < 128).
    pub payload: Vec<u8>,
    /// When set, the encoded length byte lies by one — a wire-malformed
    /// segment whose checksum still passes, exercising the server's
    /// structural validation as a *final* (non-retried) rejection.
    pub bad_len: bool,
}

impl Segment {
    fn new(conn: u8, flags: u8, seq: u8, payload: Vec<u8>) -> Self {
        Segment { conn, flags, seq, payload, bad_len: false }
    }

    /// A connection-opening SYN.
    pub fn syn(conn: u8) -> Self {
        Segment::new(conn, FLAG_SYN, 0, Vec::new())
    }

    /// The handshake-completing ACK.
    pub fn ack(conn: u8) -> Self {
        Segment::new(conn, FLAG_ACK, 0, Vec::new())
    }

    /// An in-order data segment.
    pub fn data(conn: u8, seq: u8, payload: Vec<u8>) -> Self {
        Segment::new(conn, FLAG_DATA, seq, payload)
    }

    /// A close; `seq` must equal the connection's next expected number.
    pub fn fin(conn: u8, seq: u8) -> Self {
        Segment::new(conn, FLAG_FIN, seq, Vec::new())
    }

    /// A reset (genuine iff `seq` matches the connection's state).
    pub fn rst(conn: u8, seq: u8) -> Self {
        Segment::new(conn, FLAG_RST, seq, Vec::new())
    }

    /// An invalid flag combination the state machine must reject
    /// finally (not transiently).
    pub fn junk(conn: u8) -> Self {
        Segment::new(conn, FLAG_SYN | FLAG_ACK, 0, Vec::new())
    }

    /// A structurally malformed segment (length byte lies).
    pub fn malformed(conn: u8) -> Self {
        let mut s = Segment::new(conn, FLAG_DATA, 0, vec![3, 5]);
        s.bad_len = true;
        s
    }

    /// Encodes to wire bytes: header, payload, checksum.
    pub fn encode(&self) -> Vec<u8> {
        let lie = u8::from(self.bad_len);
        let mut b = vec![
            self.conn,
            self.flags,
            self.seq,
            self.payload.len() as u8 + lie,
        ];
        b.extend_from_slice(&self.payload);
        b.push(checksum(&b));
        b
    }
}

/// What traffic to generate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrafficSpec {
    /// Seed for lifecycle sizes, payloads, and interleaving.
    pub seed: u64,
    /// Real connections (ids `0..conns`, at most 8).
    pub conns: u8,
    /// Interleave adversarial traffic: a SYN flood past the guest's
    /// half-open budget (forcing degraded-mode shedding), invalid and
    /// malformed segments, and a genuine reset of a flooded connection.
    pub adversarial: bool,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec { seed: 1, conns: 6, adversarial: true }
    }
}

/// Deterministic seeded packet generator.
///
/// Every real connection runs a full lifecycle — SYN, ACK, seeded data
/// segments, seq-checked FIN — with handshakes up front and the bodies
/// interleaved by seeded draws. Per-connection order is preserved, so
/// the script is valid under the server's go-back-N discipline whatever
/// the interleaving; the same seed yields the same script on any host.
pub struct PacketGen {
    rng: XorShift64,
}

impl PacketGen {
    /// A generator over `seed`.
    pub fn new(seed: u64) -> Self {
        PacketGen { rng: XorShift64::new(seed) }
    }

    /// Generates the full segment script for `spec`.
    pub fn script(&mut self, spec: &TrafficSpec) -> Vec<Segment> {
        let conns = spec.conns.min(8);
        let mut out = Vec::new();
        // Phase 1: handshakes. Every real connection is established
        // before any adversarial traffic, so degraded-mode shedding can
        // only ever hit flood connections (ids 10..16).
        for c in 0..conns {
            out.push(Segment::syn(c));
            out.push(Segment::ack(c));
        }
        // Phase 2: per-connection body queues, interleaved.
        let mut queues: Vec<Vec<Segment>> = (0..conns)
            .map(|c| {
                let n_data = 2 + (self.rng.next_u64() % 3) as u8;
                let mut q: Vec<Segment> = (0..n_data)
                    .map(|seq| {
                        let len = 2 + (self.rng.next_u64() % 6) as usize;
                        let payload =
                            (0..len).map(|_| (self.rng.next_u64() % 96) as u8).collect();
                        Segment::data(c, seq, payload)
                    })
                    .collect();
                q.push(Segment::fin(c, n_data));
                q
            })
            .collect();
        if spec.adversarial {
            // One adversarial peer: six flood SYNs (two past the
            // guest's half-open budget of four), invalid and malformed
            // segments, and a genuine reset of the last flooded
            // connection. Queue order preserves SYN-before-RST; the
            // state machine makes every other interleaving transient.
            let mut adv: Vec<Segment> = (10u8..16).map(Segment::syn).collect();
            adv.push(Segment::junk(9));
            adv.push(Segment::malformed(9));
            adv.push(Segment::rst(15, 0));
            queues.push(adv);
        }
        while queues.iter().any(|q| !q.is_empty()) {
            let nonempty: Vec<usize> = (0..queues.len())
                .filter(|&i| !queues[i].is_empty())
                .collect();
            let pick = nonempty[(self.rng.next_u64() % nonempty.len() as u64) as usize];
            out.push(queues[pick].remove(0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_checksummed_and_corruption_detectable() {
        let seg = Segment::data(3, 1, vec![10, 20, 30]);
        let b = seg.encode();
        assert_eq!(b.len(), 3 + 5);
        assert_eq!(b[3], 3);
        assert_eq!(*b.last().unwrap(), checksum(&b[..b.len() - 1]));
        assert!(b.iter().all(|&x| x < 128), "wire bytes stay below 128");
        // Any single-byte xor with 0x5a breaks the checksum and keeps
        // every byte below 128.
        for i in 0..b.len() {
            let mut c = b.clone();
            c[i] ^= 0x5a;
            assert!(c.iter().all(|&x| x < 128));
            assert_ne!(*c.last().unwrap(), checksum(&c[..c.len() - 1]), "byte {i}");
        }
    }

    #[test]
    fn scripts_are_deterministic_and_order_valid() {
        let spec = TrafficSpec::default();
        let a = PacketGen::new(spec.seed).script(&spec);
        let b = PacketGen::new(spec.seed).script(&spec);
        assert_eq!(a, b);
        assert!(a.len() > 20);
        // Per-connection order: SYN before ACK before DATA (ascending
        // seq) before FIN.
        for c in 0..spec.conns {
            let kinds: Vec<(u8, u8)> = a
                .iter()
                .filter(|s| s.conn == c)
                .map(|s| (s.flags, s.seq))
                .collect();
            assert_eq!(kinds[0], (FLAG_SYN, 0), "conn {c}");
            assert_eq!(kinds[1], (FLAG_ACK, 0), "conn {c}");
            let data: Vec<u8> = kinds[2..kinds.len() - 1].iter().map(|k| k.1).collect();
            assert!(data.windows(2).all(|w| w[1] == w[0] + 1), "conn {c}: {kinds:?}");
            assert_eq!(kinds.last().unwrap().0, FLAG_FIN);
        }
        assert_ne!(
            PacketGen::new(2).script(&TrafficSpec { seed: 2, ..spec }),
            a,
            "seeds decorrelate"
        );
    }
}
