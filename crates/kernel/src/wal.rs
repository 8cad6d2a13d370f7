//! Write-ahead log: the durable mirror of a GC cycle's undo log (crash
//! consistency).
//!
//! The in-memory [`crate::journal::UndoLog`] makes a GC cycle atomic only
//! while the process survives to roll it back. A crash mid-cycle —
//! mid-batch, mid-shootdown, even mid-rollback — leaves the *address
//! space itself* torn, a failure mode unique to a collector that moves
//! objects by swapping PTEs. This module adds the durable half: a
//! simulated write-ahead log ([`WriteAheadLog`]) to which every undo
//! record is also appended, as an intent, *before* its mutation applies,
//! bracketed by cycle-begin and commit records. Both halves are written
//! by the same call (`Kernel::record_undo`), which reads each pre-image
//! once; after a restart, recovery decodes a cycle's intents back into
//! one [`UndoLog`] ([`UndoLog::push_intent`]) and undoes them through the
//! same routine as an in-process rollback ([`Kernel::undo_all`]).
//!
//! Design rules the recovery state machine relies on:
//!
//! * **Write-ahead** — the intent record for an operation is durable
//!   before the operation mutates memory or page tables. After a crash
//!   the log is therefore a *superset* of the applied operations: at most
//!   the final logged intent may be unapplied.
//! * **Idempotent undo** — intents are undo records, which store
//!   absolute pre-images, not inverse operations: the raw pre-swap PTE of
//!   every page pair (installing them again is a no-op if the swap never
//!   happened — unlike re-swapping, which would corrupt), or the prior
//!   bytes or word. Undo can thus be replayed any number of times — which
//!   is exactly what makes recovery itself restartable after a double
//!   crash.
//! * **Checksummed framing** — each record carries a magic word, its
//!   length, epoch, sequence number, and an FNV-1a checksum. A crash
//!   during an append leaves a torn tail that [`WriteAheadLog::scan`]
//!   detects and discards; everything before it is intact by induction.
//!
//! The log stores opaque `Vec<u64>` metadata payloads in begin/commit
//! records so the GC layer can persist heap snapshots without this crate
//! depending on the heap crate.
//!
//! Cost model: intent appends are charged to the calling core through the
//! bandwidth model (they ride the syscall path); begin/commit metadata
//! records are modeled as asynchronous log writes off the critical path.

use crate::fault::CrashPoint;
use crate::journal::{UndoLog, UndoRecord};
use crate::state::Kernel;
use svagc_metrics::{Cycles, TraceKind};
use svagc_vmem::{VirtAddr, WORD_BYTES};

/// Magic word opening every WAL record frame.
pub const WAL_MAGIC: u64 = 0x5356_4147_4357_414C; // "SVAGCWAL"

/// Reserved epoch carrying far-tier residency records. GC epochs are
/// always ≥ 1 (even namespaced ones OR a nonzero counter into the low
/// bits), so 0 can never collide; recovery partitions this epoch out
/// before folding the per-cycle state machine.
pub const TIER_EPOCH: u64 = 0;

/// Words of framing around a record payload: magic, payload length,
/// epoch, sequence, kind, trailing checksum.
const FRAME_WORDS: usize = 6;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv_words(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Body-word tags of the three intent shapes (first payload word).
const TAG_PTES: u64 = 1;
const TAG_BYTES: u64 = 2;
const TAG_WORD: u64 = 3;

/// Record kind code of an intent frame.
const KIND_INTENT: u64 = 2;

/// Serialize one undo record of `log` as an intent body. `Bytes` and
/// `Word` intents carry a trailing FNV checksum of their pre-image,
/// verified again at decode: the *frame* checksum covers the log write,
/// this one covers the pre-image data recovery is about to install into
/// the heap.
fn encode_intent(log: &UndoLog, rec: &UndoRecord) -> Vec<u64> {
    match rec {
        UndoRecord::Ptes { a, b, saved } => {
            let pre = &log.words[saved.clone()];
            let mut w = Vec::with_capacity(4 + pre.len());
            w.extend_from_slice(&[TAG_PTES, a.get(), b.get(), (pre.len() / 2) as u64]);
            w.extend_from_slice(pre);
            w
        }
        UndoRecord::Bytes { at, saved } => {
            let pre = &log.bytes[saved.clone()];
            let mut w = Vec::with_capacity(4 + pre.len().div_ceil(WORD_BYTES as usize));
            w.extend_from_slice(&[TAG_BYTES, at.get(), pre.len() as u64]);
            for chunk in pre.chunks(WORD_BYTES as usize) {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                w.push(u64::from_le_bytes(buf));
            }
            let sum = fnv_words(&w[3..]);
            w.push(sum);
            w
        }
        UndoRecord::Word { at, old } => vec![TAG_WORD, at.get(), *old, fnv_words(&[*old])],
    }
}

/// Decode an intent body and append its record to `log`. `None` on
/// malformed input; `Some(false)`, appending nothing, when the body parses
/// but its pre-image checksum mismatches — the signature of a corrupted or
/// stale intent.
fn decode_intent(w: &[u64], log: &mut UndoLog) -> Option<bool> {
    let rec = match *w.first()? {
        TAG_PTES => {
            let pages = *w.get(3)? as usize;
            if w.len() != 4 + 2 * pages {
                return None;
            }
            let w0 = log.words.len();
            log.words.extend_from_slice(&w[4..]);
            UndoRecord::Ptes { a: VirtAddr(w[1]), b: VirtAddr(w[2]), saved: w0..log.words.len() }
        }
        TAG_BYTES => {
            let len = *w.get(2)? as usize;
            let data_words = len.div_ceil(WORD_BYTES as usize);
            if w.len() != 4 + data_words {
                return None;
            }
            if fnv_words(&w[3..3 + data_words]) != w[3 + data_words] {
                return Some(false);
            }
            let b0 = log.bytes.len();
            log.bytes.extend(w[3..3 + data_words].iter().flat_map(|x| x.to_le_bytes()));
            log.bytes.truncate(b0 + len);
            UndoRecord::Bytes { at: VirtAddr(w[1]), saved: b0..b0 + len }
        }
        TAG_WORD => {
            if w.len() != 4 {
                return None;
            }
            if fnv_words(&[w[2]]) != w[3] {
                return Some(false);
            }
            UndoRecord::Word { at: VirtAddr(w[1]), old: w[2] }
        }
        _ => return None,
    };
    log.records.push(rec);
    Some(true)
}

impl UndoLog {
    /// Append the record a [`WalPayload::Intent`] body carries — how
    /// recovery gathers an epoch's intents into one log. False, appending
    /// nothing, when the body does not decode.
    pub fn push_intent(&mut self, body: &[u64]) -> bool {
        decode_intent(body, self) == Some(true)
    }
}

/// Log-record bytes charged for an intent `body`: the framed body minus
/// its pre-image checksum word, which rides the frame's existing trailer
/// budget — cost charges (and so every run digest) are independent of it.
fn intent_bytes(body: &[u64]) -> u64 {
    let checksum = usize::from(body[0] != TAG_PTES);
    (body.len() - checksum + FRAME_WORDS) as u64 * WORD_BYTES
}

/// The body of a decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalPayload {
    /// A GC cycle opened; carries the GC layer's serialized pre-cycle
    /// metadata (heap snapshot, roots, content hash — opaque here).
    CycleBegin {
        /// Opaque metadata payload (owned by the GC layer).
        meta: Vec<u64>,
    },
    /// An intent: the undo record of the mutation that was about to be
    /// applied when the record became durable, as its encoded body (shape
    /// and pre-image checksum verified by the scan); decode it into an
    /// undo log with [`UndoLog::push_intent`].
    Intent(Vec<u64>),
    /// The cycle committed; carries serialized post-cycle metadata.
    Commit {
        /// Opaque metadata payload (owned by the GC layer).
        meta: Vec<u64>,
    },
    /// The cycle aborted and its in-process rollback completed — the
    /// epoch is resolved (memory is back to its pre-cycle state).
    CycleAborted,
    /// Recovery resolved this epoch after a restart.
    Recovered {
        /// Outcome code (owned by the recovery layer).
        outcome: u64,
    },
    /// A page was demoted to the far tier: `frame`'s contents now live in
    /// device `slot` (residency record, reserved epoch [`TIER_EPOCH`]).
    TierDemote {
        /// The demoted frame.
        frame: u64,
        /// The device slot holding its contents.
        slot: u64,
    },
    /// A far page was promoted back: `frame` holds its contents again and
    /// device `slot` is free (residency record, epoch [`TIER_EPOCH`]).
    TierPromote {
        /// The promoted frame.
        frame: u64,
        /// The device slot that held its contents.
        slot: u64,
    },
    /// An intent record whose frame validates but whose pre-image
    /// checksum does not: the log is lying about what to restore.
    /// Decode-only (never appended); recovery must classify this as a bad
    /// log and fail closed rather than install the corrupt pre-image.
    BadIntent,
}

impl WalPayload {
    fn kind_code(&self) -> u64 {
        match self {
            WalPayload::CycleBegin { .. } => 1,
            WalPayload::Intent(_) => KIND_INTENT,
            WalPayload::Commit { .. } => 3,
            WalPayload::CycleAborted => 4,
            WalPayload::Recovered { .. } => 5,
            WalPayload::TierDemote { .. } => 6,
            WalPayload::TierPromote { .. } => 7,
            // Decode-only: a BadIntent is what an intent record becomes
            // when its pre-image checksum fails; it is never appended.
            WalPayload::BadIntent => KIND_INTENT,
        }
    }

    fn encode(&self) -> Vec<u64> {
        match self {
            WalPayload::CycleBegin { meta } | WalPayload::Commit { meta } => meta.clone(),
            WalPayload::Intent(body) => body.clone(),
            WalPayload::CycleAborted => Vec::new(),
            WalPayload::Recovered { outcome } => vec![*outcome],
            WalPayload::TierDemote { frame, slot } | WalPayload::TierPromote { frame, slot } => {
                vec![*frame, *slot]
            }
            WalPayload::BadIntent => Vec::new(),
        }
    }

    fn decode(kind: u64, payload: &[u64]) -> Option<WalPayload> {
        match kind {
            1 => Some(WalPayload::CycleBegin {
                meta: payload.to_vec(),
            }),
            KIND_INTENT => Some(match decode_intent(payload, &mut UndoLog::default())? {
                true => WalPayload::Intent(payload.to_vec()),
                false => WalPayload::BadIntent,
            }),
            3 => Some(WalPayload::Commit {
                meta: payload.to_vec(),
            }),
            4 => payload.is_empty().then_some(WalPayload::CycleAborted),
            5 => (payload.len() == 1).then(|| WalPayload::Recovered {
                outcome: payload[0],
            }),
            6 => (payload.len() == 2).then(|| WalPayload::TierDemote {
                frame: payload[0],
                slot: payload[1],
            }),
            7 => (payload.len() == 2).then(|| WalPayload::TierPromote {
                frame: payload[0],
                slot: payload[1],
            }),
            _ => None,
        }
    }
}

/// One intact record recovered from a log scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The GC cycle this record belongs to.
    pub epoch: u64,
    /// Position within the epoch (0 = the begin record).
    pub seq: u64,
    /// The record body.
    pub payload: WalPayload,
}

/// Result of scanning the durable log after a (simulated) restart.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// Every intact record, in log order.
    pub records: Vec<WalRecord>,
    /// A torn (truncated or checksum-failing) tail was found and
    /// discarded — the signature of a crash during an append.
    pub torn_tail: bool,
    /// Intact words consumed by the scan (excludes any torn tail).
    pub intact_words: usize,
}

/// Seeded log-layer mutations used by the crash-matrix suite to prove the
/// recovery oracle has teeth: each silently corrupts the protocol in a way
/// a correct recovery implementation MUST detect and fail closed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalMutation {
    /// Never append commit records: committed cycles masquerade as torn.
    SkipCommit,
    /// Silently drop each epoch's first PTE-swap intent record: undo
    /// misses the operation, a live object's pages stay exchanged, and
    /// recovery would hand back a hybrid heap. (PTE swaps specifically:
    /// they always move live content, so the miss is guaranteed visible
    /// to the content-hash oracle.)
    DropIntent,
    /// Flip one bit in the pre-image of each epoch's first `Bytes`/`Word`
    /// intent *after* encoding, then frame it normally: the record's frame
    /// checksum validates, so only the op-level pre-image checksum can
    /// catch it. A recovery that skips the read-back verification would
    /// silently install the corrupt pre-image into the heap.
    CorruptPreimage,
}

impl WalMutation {
    /// Parse `"skip-commit"` / `"drop-intent"` / `"corrupt-preimage"`.
    pub fn parse(s: &str) -> Option<WalMutation> {
        match s {
            "skip-commit" => Some(WalMutation::SkipCommit),
            "drop-intent" => Some(WalMutation::DropIntent),
            "corrupt-preimage" => Some(WalMutation::CorruptPreimage),
            _ => None,
        }
    }
}

/// Counters describing the log's activity (volatile, for reporting).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended (intact).
    pub appends: u64,
    /// Words currently in the durable image.
    pub words: u64,
    /// Intent records suppressed by [`WalMutation::DropIntent`].
    pub intents_dropped: u64,
    /// Commit records suppressed by [`WalMutation::SkipCommit`].
    pub commits_skipped: u64,
    /// Intent pre-images corrupted by [`WalMutation::CorruptPreimage`].
    pub preimages_corrupted: u64,
    /// Far-tier residency records appended (epoch [`TIER_EPOCH`]).
    pub tier_records: u64,
    /// A mid-append crash tore the tail.
    pub torn: bool,
}

/// The simulated durable log. Owned by the [`Kernel`]; survives
/// [`Kernel::reboot`] (it models storage, not RAM).
#[derive(Debug, Default)]
pub struct WriteAheadLog {
    /// The durable image, as 64-bit words.
    words: Vec<u64>,
    enabled: bool,
    /// Epoch of the currently open (begun, not yet resolved) cycle.
    /// Volatile bookkeeping: cleared by reboot; recovery re-derives open
    /// cycles from the scan.
    open_epoch: Option<u64>,
    /// [`WalMutation::DropIntent`] already claimed its victim this epoch.
    epoch_dropped: bool,
    /// [`WalMutation::CorruptPreimage`] already claimed its victim this
    /// epoch.
    epoch_corrupted: bool,
    /// Next sequence number for far-tier residency records (epoch
    /// [`TIER_EPOCH`] has no begin/commit bracket; its records form one
    /// ever-growing replay stream).
    tier_seq: u64,
    /// Next epoch to assign (monotonic across the log's lifetime).
    next_epoch: u64,
    /// Namespace prefix OR-ed into every assigned epoch (fleet tenants get
    /// disjoint epoch spaces so logs can never be confused across tenants).
    epoch_base: u64,
    /// Next sequence number within the open epoch.
    seq: u64,
    mutation: Option<WalMutation>,
    stats: WalStats,
}

impl WriteAheadLog {
    /// Is logging armed?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Is a cycle currently open (intents are being recorded)?
    pub fn cycle_open(&self) -> bool {
        self.enabled && self.open_epoch.is_some()
    }

    /// Volatile state lost in a reboot: the open-cycle cursor. The durable
    /// image and the epoch counter survive.
    pub(crate) fn drop_volatile(&mut self) {
        self.open_epoch = None;
        self.seq = 0;
    }

    /// Append `payload` as a framed record (see [`WriteAheadLog::append`]).
    fn append_payload(&mut self, epoch: u64, seq: u64, payload: &WalPayload, tear: bool) {
        self.append(epoch, seq, payload.kind_code(), payload.encode(), tear);
    }

    /// Append a framed record of `kind` around `body`; when `tear` is set,
    /// write only a strict prefix of the frame (a crash mid-append) and
    /// mark the log torn.
    fn append(&mut self, epoch: u64, seq: u64, kind: u64, mut body: Vec<u64>, tear: bool) {
        if self.mutation == Some(WalMutation::CorruptPreimage)
            && !self.epoch_corrupted
            && kind == KIND_INTENT
            && matches!(body.first(), Some(&(TAG_BYTES | TAG_WORD)))
        {
            // Teeth mutation: flip a bit in the last pre-image data word
            // (never the op checksum itself), then frame the corrupted
            // body normally — the frame checksum below is computed over
            // the *corrupted* body, so only the op-level pre-image
            // checksum can expose the lie.
            let i = body.len() - 2;
            body[i] ^= 1;
            self.epoch_corrupted = true;
            self.stats.preimages_corrupted += 1;
        }
        // The trailing checksum covers everything after the magic.
        let mut frame = vec![WAL_MAGIC, body.len() as u64, epoch, seq, kind];
        frame.extend_from_slice(&body);
        frame.push(fnv_words(&frame[1..]));
        if tear {
            // Power failed partway through the log write: keep a strict
            // prefix (at least the magic so the tear is visible, never the
            // checksum so the record can't validate).
            let keep = (frame.len() / 2).max(1);
            self.words.extend_from_slice(&frame[..keep]);
            self.stats.torn = true;
        } else {
            self.words.extend_from_slice(&frame);
            self.stats.appends += 1;
        }
        self.stats.words = self.words.len() as u64;
    }

    /// Decode every intact record; stop at (and flag) a torn tail.
    pub fn scan(&self) -> WalScan {
        let w = &self.words;
        let mut out = WalScan::default();
        let mut at = 0usize;
        while at < w.len() {
            let intact = (|| {
                if w.len() - at < FRAME_WORDS || w[at] != WAL_MAGIC {
                    return None;
                }
                let body_len = w[at + 1] as usize;
                let total = FRAME_WORDS + body_len;
                if w.len() - at < total {
                    return None;
                }
                let (epoch, seq, kind) = (w[at + 2], w[at + 3], w[at + 4]);
                let body = &w[at + 5..at + 5 + body_len];
                if w[at + total - 1] != fnv_words(&w[at + 1..at + total - 1]) {
                    return None;
                }
                let payload = WalPayload::decode(kind, body)?;
                Some((total, WalRecord { epoch, seq, payload }))
            })();
            match intact {
                Some((total, rec)) => {
                    out.records.push(rec);
                    at += total;
                    out.intact_words = at;
                }
                None => {
                    out.torn_tail = true;
                    return out;
                }
            }
        }
        out
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            words: self.words.len() as u64,
            ..self.stats
        }
    }
}

impl Kernel {
    /// Arm (or disarm) the write-ahead log. Arming clears any previous log
    /// image — the log is per-boot-lineage, like mounting a fresh journal
    /// device. Disabled by default: fault-free baselines pay nothing.
    pub fn set_wal_enabled(&mut self, on: bool) {
        self.wal = WriteAheadLog {
            enabled: on,
            epoch_base: self.wal.epoch_base,
            ..WriteAheadLog::default()
        };
    }

    /// Give this kernel's WAL a per-tenant epoch namespace: every epoch it
    /// assigns carries `ns` in its top 16 bits, so two tenants' logs can
    /// never collide or be confused during fleet-level forensics. The
    /// default namespace 0 leaves single-JVM epochs (1, 2, 3, …) unchanged.
    pub fn set_wal_namespace(&mut self, ns: u16) {
        self.wal.epoch_base = (ns as u64) << 48;
    }

    /// Is the write-ahead log armed?
    pub fn wal_enabled(&self) -> bool {
        self.wal.is_enabled()
    }

    /// Is a logged cycle currently open?
    pub fn wal_cycle_open(&self) -> bool {
        self.wal.cycle_open()
    }

    /// Install a seeded log mutation (test teeth; see [`WalMutation`]).
    pub fn set_wal_mutation(&mut self, m: Option<WalMutation>) {
        self.wal.mutation = m;
    }

    /// Append a bookkeeping record (anything but an intent) and trace it.
    fn wal_record(&mut self, epoch: u64, seq: u64, payload: WalPayload) {
        let kind = payload.kind_code();
        self.wal.append_payload(epoch, seq, &payload, false);
        let outcome = match payload {
            WalPayload::Recovered { outcome } => outcome,
            _ => 0,
        };
        let args = [("kind", kind), ("epoch", epoch), ("outcome", outcome)];
        let n = if kind == 5 { 3 } else { 2 };
        self.trace.instant(TraceKind::WalRecord, Cycles::ZERO, 0, &args[..n]);
    }

    /// Open a cycle: append a begin record carrying the GC layer's opaque
    /// metadata. Returns the epoch, or `None` when the log is disarmed.
    pub fn wal_cycle_begin(&mut self, meta: Vec<u64>) -> Option<u64> {
        if !self.wal.enabled {
            return None;
        }
        self.wal.next_epoch += 1;
        let epoch = self.wal.epoch_base | self.wal.next_epoch;
        self.wal.open_epoch = Some(epoch);
        self.wal.epoch_dropped = false;
        self.wal.epoch_corrupted = false;
        self.wal.seq = 1;
        self.wal_record(epoch, 0, WalPayload::CycleBegin { meta });
        Some(epoch)
    }

    /// Commit the open cycle: append a commit record with post-cycle
    /// metadata and close the epoch. No-op when no cycle is open.
    pub fn wal_commit(&mut self, meta: Vec<u64>) {
        let Some(epoch) = self.wal.open_epoch.take() else {
            return;
        };
        if self.wal.mutation == Some(WalMutation::SkipCommit) {
            self.wal.stats.commits_skipped += 1;
            return;
        }
        self.wal_record(epoch, self.wal.seq, WalPayload::Commit { meta });
    }

    /// Mark the open cycle aborted-and-rolled-back (its in-process undo
    /// completed, so the epoch is resolved). No-op when no cycle is open.
    pub fn wal_cycle_aborted(&mut self) {
        if let Some(epoch) = self.wal.open_epoch.take() {
            self.wal_record(epoch, self.wal.seq, WalPayload::CycleAborted);
        }
    }

    /// Append a recovery-resolution record for `epoch` (recovery replayed
    /// its undo/redo and verified the result).
    pub fn wal_mark_recovered(&mut self, epoch: u64, outcome: u64) {
        if self.wal.enabled {
            self.wal_record(epoch, u64::MAX, WalPayload::Recovered { outcome });
        }
    }

    /// Scan the durable log (the first thing recovery does after a
    /// restart).
    pub fn wal_scan(&self) -> WalScan {
        self.wal.scan()
    }

    /// Append a far-tier residency record ([`WalPayload::TierDemote`] or
    /// [`WalPayload::TierPromote`]) under the reserved [`TIER_EPOCH`].
    /// Unlike intents these are not bracketed by a cycle — they form one
    /// append-only replay stream from which recovery rebuilds the
    /// residency map. Charged through the bandwidth model like intents.
    pub(crate) fn wal_tier_record(&mut self, payload: WalPayload) -> Cycles {
        debug_assert!(matches!(
            payload,
            WalPayload::TierDemote { .. } | WalPayload::TierPromote { .. }
        ));
        if !self.wal.enabled {
            return Cycles::ZERO;
        }
        let seq = self.wal.tier_seq;
        self.wal.tier_seq += 1;
        self.wal_record(TIER_EPOCH, seq, payload);
        self.wal.stats.tier_records += 1;
        self.bandwidth.copy_cycles(&self.machine, (2 + FRAME_WORDS) as u64 * WORD_BYTES)
    }

    /// The log's activity counters.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Write `rec` (a record of `log`) ahead of applying its mutation, as
    /// the open cycle's intent, and return the log write's cost (charged
    /// through the bandwidth model). With `may_crash`, a pending
    /// [`CrashPoint::MidLogAppend`] tears the frame mid-write and latches
    /// the crash.
    pub(crate) fn wal_intent(&mut self, log: &UndoLog, rec: &UndoRecord, may_crash: bool) -> Cycles {
        let epoch = self.wal.open_epoch.expect("intents are written inside an open cycle");
        let seq = self.wal.seq;
        self.wal.seq += 1;
        if self.wal.mutation == Some(WalMutation::DropIntent)
            && !self.wal.epoch_dropped
            && matches!(rec, UndoRecord::Ptes { .. })
        {
            // Teeth mutation: the epoch's first PTE-swap intent vanishes
            // (its sequence number is spent, so exactly one record is
            // lost).
            self.wal.epoch_dropped = true;
            self.wal.stats.intents_dropped += 1;
            return Cycles::ZERO;
        }
        let body = encode_intent(log, rec);
        let bytes = intent_bytes(&body);
        let tear = may_crash && self.crash_fire(CrashPoint::MidLogAppend);
        self.wal.append(epoch, seq, KIND_INTENT, body, tear);
        self.bandwidth.copy_cycles(&self.machine, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-record log holding a PTE-swap pre-image (`pre` interleaves
    /// the raw PTEs at `a + i` and `b + i`).
    fn ptes(a: u64, b: u64, pre: &[u64]) -> UndoLog {
        UndoLog {
            records: vec![UndoRecord::Ptes {
                a: VirtAddr(a),
                b: VirtAddr(b),
                saved: 0..pre.len(),
            }],
            words: pre.to_vec(),
            ..UndoLog::default()
        }
    }

    fn bytes(at: u64, pre: Vec<u8>) -> UndoLog {
        UndoLog {
            records: vec![UndoRecord::Bytes {
                at: VirtAddr(at),
                saved: 0..pre.len(),
            }],
            bytes: pre,
            ..UndoLog::default()
        }
    }

    fn word(at: u64, old: u64) -> UndoLog {
        UndoLog {
            records: vec![UndoRecord::Word { at: VirtAddr(at), old }],
            ..UndoLog::default()
        }
    }

    /// `log`'s one record as a WAL intent payload.
    fn intent(log: &UndoLog) -> WalPayload {
        WalPayload::Intent(encode_intent(log, &log.records[0]))
    }

    fn roundtrip(p: WalPayload) {
        let mut log = WriteAheadLog {
            enabled: true,
            ..WriteAheadLog::default()
        };
        log.append_payload(7, 3, &p, false);
        let scan = log.scan();
        assert!(!scan.torn_tail);
        assert_eq!(scan.records.len(), 1);
        let r = &scan.records[0];
        assert_eq!((r.epoch, r.seq), (7, 3));
        assert_eq!(r.payload, p);
    }

    #[test]
    fn every_payload_roundtrips() {
        roundtrip(WalPayload::CycleBegin {
            meta: vec![1, 2, 3, u64::MAX],
        });
        // Deliberately not word-aligned.
        let intents = [
            ptes(0x1000, 0x9000, &[0xAA, 0xBB, 0xCC, 0xDD]),
            bytes(0x2000, (0..100u8).collect()),
            word(0x3008, 0xDEAD_BEEF),
        ];
        for log in &intents {
            roundtrip(intent(log));
        }
        // The bodies decode back into one log holding all three records.
        let mut merged = UndoLog::default();
        for log in &intents {
            let WalPayload::Intent(body) = intent(log) else { unreachable!() };
            assert!(merged.push_intent(&body));
        }
        assert_eq!(merged.records.len(), 3);
        for (rec, log) in merged.records.iter().zip(&intents) {
            assert_eq!(encode_intent(&merged, rec), encode_intent(log, &log.records[0]));
        }
        roundtrip(WalPayload::Commit { meta: Vec::new() });
        roundtrip(WalPayload::CycleAborted);
        roundtrip(WalPayload::Recovered { outcome: 2 });
        roundtrip(WalPayload::TierDemote { frame: 17, slot: 3 });
        roundtrip(WalPayload::TierPromote { frame: 17, slot: 3 });
    }

    #[test]
    fn corrupt_preimage_mutation_yields_bad_intent_not_torn_tail() {
        // The mutation flips a pre-image bit but reframes with a valid
        // frame checksum: the scan must decode the record (no torn tail)
        // and surface it as BadIntent via the op-level checksum.
        for op in [word(0x1000, 0xFEED), bytes(0x2000, vec![7; 100])] {
            let mut log = WriteAheadLog {
                enabled: true,
                mutation: Some(WalMutation::CorruptPreimage),
                ..WriteAheadLog::default()
            };
            log.append_payload(1, 1, &intent(&op), false);
            assert_eq!(log.stats().preimages_corrupted, 1);
            let scan = log.scan();
            assert!(!scan.torn_tail, "frame checksum must still validate");
            assert_eq!(scan.records.len(), 1);
            assert_eq!(scan.records[0].payload, WalPayload::BadIntent);
        }
        // PTE-swap intents are not covered by the mutation (no op checksum).
        let mut log = WriteAheadLog {
            enabled: true,
            mutation: Some(WalMutation::CorruptPreimage),
            ..WriteAheadLog::default()
        };
        let swap = ptes(0x1000, 0x2000, &[1, 2]);
        log.append_payload(1, 1, &intent(&swap), false);
        assert_eq!(log.stats().preimages_corrupted, 0);
        assert_eq!(log.scan().records[0].payload, intent(&swap));
    }

    #[test]
    fn encoded_bytes_excludes_the_preimage_checksum_word() {
        // Cost charges must not move with the S2 checksum word: Word
        // encodes to 4 words but charges for 3 + framing.
        let w = word(0x1000, 9);
        let body = encode_intent(&w, &w.records[0]);
        assert_eq!(body.len(), 4);
        assert_eq!(intent_bytes(&body), (3 + FRAME_WORDS) as u64 * WORD_BYTES);
        let b = bytes(0x2000, vec![1; 64]);
        let body = encode_intent(&b, &b.records[0]);
        assert_eq!(body.len(), 3 + 8 + 1);
        assert_eq!(intent_bytes(&body), (3 + 8 + FRAME_WORDS) as u64 * WORD_BYTES);
        // PTE-swap intents carry no checksum word: all of it is charged.
        let p = ptes(0x1000, 0x2000, &[1, 2, 3, 4]);
        let body = encode_intent(&p, &p.records[0]);
        assert_eq!(intent_bytes(&body), (4 + 4 + FRAME_WORDS) as u64 * WORD_BYTES);
    }

    #[test]
    fn tier_records_live_in_the_reserved_epoch() {
        use svagc_metrics::MachineConfig;
        let mut k = Kernel::new(MachineConfig::i5_7600(), 16);
        k.set_wal_enabled(true);
        k.set_wal_namespace(5);
        let c = k.wal_tier_record(WalPayload::TierDemote { frame: 4, slot: 0 });
        assert!(c > Cycles::ZERO, "tier records are cost-charged");
        k.wal_tier_record(WalPayload::TierPromote { frame: 4, slot: 0 });
        let scan = k.wal_scan();
        assert_eq!(scan.records.len(), 2);
        // Namespacing never touches the reserved epoch, and seq increments.
        assert!(scan.records.iter().all(|r| r.epoch == TIER_EPOCH));
        assert_eq!(
            scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(k.wal_stats().tier_records, 2);
    }

    #[test]
    fn epoch_namespace_prefixes_every_epoch() {
        use svagc_metrics::MachineConfig;
        let mut k = Kernel::new(MachineConfig::i5_7600(), 16);
        k.set_wal_enabled(true);
        k.set_wal_namespace(3);
        let e1 = k.wal_cycle_begin(vec![]).unwrap();
        k.wal_commit(vec![]);
        let e2 = k.wal_cycle_begin(vec![]).unwrap();
        k.wal_commit(vec![]);
        assert_eq!(e1, (3u64 << 48) | 1);
        assert_eq!(e2, (3u64 << 48) | 2);
        // Re-arming the log keeps the namespace; default stays 0.
        k.set_wal_enabled(true);
        assert_eq!(k.wal_cycle_begin(vec![]).unwrap(), (3u64 << 48) | 1);
        let mut k0 = Kernel::new(MachineConfig::i5_7600(), 16);
        k0.set_wal_enabled(true);
        assert_eq!(k0.wal_cycle_begin(vec![]).unwrap(), 1);
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let mut log = WriteAheadLog {
            enabled: true,
            ..WriteAheadLog::default()
        };
        log.append_payload(1, 0, &WalPayload::CycleBegin { meta: vec![9] }, false);
        log.append_payload(
            1,
            1,
            &intent(&word(0x1000, 5)),
            false,
        );
        // Crash mid-append of the third record.
        log.append_payload(
            1,
            2,
            &intent(&bytes(0x2000, vec![1; 64])),
            true,
        );
        let scan = log.scan();
        assert!(scan.torn_tail, "truncated frame must be flagged");
        assert_eq!(scan.records.len(), 2, "intact prefix fully decoded");
        assert!(log.stats().torn);
    }

    #[test]
    fn corrupted_checksum_is_a_torn_tail() {
        let mut log = WriteAheadLog {
            enabled: true,
            ..WriteAheadLog::default()
        };
        log.append_payload(1, 0, &WalPayload::CycleAborted, false);
        let last = log.words.len() - 1;
        log.words[last] ^= 1;
        let scan = log.scan();
        assert!(scan.torn_tail);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn empty_log_scans_clean() {
        let log = WriteAheadLog::default();
        let scan = log.scan();
        assert!(!scan.torn_tail);
        assert!(scan.records.is_empty());
    }
}
