//! Write-ahead log and snapshot store: durable, replayable service state.
//!
//! The protocol layer ([`crate::protocol`]) already makes the service a
//! deterministic function of its request transcript — `replay` of the
//! same `(time, request)` sequence reproduces the same state, bit for
//! bit. Durability therefore reduces to persisting that transcript: the
//! [`WalStore`] puts every request in a checksummed log *before* its
//! reply is released — [`WalStore::stage`] encodes records into memory,
//! [`WalStore::commit`] writes and syncs a group of them at once — and
//! writes a full-state snapshot ([`crate::snapshot`]) whenever the log's
//! tail has outgrown the last one, so recovery replays only that tail.
//!
//! # On-disk layout
//!
//! A WAL directory holds one log plus at most two snapshots:
//!
//! ```text
//! wal-dir/
//!   wal.log          append-only record stream
//!   snap-1500.json   state after applying the first 1500 records
//!   snap-3000.json   newer snapshot (older ones are pruned)
//! ```
//!
//! Each log record is length-prefixed and checksummed:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! The payload's first byte is its format. Every record written today is
//! format `0x01`:
//!
//! ```text
//! 0x01 · t: u64 LE (service time, ms) · request body
//! ```
//!
//! where the request body is the binary body of PROTOCOL.md §5.3 —
//! [`Binary::encode_binary`], the codec the wire already speaks, so a
//! float keeps its exact bits, NaN included. A payload that starts with
//! `{` is a record of the earlier format, the single-line JSON session
//! entry of [`crate::protocol::encode_session_entry`]; such records are
//! still read, never written, so a log from before the change recovers
//! and grows in the new format. Any other first byte is corruption. The
//! format byte is the header later record fields will extend.
//!
//! A readable transcript of a log is `encode_session(recovery.records())`
//! ([`crate::protocol::encode_session`]) — the JSON session the
//! transcript tooling reads, one request per line.
//!
//! A snapshot file is
//! `{"format":1,"applied":N,"state":{...}}` with `state` the text of
//! [`crate::snapshot::encode_state_json`]; it is written to a temp file
//! and renamed into place — file and directory fsynced under
//! [`FsyncPolicy::Always`] — so a crash mid-snapshot never damages an
//! existing one.
//!
//! # Crash semantics
//!
//! [`WalStore::open`] scans the log sequentially, validating framing and
//! checksums. A damaged record whose extent reaches end-of-file is a
//! *torn write* — the tail a crash cut short — and is truncated away;
//! this is safe because with [`FsyncPolicy::Always`] a request is only
//! acknowledged after its record is durable, so a torn record was never
//! acknowledged. A damaged record *followed by more data* cannot be a
//! torn write and surfaces as a typed [`WalError::Corrupt`]; recovery
//! never guesses, never panics, and never silently diverges — the
//! records it yields are always an exact prefix of the records that
//! were appended. The writer keeps its half of that bargain by being
//! fail-stop: after a failed write or fsync it never writes behind the
//! damage (see [`WalStore::commit`]).
//!
//! Snapshots are advisory: an unreadable or malformed snapshot is
//! skipped (falling back to the previous snapshot, then to full replay
//! from genesis) and one ahead of the log is deleted, because the log
//! alone is sufficient for exact recovery. The one hard error is a
//! configuration mismatch between the snapshot and the restore
//! template — replaying a log against a differently-configured service
//! *would* diverge, so that is refused.

use crate::protocol::{
    decode_session_entry, first, read_members, Binary, Rd, Request, SpqService, MAX_BATCH_DEPTH,
};
use crate::service::SpeQuloS;
use crate::snapshot::{restore_state_json, write_state, SnapshotError, SNAPSHOT_FORMAT};
use simcore::json::{self, Writer};
use simcore::SimTime;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Name of the append-only record stream inside a WAL directory.
pub const WAL_FILE: &str = "wal.log";

/// Upper bound on a single record's payload; a length prefix beyond this
/// is corruption, not a real record.
pub const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// First payload byte of a binary record: `t` and a binary request body.
const RECORD_BINARY: u8 = 0x01;
/// First payload byte of a record of the earlier format, a JSON session
/// entry (an object, so always `{`). Read, never written.
const RECORD_JSON: u8 = b'{';

const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".json";

/// When appends are flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` in every commit (and of every snapshot) — an acknowledged
    /// request is durable. This is the default and the only policy with
    /// crash guarantees.
    Always,
    /// No `fsync`, of the log or of snapshots; the OS flushes when it
    /// pleases. Only for measuring append overhead and for tests — a
    /// crash may lose acknowledged requests (recovery still yields an
    /// exact *prefix*, never garbage).
    Never,
}

/// Why a WAL operation failed.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The log holds bytes that cannot be a torn write: a damaged record
    /// with more data after it, an oversized length prefix, or a
    /// checksum-valid payload that does not decode.
    Corrupt {
        /// Byte offset of the damaged record's header.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// Snapshot encode/restore failed in a way recovery must not paper
    /// over (currently: configuration mismatch with the template).
    Snapshot(SnapshotError),
    /// A request no reader of the log would take back (batches nested
    /// deeper than [`MAX_BATCH_DEPTH`], a payload over [`MAX_RECORD_BYTES`])
    /// was refused before anything was staged; the log is unharmed.
    Refused(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::Corrupt { offset, reason } => {
                write!(f, "wal corrupt at byte {offset}: {reason}")
            }
            WalError::Snapshot(e) => write!(f, "wal snapshot: {e}"),
            WalError::Refused(reason) => write!(f, "wal refused the record: {reason}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<SnapshotError> for WalError {
    fn from(e: SnapshotError) -> Self {
        WalError::Snapshot(e)
    }
}

/// What [`WalStore::open`] found on disk: the decoded record stream plus
/// the newest usable snapshot, as the text of its state. Feed it to
/// [`Recovery::recover`] to rebuild the service.
#[derive(Debug)]
pub struct Recovery {
    records: Vec<(SimTime, Request)>,
    snapshot: Option<(u64, String)>,
    truncated_bytes: u64,
    snapshots_discarded: u32,
}

impl Recovery {
    /// The validated records in append order — always an exact prefix of
    /// what was appended.
    pub fn records(&self) -> &[(SimTime, Request)] {
        &self.records
    }

    /// `applied` count of the snapshot recovery will restore from, if any.
    pub fn snapshot_applied(&self) -> Option<u64> {
        self.snapshot.as_ref().map(|(applied, _)| *applied)
    }

    /// Bytes of torn tail dropped when the log was opened.
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    /// Rebuilds the service: restore the snapshot into `template` (a
    /// service assembled with the same builder configuration as the one
    /// that wrote the WAL), then replay the log tail through
    /// [`SpqService::handle`]. With no usable snapshot — including one
    /// whose module state fails to restore — the full log is replayed
    /// from genesis, which is equally exact. A snapshot/template
    /// configuration mismatch is a hard [`WalError::Snapshot`] error:
    /// replaying against the wrong configuration would silently diverge.
    pub fn recover(&self, template: SpeQuloS) -> Result<(SpeQuloS, RecoveryReport), WalError> {
        let mut snapshots_discarded = self.snapshots_discarded;
        if let Some((applied, text)) = &self.snapshot {
            match restore_state_json(template.clone(), text) {
                Ok(mut service) => {
                    let tail = self.records.get(*applied as usize..).unwrap_or_default();
                    for (t, request) in tail {
                        service.handle(request.clone(), *t);
                    }
                    return Ok((
                        service,
                        RecoveryReport {
                            snapshot_applied: *applied,
                            replayed: tail.len() as u64,
                            truncated_bytes: self.truncated_bytes,
                            snapshots_discarded,
                        },
                    ));
                }
                Err(e @ SnapshotError::ConfigMismatch(_)) => {
                    return Err(WalError::Snapshot(e));
                }
                // Undecodable snapshot state or a module that cannot
                // restore: the log is authoritative, replay it all.
                Err(_) => snapshots_discarded += 1,
            }
        }
        let mut service = template;
        for (t, request) in &self.records {
            service.handle(request.clone(), *t);
        }
        Ok((
            service,
            RecoveryReport {
                snapshot_applied: 0,
                replayed: self.records.len() as u64,
                truncated_bytes: self.truncated_bytes,
                snapshots_discarded,
            },
        ))
    }
}

/// How a recovery went: where state came from and what was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records restored via snapshot (0 when the full log was replayed).
    pub snapshot_applied: u64,
    /// Records replayed through the service after the snapshot point.
    pub replayed: u64,
    /// Torn-tail bytes truncated from the log at open.
    pub truncated_bytes: u64,
    /// Snapshot files that were present but unusable.
    pub snapshots_discarded: u32,
}

/// An open write-ahead log: stages and commits records, takes snapshots,
/// prunes old ones. Obtained from [`WalStore::open`] together with the
/// [`Recovery`] describing what was already on disk.
#[derive(Debug)]
pub struct WalStore {
    dir: PathBuf,
    file: File,
    policy: FsyncPolicy,
    /// Records and bytes committed to the log.
    records: u64,
    log_bytes: u64,
    /// The newest snapshot: how many records it holds, where the log
    /// stood when it was taken, and the size of its file.
    snapshot_applied: u64,
    snapshot_offset: u64,
    snapshot_bytes: u64,
    /// Framed records staged since the last commit, and how many.
    staged: Vec<u8>,
    staged_records: u64,
    /// Where a snapshot's text is written; kept, so that it does not
    /// allocate.
    text: String,
    /// A commit failed: the log's tail is unknown and nothing is written
    /// behind it any more (see [`WalStore::commit`]).
    failed: bool,
}

impl WalStore {
    /// Opens (creating if necessary) the WAL in `dir`, scans and
    /// validates the existing log, truncates any torn tail, deletes
    /// snapshots that claim more records than the log holds, and selects
    /// the newest usable one. Returns the store positioned for appending
    /// plus the [`Recovery`] needed to rebuild the service.
    pub fn open(
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(WalStore, Recovery), WalError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;

        let scan = scan_log(&file)?;
        let mut file = file;
        if scan.truncated_bytes > 0 {
            file.set_len(scan.valid_bytes)?;
            if policy == FsyncPolicy::Always {
                file.sync_data()?;
            }
        }
        file.seek(SeekFrom::Start(scan.valid_bytes))?;

        let records = scan.records.len() as u64;
        let (snapshot, snapshots_discarded) = select_snapshot(&dir, records)?;
        let snapshot_applied = snapshot.as_ref().map_or(0, |(applied, _)| *applied);
        // The snapshot trigger's two numbers come from the disk, so the
        // rule survives restarts: the snapshot's size and where record
        // `applied` starts — where record `applied − 1` ends.
        let (snapshot_offset, snapshot_bytes) = match snapshot_applied.checked_sub(1) {
            Some(last) => (
                scan.ends.get(last as usize).copied().unwrap_or(0),
                fs::metadata(snapshot_path(&dir, snapshot_applied))?.len(),
            ),
            None => (0, 0),
        };
        Ok((
            WalStore {
                dir,
                file,
                policy,
                records,
                log_bytes: scan.valid_bytes,
                snapshot_applied,
                snapshot_offset,
                snapshot_bytes,
                staged: Vec::new(),
                staged_records: 0,
                text: String::new(),
                failed: false,
            },
            Recovery {
                records: scan.records,
                snapshot,
                truncated_bytes: scan.truncated_bytes,
                snapshots_discarded,
            },
        ))
    }

    /// Encodes one request behind the records already staged — memory
    /// only, no system call. Nothing staged is on disk, or counted by
    /// [`WalStore::record_count`], before [`WalStore::commit`] returns.
    /// A request that cannot be a record — batches nested deeper than
    /// [`MAX_BATCH_DEPTH`], or a payload over [`MAX_RECORD_BYTES`] — is
    /// [`WalError::Refused`], and leaves nothing staged.
    pub fn stage(&mut self, at: SimTime, request: &Request) -> Result<(), WalError> {
        self.check_live()?;
        let start = self.staged.len();
        if let Err(e) = write_record(&mut self.staged, at, request) {
            self.staged.truncate(start);
            return Err(e);
        }
        self.staged_records += 1;
        Ok(())
    }

    /// Writes everything staged with one `write` and, under
    /// [`FsyncPolicy::Always`], one `fsync`: when this returns `Ok` the
    /// staged records are in the log — on stable storage, under
    /// `Always` — and only then may their replies be released.
    ///
    /// The store is fail-stop. A failed write or fsync leaves the log's
    /// tail unknown (possibly a partial record), and writing behind it
    /// would turn a torn *tail*, which [`WalStore::open`] truncates,
    /// into mid-file corruption, which it must refuse. So after the
    /// first failure every `stage`, `commit` and `snapshot` fails
    /// without touching a file.
    pub fn commit(&mut self) -> Result<(), WalError> {
        self.check_live()?;
        if self.staged.is_empty() {
            return Ok(());
        }
        let written = self.file.write_all(&self.staged).and_then(|()| {
            if self.policy == FsyncPolicy::Always {
                self.file.sync_data()?;
            }
            Ok(())
        });
        if let Err(e) = written {
            self.failed = true;
            return Err(e.into());
        }
        self.records += self.staged_records;
        self.log_bytes += self.staged.len() as u64;
        self.staged.clear();
        self.staged_records = 0;
        Ok(())
    }

    fn check_live(&self) -> Result<(), WalError> {
        if self.failed {
            return Err(io::Error::other("the log is closed: an earlier commit failed").into());
        }
        Ok(())
    }

    /// Appends one request: [`WalStore::stage`] and [`WalStore::commit`].
    /// With [`FsyncPolicy::Always`] the record is on stable storage when
    /// this returns. Returns the new record count.
    pub fn append(&mut self, at: SimTime, request: &Request) -> Result<u64, WalError> {
        self.stage(at, request)?;
        self.commit()?;
        Ok(self.records)
    }

    /// Whether the log has grown by at least the newest snapshot's size
    /// since that snapshot was taken (always, before the first one).
    /// Snapshotting no more often than this bounds the snapshot bytes
    /// ever written by the log bytes ever written, and the tail a
    /// recovery replays by the bytes of the snapshot it restores.
    pub fn tail_outweighs_snapshot(&self) -> bool {
        self.log_bytes.saturating_sub(self.snapshot_offset) >= self.snapshot_bytes
    }

    /// Commits what is staged, writes a snapshot of `service` — which
    /// must reflect exactly the requests staged so far — and prunes all
    /// but the two newest snapshots. The write is atomic (temp file +
    /// rename, fsynced with the directory under [`FsyncPolicy::Always`]):
    /// a crash at any point leaves the previous snapshots intact.
    pub fn snapshot(&mut self, service: &SpeQuloS) -> Result<(), WalError> {
        self.commit()?;
        self.text.clear();
        let mut w = Writer::new(&mut self.text);
        w.begin_object().key("format").num(SNAPSHOT_FORMAT as f64);
        w.key("applied").num(self.records as f64);
        write_state(w.key("state"), service)?;
        w.end_object();
        self.text.push('\n');
        let durable = self.policy == FsyncPolicy::Always;
        let final_path = snapshot_path(&self.dir, self.records);
        let tmp_path = final_path.with_extension("json.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(self.text.as_bytes())?;
            if durable {
                tmp.sync_all()?;
            }
        }
        fs::rename(&tmp_path, &final_path)?;
        if durable {
            sync_dir(&self.dir)?;
        }
        self.snapshot_applied = self.records;
        self.snapshot_offset = self.log_bytes;
        self.snapshot_bytes = self.text.len() as u64;
        self.prune_snapshots()?;
        Ok(())
    }

    /// Records committed to the log.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// `applied` count of the newest snapshot on disk (0 if none).
    pub fn snapshot_applied(&self) -> u64 {
        self.snapshot_applied
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn prune_snapshots(&self) -> Result<(), WalError> {
        let mut counts = snapshot_counts(&self.dir)?;
        counts.sort_unstable_by(|a, b| b.cmp(a));
        for &applied in counts.iter().skip(2) {
            let _ = fs::remove_file(snapshot_path(&self.dir, applied));
        }
        Ok(())
    }
}

/// Appends one framed record to `out`: the header, then the payload
/// encoded in place behind it, then the header filled in. On an error
/// `out` may hold part of the record; the caller cuts it off.
fn write_record(out: &mut Vec<u8>, at: SimTime, request: &Request) -> Result<(), WalError> {
    if batch_depth(request) > MAX_BATCH_DEPTH {
        return Err(WalError::Refused(format!(
            "batches nest deeper than {MAX_BATCH_DEPTH}: no reader would take the record"
        )));
    }
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    out.push(RECORD_BINARY);
    out.extend_from_slice(&at.as_millis().to_le_bytes());
    request.encode_binary(out);
    let payload = out.get(start + 8..).unwrap_or_default();
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_RECORD_BYTES)
        .ok_or_else(|| {
            WalError::Refused(format!(
                "record payload of {} bytes exceeds maximum",
                payload.len()
            ))
        })?;
    // `len` then `crc`, both little-endian: one little-endian `u64`.
    let header = u64::from(len) | u64::from(crc32(payload)) << 32;
    if let Some(slot) = out.get_mut(start..start + 8) {
        slot.copy_from_slice(&header.to_le_bytes());
    }
    Ok(())
}

/// How many batches deep `request`'s innermost message lies (0 for a
/// request that is not a batch) — what the binary decoder bounds.
fn batch_depth(request: &Request) -> usize {
    match request {
        Request::Batch(items) => items
            .iter()
            .map(|item| 1 + batch_depth(item))
            .max()
            .unwrap_or(0),
        _ => 0,
    }
}

/// Decodes one checksum-valid payload, by its format byte.
fn read_record(payload: &[u8]) -> Result<(SimTime, Request), String> {
    match payload.first() {
        Some(&RECORD_BINARY) => {
            let mut rd = Rd::new(payload.get(1..).unwrap_or_default());
            let decoded = rd.u64("record.t").and_then(|t| {
                let request = Request::decode_binary(&mut rd)?;
                rd.finish()?;
                Ok((SimTime::from_millis(t), request))
            });
            decoded.map_err(|e| e.to_string())
        }
        Some(&RECORD_JSON) => {
            let text = std::str::from_utf8(payload).map_err(|_| "JSON record is not UTF-8")?;
            decode_session_entry(text)
        }
        Some(byte) => Err(format!("unknown record format 0x{byte:02x}")),
        None => Err("empty payload".into()),
    }
}

struct LogScan {
    records: Vec<(SimTime, Request)>,
    /// Where each record ends.
    ends: Vec<u64>,
    valid_bytes: u64,
    truncated_bytes: u64,
}

/// Sequentially validates the log. Returns the decoded record prefix,
/// how many bytes of it are well-formed, and how many torn-tail bytes
/// follow. Mid-file damage is [`WalError::Corrupt`].
fn scan_log(file: &File) -> Result<LogScan, WalError> {
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file.try_clone()?);
    reader.seek(SeekFrom::Start(0))?;
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut payload = Vec::new();
    let mut offset: u64 = 0;
    while offset < file_len {
        let mut header = [0u8; 8];
        if !fill(&mut reader, &mut header)? {
            return Ok(scanned(records, ends, file_len));
        }
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        let extent = 8 + len as u64;
        if len > MAX_RECORD_BYTES {
            // A crash leaves a *prefix* of true bytes, which can only
            // shorten a record — an oversized length was never written.
            return Err(WalError::Corrupt {
                offset,
                reason: format!("record length {len} exceeds maximum {MAX_RECORD_BYTES}"),
            });
        }
        payload.clear();
        payload.resize(len as usize, 0);
        if !fill(&mut reader, &mut payload)? {
            return Ok(scanned(records, ends, file_len));
        }
        if crc32(&payload) != crc {
            if offset + extent >= file_len {
                // Damaged *last* record: a torn write, drop it.
                return Ok(scanned(records, ends, file_len));
            }
            return Err(WalError::Corrupt {
                offset,
                reason: "checksum mismatch with records following".into(),
            });
        }
        let (t, request) = read_record(&payload).map_err(|reason| WalError::Corrupt {
            offset,
            reason: format!("checksum-valid payload does not decode: {reason}"),
        })?;
        records.push((t, request));
        offset += extent;
        ends.push(offset);
    }
    Ok(scanned(records, ends, offset))
}

/// The scan's answer: the valid records, which stop at `file_len` or —
/// a torn tail — short of it.
fn scanned(records: Vec<(SimTime, Request)>, ends: Vec<u64>, file_len: u64) -> LogScan {
    let valid_bytes = ends.last().copied().unwrap_or(0);
    LogScan {
        records,
        ends,
        valid_bytes,
        truncated_bytes: file_len.saturating_sub(valid_bytes),
    }
}

/// Fills `buf`, or says the log ended first — a torn tail.
fn fill(reader: &mut impl Read, buf: &mut [u8]) -> Result<bool, WalError> {
    match reader.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e.into()),
    }
}

/// All `snap-<N>.json` applied-counts present in `dir`.
fn snapshot_counts(dir: &Path) -> Result<Vec<u64>, WalError> {
    let mut counts = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = name
            .strip_prefix(SNAP_PREFIX)
            .and_then(|rest| rest.strip_suffix(SNAP_SUFFIX))
            .and_then(|n| n.parse::<u64>().ok())
        {
            counts.push(n);
        }
    }
    Ok(counts)
}

fn snapshot_path(dir: &Path, applied: u64) -> PathBuf {
    dir.join(format!("{SNAP_PREFIX}{applied}{SNAP_SUFFIX}"))
}

/// Picks the newest snapshot that parses, matches the format version
/// and agrees with its filename. Unusable candidates are counted, not
/// fatal — the log can always be replayed from genesis.
///
/// One that claims more records than the log holds is deleted, not just
/// passed over: the log it was taken from is gone (cut by a crash under
/// [`FsyncPolicy::Never`], or replaced by an older copy), and once the
/// log regrows past `applied` with *other* records the file would pass
/// for a snapshot of them.
fn select_snapshot(dir: &Path, records: u64) -> Result<(Option<(u64, String)>, u32), WalError> {
    let mut counts = snapshot_counts(dir)?;
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let mut discarded = 0u32;
    for applied in counts {
        let path = snapshot_path(dir, applied);
        if applied > records {
            fs::remove_file(&path)?;
        } else if let Some(text) = load_snapshot(&path, applied) {
            return Ok((Some((applied, text)), discarded));
        }
        discarded += 1;
    }
    Ok((None, discarded))
}

/// The text of the `state` in the snapshot file at `path`, checked in one
/// pass that skips `state` unread, and cut down to it in place.
fn load_snapshot(path: &Path, applied: u64) -> Option<String> {
    let mut text = fs::read_to_string(path).ok()?;
    let state = json::read(&text, |r| {
        let mut state = None;
        let head = read_members(r, ["format", "applied"], |key, r| {
            let start = r.offset();
            key == "state"
                && first(&mut state, || {
                    r.skip_value();
                    start..r.offset()
                })
        });
        let format = head.u64("format") == Ok(SNAPSHOT_FORMAT);
        state.filter(|_| format && head.u64("applied") == Ok(applied))
    });
    let state = state.ok()??;
    text.get(state.clone())?; // so that neither cut below can split a character
    text.truncate(state.end);
    text.drain(..state.start);
    Some(text)
}

fn sync_dir(dir: &Path) -> Result<(), WalError> {
    // Durable rename: fsync the directory so the new entry is on disk.
    // Not all filesystems support opening a directory; best-effort there.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) — the same checksum gzip
/// and PNG use, implemented table-driven to avoid a dependency. It is
/// slice-by-8: eight bytes per step through eight tables, each step's
/// lookups independent of one another, then the last `len % 8` bytes
/// one at a time through the first table.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = crc32_tables();
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    // `i & 0xff` is below 256, so the lookup cannot miss.
    let at = |table: &[u32; 256], i: u32| table.get((i & 0xff) as usize).copied().unwrap_or(0);
    let mut words = bytes.chunks_exact(8);
    let mut crc = 0xFFFF_FFFFu32;
    // Each chunk is eight bytes long, so `first_chunk` always matches.
    while let Some(&[b0, b1, b2, b3, b4, b5, b6, b7]) = words.next().and_then(<[u8]>::first_chunk) {
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = at(t7, lo)
            ^ at(t6, lo >> 8)
            ^ at(t5, lo >> 16)
            ^ at(t4, lo >> 24)
            ^ at(t3, hi)
            ^ at(t2, hi >> 8)
            ^ at(t1, hi >> 16)
            ^ at(t0, hi >> 24);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ at(t0, crc ^ u32::from(b));
    }
    !crc
}

/// The slice-by-8 tables: `tables[k][i]` is the CRC register after byte
/// `i` and then `k` zero bytes, so `tables[0]` is the byte-at-a-time
/// table.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut rest: &mut [[u32; 256]] = &mut tables;
    let mut zeros = 0;
    while let [table, tail @ ..] = rest {
        let mut slots: &mut [u32] = table;
        let mut i = 0u32;
        while let [slot, more @ ..] = slots {
            let mut c = crc32_byte(i);
            let mut k = 0;
            while k < zeros {
                c = (c >> 8) ^ crc32_byte(c & 0xff);
                k += 1;
            }
            *slot = c;
            slots = more;
            i += 1;
        }
        rest = tail;
        zeros += 1;
    }
    tables
}

/// The CRC register after one byte `c` (< 256) from zero: eight shifts.
const fn crc32_byte(mut c: u32) -> u32 {
    let mut k = 0;
    while k < 8 {
        c = if c & 1 != 0 {
            0xEDB8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
        k += 1;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::encode_state_json;
    use crate::{GreedyUntilTc, UserId};
    use simcore::SimDuration;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("spq-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_requests(n: u64) -> Vec<(SimTime, Request)> {
        (0..n)
            .map(|i| {
                (
                    SimTime::from_secs(i),
                    Request::Deposit {
                        user: UserId(i % 5),
                        credits: 10.0 + i as f64,
                    },
                )
            })
            .collect()
    }

    /// Bytes the log spends on `requests`: header, format byte, time and
    /// binary body of each.
    fn framed_len(requests: &[(SimTime, Request)]) -> usize {
        requests
            .iter()
            .map(|(_, r)| 8 + 1 + 8 + body(r).len())
            .sum()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC: the reference slice-by-8 must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = crc32_tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[usize::from(crc as u8 ^ b)];
        }
        !crc
    }

    #[test]
    fn crc32_slice_by_8_matches_the_bytewise_crc() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let bytes: Vec<u8> = (0..300)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        // Every length through several whole words and every remainder,
        // from every alignment within a word.
        for start in 0..8 {
            for end in start..bytes.len() {
                let slice = &bytes[start..end];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "bytes {start}..{end}");
            }
        }
    }

    /// One log record around `payload`, its checksum valid.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut record = (payload.len() as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&crc32(payload).to_le_bytes());
        record.extend_from_slice(payload);
        record
    }

    /// A binary record's payload: format byte, time, then `body`.
    fn binary_payload(t: SimTime, body: &[u8]) -> Vec<u8> {
        let mut payload = vec![RECORD_BINARY];
        payload.extend_from_slice(&t.as_millis().to_le_bytes());
        payload.extend_from_slice(body);
        payload
    }

    fn body(request: &Request) -> Vec<u8> {
        let mut body = Vec::new();
        request.encode_binary(&mut body);
        body
    }

    /// `depth` batches, one inside the other, around a `Predict`.
    fn nested(depth: usize) -> Request {
        (0..depth).fold(
            Request::Predict {
                bot: botwork::BotId(3),
            },
            |inner, _| Request::Batch(vec![inner]),
        )
    }

    #[test]
    fn a_record_is_its_time_and_binary_body_behind_the_format_byte() {
        let dir = temp_dir("layout");
        let (t, request) = (SimTime::from_millis(2000), sample_requests(3)[2].1.clone());
        let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
        wal.append(t, &request).unwrap();
        let payload = binary_payload(t, &body(&request));
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), framed(&payload));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The service refuses a non-finite credit amount only *after* its
    /// record is staged, so that record must read back: written as JSON,
    /// the float would be `null`, which no reader takes, and one binary
    /// frame would make the log unreadable.
    #[test]
    fn non_finite_credits_survive_a_reopen() {
        let dir = temp_dir("nonfinite");
        let bot = botwork::BotId(0);
        let order = |credits: f64| Request::OrderQos {
            bot,
            credits,
            strategy: None,
        };
        let deposit = |credits: f64| Request::Deposit {
            user: UserId(1),
            credits,
        };
        let register = Request::RegisterQos {
            user: UserId(1),
            env: "env".into(),
            size: 10,
        };
        let requests = [
            deposit(10.0),
            deposit(f64::NAN),
            deposit(f64::INFINITY),
            register,
            order(f64::NAN),
            order(f64::NEG_INFINITY),
            order(4.0),
        ];
        let mut served = SpeQuloS::new();
        {
            let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
            for (i, request) in requests.iter().enumerate() {
                let t = SimTime::from_secs(i as u64);
                wal.append(t, request).unwrap();
                served.handle(request.clone(), t);
            }
        }
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Always).expect("the log reopens");
        assert_eq!(recovery.records().len(), requests.len());
        let (recovered, _) = recovery.recover(SpeQuloS::new()).unwrap();
        assert_eq!(
            encode_state_json(&recovered).unwrap(),
            encode_state_json(&served).unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_valid_records_that_do_not_decode_are_corrupt_at_their_offset() {
        let t = SimTime::from_secs(7);
        let good = binary_payload(t, &body(&sample_requests(2)[1].1));
        let mut truncated = good.clone();
        truncated.pop();
        let mut trailing = good.clone();
        trailing.push(0);
        let mut unknown = good.clone();
        unknown[0] = 0x02;
        let cases: [(&str, Vec<u8>); 6] = [
            ("unknown format byte", unknown),
            ("empty payload", Vec::new()),
            ("truncated body", truncated),
            ("trailing bytes", trailing),
            (
                "too deep",
                binary_payload(t, &body(&nested(MAX_BATCH_DEPTH + 1))),
            ),
            ("time cut short", vec![RECORD_BINARY, 1, 2, 3]),
        ];
        for (what, bad) in cases {
            for followed in [false, true] {
                let dir = temp_dir("undecodable");
                fs::create_dir_all(&dir).unwrap();
                let mut log = framed(&good);
                let offset = log.len() as u64;
                log.extend(framed(&bad));
                if followed {
                    log.extend(framed(&good));
                }
                fs::write(dir.join(WAL_FILE), &log).unwrap();
                match WalStore::open(&dir, FsyncPolicy::Never) {
                    Err(WalError::Corrupt { offset: at, reason }) => {
                        assert_eq!(at, offset, "{what}: {reason}");
                    }
                    other => panic!("{what}: expected Corrupt, got {other:?}"),
                }
                assert_eq!(
                    fs::read(dir.join(WAL_FILE)).unwrap(),
                    log,
                    "{what}: untouched"
                );
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn a_non_finite_threshold_leaves_later_snapshots_restorable() {
        use crate::{StrategyCombo, Trigger};
        let dir = temp_dir("nan-threshold");
        let strategy = StrategyCombo {
            trigger: Trigger::CompletionThreshold(f64::NAN),
            ..StrategyCombo::paper_default()
        };
        let requests = [
            Request::Deposit {
                user: UserId(1),
                credits: 10.0,
            },
            Request::RegisterQos {
                user: UserId(1),
                env: "env".into(),
                size: 10,
            },
            Request::OrderQos {
                bot: botwork::BotId(0),
                credits: 4.0,
                strategy: Some(strategy),
            },
        ];
        let mut served = SpeQuloS::new();
        {
            let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
            for (i, request) in requests.iter().enumerate() {
                let t = SimTime::from_secs(i as u64);
                wal.append(t, request).unwrap();
                served.handle(request.clone(), t);
            }
            wal.snapshot(&served).unwrap();
        }
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
        let (recovered, report) = recovery.recover(SpeQuloS::new()).unwrap();
        assert_eq!(report.snapshots_discarded, 0, "the snapshot restores");
        assert_eq!(report.snapshot_applied, requests.len() as u64);
        assert_eq!(
            encode_state_json(&recovered).unwrap(),
            encode_state_json(&served).unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_refused_request_leaves_nothing_staged() {
        let dir = temp_dir("refused");
        let requests = sample_requests(2);
        let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
        wal.stage(requests[0].0, &requests[0].1).unwrap();
        let staged = wal.staged.clone();
        let oversized = Request::RegisterQos {
            user: UserId(1),
            env: "x".repeat(MAX_RECORD_BYTES as usize),
            size: 1,
        };
        for refused in [oversized, nested(MAX_BATCH_DEPTH + 1)] {
            assert!(matches!(
                wal.stage(SimTime::ZERO, &refused),
                Err(WalError::Refused(_))
            ));
            assert_eq!(wal.staged, staged, "nothing half-staged");
            assert_eq!(wal.staged_records, 1);
        }
        wal.stage(SimTime::ZERO, &nested(MAX_BATCH_DEPTH)).unwrap();
        wal.stage(requests[1].0, &requests[1].1).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
        let expected = [
            requests[0].clone(),
            (SimTime::ZERO, nested(MAX_BATCH_DEPTH)),
            requests[1].clone(),
        ];
        assert_eq!(recovery.records(), &expected[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    mod fuzz {
        use super::*;
        use crate::{DeployMode, Provisioning, StrategyCombo, Trigger};
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A float the JSON number line cannot carry as often as one it
        /// can: NaNs of either sign and any payload, infinities, −0.
        fn float(rng: &mut TestRng) -> f64 {
            match rng.below(8) {
                0 => f64::NAN,
                1 => f64::from_bits(0xfff0_0000_0000_0001 | rng.next_u64() >> 13),
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => -0.0,
                5 => f64::from_bits(rng.next_u64()),
                _ => rng.unit_f64() * 1e6,
            }
        }

        /// Any request, batches at most `depth` deep.
        struct Requests {
            depth: usize,
        }

        impl Requests {
            /// A request whose innermost message lies `depth` batches
            /// deep — or, one time in eight, an empty batch.
            fn request(rng: &mut TestRng, depth: usize) -> Request {
                if depth > 0 {
                    if rng.below(8) == 0 {
                        return Request::Batch(Vec::new());
                    }
                    let mut items = vec![Self::request(rng, depth - 1)];
                    for _ in 0..rng.below(3) {
                        let shallower = rng.below(depth as u64) as usize;
                        items.push(Self::request(rng, shallower));
                    }
                    return Request::Batch(items);
                }
                let id = rng.next_u64() >> rng.below(64);
                let bot = botwork::BotId(id);
                match rng.below(6) {
                    0 => Request::Deposit {
                        user: UserId(id),
                        credits: float(rng),
                    },
                    1 => Request::RegisterQos {
                        user: UserId(id),
                        env: ["", "env", "\"q\"\n⊕ 😀"][rng.below(3) as usize].into(),
                        size: rng.next_u64() as u32,
                    },
                    2 => {
                        let trigger = match rng.below(4) {
                            0 => Trigger::CompletionThreshold(float(rng)),
                            1 => Trigger::AssignmentThreshold(float(rng)),
                            2 => Trigger::ExecutionVariance,
                            _ => Trigger::RateDrop {
                                fraction: float(rng),
                            },
                        };
                        let strategy = (rng.below(3) > 0).then(|| StrategyCombo {
                            trigger,
                            provisioning: Provisioning::ALL[rng.below(2) as usize],
                            deployment: DeployMode::ALL[rng.below(3) as usize],
                        });
                        Request::OrderQos {
                            bot,
                            credits: float(rng),
                            strategy,
                        }
                    }
                    3 => Request::Predict { bot },
                    4 => {
                        let mut n = || rng.next_u64() as u32;
                        let progress = crate::BotProgress {
                            now: SimTime::from_millis(id),
                            size: n(),
                            completed: n(),
                            dispatched: n(),
                            queued: n(),
                            running: n(),
                            cloud_running: n(),
                        };
                        Request::ReportProgress { bot, progress }
                    }
                    _ => Request::Complete { bot },
                }
            }
        }

        impl Strategy for Requests {
            type Value = Request;
            fn sample(&self, rng: &mut TestRng) -> Request {
                let depth = rng.below(self.depth as u64 + 1) as usize;
                Self::request(rng, depth)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every request is refused by `stage`, which then leaves
            /// nothing staged, or comes back from a reopen bit for bit —
            /// floats by their bits, which is what the binary body
            /// compares.
            #[test]
            fn prop_records_round_trip_bit_identically_or_are_refused(
                requests in vec(Requests { depth: MAX_BATCH_DEPTH + 2 }, 1..6),
                times in vec(any::<u64>(), 6..7),
            ) {
                let dir = temp_dir("prop-roundtrip");
                let mut kept = Vec::new();
                {
                    let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
                    for (request, &t) in requests.iter().zip(&times) {
                        let t = SimTime::from_millis(t);
                        let (before, count) = (wal.staged.len(), wal.staged_records);
                        match wal.stage(t, request) {
                            Ok(()) => {
                                prop_assert!(batch_depth(request) <= MAX_BATCH_DEPTH);
                                kept.push((t, body(request)));
                            }
                            Err(_) => {
                                prop_assert!(batch_depth(request) > MAX_BATCH_DEPTH);
                                prop_assert_eq!(wal.staged.len(), before);
                                prop_assert_eq!(wal.staged_records, count);
                            }
                        }
                    }
                    wal.commit().unwrap();
                }
                let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                let back: Vec<(SimTime, Vec<u8>)> =
                    recovery.records().iter().map(|(t, r)| (*t, body(r))).collect();
                prop_assert_eq!(back, kept);
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn append_then_reopen_round_trips() {
        let dir = temp_dir("roundtrip");
        let requests = sample_requests(10);
        {
            let (mut wal, recovery) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
            assert!(recovery.records().is_empty());
            for (t, r) in &requests {
                wal.append(*t, r).unwrap();
            }
            assert_eq!(wal.record_count(), 10);
        }
        let (wal, recovery) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(wal.record_count(), 10);
        assert_eq!(recovery.records(), &requests[..]);
        assert_eq!(recovery.truncated_bytes(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_a_prefix() {
        let dir = temp_dir("torn");
        let requests = sample_requests(5);
        {
            let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
            for (t, r) in &requests {
                wal.append(*t, r).unwrap();
            }
        }
        let path = dir.join(WAL_FILE);
        let full = fs::read(&path).unwrap();
        // Cut the log at every possible byte: recovery must always yield
        // an exact prefix of the appended records, never an error.
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
            let n = recovery.records().len();
            assert!(n <= 5, "cut at {cut} yielded {n} records");
            assert_eq!(recovery.records(), &requests[..n], "cut at {cut}");
            // After open, the torn tail is gone from disk.
            let (_, reread) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(reread.records().len(), n);
            assert_eq!(reread.truncated_bytes(), 0);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_a_typed_error() {
        let dir = temp_dir("corrupt");
        {
            let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
            for (t, r) in &sample_requests(5) {
                wal.append(*t, r).unwrap();
            }
        }
        let path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload bit in the FIRST record: damage with records
        // following cannot be a torn write.
        bytes[10] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match WalStore::open(&dir, FsyncPolicy::Never) {
            Err(WalError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_tail_recovers_exactly() {
        let dir = temp_dir("snap");
        let mut golden = SpeQuloS::new();
        {
            let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
            for (i, (t, r)) in sample_requests(20).iter().enumerate() {
                wal.append(*t, r).unwrap();
                golden.handle(r.clone(), *t);
                if i == 11 {
                    wal.snapshot(&golden).unwrap();
                }
            }
        }
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(recovery.snapshot_applied(), Some(12));
        let (recovered, report) = recovery.recover(SpeQuloS::new()).unwrap();
        assert_eq!(report.snapshot_applied, 12);
        assert_eq!(report.replayed, 8);
        assert_eq!(
            encode_state_json(&recovered).unwrap(),
            encode_state_json(&golden).unwrap(),
            "snapshot + tail replay must equal the uninterrupted run"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_ahead_of_log_falls_back_to_full_replay() {
        let dir = temp_dir("ahead");
        let mut golden = SpeQuloS::new();
        {
            let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
            for (t, r) in &sample_requests(6) {
                wal.append(*t, r).unwrap();
                golden.handle(r.clone(), *t);
            }
            wal.snapshot(&golden).unwrap();
        }
        // Truncate the log to 3 records: the snap-6 snapshot now claims
        // requests the log does not hold and must be skipped.
        let path = dir.join(WAL_FILE);
        let full = fs::read(&path).unwrap();
        let third = full.len() / 2; // an arbitrary earlier cut
        fs::write(&path, &full[..third]).unwrap();
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(recovery.snapshot_applied(), None);
        let n = recovery.records().len();
        let (recovered, report) = recovery.recover(SpeQuloS::new()).unwrap();
        assert_eq!(report.snapshot_applied, 0);
        assert_eq!(report.replayed, n as u64);
        let mut partial = SpeQuloS::new();
        for (t, r) in recovery.records() {
            partial.handle(r.clone(), *t);
        }
        assert_eq!(
            encode_state_json(&recovered).unwrap(),
            encode_state_json(&partial).unwrap(),
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_ahead_of_log_is_deleted_before_the_log_regrows_past_it() {
        let dir = temp_dir("regrow");
        let mut first = SpeQuloS::new();
        {
            let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
            for (t, r) in &sample_requests(6) {
                wal.append(*t, r).unwrap();
                first.handle(r.clone(), *t);
            }
            wal.snapshot(&first).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..framed_len(&sample_requests(3))]).unwrap();
        // Another history grows past the stale snapshot's count.
        let others: Vec<(SimTime, Request)> = (0..5u64)
            .map(|i| {
                let withdrawn = Request::Deposit {
                    user: UserId(7),
                    credits: 0.5 + i as f64,
                };
                (SimTime::from_secs(100 + i), withdrawn)
            })
            .collect();
        {
            let (mut wal, recovery) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(recovery.records().len(), 3);
            assert_eq!(snapshot_counts(&dir).unwrap(), Vec::<u64>::new());
            for (t, r) in &others {
                wal.append(*t, r).unwrap();
            }
        }
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(recovery.records().len(), 8);
        assert_eq!(recovery.snapshot_applied(), None);
        let (recovered, _) = recovery.recover(SpeQuloS::new()).unwrap();
        let mut replayed = SpeQuloS::new();
        for (t, r) in sample_requests(3).iter().chain(&others) {
            replayed.handle(r.clone(), *t);
        }
        assert_eq!(
            encode_state_json(&recovered).unwrap(),
            encode_state_json(&replayed).unwrap(),
            "recovery must be a replay of the eight records on disk"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staged_records_reach_the_log_only_at_commit() {
        let dir = temp_dir("stage");
        let requests = sample_requests(7);
        let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
        let on_disk = |dir: &Path| fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        wal.append(requests[0].0, &requests[0].1).unwrap();
        let one = on_disk(&dir);
        assert_eq!(one, framed_len(&requests[..1]) as u64);
        for (t, r) in &requests[1..] {
            wal.stage(*t, r).unwrap();
        }
        assert_eq!(wal.record_count(), 1, "staged is not committed");
        assert_eq!(on_disk(&dir), one, "staging writes nothing");
        wal.commit().unwrap();
        wal.commit().unwrap(); // nothing staged: a no-op
        assert_eq!(wal.record_count(), 7);
        assert_eq!(
            on_disk(&dir),
            framed_len(&requests) as u64,
            "a group is its records, back to back"
        );
        drop(wal);
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(recovery.records(), &requests[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A full disk, by way of `/dev/full`: every write fails with ENOSPC.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_commit_closes_the_log_for_good() {
        let dir = temp_dir("failstop");
        let requests = sample_requests(4);
        let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
        for (t, r) in &requests[..2] {
            wal.append(*t, r).unwrap();
        }
        let full = OpenOptions::new().write(true).open("/dev/full").unwrap();
        let log = std::mem::replace(&mut wal.file, full);
        let (t, r) = &requests[2];
        wal.stage(*t, r).expect("staging is memory only");
        assert!(matches!(wal.commit(), Err(WalError::Io(_))));
        assert_eq!(wal.record_count(), 2, "only committed records count");
        // The disk has room again — and the log stays closed: a write
        // now would land behind whatever the failed one left.
        wal.file = log;
        let len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(wal.stage(*t, r).is_err());
        assert!(wal.commit().is_err());
        assert!(wal.append(*t, r).is_err());
        assert!(wal.snapshot(&SpeQuloS::new()).is_err());
        assert_eq!(wal.record_count(), 2);
        drop(wal);
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), len);
        assert_eq!(snapshot_counts(&dir).unwrap(), Vec::<u64>::new());
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(recovery.records(), &requests[..2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_snapshot_trigger_follows_the_log_and_survives_a_restart() {
        let dir = temp_dir("trigger");
        let mut service = SpeQuloS::new();
        let requests = sample_requests(40);
        let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(wal.tail_outweighs_snapshot(), "no snapshot yet: always due");
        let mut feed = requests.iter();
        let mut step = |wal: &mut WalStore, service: &mut SpeQuloS| {
            let (t, r) = feed.next().expect("enough requests");
            wal.append(*t, r).unwrap();
            service.handle(r.clone(), *t);
        };
        step(&mut wal, &mut service);
        wal.snapshot(&service).unwrap();
        assert!(!wal.tail_outweighs_snapshot(), "nothing appended since");
        let snapshot_bytes = fs::metadata(snapshot_path(&dir, 1)).unwrap().len();
        let log_at_snapshot = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let mut appended = 0;
        while !wal.tail_outweighs_snapshot() {
            step(&mut wal, &mut service);
            appended += 1;
            // Both numbers are on disk, so a reopened store agrees.
            let (reopened, _) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(
                reopened.tail_outweighs_snapshot(),
                wal.tail_outweighs_snapshot(),
                "after {appended} appends"
            );
        }
        let tail = fs::metadata(dir.join(WAL_FILE)).unwrap().len() - log_at_snapshot;
        assert!(
            tail >= snapshot_bytes,
            "due only once the tail outweighs it"
        );
        assert!(appended > 1, "and not a record earlier");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_snapshots_are_pruned_to_two() {
        let dir = temp_dir("prune");
        let mut service = SpeQuloS::new();
        let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
        for (t, r) in &sample_requests(9) {
            wal.append(*t, r).unwrap();
            service.handle(r.clone(), *t);
            wal.snapshot(&service).unwrap();
        }
        let mut counts = snapshot_counts(&dir).unwrap();
        counts.sort_unstable();
        assert_eq!(counts, vec![8, 9]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A BoT's lifecycle, twenty records long: a deposit, a registration,
    /// an order, then progress reports that fill its Information record.
    fn lifecycle_requests() -> Vec<(SimTime, Request)> {
        let bot = botwork::BotId(0);
        let mut requests = vec![
            (
                SimTime::ZERO,
                Request::Deposit {
                    user: UserId(1),
                    credits: 500.0,
                },
            ),
            (
                SimTime::ZERO,
                Request::RegisterQos {
                    user: UserId(1),
                    env: "env".into(),
                    size: 20,
                },
            ),
            (
                SimTime::ZERO,
                Request::OrderQos {
                    bot,
                    credits: 100.0,
                    strategy: None,
                },
            ),
        ];
        for minute in 1..=17u64 {
            let now = SimTime::from_mins(minute);
            let progress = crate::BotProgress {
                now,
                size: 20,
                completed: minute as u32,
                dispatched: 20,
                queued: 20 - minute as u32,
                running: 1,
                cloud_running: 0,
            };
            requests.push((now, Request::ReportProgress { bot, progress }));
        }
        requests
    }

    /// Serves [`lifecycle_requests`] into `dir`, snapshotting after each
    /// record count in `at`; returns the served service.
    fn serve_with_snapshots(dir: &Path, at: &[usize]) -> SpeQuloS {
        let mut served = SpeQuloS::new();
        let (mut wal, _) = WalStore::open(dir, FsyncPolicy::Never).unwrap();
        for (i, (t, r)) in lifecycle_requests().into_iter().enumerate() {
            wal.append(t, &r).unwrap();
            served.handle(r, t);
            if at.contains(&(i + 1)) {
                wal.snapshot(&served).unwrap();
            }
        }
        served
    }

    #[test]
    fn an_unparseable_newest_snapshot_falls_back_to_the_older_one() {
        let dir = temp_dir("unparseable");
        let served = serve_with_snapshots(&dir, &[6, 12]);
        let newest = snapshot_path(&dir, 12);
        let text = fs::read_to_string(&newest).unwrap();
        fs::write(&newest, &text[..text.len() / 2]).unwrap();
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(recovery.snapshot_applied(), Some(6));
        let (recovered, report) = recovery.recover(SpeQuloS::new()).unwrap();
        assert_eq!(
            (
                report.snapshot_applied,
                report.replayed,
                report.snapshots_discarded
            ),
            (6, 14, 1)
        );
        assert_eq!(
            encode_state_json(&recovered).unwrap(),
            encode_state_json(&served).unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_newest_snapshot_whose_state_fails_to_restore_replays_the_whole_log() {
        let dir = temp_dir("unrestorable");
        let served = serve_with_snapshots(&dir, &[6, 12]);
        let unrestorable = "{\"format\":1,\"applied\":12,\"state\":{}}\n";
        fs::write(snapshot_path(&dir, 12), unrestorable).unwrap();
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(recovery.snapshot_applied(), Some(12), "it parses");
        let (recovered, report) = recovery.recover(SpeQuloS::new()).unwrap();
        assert_eq!(
            (
                report.snapshot_applied,
                report.replayed,
                report.snapshots_discarded
            ),
            (0, 20, 1)
        );
        assert_eq!(
            encode_state_json(&recovered).unwrap(),
            encode_state_json(&served).unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Snapshots carry no checksum: one flipped byte in the key `"live"`
    /// once restored an empty Information store, and the next progress
    /// report diverged from the service that wrote the log.
    #[test]
    fn a_snapshot_missing_a_module_member_is_discarded_for_the_log() {
        let dir = temp_dir("livx");
        serve_with_snapshots(&dir, &[12]);
        let path = snapshot_path(&dir, 12);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen("\"live\"", "\"livX\"", 1)).unwrap();
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
        let (recovered, report) = recovery.recover(SpeQuloS::new()).unwrap();
        assert_eq!(
            (report.snapshot_applied, report.snapshots_discarded),
            (0, 1)
        );
        fs::remove_file(&path).unwrap();
        let (_, log_only) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
        let (replayed, _) = log_only.recover(SpeQuloS::new()).unwrap();
        assert_eq!(
            encode_state_json(&recovered).unwrap(),
            encode_state_json(&replayed).unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_mismatch_on_recover_is_a_hard_error() {
        let dir = temp_dir("mismatch");
        let mut golden = SpeQuloS::builder().pool(4).build();
        {
            let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
            for (t, r) in &sample_requests(3) {
                wal.append(*t, r).unwrap();
                golden.handle(r.clone(), *t);
            }
            wal.snapshot(&golden).unwrap();
        }
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Always).unwrap();
        // Template without a pool: replay against it would diverge.
        match recovery.recover(SpeQuloS::new()) {
            Err(WalError::Snapshot(SnapshotError::ConfigMismatch(_))) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot taken under one scheduling policy once read as corrupt
    /// in a template of the other, so recovery replayed the whole log
    /// under the template's policy. It is a configuration mismatch, both
    /// ways round, refused like any other. So is a `GreedyUntilTc` of
    /// another target, which a usable snapshot once restored silently
    /// while a replay from genesis took the template's.
    #[test]
    fn a_snapshot_of_the_other_scheduling_policy_is_a_config_mismatch() {
        fn greedy(hours: u64) -> SpeQuloS {
            let policy = GreedyUntilTc::new(SimDuration::from_hours(hours));
            SpeQuloS::builder().policy(policy).build()
        }
        let templates: [fn() -> SpeQuloS; 3] = [SpeQuloS::new, || greedy(1), || greedy(2)];
        for (writer, reader) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            let dir = temp_dir("policy");
            let mut served = templates[writer]();
            {
                let (mut wal, _) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
                for (t, r) in &sample_requests(4) {
                    wal.append(*t, r).unwrap();
                    served.handle(r.clone(), *t);
                }
                wal.snapshot(&served).unwrap();
            }
            let text = encode_state_json(&served).unwrap();
            match restore_state_json(templates[reader](), &text) {
                Err(SnapshotError::ConfigMismatch(_)) => {}
                other => panic!("expected ConfigMismatch, got {:?}", other.err()),
            }
            let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).unwrap();
            match recovery.recover(templates[reader]()) {
                Err(WalError::Snapshot(SnapshotError::ConfigMismatch(_))) => {}
                other => panic!("expected ConfigMismatch, got {:?}", other.map(|(_, r)| r)),
            }
            let (_, report) = recovery.recover(templates[writer]()).unwrap();
            assert_eq!((report.snapshot_applied, report.replayed), (4, 0));
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
