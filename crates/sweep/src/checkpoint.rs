//! The append-only, CRC-guarded per-point checkpoint log.
//!
//! With `--checkpoint <path>` the engine appends one record per
//! completed grid point; a restarted sweep replays the log, skips the
//! recorded points, and still emits a report byte-identical to an
//! uninterrupted run (the run documents round-trip exactly through the
//! workspace's canonical JSON writer/parser pair).
//!
//! Format: one record per line, `CCCCCCCC <payload>\n` where
//! `CCCCCCCC` is the lowercase-hex CRC-32 (IEEE) of the payload bytes
//! and `<payload>` is one canonical JSON object. The first record is a
//! header binding the log to a plan fingerprint, grid size, and shard;
//! every following record is one point outcome. Success records carry
//! the full run document plus the table summary (floats as exact bit
//! patterns); failure records carry the structured failure entry.
//!
//! A log that was SIGKILLed mid-write is *expected* input, not an
//! error: validation walks every line, CRC-checks it, and classifies
//! damage — a torn final line is a truncated tail, an interior CRC or
//! parse failure is a corrupt record, a broken first line discards the
//! whole log. All damage is reported as typed [`SweepError::Checkpoint`]
//! warnings and recovered past (the affected points simply re-run);
//! damage is never silently trusted. A log whose *header* is intact but
//! names a different plan, grid size, or shard is a hard
//! [`SweepError::CheckpointMismatch`] — resuming would mix sweeps.
//!
//! The log is also a shard's result: `--shard k/N` runs write one, and
//! [`crate::merge_logs`] reassembles the whole grid from the logs of
//! every shard. [`read`] is the one decoder both paths use, and it never
//! writes. A resume then opens the log for appending: the surviving
//! records are rewritten in place so damage is healed once, and the file
//! reopens for appends.

use std::fs::OpenOptions;
use std::io::Write;

use csim_obs::json::{parse, Json};

use crate::engine::{plan_fingerprint, PointFailure, PointOutcome, RunOutcome, RunSummary};
use crate::plan::{SweepError, SweepPlan};
use crate::shard::Shard;

/// Schema tag of the checkpoint log's header record.
pub const CHECKPOINT_SCHEMA: &str = "csim-sweep-checkpoint/v1";

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320): detects every single-bit
/// error and all burst errors up to 32 bits in a record. Bitwise — the
/// log is written once per completed *simulation*, so a table-free
/// implementation is plenty and keeps the crate dependency-free.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One encoded log line: CRC, space, payload, newline.
fn encode_line(payload: &str) -> String {
    format!("{:08x} {payload}\n", crc32(payload.as_bytes()))
}

/// Decodes and CRC-verifies one log line into its payload document.
fn decode_line(line: &[u8]) -> Result<Json, String> {
    let line = std::str::from_utf8(line).map_err(|_| "record is not UTF-8".to_string())?;
    let frame =
        line.split_at_checked(8).and_then(|(crc, rest)| Some((crc, rest.strip_prefix(' ')?)));
    let Some((crc_hex, payload)) = frame.filter(|(_, payload)| !payload.is_empty()) else {
        return Err("record too short for a CRC frame".to_string());
    };
    // Strictly lowercase hex: `from_str_radix` alone would also accept
    // uppercase, letting a case-flipping bit error in the CRC field
    // masquerade as the same value.
    if !crc_hex.bytes().all(|b| b.is_ascii_digit() || b.is_ascii_lowercase()) {
        return Err(format!("bad CRC field '{crc_hex}'"));
    }
    let stored =
        u32::from_str_radix(crc_hex, 16).map_err(|_| format!("bad CRC field '{crc_hex}'"))?;
    let actual = crc32(payload.as_bytes());
    if stored != actual {
        return Err(format!("CRC mismatch (recorded {stored:08x}, computed {actual:08x})"));
    }
    parse(payload).map_err(|e| format!("payload is not valid JSON: {e}"))
}

/// The `k/N` shard spec a header records, `-` for the whole grid.
fn shard_name(shard: Option<Shard>) -> String {
    shard.map_or_else(|| "-".to_string(), |s| s.to_string())
}

/// The header record binding a log to its sweep.
fn header_json(plan: &SweepPlan, shard: Option<Shard>) -> Json {
    Json::obj([
        ("schema", Json::str(CHECKPOINT_SCHEMA)),
        ("plan", Json::str(plan_fingerprint(plan))),
        ("run_count", Json::UInt(plan.run_count() as u64)),
        ("shard", Json::str(shard_name(shard))),
    ])
}

/// An f64 as its exact bit pattern, so summaries survive the log without
/// any text-formatting round-trip question.
fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_from_hex(doc: &Json, key: &str) -> Result<f64, String> {
    let hex = doc.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing '{key}'"))?;
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("'{key}' is not a 64-bit hex pattern"))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing '{key}'"))
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing '{key}'"))
}

/// The payload document for one point outcome.
fn record_json(point: &PointOutcome) -> Json {
    let mut doc = Json::obj([
        ("index", Json::UInt(point.index() as u64)),
        ("label", Json::str(point.label())),
        ("seed", Json::UInt(point.seed())),
    ]);
    match point {
        PointOutcome::Run(r) => {
            doc.push("cpi", Json::str(f64_to_hex(r.summary.cpi)));
            doc.push("mpki", Json::str(f64_to_hex(r.summary.mpki)));
            doc.push("l2_misses", Json::UInt(r.summary.l2_misses));
            doc.push("transactions", Json::UInt(r.summary.transactions));
            doc.push("run", r.doc.clone());
        }
        PointOutcome::Failed(f) => {
            doc.push("attempts", Json::UInt(u64::from(f.attempts)));
            doc.push("error", Json::str(&f.error));
        }
    }
    doc
}

/// Decodes one point record. `run_count` bounds the index — an
/// out-of-range index means the record belongs to some other grid and
/// is treated as damage by the caller.
fn decode_record(doc: &Json, run_count: usize) -> Result<PointOutcome, String> {
    let index = u64_field(doc, "index")? as usize;
    if index >= run_count {
        return Err(format!("point index {index} out of range for a {run_count}-point grid"));
    }
    let label = str_field(doc, "label")?.to_string();
    let seed = u64_field(doc, "seed")?;
    if let Some(run) = doc.get("run") {
        let summary = RunSummary {
            cpi: f64_from_hex(doc, "cpi")?,
            mpki: f64_from_hex(doc, "mpki")?,
            l2_misses: u64_field(doc, "l2_misses")?,
            transactions: u64_field(doc, "transactions")?,
        };
        Ok(PointOutcome::Run(RunOutcome { index, label, seed, summary, doc: run.clone() }))
    } else {
        Ok(PointOutcome::Failed(PointFailure {
            index,
            label,
            seed,
            attempts: u64_field(doc, "attempts")? as u32,
            error: str_field(doc, "error")?.to_string(),
        }))
    }
}

/// A problem with the log file as a whole.
fn file_err(path: &str, message: String) -> SweepError {
    SweepError::Checkpoint { path: path.to_string(), line: 0, message }
}

/// What a checkpoint log validly records, as decoded by [`read`].
pub(crate) struct Recorded {
    /// The slice the log's intact header binds: `Some(None)` for a
    /// whole-grid sweep, `Some(Some(shard))` for one shard, and `None`
    /// when the log has no intact header (missing, empty, or a damaged
    /// first line) and so records no points either.
    pub header: Option<Option<Shard>>,
    /// The point outcomes the log validly records, in grid order.
    pub points: Vec<PointOutcome>,
    /// Typed reports of every damaged record that was detected and
    /// skipped.
    pub damage: Vec<SweepError>,
}

/// Reads and validates the log at `path` without writing it: CRC-checks
/// every line, classifies damage, and refuses an intact header recorded
/// for another plan or grid. A missing file reads as an empty log.
/// Resume ([`CheckpointLog::open`]) and `merge_logs` share this one
/// decoder.
///
/// # Errors
///
/// [`SweepError::Checkpoint`] when the file cannot be read, and
/// [`SweepError::CheckpointMismatch`] for an intact header that is not
/// this plan's.
pub(crate) fn read(path: &str, plan: &SweepPlan) -> Result<Recorded, SweepError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(file_err(path, format!("cannot read: {e}"))),
    };

    let mut recorded = Recorded { header: None, points: Vec::new(), damage: Vec::new() };
    // Index of the last line that holds any bytes: damage there is a
    // torn tail (the expected SIGKILL artifact), not corruption.
    let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let last_nonempty = lines.iter().rposition(|l| !l.is_empty());
    for (i, line) in lines.iter().enumerate() {
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let tail = Some(i) == last_nonempty;
        let fail = |message: String| SweepError::Checkpoint {
            path: path.to_string(),
            line: lineno,
            message: if tail {
                format!("truncated tail: {message} (dropped; the point will re-run)")
            } else {
                format!("corrupt record: {message} (skipped; the point will re-run)")
            },
        };
        let doc = match decode_line(line) {
            Ok(doc) => doc,
            Err(message) => {
                if lineno == 1 {
                    // An unreadable header orphans every record:
                    // nothing ties them to this plan, so the whole
                    // log is discarded and recomputed.
                    recorded.damage.push(SweepError::Checkpoint {
                        path: path.to_string(),
                        line: 1,
                        message: format!(
                            "header damaged ({message}); discarding the whole log and recomputing"
                        ),
                    });
                    break;
                }
                recorded.damage.push(fail(message));
                continue;
            }
        };
        if lineno == 1 {
            // The header is intact: a mismatch now is the user
            // pointing at the wrong sweep, not disk damage.
            if doc.get("schema").and_then(Json::as_str) != Some(CHECKPOINT_SCHEMA) {
                return Err(SweepError::CheckpointMismatch {
                    path: path.to_string(),
                    message: format!(
                        "not a {CHECKPOINT_SCHEMA} log (is this really a checkpoint file?)"
                    ),
                });
            }
            // `-` (the whole grid) is no shard spec, and neither is a
            // malformed one, whose header then fails the comparison.
            let shard = doc.get("shard").and_then(Json::as_str).and_then(|s| Shard::parse(s).ok());
            if doc.to_string() != header_json(plan, shard).to_string() {
                return Err(SweepError::CheckpointMismatch {
                    path: path.to_string(),
                    message: format!(
                        "recorded for plan {} ({} points, shard {}), expected plan {} ({} points)",
                        doc.get("plan").and_then(Json::as_str).unwrap_or("?"),
                        doc.get("run_count").and_then(Json::as_u64).unwrap_or(0),
                        doc.get("shard").and_then(Json::as_str).unwrap_or("?"),
                        plan_fingerprint(plan),
                        plan.run_count(),
                    ),
                });
            }
            recorded.header = Some(shard);
            continue;
        }
        if recorded.header.is_none() {
            // A log whose first line is empty has no header: its
            // records are tied to no plan.
            recorded.damage.push(fail("record before any header".to_string()));
            continue;
        }
        match decode_record(&doc, plan.run_count()) {
            Ok(point) => recorded.points.push(point),
            Err(message) => recorded.damage.push(fail(message)),
        }
    }
    // Later records win: a compaction interrupted mid-write can
    // legitimately leave the same point twice. The sort is stable, so
    // after the reversal each point's latest record comes first.
    recorded.points.reverse();
    recorded.points.sort_by_key(PointOutcome::index);
    recorded.points.dedup_by_key(|p| p.index());
    Ok(recorded)
}

/// The open, append-only checkpoint log.
pub(crate) struct CheckpointLog {
    path: String,
    /// `None` once an append has failed — the sweep keeps running
    /// without checkpoints rather than dying.
    file: Option<std::fs::File>,
}

impl CheckpointLog {
    /// Opens (or creates) the log at `path` for the given plan/shard:
    /// [`read`]s it, refuses a header of another shard, compacts the
    /// surviving records back to disk, and reopens for appending.
    pub(crate) fn open(
        path: &str,
        plan: &SweepPlan,
        shard: Option<Shard>,
    ) -> Result<(CheckpointLog, Recorded), SweepError> {
        let recorded = read(path, plan)?;
        if let Some(recorded_shard) = recorded.header {
            if recorded_shard != shard {
                let (recorded_shard, shard) = (shard_name(recorded_shard), shard_name(shard));
                return Err(SweepError::CheckpointMismatch {
                    path: path.to_string(),
                    message: format!("recorded for shard {recorded_shard}, expected shard {shard}"),
                });
            }
        }

        // Compact: heal the damage on disk exactly once, then append.
        let mut content = encode_line(&header_json(plan, shard).to_string());
        for point in &recorded.points {
            content.push_str(&encode_line(&record_json(point).to_string()));
        }
        std::fs::write(path, &content)
            .map_err(|e| file_err(path, format!("cannot rewrite: {e}")))?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| file_err(path, format!("cannot reopen for append: {e}")))?;
        Ok((CheckpointLog { path: path.to_string(), file: Some(file) }, recorded))
    }

    /// Appends one completed point. Once a write has failed the log is
    /// disabled and later appends write nothing.
    ///
    /// # Errors
    ///
    /// [`SweepError::Checkpoint`] for the write that fails, once; the
    /// caller reports it and keeps sweeping.
    pub(crate) fn append(&mut self, point: &PointOutcome) -> Result<(), SweepError> {
        let Some(file) = &mut self.file else { return Ok(()) };
        let line = encode_line(&record_json(point).to_string());
        file.write_all(line.as_bytes()).map_err(|e| {
            self.file = None;
            let message =
                format!("append failed: {e}; checkpointing disabled for the rest of the sweep");
            file_err(&self.path, message)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc_detects_every_single_bit_flip_in_a_record() {
        let payload = r#"{"index":3,"label":"l2/2M8w/1n1c/s0","seed":42}"#;
        let line = encode_line(payload);
        let framed = line.trim_end().as_bytes();
        assert!(decode_line(framed).is_ok());
        let mut flips = 0;
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut copy = framed.to_vec();
                copy[byte] ^= 1 << bit;
                if decode_line(&copy).is_ok() {
                    // The only acceptable survivors would be hex-case
                    // changes in the CRC field — and there are none,
                    // because encode_line emits lowercase and a flip
                    // changes the value.
                    flips += 1;
                }
            }
        }
        assert_eq!(flips, 0, "some single-bit flip went undetected");
    }

    #[test]
    fn record_round_trips_success_and_failure() {
        let run = PointOutcome::Run(RunOutcome {
            index: 7,
            label: "all/2M8w/4n2c/s1".to_string(),
            seed: 0xDEAD_BEEF,
            summary: RunSummary {
                cpi: 1.875,
                mpki: 0.1 + 0.2, // deliberately non-representable
                l2_misses: 1234,
                transactions: 99,
            },
            doc: Json::obj([("schema", Json::str("csim-run-report/v1"))]),
        });
        let doc =
            decode_line(encode_line(&record_json(&run).to_string()).trim_end().as_bytes()).unwrap();
        let back = decode_record(&doc, 100).unwrap();
        let r = back.as_run().unwrap();
        assert_eq!((r.index, r.seed), (7, 0xDEAD_BEEF));
        assert_eq!(r.summary.cpi.to_bits(), 1.875f64.to_bits());
        assert_eq!(r.summary.mpki.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.doc.to_string(), "{\"schema\":\"csim-run-report/v1\"}");

        let failed = PointOutcome::Failed(PointFailure {
            index: 3,
            label: "base/8M1w/1n1c/s0".to_string(),
            seed: 42,
            attempts: 3,
            error: "panicked: \"quoted\"".to_string(),
        });
        let doc = decode_line(encode_line(&record_json(&failed).to_string()).trim_end().as_bytes())
            .unwrap();
        let back = decode_record(&doc, 4).unwrap();
        let f = back.failure().unwrap();
        assert_eq!((f.attempts, f.error.as_str()), (3, "panicked: \"quoted\""));
        // Out-of-range indices are damage, not trust.
        assert!(decode_record(&doc, 3).unwrap_err().contains("out of range"));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_disables_the_log_once() {
        let file = OpenOptions::new().append(true).open("/dev/full").unwrap();
        let mut log = CheckpointLog { path: "/dev/full".to_string(), file: Some(file) };
        let point = PointOutcome::Failed(PointFailure {
            index: 0,
            label: "base/8M1w/1n1c/s0".to_string(),
            seed: 42,
            attempts: 1,
            error: "x".to_string(),
        });
        let err = log.append(&point).unwrap_err();
        assert!(err.to_string().contains("checkpointing disabled"), "{err}");
        assert!(log.file.is_none(), "the failed write closes the log");
        log.append(&point).expect("a disabled log accepts appends and writes nothing");
    }
}
