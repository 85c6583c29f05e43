//! Pluggable persistence for completed runs.
//!
//! Every finished simulation produces one [`RunRecord`] — stats,
//! makespan, validation verdict, stall totals when traced, and the plan
//! hash that ties it back to its cache entry — appended to a
//! [`RunStore`]. The daemon ships two stores behind the trait:
//! [`MemStore`] (tests, ephemeral serving) and [`JsonlStore`] (one JSON
//! object per line; survives daemon restarts, greppable, trivially
//! ingestible). A SQLite store slots in behind the same trait when the
//! toolchain gains the dependency.

use overlap_sim::stats::RunStats;
use overlap_sim::trace::StallBreakdown;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One completed run, as persisted and as returned by `GET /v1/runs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Monotone id assigned by the daemon at completion time.
    pub run_id: u64,
    /// The session that produced this run.
    pub session: u64,
    /// FNV-1a hash of the plan-cache key — groups runs of the same
    /// lowered scenario across engines, faults, and daemon restarts.
    pub plan_hash: u64,
    /// Whether the plan came out of the cache (`apply_delta` path) or
    /// was lowered fresh for this run.
    pub cache_hit: bool,
    /// Engine label (`"event"`, `"lockstep"`, `"sharded(t)"`). A plain
    /// string, so records naming a since-removed engine still load.
    pub engine: String,
    /// Placement strategy label (see `Strategy::label`).
    pub strategy: String,
    /// Host graph name.
    pub host: String,
    /// Full engine statistics (makespan, slowdown, traffic, memory and
    /// fault counters).
    pub stats: RunStats,
    /// Did every database copy match the unit-delay reference?
    pub validated: bool,
    /// Number of mismatching copies (0 when `validated`).
    pub mismatches: u64,
    /// Stall-attribution totals when the run was traced.
    #[serde(default)]
    pub stalls: Option<StallBreakdown>,
}

/// Where completed runs go. Implementations must be safe to call from
/// many worker threads.
pub trait RunStore: Send + Sync {
    /// Persist one completed run.
    fn append(&self, record: &RunRecord) -> io::Result<()>;
    /// All persisted runs, oldest first (including runs persisted by
    /// previous daemon processes, for durable stores).
    fn load_all(&self) -> io::Result<Vec<RunRecord>>;
}

/// In-memory store: fast, gone when the daemon exits.
#[derive(Default)]
pub struct MemStore {
    records: Mutex<Vec<RunRecord>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RunStore for MemStore {
    fn append(&self, record: &RunRecord) -> io::Result<()> {
        self.records.lock().unwrap().push(record.clone());
        Ok(())
    }

    fn load_all(&self) -> io::Result<Vec<RunRecord>> {
        Ok(self.records.lock().unwrap().clone())
    }
}

/// JSON-lines store: one `RunRecord` object per line, appended and
/// flushed per run, re-read from disk on every query so records written
/// by earlier daemon processes stay visible.
///
/// A crash mid-append can leave a final line without its newline. That
/// record was never acknowledged, so [`load_all`](RunStore::load_all)
/// skips it when it does not parse, and [`open`](Self::open) cuts it off
/// so the next append starts on a fresh line. A malformed line anywhere
/// else is an error.
pub struct JsonlStore {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl JsonlStore {
    /// Open (or create) the store at `path`, repairing a torn final line
    /// (a complete record only missing its newline gets one).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = std::fs::read(&path)?;
        let (complete, tail) = split_torn_tail(&bytes);
        if !tail.is_empty() {
            if parse_tail(tail).is_some() {
                file.write_all(b"\n")?;
            } else {
                file.set_len(complete.len() as u64)?;
            }
        }
        Ok(Self {
            path,
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl RunStore for JsonlStore {
    fn append(&self, record: &RunRecord) -> io::Result<()> {
        let line = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut w = self.writer.lock().unwrap();
        writeln!(w, "{line}")?;
        w.flush()
    }

    fn load_all(&self) -> io::Result<Vec<RunRecord>> {
        // Take the writer lock so a concurrent append's line is either
        // fully flushed or not started.
        let _w = self.writer.lock().unwrap();
        let bytes = std::fs::read(&self.path)?;
        let (complete, tail) = split_torn_tail(&bytes);
        let text = std::str::from_utf8(complete)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec: RunRecord = serde_json::from_str(line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", self.path.display(), i + 1),
                )
            })?;
            out.push(rec);
        }
        out.extend(parse_tail(tail));
        Ok(out)
    }
}

/// Split a store file into its newline-terminated lines and whatever
/// follows the last newline (empty unless an append was torn).
fn split_torn_tail(bytes: &[u8]) -> (&[u8], &[u8]) {
    let cut = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    bytes.split_at(cut)
}

/// The record on an unterminated final line, if it is a whole one.
fn parse_tail(tail: &[u8]) -> Option<RunRecord> {
    let text = std::str::from_utf8(tail).ok()?;
    serde_json::from_str(text).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(run_id: u64) -> RunRecord {
        RunRecord {
            run_id,
            session: 1,
            plan_hash: 0xfeed,
            cache_hit: run_id > 0,
            engine: "event".into(),
            strategy: "overlap(c=4)".into(),
            host: "array-4".into(),
            stats: RunStats::default(),
            validated: true,
            mismatches: 0,
            stalls: None,
        }
    }

    #[test]
    fn mem_store_round_trips() {
        let s = MemStore::new();
        s.append(&record(0)).unwrap();
        s.append(&record(1)).unwrap();
        let all = s.load_all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1], record(1));
    }

    fn temp_store(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "overlap-daemon-store-{name}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn jsonl_store_survives_reopen() {
        let path = temp_store("reopen");
        {
            let s = JsonlStore::open(&path).unwrap();
            s.append(&record(0)).unwrap();
        }
        let s = JsonlStore::open(&path).unwrap();
        s.append(&record(1)).unwrap();
        let all = s.load_all().unwrap();
        assert_eq!(all.len(), 2, "records from the first open must persist");
        assert_eq!(all[0], record(0));
        assert_eq!(all[1], record(1));
        let _ = std::fs::remove_file(&path);
    }

    fn line(rec: &RunRecord) -> String {
        serde_json::to_string(rec).unwrap() + "\n"
    }

    #[test]
    fn torn_final_line_is_skipped_and_cut_on_reopen() {
        let path = temp_store("torn");
        let whole = line(&record(1));
        std::fs::write(&path, line(&record(0)) + &whole[..whole.len() / 2]).unwrap();
        let s = JsonlStore::open(&path).unwrap();
        // A writer crashing mid-append tears the final line again.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&whole.as_bytes()[..whole.len() / 3])
            .unwrap();
        assert_eq!(s.load_all().unwrap(), vec![record(0)]);
        drop(s);
        // Reopening drops the torn bytes, so the next append starts a
        // fresh line instead of gluing onto them.
        let s = JsonlStore::open(&path).unwrap();
        s.append(&record(2)).unwrap();
        assert_eq!(s.load_all().unwrap(), vec![record(0), record(2)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unterminated_whole_record_is_kept() {
        let path = temp_store("unterminated");
        let one = line(&record(1));
        std::fs::write(&path, line(&record(0)) + one.trim_end()).unwrap();
        let s = JsonlStore::open(&path).unwrap();
        s.append(&record(2)).unwrap();
        assert_eq!(s.load_all().unwrap(), vec![record(0), record(1), record(2)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_middle_line_is_an_error() {
        let path = temp_store("corrupt");
        std::fs::write(
            &path,
            line(&record(0)) + "{\"run_id\": 1, \"sess\n" + &line(&record(2)),
        )
        .unwrap();
        let err = JsonlStore::open(&path).unwrap().load_all().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":2:"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_of_removed_engines_still_load() {
        // `engine` is a free-form label: a row written when the
        // time-stepped engine still existed loads unchanged.
        let path = temp_store("stepped");
        let old = RunRecord {
            engine: "stepped".into(),
            ..record(0)
        };
        let row = line(&old);
        assert!(row.contains("\"engine\":\"stepped\""), "{row}");
        std::fs::write(&path, row).unwrap();
        let all = JsonlStore::open(&path).unwrap().load_all().unwrap();
        assert_eq!(all, vec![old]);
        let _ = std::fs::remove_file(&path);
    }
}
