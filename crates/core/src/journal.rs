//! The one crash-safe append-only JSONL journal.
//!
//! Both persistent stores — the evaluation cache (`evals.jsonl`) and the
//! tuned-results database (`tuned.jsonl`) — keep their records in one
//! in-memory map each and mirror it to one journal file, one JSON record
//! per line. This module owns the persistence algorithm and nothing
//! else; what a line means, and the map the lines load into, stay with
//! the stores:
//!
//! * **load** ([`read_lines`]): every line is offered to the store's
//!   parser. A line the parser refuses — typically one truncated
//!   trailing record from a crash mid-append — or that is not UTF-8 is
//!   *one* malformed record: counted, skipped, and the load goes on, so
//!   a bad byte costs the record it sits in, never the rest of the file.
//! * **store** ([`Journal::store`]): the record is already in the
//!   store's map; it is appended with one `write`. Under a chaos plan
//!   the write may be torn (half the bytes, no newline), which marks the
//!   journal dirty.
//! * **repair** ([`Journal::rewrite`]): a journal known to hold
//!   malformed lines is replaced, by the next store, with an atomic
//!   tmp + rename rewrite of the store's live records. The file lock is
//!   held from the snapshot to the reopened append handle, so a
//!   concurrent append can never land in the file being replaced. The
//!   tuned db's compaction is the same operation.
//!
//! The lock is per process: two processes sharing a journal can still
//! lose appends to each other's rewrite (DESIGN.md, "Stores sized to
//! their traffic"). Each store is one file, so that lock, when it lands,
//! is one lock file per store, taken in [`Journal::store`] and
//! [`Journal::rewrite`].

use crate::fault::FaultPlan;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// What a load found: the non-blank lines read, and how many of them
/// were malformed (refused by the store's parser, or not UTF-8).
#[derive(Debug, Default)]
pub(crate) struct Loaded {
    pub lines: u64,
    pub malformed: u64,
}

/// Offer every non-blank line of `src` (trimmed) to `accept`, which
/// returns whether the line parsed, tallying into `loaded`. Lines are
/// read as bytes, so invalid UTF-8 is one malformed line rather than the
/// end of the read. `Err` is an I/O failure, never a verdict on the
/// content; the tally then covers the lines read before it.
pub(crate) fn scan_lines(
    src: impl std::io::Read,
    loaded: &mut Loaded,
    mut accept: impl FnMut(&str) -> bool,
) -> std::io::Result<()> {
    let mut src = std::io::BufReader::new(src);
    let mut buf = Vec::new();
    while src.read_until(b'\n', &mut buf)? > 0 {
        let line = std::str::from_utf8(&buf).map(str::trim);
        if line != Ok("") {
            loaded.lines += 1;
            if !line.is_ok_and(&mut accept) {
                loaded.malformed += 1;
            }
        }
        buf.clear();
    }
    Ok(())
}

/// Load the journal at `path` through [`scan_lines`]. A missing file is
/// an empty journal; a read error ends the load like end-of-file.
pub(crate) fn read_lines(path: &Path, accept: impl FnMut(&str) -> bool) -> Loaded {
    let mut loaded = Loaded::default();
    if let Ok(file) = File::open(path) {
        let _ = scan_lines(file, &mut loaded, accept);
    }
    loaded
}

/// Tell the user, and the store's `*_recovered_total` counter, that a
/// load of the journal at (or under) `at` skipped `malformed` records.
pub(crate) fn report_skipped(store: &str, at: &Path, malformed: u64, counter: &str) {
    if malformed > 0 {
        eprintln!(
            "ifko: {store} {}: skipped {malformed} malformed record(s) \
             (truncated write?); journal will be rewritten on next store",
            at.display()
        );
        crate::metrics::global().counter(counter).add(malformed);
    }
}

/// Write `contents` to `path` atomically: write a sibling tmp file, then
/// rename over the target. Readers see either the old file or the new
/// one, never a half-written mix.
fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// The append handle of one journal file, plus what is known about the
/// file's state.
pub(crate) struct Journal {
    path: PathBuf,
    out: Mutex<File>,
    /// Record lines currently in the file: live, superseded and
    /// malformed alike.
    lines: AtomicU64,
    /// The file is known to hold malformed records (found on load, or
    /// left by a torn or failed append). The next [`Journal::store`]
    /// repairs it with [`Journal::rewrite`] instead of appending.
    dirty: AtomicBool,
}

impl Journal {
    /// Open (creating if needed) the append handle of a journal that
    /// [`read_lines`] has just loaded.
    pub fn open(path: PathBuf, loaded: &Loaded) -> std::io::Result<Journal> {
        let out = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            path,
            out: Mutex::new(out),
            lines: AtomicU64::new(loaded.lines),
            dirty: AtomicBool::new(loaded.malformed > 0),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::SeqCst)
    }

    /// Mirror one record that the store has already put in its map —
    /// memory first, so that a repair includes it. A dirty journal is
    /// repaired by a [`Journal::rewrite`] of `snapshot`; a clean one gets
    /// `line` appended. Returns whether a rewrite landed.
    pub fn store(
        &self,
        key: &str,
        line: String,
        faults: Option<&FaultPlan>,
        snapshot: impl FnOnce() -> Vec<String>,
    ) -> bool {
        if self.dirty.swap(false, Ordering::SeqCst) {
            return self.rewrite(snapshot);
        }
        self.append(key, line, faults);
        false
    }

    /// Append one record line. `faults` may tear the write (a crash
    /// mid-append: half the bytes, no newline); a torn or failed write
    /// marks the journal dirty.
    fn append(&self, key: &str, mut line: String, faults: Option<&FaultPlan>) {
        let torn = faults.is_some_and(|plan| plan.persist_truncates(key));
        let bytes = if torn {
            &line.as_bytes()[..line.len() / 2]
        } else {
            line.push('\n');
            line.as_bytes()
        };
        let mut out = self.out.lock().expect("journal lock poisoned");
        if out.write_all(bytes).is_err() || torn {
            self.dirty.store(true, Ordering::SeqCst);
        }
        self.lines.fetch_add(1, Ordering::SeqCst);
    }

    /// Replace the file with the record lines `snapshot` returns, in
    /// that order, and reopen the append handle on the fresh file.
    /// `snapshot` runs under the file lock. Returns whether the rewrite
    /// landed; when it did not (e.g. fs error) the journal stays dirty
    /// and the next store retries.
    pub fn rewrite(&self, snapshot: impl FnOnce() -> Vec<String>) -> bool {
        let mut out = self.out.lock().expect("journal lock poisoned");
        let lines = snapshot();
        let mut contents = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in &lines {
            contents.push_str(line);
            contents.push('\n');
        }
        let reopened = atomic_write(&self.path, &contents)
            .and_then(|()| OpenOptions::new().append(true).open(&self.path));
        let landed = match reopened {
            Ok(file) => {
                *out = file;
                self.lines.store(lines.len() as u64, Ordering::SeqCst);
                true
            }
            Err(_) => false,
        };
        self.dirty.store(!landed, Ordering::SeqCst);
        landed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("ifko-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.jsonl");
        std::fs::write(&path, "old\n").unwrap();
        atomic_write(&path, "new-a\nnew-b\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new-a\nnew-b\n");
        // No tmp litter left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
