//! The append-only sealed line file under sweep and fleet checkpoints: a
//! header line, then one record per line. A format supplies its header
//! text, its identity check, its line seal and its payload codec; the
//! journal owns the rest, so both formats share one writer, one reader and
//! one salvage policy (DESIGN.md, "Sealed files"):
//!
//! * [`Journal::create`] writes the header through [`write_atomic`], so a
//!   crash mid-create never leaves a half-written header;
//! * [`Journal::open`] passes the first line to the format's identity
//!   check before it reads a record, and a refused file is never
//!   rewritten. Every later line goes to the format's line check. A line
//!   that fails it (a torn write, bit rot, a blank line) is skipped; every
//!   intact line is kept verbatim, in file order, so one bad line costs one
//!   record;
//! * when a line was skipped or the last line has no `\n`, `open` heals the
//!   file: it rewrites it through [`write_atomic`] to the header and the
//!   intact lines, so the next append starts a line of its own instead of
//!   extending a torn or unterminated one;
//! * [`Journal::append`] writes each record as one complete line with one
//!   `write_all` and a flush, so a kill loses at most that line.
//!
//! Lines are decoded lossily: a line that is not valid UTF-8 (bit rot)
//! arrives with replacement characters and fails its check as one bad
//! line, never as an I/O error.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use crate::seal::write_atomic;

/// A journal file, open for appending records.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Creates (or replaces) `path` holding just `header` (a line without
    /// its `\n`), atomically, and opens it for appending.
    ///
    /// # Errors
    ///
    /// Propagates any filesystem error.
    pub fn create(path: &Path, header: &str) -> io::Result<Journal> {
        write_atomic(path, format!("{header}\n").as_bytes())?;
        Journal::append_to(path)
    }

    /// Opens the journal at `path` to resume it, or `Ok(Ok(None))` when
    /// there is no such file.
    ///
    /// `identity` sees the header line (empty for an empty file), and an
    /// `Err` from it refuses the file, which is then left untouched.
    /// `intact` sees every later line and says whether it is an intact
    /// record; the format decodes and keeps the record as it checks it. On
    /// success, returns the journal and the number of lines skipped.
    ///
    /// # Errors
    ///
    /// The outer `Err` is a filesystem error; the inner one is `identity`'s
    /// refusal.
    pub fn open<E>(
        path: &Path,
        identity: impl FnOnce(&str) -> Result<(), E>,
        mut intact: impl FnMut(&str) -> bool,
    ) -> io::Result<Result<Option<(Journal, usize)>, E>> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Ok(None)),
            Err(e) => return Err(e),
        };
        let (body, unterminated) = match bytes.strip_suffix(b"\n") {
            Some(body) => (body, false),
            None => (&bytes[..], true),
        };
        let mut lines = body.split(|&b| b == b'\n');
        // `split` yields at least one piece: an empty file has an empty header.
        let header = lines.next().unwrap_or_default();
        if let Err(refusal) = identity(&String::from_utf8_lossy(header)) {
            return Ok(Err(refusal));
        }
        let mut kept = vec![header];
        let mut skipped = 0;
        for line in lines {
            if intact(&String::from_utf8_lossy(line)) {
                kept.push(line);
            } else {
                skipped += 1;
            }
        }
        if skipped > 0 || unterminated {
            let mut healed = kept.join(&b'\n');
            healed.push(b'\n');
            write_atomic(path, &healed)?;
        }
        Ok(Ok(Some((Journal::append_to(path)?, skipped))))
    }

    fn append_to(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal { file })
    }

    /// Appends `line` (without its `\n`) as one complete line, in one
    /// write, and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates any filesystem error.
    pub fn append(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("relia-journal-{}-{name}", std::process::id()))
    }

    /// Opens `path` with a header check against `header` and a line check
    /// that accepts lines starting with `ok`, returning the kept lines and
    /// the skip count.
    fn open(path: &Path, header: &str) -> Result<Option<(Vec<String>, usize)>, String> {
        let mut kept = Vec::new();
        let opened = Journal::open(
            path,
            |line| {
                (line == header)
                    .then_some(())
                    .ok_or_else(|| format!("header {line:?}"))
            },
            |line| {
                let ok = line.starts_with("ok");
                if ok {
                    kept.push(line.to_owned());
                }
                ok
            },
        )
        .unwrap()?;
        Ok(opened.map(|(_, skipped)| (kept, skipped)))
    }

    #[test]
    fn a_missing_file_is_none_and_a_refused_one_is_untouched() {
        let path = tmp("refused");
        let _ = fs::remove_file(&path);
        assert_eq!(open(&path, "h"), Ok(None));
        let damaged = b"other\nok 1\nbad\nok 2";
        fs::write(&path, damaged).unwrap();
        assert_eq!(open(&path, "h"), Err("header \"other\"".to_owned()));
        assert_eq!(fs::read(&path).unwrap(), damaged);
        fs::write(&path, b"").unwrap();
        assert_eq!(open(&path, "h"), Err("header \"\"".to_owned()));
        assert_eq!(fs::read(&path).unwrap(), b"");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_lines_are_skipped_and_every_intact_line_kept_in_order() {
        let path = tmp("skip");
        fs::write(&path, b"h\nok 1\nbad\n\nok 3\nok 1 again\nok 4").unwrap();
        let (kept, skipped) = open(&path, "h").unwrap().unwrap();
        assert_eq!(kept, ["ok 1", "ok 3", "ok 1 again", "ok 4"]);
        assert_eq!(skipped, 2, "the bad line and the blank one");
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "h\nok 1\nok 3\nok 1 again\nok 4\n"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_unterminated_last_line_is_healed_before_the_next_append() {
        let path = tmp("unterminated");
        fs::write(&path, b"h\nok 1\nok 2").unwrap();
        let mut kept = 0;
        let (mut journal, skipped) = Journal::open(
            &path,
            |_| Ok::<(), ()>(()),
            |_| {
                kept += 1;
                true
            },
        )
        .unwrap()
        .unwrap()
        .unwrap();
        assert_eq!((kept, skipped), (2, 0));
        journal.append("ok 3".to_owned()).unwrap();
        drop(journal);
        assert_eq!(fs::read_to_string(&path).unwrap(), "h\nok 1\nok 2\nok 3\n");
        fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn an_intact_file_is_not_rewritten() {
        use std::os::unix::fs::MetadataExt;
        let path = tmp("intact");
        let mut journal = Journal::create(&path, "h").unwrap();
        journal.append("ok 1".to_owned()).unwrap();
        drop(journal);
        assert!(!PathBuf::from(format!("{}.tmp", path.display())).exists());
        // A heal renames a new file over the old one, so the inode would change.
        let inode = fs::metadata(&path).unwrap().ino();
        let (kept, skipped) = open(&path, "h").unwrap().unwrap();
        assert_eq!((kept, skipped), (vec!["ok 1".to_owned()], 0));
        assert_eq!(fs::metadata(&path).unwrap().ino(), inode);
        assert_eq!(fs::read_to_string(&path).unwrap(), "h\nok 1\n");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_utf8_is_one_bad_line() {
        let path = tmp("utf8");
        fs::write(&path, b"h\nok \xff byte\nok 2\n").unwrap();
        let mut seen = Vec::new();
        let (_, skipped) = Journal::open(
            &path,
            |_| Ok::<(), ()>(()),
            |line| {
                seen.push(line.to_owned());
                !line.contains('\u{fffd}')
            },
        )
        .unwrap()
        .unwrap()
        .unwrap();
        assert_eq!(seen, ["ok \u{fffd} byte", "ok 2"]);
        assert_eq!(skipped, 1);
        assert_eq!(fs::read(&path).unwrap(), b"h\nok 2\n");
        fs::remove_file(&path).unwrap();
    }
}
