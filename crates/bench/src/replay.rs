//! Framing reader for the scenario engine's `merchscenario` reproducer
//! files.
//!
//! The format is line-oriented: a magic + version header, then tagged
//! records (`tag tok tok ...`). Blank lines and `#` comments (the
//! violation context a written reproducer carries) are ignored. The
//! reader's whole point is *diagnostics*: every error names the 1-based
//! line it came from, and typed accessors name the field, so a malformed
//! or version-mismatched file fails with `line 4, field `seed`: bad
//! value `x7`` instead of a generic parse error. A recognized magic with
//! a version other than [`SCENARIO_VERSION`] is rejected with the
//! dedicated [`ReplayError::UnsupportedVersion`], which carries the
//! observed version as data — callers can tell "you need a newer build"
//! apart from "this file is garbage" without parsing prose.

/// The one reproducer format version this build reads and writes.
pub const SCENARIO_VERSION: u32 = 1;

/// Why a replayable artifact failed to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The header is missing, has the wrong magic, or is unparseable — the
    /// file is not (a readable prefix of) the expected format at all.
    Malformed(String),
    /// The magic matched but the declared version is one this build does
    /// not read: the file is genuine, just from a different format epoch.
    UnsupportedVersion {
        /// Artifact kind, for prose ("scenario").
        kind: &'static str,
        /// The magic that matched ("merchscenario").
        magic: String,
        /// 1-based line of the header.
        line_no: usize,
        /// The version the file declared.
        observed: u32,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Malformed(msg) => f.write_str(msg),
            ReplayError::UnsupportedVersion {
                kind,
                magic,
                line_no,
                observed,
            } => write!(
                f,
                "{kind} line {line_no}: unsupported {magic} version {observed} \
                 (this build reads {SCENARIO_VERSION})"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<ReplayError> for String {
    fn from(e: ReplayError) -> String {
        e.to_string()
    }
}

/// One parsed record: its source line number and the tokens after the tag.
#[derive(Debug, Clone)]
pub struct Record<'a> {
    /// 1-based line number in the source file.
    pub line_no: usize,
    toks: Vec<&'a str>,
}

impl<'a> Record<'a> {
    /// Raw token `i`; errors name the field when it is absent.
    pub fn tok(&self, i: usize, field: &str) -> Result<&'a str, String> {
        self.toks
            .get(i)
            .copied()
            .ok_or_else(|| format!("line {}: missing field `{field}` (token {i})", self.line_no))
    }

    /// A diagnostic for a field that is present but unusable.
    pub fn invalid(&self, field: &str, what: impl std::fmt::Display) -> String {
        format!("line {}, field `{field}`: {what}", self.line_no)
    }

    /// Parse token `i` as a `T` (floats accept the `inf`/`NaN` spellings
    /// `{:?}` emits, since that is what the encoders write).
    pub fn parse<T: std::str::FromStr>(&self, i: usize, field: &str) -> Result<T, String> {
        let s = self.tok(i, field)?;
        s.parse()
            .map_err(|_| self.invalid(field, format!("bad value `{s}`")))
    }
}

/// Line-oriented reader over a framed artifact file.
#[derive(Debug)]
pub struct FramedReader<'a> {
    /// What kind of artifact this is, for error prose ("scenario").
    kind: &'static str,
    /// Remaining (line_no, content) pairs, comments and blanks stripped.
    lines: std::vec::IntoIter<(usize, &'a str)>,
    /// Line number of the last record handed out (for EOF diagnostics).
    last_line_no: usize,
}

impl<'a> FramedReader<'a> {
    /// Open `text`, checking the `magic version` header against
    /// [`SCENARIO_VERSION`]. A wrong magic names what was found instead.
    pub fn new(kind: &'static str, text: &'a str, magic: &str) -> Result<Self, ReplayError> {
        let lines: Vec<(usize, &'a str)> = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
            .collect();
        let Some(&(line_no, header)) = lines.first() else {
            return Err(ReplayError::Malformed(format!(
                "{kind}: empty file (missing `{magic}` header)"
            )));
        };
        let mut toks = header.split_whitespace();
        let found = toks.next().unwrap_or("");
        if found != magic {
            return Err(ReplayError::Malformed(format!(
                "{kind} line {line_no}: expected `{magic}` header, found `{found}`"
            )));
        }
        let vtok = toks.next().ok_or_else(|| {
            ReplayError::Malformed(format!(
                "{kind} line {line_no}: `{magic}` header missing a version"
            ))
        })?;
        let version: u32 = vtok.parse().map_err(|_| {
            ReplayError::Malformed(format!(
                "{kind} line {line_no}: bad version `{vtok}` in `{magic}` header"
            ))
        })?;
        if version != SCENARIO_VERSION {
            return Err(ReplayError::UnsupportedVersion {
                kind,
                magic: magic.to_string(),
                line_no,
                observed: version,
            });
        }
        let mut it = lines.into_iter();
        it.next(); // consume the header
        Ok(Self {
            kind,
            lines: it,
            last_line_no: line_no,
        })
    }

    /// Next record, asserting its tag and a minimum token count (after the
    /// tag).
    pub fn record(&mut self, tag: &str, min_tokens: usize) -> Result<Record<'a>, String> {
        let Some((line_no, line)) = self.lines.next() else {
            return Err(format!(
                "{} line {}: missing `{tag}` record (end of file)",
                self.kind,
                self.last_line_no + 1
            ));
        };
        self.last_line_no = line_no;
        let mut toks = line.split_whitespace();
        let found = toks.next().unwrap_or("");
        if found != tag {
            return Err(format!(
                "{} line {line_no}: expected `{tag}`, found `{found}`",
                self.kind
            ));
        }
        let toks: Vec<&str> = toks.collect();
        if toks.len() < min_tokens {
            return Err(format!(
                "{} line {line_no}: `{tag}` needs {min_tokens} field(s), has {}",
                self.kind,
                toks.len()
            ));
        }
        Ok(Record { line_no, toks })
    }

    /// Assert the file has no further records.
    pub fn finish(mut self) -> Result<(), String> {
        match self.lines.next() {
            None => Ok(()),
            Some((line_no, line)) => Err(format!(
                "{} line {line_no}: trailing content `{line}`",
                self.kind
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_checks_name_the_line() {
        let open = |text| FramedReader::new("scenario", text, "merchscenario");
        let err = open("").unwrap_err().to_string();
        assert!(err.contains("empty file"), "{err}");
        let err = open("merchckpt 1\n").unwrap_err().to_string();
        assert!(
            err.contains("line 1") && err.contains("`merchckpt`"),
            "{err}"
        );
        let err = open("merchscenario 9\n").unwrap_err().to_string();
        assert!(
            err.contains("unsupported merchscenario version 9") && err.contains("reads 1"),
            "{err}"
        );
    }

    #[test]
    fn unsupported_version_is_typed_with_observed() {
        let open = |text| FramedReader::new("scenario", text, "merchscenario");
        let err = open("merchscenario 9\n").unwrap_err();
        assert_eq!(
            err,
            ReplayError::UnsupportedVersion {
                kind: "scenario",
                magic: "merchscenario".to_string(),
                line_no: 1,
                observed: 9,
            }
        );
        let prose = String::from(err);
        assert!(
            prose.contains("unsupported merchscenario version 9") && prose.contains("reads 1"),
            "{prose}"
        );
        // A wrong magic is Malformed, not UnsupportedVersion: the file is
        // not this format at all, so versions are beside the point.
        let err = open("merchckpt 4\n").unwrap_err();
        assert!(matches!(err, ReplayError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn records_report_line_and_field() {
        let text = "# comment\nmerchscenario 1\n\ncase 7\nseed x7\n";
        let mut r = FramedReader::new("scenario", text, "merchscenario").unwrap();
        let c = r.record("case", 1).unwrap();
        assert_eq!(c.line_no, 4);
        assert_eq!(c.parse::<u64>(0, "case").unwrap(), 7);
        let s = r.record("seed", 1).unwrap();
        let err = s.parse::<u64>(0, "seed").unwrap_err();
        assert!(
            err.contains("line 5") && err.contains("`seed`") && err.contains("`x7`"),
            "{err}"
        );
        let err = r.record("app", 1).unwrap_err();
        assert!(err.contains("line 6") && err.contains("`app`"), "{err}");
    }

    #[test]
    fn wrong_tag_and_arity_diagnosed() {
        let text = "merchscenario 1\nfaulty 1 2\n";
        let mut r = FramedReader::new("scenario", text, "merchscenario").unwrap();
        let err = r.record("faults", 7).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("expected `faults`") && err.contains("`faulty`"),
            "{err}"
        );
        let text = "merchscenario 1\nfaults 1 2\n";
        let mut r = FramedReader::new("scenario", text, "merchscenario").unwrap();
        let err = r.record("faults", 7).unwrap_err();
        assert!(err.contains("needs 7 field(s), has 2"), "{err}");
    }
}
