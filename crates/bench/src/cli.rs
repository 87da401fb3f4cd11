//! Command-line plumbing shared by the `reproduce`, `regress`, `serve`,
//! `crashgrid` and `simulate` binaries: typed flag values,
//! comma-separated lists, JSON file I/O, and one error exit.
//!
//! A binary's `main` is `cli::run("tool", body)`: `body` parses its
//! flags with [`Args`] and returns `Ok(code)` or an error message, which
//! [`run`] prints as `tool: message` before exiting 1.
//!
//! ```
//! use pmacc_bench::cli::{unknown, Args};
//!
//! let mut args = Args::new(["--seed", "7", "--schemes", "tc, sp"].map(String::from));
//! let (mut seed, mut schemes) = (42u64, Vec::<String>::new());
//! while let Some(a) = args.next() {
//!     match a.as_str() {
//!         "--seed" => seed = args.value("--seed")?,
//!         "--schemes" => schemes = args.list("--schemes")?,
//!         other => return Err(unknown(other)),
//!     }
//! }
//! assert_eq!((seed, schemes), (7, vec!["tc".to_string(), "sp".to_string()]));
//! # Ok::<(), String>(())
//! ```

use core::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use pmacc_telemetry::Json;

/// Runs a binary's body: its error, if any, goes to stderr as
/// `tool: error` and the process exits 1.
pub fn run(tool: &str, body: impl FnOnce() -> Result<ExitCode, String>) -> ExitCode {
    body().unwrap_or_else(|e| {
        eprintln!("{tool}: {e}");
        ExitCode::FAILURE
    })
}

/// Prints `usage` to stderr and returns success — the `--help` exit.
#[must_use]
pub fn help(usage: &str) -> ExitCode {
    eprintln!("{usage}");
    ExitCode::SUCCESS
}

/// The error for an argument no flag matches.
#[must_use]
pub fn unknown(arg: &str) -> String {
    format!("unknown argument `{arg}`; see --help")
}

/// A binary's arguments, consumed flag by flag: the caller matches each
/// item [`Iterator::next`] yields and pulls the flag's value with
/// [`Args::value`], [`Args::positive`] or [`Args::list`].
#[derive(Debug)]
pub struct Args {
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// The process arguments after the program name.
    #[must_use]
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1))
    }

    /// Arguments from any source (tests).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Args {
            rest: args.into_iter().collect::<Vec<_>>().into_iter(),
        }
    }

    /// The value after `flag`, parsed as `T`.
    ///
    /// # Errors
    ///
    /// Returns a message naming `flag` if the value is missing or does not
    /// parse.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let raw = self.rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|e| format!("bad {flag} value `{raw}`: {e}"))
    }

    /// The value after `flag` as a positive integer (worker and core
    /// counts).
    ///
    /// # Errors
    ///
    /// As [`Args::value`], and on zero.
    pub fn positive(&mut self, flag: &str) -> Result<usize, String> {
        match self.value(flag)? {
            0 => Err(format!("{flag} needs a positive integer")),
            n => Ok(n),
        }
    }

    /// The comma-separated list after `flag`, each item trimmed and parsed
    /// as `T`; empty items are skipped.
    ///
    /// # Errors
    ///
    /// Returns a message naming `flag` if the value is missing, an item
    /// does not parse, or no item is left.
    pub fn list<T: FromStr>(&mut self, flag: &str) -> Result<Vec<T>, String>
    where
        T::Err: Display,
    {
        let raw: String = self.value(flag)?;
        let items = raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().map_err(|e| format!("bad {flag} item `{s}`: {e}")))
            .collect::<Result<Vec<T>, String>>()?;
        if items.is_empty() {
            return Err(format!("{flag} needs a non-empty comma-separated list"));
        }
        Ok(items)
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }
}

/// Reads and parses a JSON file.
///
/// # Errors
///
/// Returns a message naming `path` if it cannot be read or parsed.
pub fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// Writes `doc` pretty-printed to `path`, creating missing parent
/// directories, and notes the write on stderr.
///
/// # Errors
///
/// Returns a message naming `path` if it cannot be written.
pub fn write_json(path: &str, doc: &Json) -> Result<(), String> {
    let parent = std::path::Path::new(path).parent();
    if let Some(dir) = parent.filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        Args::new(raw.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn values_parse_as_their_type() {
        let mut a = args(&["--seed", "7", "--jobs", "3", "--json", "out.json"]);
        assert_eq!(a.next().as_deref(), Some("--seed"));
        assert_eq!(a.value::<u64>("--seed"), Ok(7));
        assert_eq!(a.next().as_deref(), Some("--jobs"));
        assert_eq!(a.positive("--jobs"), Ok(3));
        assert_eq!(a.next().as_deref(), Some("--json"));
        assert_eq!(a.value::<String>("--json").as_deref(), Ok("out.json"));
        assert_eq!(a.next(), None);
    }

    #[test]
    fn a_missing_value_names_the_flag() {
        let err = args(&[]).value::<u64>("--seed").unwrap_err();
        assert_eq!(err, "--seed needs a value");
        assert!(args(&[]).list::<u64>("--cores").unwrap_err().contains("--cores"));
    }

    #[test]
    fn an_unparsable_value_names_the_flag_and_the_value() {
        let err = args(&["seven"]).value::<u64>("--seed").unwrap_err();
        assert!(err.contains("--seed") && err.contains("`seven`"), "{err}");
        let err = args(&["-2"]).positive("--jobs").unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let err = args(&["0"]).positive("--jobs").unwrap_err();
        assert_eq!(err, "--jobs needs a positive integer");
    }

    #[test]
    fn lists_trim_and_skip_empty_items() {
        let v: Vec<u64> = args(&[" 1, 2,,3 ,"]).list("--cores").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let err = args(&["1,x"]).list::<u64>("--cores").unwrap_err();
        assert!(err.contains("--cores") && err.contains("`x`"), "{err}");
    }

    #[test]
    fn an_empty_or_whitespace_list_is_an_error() {
        for raw in ["", " ", " , ,"] {
            let err = args(&[raw]).list::<u64>("--cores").unwrap_err();
            assert_eq!(err, "--cores needs a non-empty comma-separated list");
        }
    }

    #[test]
    fn an_unknown_flag_is_named() {
        assert_eq!(unknown("--bogus"), "unknown argument `--bogus`; see --help");
    }

    #[test]
    fn json_files_round_trip_and_errors_name_the_path() {
        let dir = std::env::temp_dir().join(format!("pmacc-cli-{}", std::process::id()));
        let path = dir.join("nested/doc.json");
        let path = path.to_str().unwrap();
        let doc = Json::obj([("a", Json::Int(1))]);
        write_json(path, &doc).unwrap();
        assert_eq!(read_json(path), Ok(doc));
        std::fs::write(path, "{").unwrap();
        assert!(read_json(path).unwrap_err().contains("not valid JSON"));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(read_json(path).unwrap_err().starts_with("cannot read"));
    }
}
