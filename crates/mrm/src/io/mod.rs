//! The thesis tool's model file formats (Appendix: Usage Manual).
//!
//! A model is specified by four files:
//!
//! * `.tra` — transitions: `STATES n`, `TRANSITIONS m`, then `from to rate`
//!   triples;
//! * `.lab` — labels: a `#DECLARATION … #END` block of atomic propositions,
//!   then `state ap[,ap]*` lines;
//! * `.rewr` — state rewards: `state reward` lines;
//! * `.rewi` — impulse rewards: `TRANSITIONS n`, then `from to reward`
//!   triples.
//!
//! States are **1-indexed** in all files, as in the original tool; the
//! in-memory representation is 0-indexed. Blank lines and `%`-comments are
//! ignored. Writers producing the same formats are provided for
//! round-trips.

mod format;
mod parse;
mod write;

pub use format::{FormatError, FormatErrorKind};
pub use parse::{parse_lab, parse_rewi, parse_rewr, parse_tra, ModelFiles};
pub use write::{write_lab, write_rewi, write_rewr, write_tra};

use std::path::Path;

use crate::error::MrmError;
use crate::mrm::Mrm;

/// An error raised while loading a model from its four files.
#[derive(Debug)]
pub enum LoadError {
    /// Reading a file failed.
    Io {
        /// The file that could not be read.
        path: std::path::PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file had invalid contents.
    Format {
        /// The file that failed to parse.
        path: std::path::PathBuf,
        /// The parse error.
        source: FormatError,
    },
    /// The parsed pieces do not form a valid MRM.
    Model(MrmError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            LoadError::Format { path, source } => {
                write!(f, "cannot parse {}: {source}", path.display())
            }
            LoadError::Model(e) => write!(f, "invalid model: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io { source, .. } => Some(source),
            LoadError::Format { source, .. } => Some(source),
            LoadError::Model(e) => Some(e),
        }
    }
}

impl From<MrmError> for LoadError {
    fn from(e: MrmError) -> Self {
        LoadError::Model(e)
    }
}

/// Load an MRM from the four files of the thesis' tool:
/// [`ModelFiles::read`], then [`ModelFiles::assemble_from`].
///
/// # Errors
///
/// [`LoadError`] distinguishing I/O failures, per-file format errors (with
/// line numbers), and semantic model errors.
pub fn load_model(
    tra: impl AsRef<Path>,
    lab: impl AsRef<Path>,
    rewr: impl AsRef<Path>,
    rewi: impl AsRef<Path>,
) -> Result<Mrm, LoadError> {
    let (tra, lab, rewr, rewi) = (tra.as_ref(), lab.as_ref(), rewr.as_ref(), rewi.as_ref());
    ModelFiles::read(tra, lab, rewr, rewi)?.assemble_from(tra, lab, rewr, rewi)
}

impl ModelFiles {
    /// Read the four files of the thesis' tool, each once.
    ///
    /// # Errors
    ///
    /// [`LoadError::Io`] naming the first file that is missing, unreadable
    /// or not UTF-8.
    pub fn read(
        tra: impl AsRef<Path>,
        lab: impl AsRef<Path>,
        rewr: impl AsRef<Path>,
        rewi: impl AsRef<Path>,
    ) -> Result<ModelFiles, LoadError> {
        fn read(path: &Path) -> Result<String, LoadError> {
            std::fs::read_to_string(path).map_err(|source| LoadError::Io {
                path: path.to_path_buf(),
                source,
            })
        }
        Ok(ModelFiles {
            tra: read(tra.as_ref())?,
            lab: read(lab.as_ref())?,
            rewr: read(rewr.as_ref())?,
            rewi: read(rewi.as_ref())?,
        })
    }

    /// Parse and assemble contents [`read`](ModelFiles::read) from these
    /// paths, attributing each format error to its file.
    ///
    /// # Errors
    ///
    /// [`LoadError::Format`] naming the file of the first format error, or
    /// [`LoadError::Model`] when the parsed pieces are inconsistent.
    pub fn assemble_from(
        &self,
        tra: impl AsRef<Path>,
        lab: impl AsRef<Path>,
        rewr: impl AsRef<Path>,
        rewi: impl AsRef<Path>,
    ) -> Result<Mrm, LoadError> {
        fn fmt_err(path: &Path) -> impl FnOnce(FormatError) -> LoadError + '_ {
            move |source| LoadError::Format {
                path: path.to_path_buf(),
                source,
            }
        }
        self.assemble_with(
            fmt_err(tra.as_ref()),
            fmt_err(lab.as_ref()),
            fmt_err(rewr.as_ref()),
            fmt_err(rewi.as_ref()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_model_from_disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mrmc-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, content: &str| {
            let p = dir.join(name);
            std::fs::write(&p, content).unwrap();
            p
        };
        let tra = write("m.tra", "STATES 2\nTRANSITIONS 2\n1 2 0.5\n2 1 1.5\n");
        let lab = write("m.lab", "#DECLARATION\nup down\n#END\n1 up\n2 down\n");
        let rewr = write("m.rewr", "1 2.0\n2 0.0\n");
        let rewi = write("m.rewi", "TRANSITIONS 1\n1 2 3.5\n");

        let m = load_model(&tra, &lab, &rewr, &rewi).unwrap();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.ctmc().rates().get(0, 1), 0.5);
        assert!(m.labeling().has(1, "down"));
        assert_eq!(m.state_reward(0), 2.0);
        assert_eq!(m.impulse_reward(0, 1), 3.5);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_reports_io_error() {
        let e = load_model(
            "/nonexistent/x.tra",
            "/nonexistent/x.lab",
            "/nonexistent/x.rewr",
            "/nonexistent/x.rewi",
        )
        .unwrap_err();
        assert!(matches!(e, LoadError::Io { .. }));
        assert!(e.to_string().contains("x.tra"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
