//! The four model files of the thesis tool, written once per run so that
//! every workload loads its models the way `mrmc check` does.

use std::path::{Path, PathBuf};

use mrmc::{CheckSession, ModelHandle};
use mrmc_mrm::io::{write_lab, write_rewi, write_rewr, write_tra};
use mrmc_mrm::Mrm;

/// The paths of one model's `.tra`/`.lab`/`.rewr`/`.rewi` files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelFiles {
    /// Transitions.
    pub tra: PathBuf,
    /// Labels.
    pub lab: PathBuf,
    /// State rewards.
    pub rewr: PathBuf,
    /// Impulse rewards.
    pub rewi: PathBuf,
}

impl ModelFiles {
    /// Write `mrm` as `dir/stem.{tra,lab,rewr,rewi}`.
    ///
    /// # Errors
    ///
    /// The failed write.
    pub fn write(dir: &Path, stem: &str, mrm: &Mrm) -> Result<ModelFiles, String> {
        let files = ModelFiles {
            tra: dir.join(format!("{stem}.tra")),
            lab: dir.join(format!("{stem}.lab")),
            rewr: dir.join(format!("{stem}.rewr")),
            rewi: dir.join(format!("{stem}.rewi")),
        };
        for (path, text) in [
            (&files.tra, write_tra(mrm)),
            (&files.lab, write_lab(mrm)),
            (&files.rewr, write_rewr(mrm)),
            (&files.rewi, write_rewi(mrm)),
        ] {
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        Ok(files)
    }

    /// Register the files with `session` (`CheckSession::load_files`).
    ///
    /// # Errors
    ///
    /// The load error, rendered.
    pub fn load_into(&self, session: &CheckSession) -> Result<ModelHandle, String> {
        session
            .load_files(&self.tra, &self.lab, &self.rewr, &self.rewi)
            .map_err(|e| e.to_string())
    }

    /// Parse the files with `mrmc_mrm::io::load_model`, the layer
    /// `load_files` delegates to.
    ///
    /// # Errors
    ///
    /// The load error, rendered.
    pub fn load_model(&self) -> Result<Mrm, String> {
        mrmc_mrm::io::load_model(&self.tra, &self.lab, &self.rewr, &self.rewi)
            .map_err(|e| e.to_string())
    }
}
