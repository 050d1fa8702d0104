//! Parsers for the `.tra`/`.lab`/`.rewr`/`.rewi` formats.

use std::collections::HashSet;

use mrmc_ctmc::{Ctmc, Labeling};
use mrmc_sparse::CooBuilder;

use super::format::{FormatError, FormatErrorKind};
use super::LoadError;
use crate::error::MrmError;
use crate::mrm::Mrm;
use crate::rewards::{ImpulseRewards, StateRewards};

/// The contents of the four model files, ready for assembly into an [`Mrm`].
#[derive(Debug, Clone)]
pub struct ModelFiles {
    /// Contents of the `.tra` file.
    pub tra: String,
    /// Contents of the `.lab` file.
    pub lab: String,
    /// Contents of the `.rewr` file.
    pub rewr: String,
    /// Contents of the `.rewi` file.
    pub rewi: String,
}

impl ModelFiles {
    /// Parse all four files and assemble the model.
    ///
    /// # Errors
    ///
    /// The first [`FormatError`] encountered, tagged with the file it came
    /// from through the supplied adapters, or an [`MrmError`] if the parsed
    /// pieces are inconsistent.
    pub(crate) fn assemble_with(
        &self,
        tra_err: impl FnOnce(FormatError) -> LoadError,
        lab_err: impl FnOnce(FormatError) -> LoadError,
        rewr_err: impl FnOnce(FormatError) -> LoadError,
        rewi_err: impl FnOnce(FormatError) -> LoadError,
    ) -> Result<Mrm, LoadError> {
        let (num_states, transitions) = parse_tra(&self.tra).map_err(tra_err)?;
        let labeling = parse_lab(&self.lab, num_states).map_err(lab_err)?;
        let state_rewards = parse_rewr(&self.rewr, num_states).map_err(rewr_err)?;
        let impulse_rewards = parse_rewi(&self.rewi, num_states).map_err(rewi_err)?;

        let mut b = CooBuilder::new(num_states, num_states);
        for &(from, to, rate) in &transitions {
            b.push(from, to, rate);
        }
        let rates = b.build().map_err(|e| {
            LoadError::Model(MrmError::Model(mrmc_ctmc::ModelError::NegativeEntry {
                from: 0,
                to: 0,
                value: match e {
                    mrmc_sparse::BuildError::NonFiniteValue { .. } => f64::NAN,
                    _ => 0.0,
                },
            }))
        })?;
        let ctmc = Ctmc::new(rates, labeling).map_err(MrmError::from)?;
        let rho = StateRewards::new(state_rewards)?;
        Ok(Mrm::new(ctmc, rho, impulse_rewards)?)
    }

    /// Parse and assemble, attributing format errors to file kinds by name
    /// only (convenience for in-memory use).
    ///
    /// # Errors
    ///
    /// The first format error encountered (tagged with the file kind), or a
    /// semantic model error.
    pub fn assemble(&self) -> Result<Mrm, LoadError> {
        let tag = |name: &'static str| {
            move |source: FormatError| LoadError::Format {
                path: name.into(),
                source,
            }
        };
        self.assemble_with(tag(".tra"), tag(".lab"), tag(".rewr"), tag(".rewi"))
    }
}

/// Strip `%` comments and trailing whitespace; `None` for blank lines.
fn clean(line: &str) -> Option<&str> {
    let line = match line.find('%') {
        Some(i) => &line[..i],
        None => line,
    };
    let line = line.trim();
    if line.is_empty() {
        None
    } else {
        Some(line)
    }
}

fn parse_usize(token: &str, line: usize) -> Result<usize, FormatError> {
    token.parse().map_err(|_| {
        FormatError::new(
            line,
            FormatErrorKind::BadNumber {
                token: token.to_string(),
            },
        )
    })
}

fn parse_f64(token: &str, line: usize) -> Result<f64, FormatError> {
    token.parse().map_err(|_| {
        FormatError::new(
            line,
            FormatErrorKind::BadNumber {
                token: token.to_string(),
            },
        )
    })
}

fn check_state(state: usize, num_states: usize, line: usize) -> Result<usize, FormatError> {
    if state == 0 || state > num_states {
        Err(FormatError::new(
            line,
            FormatErrorKind::StateOutOfRange {
                state,
                states: num_states,
            },
        ))
    } else {
        Ok(state - 1)
    }
}

/// The payload of a parsed `.tra` file: the state count and the 0-indexed
/// `(from, to, rate)` transitions.
pub type TraContents = (usize, Vec<(usize, usize, f64)>);

/// Parse a `.tra` file.
///
/// # Errors
///
/// [`FormatError`] with the offending line.
pub fn parse_tra(text: &str) -> Result<TraContents, FormatError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter_map(|(i, l)| clean(l).map(|c| (i + 1, c)));

    let (l1, states_line) = lines.next().ok_or_else(|| {
        FormatError::new(
            0,
            FormatErrorKind::BadHeader {
                expected: "STATES n",
            },
        )
    })?;
    let num_states = match states_line.split_whitespace().collect::<Vec<_>>()[..] {
        ["STATES", n] => parse_usize(n, l1)?,
        _ => {
            return Err(FormatError::new(
                l1,
                FormatErrorKind::BadHeader {
                    expected: "STATES n",
                },
            ))
        }
    };

    let (l2, trans_line) = lines.next().ok_or_else(|| {
        FormatError::new(
            0,
            FormatErrorKind::BadHeader {
                expected: "TRANSITIONS m",
            },
        )
    })?;
    let declared = match trans_line.split_whitespace().collect::<Vec<_>>()[..] {
        ["TRANSITIONS", m] => parse_usize(m, l2)?,
        _ => {
            return Err(FormatError::new(
                l2,
                FormatErrorKind::BadHeader {
                    expected: "TRANSITIONS m",
                },
            ))
        }
    };

    let mut transitions = Vec::with_capacity(declared);
    let mut seen = std::collections::HashSet::with_capacity(declared);
    for (ln, line) in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 3 {
            return Err(FormatError::new(
                ln,
                FormatErrorKind::WrongFieldCount {
                    expected: 3,
                    found: fields.len(),
                },
            ));
        }
        let from = check_state(parse_usize(fields[0], ln)?, num_states, ln)?;
        let to = check_state(parse_usize(fields[1], ln)?, num_states, ln)?;
        let rate = parse_f64(fields[2], ln)?;
        if !seen.insert((from, to)) {
            return Err(FormatError::new(
                ln,
                FormatErrorKind::DuplicateTransition {
                    from: from + 1,
                    to: to + 1,
                },
            ));
        }
        transitions.push((from, to, rate));
    }
    if transitions.len() != declared {
        return Err(FormatError::new(
            0,
            FormatErrorKind::CountMismatch {
                declared,
                found: transitions.len(),
            },
        ));
    }
    Ok((num_states, transitions))
}

/// Parse a `.lab` file into a labeling over `num_states` states.
///
/// # Errors
///
/// [`FormatError`] with the offending line; using an undeclared proposition
/// is an error, matching the original tool.
pub fn parse_lab(text: &str, num_states: usize) -> Result<Labeling, FormatError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter_map(|(i, l)| clean(l).map(|c| (i + 1, c)));

    // A fully empty file is an empty labeling.
    let Some((l1, first)) = lines.next() else {
        return Ok(Labeling::new(num_states));
    };
    if first != "#DECLARATION" {
        return Err(FormatError::new(
            l1,
            FormatErrorKind::BadHeader {
                expected: "#DECLARATION",
            },
        ));
    }

    // The labeling keeps the declaration order; the set answers membership.
    let mut labeling = Labeling::new(num_states);
    let mut declared: HashSet<&str> = HashSet::new();
    let mut saw_end = false;
    for (ln, line) in &mut lines {
        if line == "#END" {
            saw_end = true;
            break;
        }
        for ap in line.split_whitespace() {
            if !declared.insert(ap) {
                return Err(FormatError::new(
                    ln,
                    FormatErrorKind::DuplicateDeclaration { name: ap.into() },
                ));
            }
            labeling.declare(ap);
        }
    }
    if !saw_end {
        return Err(FormatError::new(
            0,
            FormatErrorKind::BadHeader { expected: "#END" },
        ));
    }

    for (ln, line) in lines {
        let (state_tok, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let state = check_state(parse_usize(state_tok, ln)?, num_states, ln)?;
        for ap in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            if !declared.contains(ap) {
                // A declared name has no whitespace; the error names the
                // entry with its whitespace runs collapsed to one space.
                let name = ap.split_whitespace().collect::<Vec<_>>().join(" ");
                return Err(FormatError::new(
                    ln,
                    FormatErrorKind::UndeclaredProposition { name },
                ));
            }
            if labeling.has(state, ap) {
                return Err(FormatError::new(
                    ln,
                    FormatErrorKind::DuplicateLabel {
                        state: state + 1,
                        name: ap.into(),
                    },
                ));
            }
            labeling.add(state, ap);
        }
    }
    Ok(labeling)
}

/// Parse a `.rewr` file into a per-state reward vector (unspecified states
/// get reward zero).
///
/// # Errors
///
/// [`FormatError`] with the offending line.
pub fn parse_rewr(text: &str, num_states: usize) -> Result<Vec<f64>, FormatError> {
    let mut rewards = vec![0.0; num_states];
    let mut specified = vec![false; num_states];
    for (ln, line) in text
        .lines()
        .enumerate()
        .filter_map(|(i, l)| clean(l).map(|c| (i + 1, c)))
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 2 {
            return Err(FormatError::new(
                ln,
                FormatErrorKind::WrongFieldCount {
                    expected: 2,
                    found: fields.len(),
                },
            ));
        }
        let state = check_state(parse_usize(fields[0], ln)?, num_states, ln)?;
        if specified[state] {
            return Err(FormatError::new(
                ln,
                FormatErrorKind::DuplicateReward { state: state + 1 },
            ));
        }
        specified[state] = true;
        rewards[state] = parse_f64(fields[1], ln)?;
    }
    Ok(rewards)
}

/// Parse a `.rewi` file into an impulse reward structure.
///
/// # Errors
///
/// [`FormatError`] with the offending line. Negative impulses are reported
/// when the model is assembled, not here.
pub fn parse_rewi(text: &str, num_states: usize) -> Result<ImpulseRewards, FormatError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter_map(|(i, l)| clean(l).map(|c| (i + 1, c)));

    // An empty .rewi file means "no impulse rewards".
    let Some((l1, header)) = lines.next() else {
        return Ok(ImpulseRewards::new());
    };
    let declared = match header.split_whitespace().collect::<Vec<_>>()[..] {
        ["TRANSITIONS", m] => parse_usize(m, l1)?,
        _ => {
            return Err(FormatError::new(
                l1,
                FormatErrorKind::BadHeader {
                    expected: "TRANSITIONS n",
                },
            ))
        }
    };

    let mut impulses = ImpulseRewards::new();
    let mut count = 0usize;
    let mut seen = std::collections::HashSet::new();
    for (ln, line) in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 3 {
            return Err(FormatError::new(
                ln,
                FormatErrorKind::WrongFieldCount {
                    expected: 3,
                    found: fields.len(),
                },
            ));
        }
        let from = check_state(parse_usize(fields[0], ln)?, num_states, ln)?;
        let to = check_state(parse_usize(fields[1], ln)?, num_states, ln)?;
        if !seen.insert((from, to)) {
            return Err(FormatError::new(
                ln,
                FormatErrorKind::DuplicateTransition {
                    from: from + 1,
                    to: to + 1,
                },
            ));
        }
        let value = parse_f64(fields[2], ln)?;
        if !(value.is_finite() && value >= 0.0) {
            return Err(FormatError::new(
                ln,
                FormatErrorKind::BadNumber {
                    token: fields[2].to_string(),
                },
            ));
        }
        impulses
            .set(from, to, value)
            .expect("validated non-negative finite");
        count += 1;
    }
    if count != declared {
        return Err(FormatError::new(
            0,
            FormatErrorKind::CountMismatch {
                declared,
                found: count,
            },
        ));
    }
    Ok(impulses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tra_happy_path() {
        let (n, ts) = parse_tra("STATES 3\nTRANSITIONS 2\n1 2 0.5\n3 1 2.0\n").unwrap();
        assert_eq!(n, 3);
        assert_eq!(ts, vec![(0, 1, 0.5), (2, 0, 2.0)]);
    }

    #[test]
    fn tra_comments_and_blanks_ignored() {
        let text = "% a model\nSTATES 2\n\nTRANSITIONS 1 % one\n1 2 1.0\n";
        let (n, ts) = parse_tra(text).unwrap();
        assert_eq!(n, 2);
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn tra_errors() {
        assert!(matches!(
            parse_tra("").unwrap_err().kind,
            FormatErrorKind::BadHeader { .. }
        ));
        assert!(matches!(
            parse_tra("STATES x\n").unwrap_err().kind,
            FormatErrorKind::BadNumber { .. }
        ));
        assert!(matches!(
            parse_tra("STATES 2\nTRANSITIONS 1\n1 2\n")
                .unwrap_err()
                .kind,
            FormatErrorKind::WrongFieldCount { .. }
        ));
        assert!(matches!(
            parse_tra("STATES 2\nTRANSITIONS 1\n1 5 1.0\n")
                .unwrap_err()
                .kind,
            FormatErrorKind::StateOutOfRange { state: 5, .. }
        ));
        assert!(matches!(
            parse_tra("STATES 2\nTRANSITIONS 1\n0 1 1.0\n")
                .unwrap_err()
                .kind,
            FormatErrorKind::StateOutOfRange { state: 0, .. }
        ));
        assert!(matches!(
            parse_tra("STATES 2\nTRANSITIONS 3\n1 2 1.0\n")
                .unwrap_err()
                .kind,
            FormatErrorKind::CountMismatch {
                declared: 3,
                found: 1
            }
        ));
    }

    #[test]
    fn tra_rejects_duplicate_transitions() {
        let e = parse_tra("STATES 2\nTRANSITIONS 2\n1 2 1.0\n1 2 3.0\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(matches!(
            e.kind,
            FormatErrorKind::DuplicateTransition { from: 1, to: 2 }
        ));
    }

    #[test]
    fn lab_happy_path() {
        let l = parse_lab("#DECLARATION\nup down busy\n#END\n1 up\n2 down,busy\n", 2).unwrap();
        assert!(l.has(0, "up"));
        assert!(l.has(1, "down"));
        assert!(l.has(1, "busy"));
    }

    #[test]
    fn lab_multiline_declaration() {
        let l = parse_lab("#DECLARATION\nup\ndown\n#END\n1 up\n", 1).unwrap();
        assert!(l.has(0, "up"));
        let _ = l;
    }

    #[test]
    fn lab_errors() {
        assert!(matches!(
            parse_lab("1 up\n", 1).unwrap_err().kind,
            FormatErrorKind::BadHeader { .. }
        ));
        assert!(matches!(
            parse_lab("#DECLARATION\nup\n", 1).unwrap_err().kind,
            FormatErrorKind::BadHeader { expected: "#END" }
        ));
        assert!(matches!(
            parse_lab("#DECLARATION\nup\n#END\n1 mystery\n", 1)
                .unwrap_err()
                .kind,
            FormatErrorKind::UndeclaredProposition { .. }
        ));
        assert!(matches!(
            parse_lab("#DECLARATION\nup\n#END\n7 up\n", 1)
                .unwrap_err()
                .kind,
            FormatErrorKind::StateOutOfRange { .. }
        ));
    }

    #[test]
    fn lab_rejects_duplicate_declarations_and_labels() {
        let e = parse_lab("#DECLARATION\nup up\n#END\n", 1).unwrap_err();
        assert!(matches!(
            e.kind,
            FormatErrorKind::DuplicateDeclaration { ref name } if name == "up"
        ));
        let e = parse_lab("#DECLARATION\nup down\n#END\n1 up\n1 down,up\n", 1).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(matches!(
            e.kind,
            FormatErrorKind::DuplicateLabel { state: 1, ref name } if name == "up"
        ));
    }

    #[test]
    fn lab_entries_split_on_commas_and_name_undeclared_ones_normalized() {
        let l = parse_lab("#DECLARATION\nup down\n#END\n1\tup ,  down\n", 1).unwrap();
        assert!(l.has(0, "up") && l.has(0, "down"));
        // Without a comma two names are one (undeclared) entry.
        let e = parse_lab("#DECLARATION\nup down\n#END\n1 up \t down\n", 1).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(matches!(
            e.kind,
            FormatErrorKind::UndeclaredProposition { ref name } if name == "up down"
        ));
    }

    #[test]
    fn lab_keeps_unused_declarations() {
        let l = parse_lab("#DECLARATION\nup spare\n#END\n1 up\n", 1).unwrap();
        assert_eq!(l.declared(), vec!["spare", "up"]);
        assert_eq!(l.all_propositions(), vec!["up"]);
    }

    #[test]
    fn rewr_defaults_to_zero() {
        let r = parse_rewr("2 5.5\n", 3).unwrap();
        assert_eq!(r, vec![0.0, 5.5, 0.0]);
    }

    #[test]
    fn rewr_errors() {
        assert!(matches!(
            parse_rewr("1 2 3\n", 2).unwrap_err().kind,
            FormatErrorKind::WrongFieldCount { .. }
        ));
        assert!(matches!(
            parse_rewr("1 abc\n", 2).unwrap_err().kind,
            FormatErrorKind::BadNumber { .. }
        ));
        let e = parse_rewr("1 2.0\n1 3.0\n", 2).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(
            e.kind,
            FormatErrorKind::DuplicateReward { state: 1 }
        ));
    }

    #[test]
    fn rewi_happy_and_empty() {
        let i = parse_rewi("TRANSITIONS 1\n1 2 4.0\n", 2).unwrap();
        assert_eq!(i.get(0, 1), 4.0);
        let empty = parse_rewi("", 2).unwrap();
        assert!(empty.is_empty());
        let zero = parse_rewi("TRANSITIONS 0\n", 2).unwrap();
        assert!(zero.is_empty());
    }

    #[test]
    fn rewi_errors() {
        assert!(matches!(
            parse_rewi("1 2 4.0\n", 2).unwrap_err().kind,
            FormatErrorKind::BadHeader { .. }
        ));
        assert!(matches!(
            parse_rewi("TRANSITIONS 1\n1 2 -4.0\n", 2).unwrap_err().kind,
            FormatErrorKind::BadNumber { .. }
        ));
        assert!(matches!(
            parse_rewi("TRANSITIONS 2\n1 2 4.0\n", 2).unwrap_err().kind,
            FormatErrorKind::CountMismatch { .. }
        ));
        assert!(matches!(
            parse_rewi("TRANSITIONS 2\n1 2 4.0\n1 2 4.0\n", 2)
                .unwrap_err()
                .kind,
            FormatErrorKind::DuplicateTransition { from: 1, to: 2 }
        ));
    }

    #[test]
    fn assemble_in_memory() {
        let files = ModelFiles {
            tra: "STATES 2\nTRANSITIONS 2\n1 2 1.0\n2 1 2.0\n".into(),
            lab: "#DECLARATION\na\n#END\n1 a\n".into(),
            rewr: "1 1.0\n".into(),
            rewi: "TRANSITIONS 1\n1 2 0.5\n".into(),
        };
        let m = files.assemble().unwrap();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.impulse_reward(0, 1), 0.5);
    }

    #[test]
    fn assemble_reports_file() {
        let files = ModelFiles {
            tra: "garbage".into(),
            lab: String::new(),
            rewr: String::new(),
            rewi: String::new(),
        };
        let e = files.assemble().unwrap_err();
        assert!(e.to_string().contains(".tra"));
    }
}
