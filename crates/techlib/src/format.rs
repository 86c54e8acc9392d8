//! Text serialization of cell libraries — a compact, Liberty-inspired
//! format so alternative corners can be loaded without recompiling.
//!
//! ```text
//! library generic90 {
//!   wire_cap_per_fanout_ff 0.9
//!   cell INV { area 2.8 cap 1.8 delay 11.0 drive 3.8 energy 0.8 leak 1.5 }
//!   ...
//! }
//! ```
//!
//! Every mappable cell must be present; `INPUT`/`TIE0`/`TIE1` are implicit
//! free cells. `#` starts a line comment.

use std::collections::HashMap;
use std::fmt::Write as _;

use sdlc_netlist::GateKind;

use crate::cell::CellSpec;
use crate::library::Library;

/// Errors from [`Library::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseLibError {
    /// The `library <name> {` header is missing or malformed.
    BadHeader(String),
    /// A token could not be parsed where a number was expected.
    BadNumber(String),
    /// A number parsed but is negative, infinite, NaN or above
    /// [`MAX_LIBRARY_VALUE`]: every library quantity (area, capacitance,
    /// delay, drive, energy, leakage) is a finite, non-negative physical
    /// value of bounded size.
    BadValue(String),
    /// A cell body is malformed or misses an attribute.
    BadCell(String),
    /// A required cell is missing from the library.
    MissingCell(&'static str),
    /// Unexpected trailing content or unbalanced braces.
    Unbalanced(String),
}

impl std::fmt::Display for ParseLibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseLibError::BadHeader(m) => write!(f, "malformed library header: {m}"),
            ParseLibError::BadNumber(m) => write!(f, "expected a number, found {m:?}"),
            ParseLibError::BadValue(m) => {
                write!(
                    f,
                    "library values must be finite and non-negative, \
                     at most {MAX_LIBRARY_VALUE}, found {m}"
                )
            }
            ParseLibError::BadCell(m) => write!(f, "malformed cell: {m}"),
            ParseLibError::MissingCell(name) => write!(f, "library lacks required cell {name}"),
            ParseLibError::Unbalanced(m) => write!(f, "unbalanced library body: {m}"),
        }
    }
}

impl std::error::Error for ParseLibError {}

/// Largest value a library file may hold, in the attribute's own unit:
/// 10 ns of intrinsic delay, 10 pF of pin or wire capacitance, 10 ns/fF
/// of drive. Real cells sit orders of magnitude below; the bound keeps
/// gate delays, and the paths the timing engines sum them along, far
/// inside the scalar engine's 64-bit fixed-point event times.
pub const MAX_LIBRARY_VALUE: f64 = 1e4;

/// Cell names that must appear in a library file (everything mappable;
/// the free pseudo-cells are implicit).
const REQUIRED: &[(&str, GateKind)] = &[
    ("BUF", GateKind::Buf),
    ("INV", GateKind::Not),
    ("AND2", GateKind::And2),
    ("OR2", GateKind::Or2),
    ("NAND2", GateKind::Nand2),
    ("NOR2", GateKind::Nor2),
    ("XOR2", GateKind::Xor2),
    ("XNOR2", GateKind::Xnor2),
    ("MUX2", GateKind::Mux2),
];

/// Leaks the cell name so `CellSpec::name` (a `&'static str`) can refer to
/// names parsed at runtime. Libraries are loaded a handful of times per
/// process, so the leak is bounded and intentional.
fn static_name(name: &str) -> &'static str {
    match REQUIRED.iter().find(|(n, _)| *n == name) {
        Some((n, _)) => n,
        None => Box::leak(name.to_string().into_boxed_str()),
    }
}

impl Library {
    /// Parses a library from the text format above.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLibError`] for syntax problems, out-of-range values
    /// or missing cells.
    pub fn from_text(text: &str) -> Result<Self, ParseLibError> {
        let mut tokens = tokenize(text);
        expect(&mut tokens, "library")?;
        let name = tokens
            .next()
            .ok_or_else(|| ParseLibError::BadHeader("missing name".into()))?;
        expect(&mut tokens, "{")?;

        let mut wire_cap = None;
        let mut cells: HashMap<String, CellSpec> = HashMap::new();
        loop {
            let token = tokens
                .next()
                .ok_or_else(|| ParseLibError::Unbalanced("missing closing brace".into()))?;
            match token.as_str() {
                "}" => break,
                "wire_cap_per_fanout_ff" => {
                    wire_cap = Some(number(&mut tokens)?);
                }
                "cell" => {
                    let cell_name = tokens
                        .next()
                        .ok_or_else(|| ParseLibError::BadCell("missing cell name".into()))?;
                    expect(&mut tokens, "{")?;
                    let mut attributes: HashMap<String, f64> = HashMap::new();
                    loop {
                        let key = tokens.next().ok_or_else(|| {
                            ParseLibError::BadCell(format!("{cell_name}: unterminated body"))
                        })?;
                        if key == "}" {
                            break;
                        }
                        attributes.insert(key, number(&mut tokens)?);
                    }
                    let get = |key: &str| {
                        attributes.get(key).copied().ok_or_else(|| {
                            ParseLibError::BadCell(format!("{cell_name}: missing `{key}`"))
                        })
                    };
                    let spec = CellSpec {
                        name: static_name(&cell_name),
                        area_um2: get("area")?,
                        input_cap_ff: get("cap")?,
                        intrinsic_delay_ps: get("delay")?,
                        drive_ps_per_ff: get("drive")?,
                        switch_energy_fj: get("energy")?,
                        leakage_nw: get("leak")?,
                    };
                    cells.insert(cell_name, spec);
                }
                other => {
                    return Err(ParseLibError::Unbalanced(format!(
                        "unexpected token {other:?}"
                    )))
                }
            }
        }
        if tokens.next().is_some() {
            return Err(ParseLibError::Unbalanced(
                "content after closing brace".into(),
            ));
        }

        let mut library = Self::generic_90nm();
        library.set_name(static_name(&name));
        library.set_wire_cap(wire_cap.ok_or(ParseLibError::BadCell(
            "missing wire_cap_per_fanout_ff".into(),
        ))?);
        for (cell_name, kind) in REQUIRED {
            let spec = cells
                .get(*cell_name)
                .copied()
                .ok_or(ParseLibError::MissingCell(cell_name))?;
            library.set_cell(*kind, spec);
        }
        Ok(library)
    }

    /// Serializes the library to the text format (round-trips through
    /// [`Library::from_text`]).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "library {} {{", self.name());
        let _ = writeln!(
            out,
            "  wire_cap_per_fanout_ff {}",
            self.wire_cap_per_fanout_ff()
        );
        for (name, kind) in REQUIRED {
            let c = self.cell(*kind);
            let _ = writeln!(
                out,
                "  cell {name} {{ area {} cap {} delay {} drive {} energy {} leak {} }}",
                c.area_um2,
                c.input_cap_ff,
                c.intrinsic_delay_ps,
                c.drive_ps_per_ff,
                c.switch_energy_fj,
                c.leakage_nw
            );
        }
        let _ = writeln!(out, "}}");
        out
    }
}

fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    text.lines()
        .map(|line| line.split('#').next().unwrap_or(""))
        .flat_map(|line| {
            line.replace('{', " { ")
                .replace('}', " } ")
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
}

fn expect(tokens: &mut impl Iterator<Item = String>, what: &str) -> Result<(), ParseLibError> {
    match tokens.next() {
        Some(t) if t == what => Ok(()),
        other => Err(ParseLibError::BadHeader(format!(
            "expected {what:?}, found {other:?}"
        ))),
    }
}

fn number(tokens: &mut impl Iterator<Item = String>) -> Result<f64, ParseLibError> {
    let token = tokens
        .next()
        .ok_or_else(|| ParseLibError::BadNumber("end of input".into()))?;
    let value: f64 = token
        .parse()
        .map_err(|_| ParseLibError::BadNumber(token.clone()))?;
    if (0.0..=MAX_LIBRARY_VALUE).contains(&value) {
        Ok(value)
    } else {
        Err(ParseLibError::BadValue(token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_both_corners() {
        for library in [Library::generic_90nm(), Library::generic_65nm()] {
            let text = library.to_text();
            let parsed = Library::from_text(&text).unwrap();
            for &kind in GateKind::all() {
                assert_eq!(parsed.cell(kind), library.cell(kind), "{kind:?}");
            }
            assert_eq!(
                parsed.wire_cap_per_fanout_ff(),
                library.wire_cap_per_fanout_ff()
            );
            assert_eq!(parsed.name(), library.name());
        }
    }

    #[test]
    fn comments_and_whitespace_are_tolerated() {
        let text = "
# a custom corner
library test1 {
  wire_cap_per_fanout_ff 1.5   # heavy wires
  cell BUF   { area 1 cap 1 delay 1 drive 1 energy 1 leak 1 }
  cell INV   { area 1 cap 1 delay 1 drive 1 energy 1 leak 1 }
  cell AND2  { area 2 cap 1 delay 2 drive 1 energy 1 leak 1 }
  cell OR2   { area 2 cap 1 delay 2 drive 1 energy 1 leak 1 }
  cell NAND2 { area 1 cap 1 delay 1 drive 1 energy 1 leak 1 }
  cell NOR2  { area 1 cap 1 delay 1 drive 1 energy 1 leak 1 }
  cell XOR2  { area 3 cap 2 delay 3 drive 1 energy 2 leak 2 }
  cell XNOR2 { area 3 cap 2 delay 3 drive 1 energy 2 leak 2 }
  cell MUX2  { area 3 cap 2 delay 3 drive 1 energy 2 leak 2 }
}
";
        let lib = Library::from_text(text).unwrap();
        assert_eq!(lib.wire_cap_per_fanout_ff(), 1.5);
        assert_eq!(lib.cell(GateKind::Xor2).area_um2, 3.0);
        assert_eq!(
            lib.cell(GateKind::Input).area_um2,
            0.0,
            "free cells implicit"
        );
    }

    #[test]
    fn missing_cell_is_reported() {
        let text = "library x { wire_cap_per_fanout_ff 1 }";
        let err = Library::from_text(text).unwrap_err();
        assert!(matches!(err, ParseLibError::MissingCell(_)));
        assert!(err.to_string().contains("BUF"));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(
            Library::from_text("module x {}"),
            Err(ParseLibError::BadHeader(_))
        ));
        assert!(matches!(
            Library::from_text("library x { wire_cap_per_fanout_ff oops }"),
            Err(ParseLibError::BadNumber(_))
        ));
        assert!(matches!(
            Library::from_text("library x { cell INV { area 1 }"),
            Err(ParseLibError::BadCell(_))
        ));
        let trailing = format!("{} extra", Library::generic_90nm().to_text());
        assert!(matches!(
            Library::from_text(&trailing),
            Err(ParseLibError::Unbalanced(_))
        ));
    }

    #[test]
    fn non_finite_and_negative_values_are_rejected() {
        let with_inv_delay = |delay: &str| {
            Library::generic_90nm()
                .to_text()
                .lines()
                .map(|line| {
                    if line.trim_start().starts_with("cell INV ") {
                        "  cell INV { area 1 cap 1 delay DELAY drive 1 energy 1 leak 1 }"
                            .replace("DELAY", delay)
                    } else {
                        line.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert!(Library::from_text(&with_inv_delay("0")).is_ok());
        for bad in ["-5", "NaN", "inf", "-inf"] {
            let err = Library::from_text(&with_inv_delay(bad)).unwrap_err();
            assert_eq!(err, ParseLibError::BadValue(bad.to_string()), "{bad}");
            assert!(err.to_string().contains("finite and non-negative"), "{err}");
        }
        assert!(matches!(
            Library::from_text("library x { wire_cap_per_fanout_ff -1 }"),
            Err(ParseLibError::BadValue(_))
        ));
    }

    #[test]
    fn values_above_the_cap_are_rejected() {
        let cell = |delay: &str| {
            let text = Library::generic_90nm().to_text();
            text.replacen("delay 11 ", &format!("delay {delay} "), 1)
        };
        assert!(Library::from_text(&cell("10000")).is_ok());
        for bad in ["10000.5", "1e30"] {
            let err = Library::from_text(&cell(bad)).unwrap_err();
            assert_eq!(err, ParseLibError::BadValue(bad.to_string()), "{bad}");
            assert!(err.to_string().contains("at most 10000"), "{err}");
        }
    }

    #[test]
    fn missing_attribute_names_the_cell_and_key() {
        let text = "library x { wire_cap_per_fanout_ff 1 \
                    cell INV { area 1 cap 1 delay 1 drive 1 energy 1 } }";
        let err = Library::from_text(text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("INV") && msg.contains("leak"), "{msg}");
    }
}
