//! Error-handling schemes (§7).

/// What to do when an incoming row violates the synthesized constraints.
///
/// `Raise`, `Ignore`, and `Coerce` follow the semantics of the pandas
/// `errors=` convention the paper aligns with; `Rectify` is the paper's
/// novel scheme: replace the erroneous value with the one the DGP program
/// assigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorScheme {
    /// Surface the violation to the caller and stop.
    Raise,
    /// Keep the row unchanged (detection only).
    Ignore,
    /// Replace each violated dependent cell with `Null`.
    Coerce,
    /// Overwrite each violated dependent cell with the constraint's literal.
    #[default]
    Rectify,
}

impl std::str::FromStr for ErrorScheme {
    type Err = String;

    /// Parses the lowercase wire/CLI names: `raise`, `ignore`, `coerce`,
    /// `rectify`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "raise" => Ok(ErrorScheme::Raise),
            "ignore" => Ok(ErrorScheme::Ignore),
            "coerce" => Ok(ErrorScheme::Coerce),
            "rectify" => Ok(ErrorScheme::Rectify),
            other => Err(format!("unknown scheme {other:?} (raise|ignore|coerce|rectify)")),
        }
    }
}
