//! Error types: configuration validation and trace-file decoding.

use std::fmt;

/// An invalid architectural configuration.
///
/// Returned by [`crate::config::SystemConfig::validate`]; the message names
/// the first violated constraint.
///
/// # Examples
///
/// ```
/// use lacc_model::config::SystemConfig;
/// let mut cfg = SystemConfig::isca13_64core();
/// cfg.num_cores = 0;
/// let err = cfg.validate().unwrap_err();
/// assert!(err.to_string().contains("num_cores"));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a configuration error with the given description.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError { message: message.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// A malformed, truncated or unreadable LACC Trace Format (LTF) stream.
///
/// Returned by the `lacc-sim` LTF writer/reader (`lacc_sim::ltf`); every
/// decode failure is a typed variant so robustness tests can assert on the
/// exact failure mode instead of matching message strings. Decoding never
/// panics on malformed input.
///
/// # Examples
///
/// ```
/// use lacc_model::TraceError;
/// let e = TraceError::Truncated { what: "op operand" };
/// assert!(e.to_string().contains("truncated"));
/// assert!(matches!(e, TraceError::Truncated { .. }));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceError {
    /// An underlying I/O operation failed (open, read, seek, write).
    ///
    /// The original `std::io::Error` is flattened to its kind and message
    /// so the variant stays `Clone + PartialEq` for test assertions.
    Io {
        /// `std::io::ErrorKind` of the failed operation, as `Debug` text.
        kind: String,
        /// Human-readable description from the I/O layer.
        message: String,
    },
    /// The file does not start with the 8-byte LTF magic.
    BadMagic {
        /// The bytes actually found (shorter if the file is tiny).
        found: Vec<u8>,
    },
    /// The header declares a format version this build cannot decode.
    UnsupportedVersion {
        /// The version number found in the header.
        found: u64,
    },
    /// The stream ended in the middle of a field.
    Truncated {
        /// Which field was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// A varint ran past the 10-byte limit or overflowed 64 bits.
    OverlongVarint {
        /// Which field was being decoded.
        what: &'static str,
    },
    /// An op record began with an opcode byte this version does not define.
    BadOpCode {
        /// The unknown opcode.
        code: u8,
    },
    /// A region declaration used an undefined class tag.
    BadRegionClass {
        /// The unknown class tag.
        tag: u8,
    },
    /// A header string was not valid UTF-8.
    BadUtf8 {
        /// Which field held the invalid bytes.
        what: &'static str,
    },
    /// A structurally valid field carries a semantically impossible value
    /// (a core count beyond the architecture, an offset past end-of-file,
    /// an oversized string).
    Corrupt {
        /// What invariant the value violated.
        what: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { kind, message } => {
                write!(f, "trace i/o error ({kind}): {message}")
            }
            TraceError::BadMagic { found } => {
                write!(f, "not an LTF trace: bad magic {found:02x?}")
            }
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported LTF version {found}")
            }
            TraceError::Truncated { what } => {
                write!(f, "truncated LTF stream while reading {what}")
            }
            TraceError::OverlongVarint { what } => {
                write!(f, "over-long varint while reading {what}")
            }
            TraceError::BadOpCode { code } => {
                write!(f, "unknown LTF opcode {code:#04x}")
            }
            TraceError::BadRegionClass { tag } => {
                write!(f, "unknown LTF region class tag {tag:#04x}")
            }
            TraceError::BadUtf8 { what } => {
                write!(f, "invalid UTF-8 in LTF field {what}")
            }
            TraceError::Corrupt { what } => {
                write!(f, "corrupt LTF stream: {what}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        // An EOF surfacing from `read_exact` means the stream ended inside
        // a fixed-width field; report it as truncation like the varint path.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { what: "fixed-width field" }
        } else {
            TraceError::Io { kind: format!("{:?}", e.kind()), message: e.to_string() }
        }
    }
}

/// Any error the workspace can produce: configuration validation or trace
/// decoding.
///
/// # Examples
///
/// ```
/// use lacc_model::{ConfigError, Error, TraceError};
/// let e: Error = ConfigError::new("num_cores must be positive").into();
/// assert!(matches!(e, Error::Config(_)));
/// let e: Error = TraceError::BadMagic { found: vec![0] }.into();
/// assert!(e.to_string().contains("magic"));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Error {
    /// An invalid architectural configuration.
    Config(ConfigError),
    /// A malformed or unreadable trace file.
    Trace(TraceError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(e) => e.fmt(f),
            Error::Trace(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            Error::Trace(e) => Some(e),
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<TraceError> for Error {
    fn from(e: TraceError) -> Self {
        Error::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = ConfigError::new("pct must be at least 1");
        assert_eq!(e.to_string(), "invalid configuration: pct must be at least 1");
    }

    #[test]
    fn is_std_error_send_sync() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes_err(ConfigError::new("x"));
        takes_err(TraceError::OverlongVarint { what: "t" });
        takes_err(Error::Config(ConfigError::new("x")));
    }

    #[test]
    fn trace_error_displays_name_the_field() {
        assert!(TraceError::Truncated { what: "header" }.to_string().contains("header"));
        assert!(TraceError::BadOpCode { code: 0xfe }.to_string().contains("0xfe"));
        assert!(TraceError::UnsupportedVersion { found: 9 }.to_string().contains('9'));
        assert!(TraceError::BadRegionClass { tag: 7 }.to_string().contains("0x07"));
        assert!(TraceError::BadUtf8 { what: "name" }.to_string().contains("name"));
        assert!(TraceError::Corrupt { what: "core offset" }.to_string().contains("core offset"));
    }

    #[test]
    fn io_errors_flatten_preserving_kind() {
        let io = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "nope");
        let e = TraceError::from(io);
        assert!(matches!(&e, TraceError::Io { kind, .. } if kind == "PermissionDenied"));
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn unexpected_eof_becomes_truncated() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(TraceError::from(io), TraceError::Truncated { .. }));
    }

    #[test]
    fn unified_error_wraps_both_sides() {
        let c: Error = ConfigError::new("x").into();
        let t: Error = TraceError::BadOpCode { code: 1 }.into();
        assert_ne!(c, t);
        assert!(std::error::Error::source(&c).is_some());
    }
}
