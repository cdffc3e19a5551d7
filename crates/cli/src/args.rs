//! Minimal dependency-free command-line argument parsing.
//!
//! Supports `--flag`, `--key value`, `--key=value` and positional
//! arguments, with typed accessors and an unknown-option check.

use std::collections::HashMap;

/// Parsed arguments of one subcommand invocation.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse raw arguments. `boolean_flags` lists options that take no
    /// value (everything else starting with `--` consumes the next token or
    /// its `=`-suffix).
    pub fn parse(raw: &[String], boolean_flags: &[&str]) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = raw.iter().peekable();
        while let Some(tok) = it.next() {
            // `-x` short options are aliases for `--x`
            let long = tok.strip_prefix("--");
            let short = (tok.len() == 2 && tok.starts_with('-') && !tok.starts_with("--"))
                .then(|| &tok[1..]);
            if let Some(name) = long.or(short) {
                if let Some((key, value)) = name.split_once('=') {
                    args.options.insert(key.to_string(), value.to_string());
                } else if boolean_flags.contains(&name) {
                    args.flags.push(name.to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError(format!("--{name} expects a value")))?;
                    args.options.insert(name.to_string(), value.clone());
                }
            } else {
                args.positional.push(tok.clone());
            }
        }
        Ok(args)
    }

    /// Positional argument `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Required positional argument `i`.
    pub fn require_positional(&self, i: usize, what: &str) -> Result<&str, ArgError> {
        self.positional(i)
            .ok_or_else(|| ArgError(format!("missing {what}")))
    }

    /// Number of positional arguments.
    pub fn n_positional(&self) -> usize {
        self.positional.len()
    }

    /// String option.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Typed option with default.
    pub fn opt_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        Ok(self.opt_parse_maybe(key)?.unwrap_or(default))
    }

    /// Typed option, `None` when absent.
    pub fn opt_parse_maybe<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.options
            .get(key)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| ArgError(format!("--{key} {raw}: cannot parse value")))
            })
            .transpose()
    }

    /// Boolean flag presence.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Error on any option not in `known` (catches typos early).
    pub fn check_known(&self, known: &[&str]) -> Result<(), ArgError> {
        for key in self.options.keys().chain(self.flags.iter()) {
            if !known.contains(&key.as_str()) {
                return Err(ArgError(format!("unknown option --{key}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_options_and_flags() {
        let a = Args::parse(
            &raw(&["in.csv", "--rate", "0.2", "--quiet", "--out=o.csv"]),
            &["quiet"],
        )
        .unwrap();
        assert_eq!(a.positional(0), Some("in.csv"));
        assert_eq!(a.opt("rate"), Some("0.2"));
        assert_eq!(a.opt("out"), Some("o.csv"));
        assert!(a.flag("quiet"));
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn typed_options_with_defaults() {
        let a = Args::parse(&raw(&["--seed", "7"]), &[]).unwrap();
        assert_eq!(a.opt_parse("seed", 0u64).unwrap(), 7);
        assert_eq!(a.opt_parse("rate", 0.5f64).unwrap(), 0.5);
        assert!(a.opt_parse::<u64>("seed", 0).is_ok());
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Args::parse(&raw(&["--rate"]), &[]).unwrap_err();
        assert!(err.0.contains("expects a value"));
    }

    #[test]
    fn bad_typed_value_is_an_error() {
        let a = Args::parse(&raw(&["--rate", "abc"]), &[]).unwrap();
        assert!(a.opt_parse::<f64>("rate", 0.0).is_err());
    }

    #[test]
    fn unknown_options_are_caught() {
        let a = Args::parse(&raw(&["--tyop", "x"]), &[]).unwrap();
        assert!(a.check_known(&["rate", "seed"]).is_err());
        assert!(a.check_known(&["tyop"]).is_ok());
    }

    #[test]
    fn required_positional_errors_with_context() {
        let a = Args::parse(&raw(&[]), &[]).unwrap();
        let err = a.require_positional(0, "input file").unwrap_err();
        assert!(err.0.contains("input file"));
    }
}
