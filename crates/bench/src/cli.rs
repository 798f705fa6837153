//! Minimal command-line parsing for the experiment binaries.
//!
//! Flags take the forms `--key value` and `--switch`; each binary declares
//! the keys and switches it reads, and anything else is an error so typos
//! fail loudly. The dependency policy excludes argument-parsing crates, and
//! the harness needs only a handful of options.

use std::collections::BTreeMap;

/// Parsed `--key value` / `--switch` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses the process arguments (after the binary name), or prints the
    /// error and exits with status 2.
    ///
    /// `switch_names` lists the valueless flags and `value_names` the flags
    /// that take the following token as their value; any other `--key` is
    /// an error.
    pub fn parse(switch_names: &[&str], value_names: &[&str]) -> Self {
        Self::parse_from(std::env::args().skip(1), switch_names, value_names).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Parses from an explicit token stream (testable).
    pub fn parse_from(
        tokens: impl IntoIterator<Item = String>,
        switch_names: &[&str],
        value_names: &[&str],
    ) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = tokens.into_iter();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{tok}` (flags start with --)"))?
                .to_string();
            if switch_names.contains(&key.as_str()) {
                out.switches.push(key);
            } else if value_names.contains(&key.as_str()) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                out.values.insert(key, value);
            } else {
                let known: Vec<String> = switch_names
                    .iter()
                    .map(|s| format!("--{s}"))
                    .chain(value_names.iter().map(|v| format!("--{v} <value>")))
                    .collect();
                return Err(format!(
                    "unknown flag --{key} (accepted: {})",
                    known.join(", ")
                ));
            }
        }
        Ok(out)
    }

    /// Whether a switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A string value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let a = Args::parse_from(
            toks("--zipf 1 --paper-scale --trials 5"),
            &["paper-scale"],
            &["zipf", "trials", "threads"],
        )
        .unwrap();
        assert_eq!(a.get("zipf"), Some("1"));
        assert!(a.has("paper-scale"));
        assert_eq!(a.get_or("trials", 3u32).unwrap(), 5);
        assert_eq!(a.get_or("threads", 8u32).unwrap(), 8);
    }

    #[test]
    fn rejects_stray_tokens_and_missing_values() {
        assert!(Args::parse_from(toks("positional"), &[], &[]).is_err());
        assert!(Args::parse_from(toks("--trials"), &[], &["trials"]).is_err());
        let a = Args::parse_from(toks("--trials x"), &[], &["trials"]).unwrap();
        assert!(a.get_or("trials", 3u32).is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        // A misspelt value flag is an error, not a silently ignored pair.
        let err = Args::parse_from(toks("--trails 5"), &[], &["trials"]).unwrap_err();
        assert!(err.contains("--trails"), "{err}");
        assert!(err.contains("--trials <value>"), "{err}");
        // An unknown flag fails before it could swallow a known switch as
        // its value.
        assert!(Args::parse_from(toks("--gis --quick"), &["quick"], &["probe"]).is_err());
        assert!(Args::parse_from(toks("--quick --gis"), &["quick"], &["probe"]).is_err());
    }
}
