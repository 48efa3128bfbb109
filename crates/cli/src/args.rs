//! Minimal `--key value` / `--key=value` argument parsing.

use std::collections::BTreeMap;

/// Parsed `--key value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parse a flat list of `--key value` / `--key=value` tokens. Bare
    /// `--flag` (no value) stores `"true"`.
    // audit:allow(E701): tokens[i] is guarded by the loop condition and
    // tokens[i + 1] by the next_is_value get() probe just above it
    pub fn parse(tokens: &[String]) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!("expected --key, found `{tok}`"));
            };
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            // `--key=value` must split, never be swallowed as a bare
            // flag: `--pass=shed` silently becoming flag `pass=shed`
            // once let a typo masquerade as a clean audit gate.
            if let Some((key, value)) = key.split_once('=') {
                if key.is_empty() {
                    return Err(format!("empty flag name in `{tok}`"));
                }
                values.insert(key.to_owned(), value.to_owned());
                i += 1;
                continue;
            }
            let next_is_value = tokens
                .get(i + 1)
                .map(|t| !t.starts_with("--"))
                .unwrap_or(false);
            if next_is_value {
                values.insert(key.to_owned(), tokens[i + 1].clone());
                i += 2;
            } else {
                values.insert(key.to_owned(), "true".to_owned());
                i += 1;
            }
        }
        Ok(Args { values })
    }

    /// String value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Parsed value with default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    /// Is a bare flag present?
    pub fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// Reject any flag that is not in `accepted` (a list of flag-name
    /// groups) with an error naming it and `command`, so a misspelt
    /// flag fails instead of being ignored.
    pub fn expect_only(&self, command: &str, accepted: &[&[&str]]) -> Result<(), String> {
        let unknown: Vec<String> = self
            .values
            .keys()
            .filter(|k| !accepted.iter().any(|group| group.contains(&k.as_str())))
            .map(|k| format!("--{k}"))
            .collect();
        match unknown.len() {
            0 => Ok(()),
            n => Err(format!(
                "unknown flag{} {} for `{command}` (see `eras help`)",
                if n == 1 { "" } else { "s" },
                unknown.join(", ")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse(&toks(&["--preset", "wn18rr", "--quick", "--dim", "64"])).unwrap();
        assert_eq!(a.get("preset"), Some("wn18rr"));
        assert!(a.has("quick"));
        assert_eq!(a.get_or("dim", 32usize).unwrap(), 64);
        assert_eq!(a.get_or("epochs", 40usize).unwrap(), 40);
    }

    #[test]
    fn rejects_bare_values() {
        assert!(Args::parse(&toks(&["wn18rr"])).is_err());
    }

    #[test]
    fn parses_equals_form() {
        let a = Args::parse(&toks(&["--pass=sched", "--dim=64", "--quick"])).unwrap();
        assert_eq!(a.get("pass"), Some("sched"));
        assert_eq!(a.get_or("dim", 32usize).unwrap(), 64);
        assert!(a.has("quick"));
        // An equals form never registers as the literal `key=value` flag.
        assert!(!a.has("pass=sched"));
    }

    #[test]
    fn equals_form_keeps_later_equals_in_value() {
        let a = Args::parse(&toks(&["--filter=a=b"])).unwrap();
        assert_eq!(a.get("filter"), Some("a=b"));
    }

    #[test]
    fn equals_form_rejects_empty_key() {
        assert!(Args::parse(&toks(&["--=value"])).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = Args::parse(&toks(&[])).unwrap();
        assert!(a.require("preset").is_err());
    }

    #[test]
    fn expect_only_names_every_unknown_flag_and_the_command() {
        let a = Args::parse(&toks(&["--preset", "tiny", "--epoch", "2", "--quick"])).unwrap();
        assert!(a
            .expect_only("eras x", &[&["preset", "epoch", "quick"]])
            .is_ok());
        assert!(a
            .expect_only("eras x", &[&["preset"], &["epoch", "quick"]])
            .is_ok());
        assert_eq!(
            a.expect_only("eras train", &[&["preset", "epochs"]]),
            Err("unknown flags --epoch, --quick for `eras train` (see `eras help`)".into())
        );
        assert_eq!(
            a.expect_only("eras train", &[&["preset", "quick"]]),
            Err("unknown flag --epoch for `eras train` (see `eras help`)".into())
        );
    }

    #[test]
    fn parse_error_mentions_key() {
        let a = Args::parse(&toks(&["--dim", "abc"])).unwrap();
        let err = a.get_or("dim", 0usize).unwrap_err();
        assert!(err.contains("dim"));
    }
}
