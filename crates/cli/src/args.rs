//! Tiny dependency-free argument parser: `--key value` flags after a
//! subcommand, with typed accessors and helpful errors.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: BTreeMap<String, String>,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv` (without the program name). Every flag takes a value;
    /// see [`Args::parse_with_switches`] for boolean switches.
    #[allow(dead_code)] // the binary parses via parse_with_switches
    pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
        Args::parse_with_switches(argv, &[])
    }

    /// Like [`Args::parse`], but flags listed in `switches` are boolean:
    /// they consume no value and parse as `"1"` (query with [`Args::has`]).
    pub fn parse_with_switches(argv: &[String], switches: &[&str]) -> Result<Args, ArgError> {
        let mut it = argv.iter();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand".into()))?
            .clone();
        if command.starts_with("--") {
            return Err(ArgError(format!(
                "expected a subcommand before flags, got {command}"
            )));
        }
        let mut flags = BTreeMap::new();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("expected --flag, got {key}")))?;
            let value = if switches.contains(&key) {
                "1".to_string()
            } else {
                it.next()
                    .ok_or_else(|| ArgError(format!("--{key} needs a value")))?
                    .clone()
            };
            if flags.insert(key.to_string(), value).is_some() {
                return Err(ArgError(format!("--{key} given twice")));
            }
        }
        Ok(Args { command, flags })
    }

    /// Whether a flag was given at all (switches parse as `"1"`).
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// String flag with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.into())
    }

    /// Typed flag with a default; errors when present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse {v:?}"))),
        }
    }

    /// A float flag that must be finite and positive (`--scale`).
    pub fn positive_f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        self.checked_or(key, default, "a positive finite number", |v: &f64| {
            v.is_finite() && *v > 0.0
        })
    }

    /// A float flag that must be finite and non-negative (a Poisson mean).
    pub fn non_negative_f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        self.checked_or(key, default, "a non-negative finite number", |v: &f64| {
            v.is_finite() && *v >= 0.0
        })
    }

    /// An integer flag that must be at least 1 (a side or a count).
    pub fn positive_or<T>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T: std::str::FromStr + PartialOrd + Default,
    {
        self.checked_or(key, default, "at least 1", |v: &T| *v > T::default())
    }

    /// [`get_or`](Self::get_or), and the value must pass `valid`; `what`
    /// says in the error which values do.
    fn checked_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        what: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<T, ArgError> {
        let v = self.get_or(key, default)?;
        if valid(&v) {
            return Ok(v);
        }
        let given = self.flags.get(key).map_or("", String::as_str);
        Err(ArgError(format!("--{key} must be {what}, got {given:?}")))
    }

    /// A `lo:hi` range flag.
    pub fn range_or(&self, key: &str, default: (u32, u32)) -> Result<(u32, u32), ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => {
                let (a, b) = v
                    .split_once(':')
                    .ok_or_else(|| ArgError(format!("--{key}: expected lo:hi, got {v:?}")))?;
                let lo = a
                    .parse()
                    .map_err(|_| ArgError(format!("--{key}: bad lower bound {a:?}")))?;
                let hi = b
                    .parse()
                    .map_err(|_| ArgError(format!("--{key}: bad upper bound {b:?}")))?;
                if lo == 0 || lo > hi {
                    return Err(ArgError(format!("--{key}: invalid range {lo}:{hi}")));
                }
                Ok((lo, hi))
            }
        }
    }

    /// Rejects flags outside the allowed set (typo protection).
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{k} for `{}` (allowed: {})",
                    self.command,
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(&argv("tune --city nyc --scale 0.05")).unwrap();
        assert_eq!(a.command, "tune");
        assert_eq!(a.str_or("city", "xian"), "nyc");
        assert_eq!(a.get_or("scale", 1.0f64).unwrap(), 0.05);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn range_flag() {
        let a = Args::parse(&argv("tune --range 4:76")).unwrap();
        assert_eq!(a.range_or("range", (1, 10)).unwrap(), (4, 76));
        let a = Args::parse(&argv("tune")).unwrap();
        assert_eq!(a.range_or("range", (1, 10)).unwrap(), (1, 10));
        let a = Args::parse(&argv("tune --range 9:3")).unwrap();
        assert!(a.range_or("range", (1, 10)).is_err());
    }

    #[test]
    fn error_cases() {
        assert!(Args::parse(&[]).is_err());
        assert!(Args::parse(&argv("--city nyc")).is_err());
        assert!(Args::parse(&argv("tune --city")).is_err());
        assert!(Args::parse(&argv("tune city nyc")).is_err());
        assert!(Args::parse(&argv("tune --city a --city b")).is_err());
        let a = Args::parse(&argv("tune --scale abc")).unwrap();
        assert!(a.get_or("scale", 1.0f64).is_err());
    }

    #[test]
    fn range_checked_flags() {
        let a = Args::parse(&argv("x --scale 0.5 --alpha 0 --m 3")).unwrap();
        assert_eq!(a.positive_f64_or("scale", 1.0).unwrap(), 0.5);
        assert_eq!(a.non_negative_f64_or("alpha", 2.0).unwrap(), 0.0);
        assert_eq!(a.positive_or("m", 64usize).unwrap(), 3);
        assert_eq!(a.positive_or("side", 16u32).unwrap(), 16);
        for bad in ["0", "-1", "nan", "inf", "-inf"] {
            let a = Args::parse(&argv(&format!("x --scale {bad} --alpha {bad}"))).unwrap();
            let err = a.positive_f64_or("scale", 1.0).unwrap_err();
            assert!(err.0.contains("--scale must be"), "{err}");
            if bad != "0" {
                assert!(a.non_negative_f64_or("alpha", 2.0).is_err(), "{bad}");
            }
        }
        let a = Args::parse(&argv("x --m 0")).unwrap();
        assert!(a.positive_or("m", 64usize).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let a = Args::parse_with_switches(&argv("tune --report --city nyc"), &["report"]).unwrap();
        assert!(a.has("report"));
        assert!(!a.has("trace"));
        assert_eq!(a.str_or("city", "xian"), "nyc");
        // Without the switch registered, --report would eat `--city`.
        assert!(Args::parse(&argv("tune --report")).is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        let a = Args::parse(&argv("tune --bogus 1")).unwrap();
        assert!(a.expect_only(&["city", "scale"]).is_err());
        let a = Args::parse(&argv("tune --city nyc")).unwrap();
        assert!(a.expect_only(&["city", "scale"]).is_ok());
    }
}
