//! The one strict command-line parser of the bench binaries.
//!
//! A missing or malformed value, a stray positional argument and an
//! unknown flag are all usage errors: the binaries print the message and
//! exit 2 (the `Config` code of the engine's exit-code taxonomy). Nothing
//! falls back to a default, so a typo such as `--min-kernel-speedp 1.5`
//! cannot silently switch a CI gate off.
//!
//! ```
//! use gridtuner_bench::flags::Flags;
//! let argv: Vec<String> = ["--scale", "0.5", "--profile"].map(String::from).to_vec();
//! let (mut scale, mut profile) = (1.0f64, false);
//! let mut flags = Flags::new(&argv);
//! while let Some(flag) = flags.next_flag() {
//!     match flag {
//!         "--scale" => scale = flags.value(flag).unwrap(),
//!         "--profile" => profile = true,
//!         other => panic!("{}", Flags::unknown(other)),
//!     }
//! }
//! assert_eq!((scale, profile), (0.5, true));
//! ```

use std::str::FromStr;

/// A cursor over the command line (program name already stripped).
pub struct Flags<'a> {
    args: &'a [String],
    next: usize,
}

impl<'a> Flags<'a> {
    /// Starts at the first argument.
    pub fn new(args: &'a [String]) -> Self {
        Flags { args, next: 0 }
    }

    /// The next flag, or `None` once the command line is exhausted.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.args.get(self.next)?;
        self.next += 1;
        Some(flag)
    }

    /// Consumes and parses the value following `flag`, or a usage error
    /// naming the flag and the offending text.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self
            .args
            .get(self.next)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        self.next += 1;
        raw.parse()
            .map_err(|_| format!("{flag}: malformed value {raw:?}"))
    }

    /// The usage error for an argument no binary flag matches.
    pub fn unknown(flag: &str) -> String {
        format!("unknown argument {flag:?}")
    }
}

/// Prints `{bin}: {err}` and exits 2 — the one way a bench binary rejects
/// its command line.
pub fn exit_usage(bin: &str, err: &str) -> ! {
    eprintln!("{bin}: {err}");
    std::process::exit(2);
}
