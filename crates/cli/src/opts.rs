//! A tiny `--flag value` / `--switch` parser (no external dependencies).

use crate::CliError;
use std::collections::BTreeMap;

/// Parsed command-line options: `--key value` pairs and bare `--switch`es.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Opts {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &[
    "correlated",
    "preprocess",
    "degrade",
    "replicate",
    "auto-tune",
];

impl Opts {
    /// Parses the arguments after the subcommand.
    ///
    /// # Errors
    /// Returns [`CliError::Usage`] for positional arguments, repeated keys,
    /// or a value-taking flag at the end of the line.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut opts = Opts::default();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument {a:?}"
                )));
            };
            if SWITCHES.contains(&key) {
                opts.switches.push(key.to_owned());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("--{key} requires a value")))?;
            if opts.values.insert(key.to_owned(), value.clone()).is_some() {
                return Err(CliError::Usage(format!("--{key} given twice")));
            }
        }
        Ok(opts)
    }

    /// `true` if the bare switch was present.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// `true` if a value-taking flag was given explicitly (as opposed to
    /// falling back to its default).
    pub fn given(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// An optional string flag.
    pub fn get(&self, key: &str) -> Option<&String> {
        self.values.get(key)
    }

    /// A mandatory string flag.
    ///
    /// # Errors
    /// [`CliError::Usage`] if absent.
    pub fn require(&self, key: &str) -> Result<String, CliError> {
        self.values
            .get(key)
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("--{key} is required")))
    }

    /// A mandatory `f64` flag.
    ///
    /// # Errors
    /// [`CliError::Usage`] if absent or unparsable.
    pub fn require_f64(&self, key: &str) -> Result<f64, CliError> {
        self.require(key)?
            .parse()
            .map_err(|_| CliError::Usage(format!("--{key} expects a number")))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} has a malformed value {v:?}"))),
        }
    }

    /// An optional `usize` flag with a default.
    ///
    /// # Errors
    /// [`CliError::Usage`] on a malformed value.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, CliError> {
        self.parse_or(key, default)
    }

    /// An optional `u32` flag with a default.
    ///
    /// # Errors
    /// [`CliError::Usage`] on a malformed value.
    pub fn u32_or(&self, key: &str, default: u32) -> Result<u32, CliError> {
        self.parse_or(key, default)
    }

    /// An optional `u64` flag with a default.
    ///
    /// # Errors
    /// [`CliError::Usage`] on a malformed value.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, CliError> {
        self.parse_or(key, default)
    }

    /// An optional `f64` flag with a default.
    ///
    /// # Errors
    /// [`CliError::Usage`] on a malformed value.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, CliError> {
        self.parse_or(key, default)
    }

    /// Reads `--lambda` and validates the sensitivity percentage up
    /// front. Shared by every subcommand that takes Λ (`preprocess`,
    /// `retrieve`, `pipeline`, `submit`), so the range rule and its
    /// message cannot drift between them.
    ///
    /// # Errors
    /// [`CliError::Usage`] if the value is malformed or outside 0..=100.
    pub fn lambda(&self) -> Result<u32, CliError> {
        let lambda = self.u32_or("lambda", 80)?;
        if lambda > 100 {
            return Err(CliError::Usage(format!(
                "--lambda {lambda} is out of range: the sensitivity \u{39b} is a \
                 percentage and must lie in 0..=100"
            )));
        }
        Ok(lambda)
    }

    /// Reads `--upsilon` and validates the voter count up front.
    /// Shared by every subcommand that takes Υ.
    ///
    /// # Errors
    /// [`CliError::Usage`] if the value is malformed, odd, or outside
    /// 2..=16.
    pub fn upsilon(&self) -> Result<usize, CliError> {
        let upsilon = self.usize_or("upsilon", 4)?;
        if upsilon < 2 || upsilon % 2 != 0 || upsilon > 16 {
            return Err(CliError::Usage(format!(
                "--upsilon {upsilon} is invalid: the voter count \u{3a5} must be \
                 an even number between 2 and 16"
            )));
        }
        Ok(upsilon)
    }

    /// Reads `--threads` and validates the worker count up front: zero
    /// is rejected, and a request beyond the machine's available
    /// parallelism is capped (returning a warning line for the report).
    /// Shared by `preprocess` and `serve`. The count is an upper bound;
    /// the process core budget grants fewer while other runs hold cores.
    ///
    /// # Errors
    /// [`CliError::Usage`] if the value is malformed or zero.
    pub fn threads(&self) -> Result<(usize, Option<String>), CliError> {
        let requested = self.usize_or("threads", 1)?;
        if requested == 0 {
            return Err(CliError::Usage(
                "--threads 0 is invalid: at least one worker thread is required \
                 (omit the flag for a single-threaded run)"
                    .to_owned(),
            ));
        }
        let cap = preflight::core::available_threads();
        if requested > cap {
            return Ok((
                cap,
                Some(format!(
                    "warning: --threads {requested} exceeds the {cap} available \
                     hardware thread(s); capped to {cap}"
                )),
            ));
        }
        Ok((requested, None))
    }

    /// Reads `--kernel` and validates the voter-kernel name up front (the
    /// SIMD-dispatched `bitsliced` — the default — or the `scalar`
    /// oracle). Shared by `preprocess` and `serve`; both kernels are
    /// bit-identical, so the knob is purely a scheduling/benchmarking
    /// choice.
    ///
    /// # Errors
    /// [`CliError::Usage`] on an unknown kernel name.
    pub fn kernel(&self) -> Result<preflight::core::Kernel, CliError> {
        match self.values.get("kernel") {
            None => Ok(preflight::core::Kernel::default()),
            Some(v) => v
                .parse()
                .map_err(|e| CliError::Usage(format!("--kernel: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, CliError> {
        let v: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Opts::parse(&v)
    }

    #[test]
    fn pairs_and_switches() {
        let o = parse(&["--in", "a.fits", "--gamma0", "0.01", "--correlated"]).unwrap();
        assert_eq!(o.require("in").unwrap(), "a.fits");
        assert_eq!(o.require_f64("gamma0").unwrap(), 0.01);
        assert!(o.has("correlated"));
        assert!(!o.has("quiet"));
        assert!(o.given("gamma0"));
        assert!(!o.given("seed"));
    }

    #[test]
    fn degrade_is_a_switch() {
        let o = parse(&["--degrade", "--chaos", "0.1"]).unwrap();
        assert!(o.has("degrade"));
        assert_eq!(o.f64_or("chaos", 0.0).unwrap(), 0.1);
    }

    #[test]
    fn defaults_apply() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.usize_or("width", 64).unwrap(), 64);
        assert_eq!(o.f64_or("sigma", 250.0).unwrap(), 250.0);
    }

    #[test]
    fn missing_and_malformed_values() {
        assert!(parse(&["--in"]).is_err(), "trailing flag");
        assert!(parse(&["stray"]).is_err(), "positional");
        assert!(parse(&["--w", "1", "--w", "2"]).is_err(), "repeated");
        let o = parse(&["--width", "abc"]).unwrap();
        assert!(o.usize_or("width", 1).is_err());
        let o = parse(&["--gamma0", "not-a-number"]).unwrap();
        assert!(o.require_f64("gamma0").is_err());
    }

    #[test]
    fn required_flags() {
        let o = parse(&[]).unwrap();
        assert!(matches!(o.require("out"), Err(CliError::Usage(_))));
        assert!(matches!(o.require_f64("gamma0"), Err(CliError::Usage(_))));
    }

    #[test]
    fn lambda_validation_is_shared() {
        assert_eq!(parse(&[]).unwrap().lambda().unwrap(), 80);
        assert_eq!(parse(&["--lambda", "0"]).unwrap().lambda().unwrap(), 0);
        assert_eq!(parse(&["--lambda", "100"]).unwrap().lambda().unwrap(), 100);
        assert!(matches!(
            parse(&["--lambda", "101"]).unwrap().lambda(),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["--lambda", "eighty"]).unwrap().lambda(),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn upsilon_validation_is_shared() {
        assert_eq!(parse(&[]).unwrap().upsilon().unwrap(), 4);
        assert_eq!(parse(&["--upsilon", "16"]).unwrap().upsilon().unwrap(), 16);
        for bad in ["0", "1", "3", "5", "18"] {
            assert!(
                matches!(
                    parse(&["--upsilon", bad]).unwrap().upsilon(),
                    Err(CliError::Usage(_))
                ),
                "--upsilon {bad} must be rejected"
            );
        }
    }

    #[test]
    fn kernel_validation_is_shared() {
        use preflight::core::Kernel;
        assert_eq!(parse(&[]).unwrap().kernel().unwrap(), Kernel::Bitsliced);
        assert_eq!(
            parse(&["--kernel", "scalar"]).unwrap().kernel().unwrap(),
            Kernel::Scalar
        );
        assert_eq!(
            parse(&["--kernel", "bitsliced"]).unwrap().kernel().unwrap(),
            Kernel::Bitsliced
        );
        for unknown in ["vector", "sweep"] {
            assert!(matches!(
                parse(&["--kernel", unknown]).unwrap().kernel(),
                Err(CliError::Usage(_))
            ));
        }
    }

    #[test]
    fn threads_validation_rejects_zero_and_caps_excess() {
        assert_eq!(parse(&[]).unwrap().threads().unwrap(), (1, None));
        assert!(matches!(
            parse(&["--threads", "0"]).unwrap().threads(),
            Err(CliError::Usage(_))
        ));
        let (capped, warning) = parse(&["--threads", "65535"]).unwrap().threads().unwrap();
        assert_eq!(capped, preflight::core::available_threads());
        assert!(warning.expect("warning line").contains("65535"));
    }
}
