//! A small flag parser (no external dependency): `--key value` pairs
//! plus boolean `--flag`s after a positional subcommand. Each
//! subcommand declares the flags it accepts; any other flag is a usage
//! error that names it, so a mistyped or retired flag can never
//! silently swallow the argument after it.

use std::collections::BTreeMap;

/// Parsed command line: subcommand + flags. A flag may repeat
/// (`--model a=x.json --model b=y.json`); single-value accessors read
/// the last occurrence, [`Args::get_all`] returns every one in order.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// First positional argument.
    pub command: Option<String>,
    flags: BTreeMap<String, Vec<String>>,
    switches: Vec<String>,
}

/// The flags one subcommand accepts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spec {
    /// Flags followed by a value (`--batch 32`).
    pub flags: &'static [&'static str],
    /// Boolean switches (`--json`); no value follows them.
    pub switches: &'static [&'static str],
}

/// Flags every subcommand accepts, before or after its name.
pub const COMMON_FLAGS: &[&str] = &["trace-out", "metrics-out", "log-level"];

impl Args {
    /// Parses an iterator of arguments (excluding argv[0]). The first
    /// positional argument is the subcommand and `spec` gives the flags
    /// it accepts (`None`: no such subcommand). Before the subcommand
    /// only [`COMMON_FLAGS`] are accepted.
    pub fn parse(
        mut args: impl Iterator<Item = String>,
        spec: impl Fn(&str) -> Option<Spec>,
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut accepted = Spec::default();
        while let Some(a) = args.next() {
            if let Some(name) = a.strip_prefix("--") {
                if accepted.switches.contains(&name) {
                    out.switches.push(name.to_string());
                } else if COMMON_FLAGS.contains(&name) || accepted.flags.contains(&name) {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("flag --{name} expects a value"))?;
                    out.flags.entry(name.to_string()).or_default().push(value);
                } else {
                    return Err(match &out.command {
                        Some(command) => format!("unknown flag --{name} for '{command}'"),
                        None => format!("unknown flag --{name}"),
                    });
                }
            } else if out.command.is_none() {
                accepted = spec(&a).ok_or_else(|| format!("unknown command '{a}'"))?;
                out.command = Some(a);
            } else {
                return Err(format!("unexpected positional argument '{a}'"));
            }
        }
        Ok(out)
    }

    /// String flag with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Optional string flag (last occurrence wins when repeated).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).and_then(|v| v.last()).map(String::as_str)
    }

    /// Every occurrence of a repeatable flag, in command-line order.
    pub fn get_all(&self, key: &str) -> &[String] {
        self.flags.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Numeric flag with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: '{v}' is not an integer")),
        }
    }

    /// Float flag with a default. Rejects strings that are not
    /// numbers at all; range checks (NaN, out-of-bounds) belong to
    /// the consumer, which reports them as `Config` errors.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: '{v}' is not a number")),
        }
    }

    /// Boolean switch.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(command: &str) -> Option<Spec> {
        let (flags, switches): (&'static [&'static str], &'static [&'static str]) = match command {
            "profile" => (&["model", "batch"], &["training", "json"]),
            "train" => (&["test-fraction"], &[]),
            "serve" => (&["model", "rate"], &[]),
            "predict" => (&["weights"], &[]),
            _ => return None,
        };
        Some(Spec { flags, switches })
    }

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from), spec)
    }

    #[test]
    fn parses_command_flags_switches() {
        let a = parse("profile --model ResNet-50 --batch 32 --training").unwrap();
        assert_eq!(a.command.as_deref(), Some("profile"));
        assert_eq!(a.require("model").unwrap(), "ResNet-50");
        assert_eq!(a.usize_or("batch", 1).unwrap(), 32);
        assert!(a.has("training"));
        assert!(!a.has("json"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("profile").unwrap();
        assert_eq!(a.get_or("device", "a100"), "a100");
        assert_eq!(a.usize_or("batch", 16).unwrap(), 16);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse("profile --model").is_err());
    }

    #[test]
    fn bad_number_is_error() {
        let a = parse("profile --batch many").unwrap();
        assert!(a.usize_or("batch", 1).is_err());
    }

    #[test]
    fn float_flags_parse_with_defaults() {
        let a = parse("train --test-fraction 0.3").unwrap();
        assert_eq!(a.f64_or("test-fraction", 0.2).unwrap(), 0.3);
        assert_eq!(a.f64_or("absent", 0.2).unwrap(), 0.2);
        let bad = parse("train --test-fraction lots").unwrap();
        assert!(bad.f64_or("test-fraction", 0.2).is_err());
        // NaN parses here; the pipeline rejects it as a Config error.
        let nan = parse("train --test-fraction NaN").unwrap();
        assert!(nan.f64_or("test-fraction", 0.2).unwrap().is_nan());
    }

    #[test]
    fn repeated_flags_accumulate_and_last_wins() {
        let a = parse("serve --model a=x.json --model b=y.json --rate b=50").unwrap();
        assert_eq!(a.get_all("model"), ["a=x.json".to_string(), "b=y.json".to_string()]);
        assert_eq!(a.get("model"), Some("b=y.json"));
        assert_eq!(a.get_all("rate"), ["b=50".to_string()]);
        assert!(a.get_all("weight").is_empty());
    }

    #[test]
    fn unknown_flags_are_errors_that_name_the_flag() {
        let e = parse("profile --model LeNet --frobnicate --json").unwrap_err();
        assert_eq!(e, "unknown flag --frobnicate for 'profile'");
        // A flag of another subcommand is unknown here too.
        assert!(parse("predict --weights m.json --batch 3").unwrap_err().contains("--batch"));
        assert_eq!(parse("--json profile").unwrap_err(), "unknown flag --json");
    }

    #[test]
    fn common_flags_work_everywhere() {
        let a = parse("--log-level warn profile --metrics-out m.json").unwrap();
        assert_eq!(a.get("log-level"), Some("warn"));
        assert_eq!(a.get("metrics-out"), Some("m.json"));
    }

    #[test]
    fn unknown_command_is_error() {
        assert_eq!(parse("frobnicate --json").unwrap_err(), "unknown command 'frobnicate'");
    }

    #[test]
    fn extra_positional_is_error() {
        assert!(parse("profile extra").is_err());
    }

    #[test]
    fn required_flag_missing() {
        let a = parse("predict").unwrap();
        assert!(a.require("weights").is_err());
    }
}
