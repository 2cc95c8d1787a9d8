//! Experiment harness support for the paper's tables and figures.
//!
//! The real content of this crate lives in its binaries (`src/bin/*.rs`),
//! one per table/figure, and its one `harness = false` bench
//! (`benches/probe_overhead.rs`, the NullProbe zero-cost gate). Speed
//! is measured by `ibpbench`, outside this crate. This library holds the
//! shared formatting helpers and the figure binaries' command-line
//! parser.

/// Formats a ratio as a percentage with two decimals, e.g. `9.47%`.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// A figure binary's parsed command line: the trace scale and the flags
/// given.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureArgs {
    /// The positional `[scale]`, or the binary's default.
    pub scale: f64,
    flags: Vec<(String, Option<String>)>,
}

impl FigureArgs {
    /// Whether the switch `flag` (e.g. `--csv`) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value that followed `flag` (e.g. `--budget <bits>`), if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }
}

/// Parses `args` (without the program name): at most one positional
/// scale, which must be a positive number, plus the flags the binary
/// accepts — `switches` stand alone, `valued` flags take the next
/// argument. Anything else is an error naming the offending argument.
pub fn parse_figure_args(
    args: &[String],
    default_scale: f64,
    switches: &[&str],
    valued: &[&str],
) -> Result<FigureArgs, String> {
    let mut scale = None;
    let mut flags: Vec<(String, Option<String>)> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let is_switch = switches.contains(&arg.as_str());
        let is_valued = valued.contains(&arg.as_str());
        if (is_switch || is_valued) && flags.iter().any(|(f, _)| f == arg) {
            return Err(format!("{arg} given twice"));
        } else if is_switch {
            flags.push((arg.clone(), None));
        } else if is_valued {
            let value = rest.next().ok_or_else(|| format!("{arg} needs a value"))?;
            flags.push((arg.clone(), Some(value.clone())));
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else if scale.is_some() {
            return Err(format!("unexpected argument {arg:?}"));
        } else {
            match arg.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => scale = Some(s),
                _ => return Err(format!("scale must be a positive number, not {arg:?}")),
            }
        }
    }
    Ok(FigureArgs {
        scale: scale.unwrap_or(default_scale),
        flags,
    })
}

/// [`parse_figure_args`] over this process's arguments. On an error it
/// prints the error and `usage` and exits with status 2.
pub fn figure_args(
    usage: &str,
    default_scale: f64,
    switches: &[&str],
    valued: &[&str],
) -> FigureArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_figure_args(&args, default_scale, switches, valued)
        .unwrap_or_else(|e| exit_usage(&e, usage))
}

/// Prints `error` and `usage` on stderr and exits with status 2.
pub fn exit_usage(error: &str, usage: &str) -> ! {
    eprintln!("{error}\nusage: {usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.0947), "9.47%");
        assert_eq!(pct(0.0), "0.00%");
    }

    fn parse(args: &[&str]) -> Result<FigureArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_figure_args(&args, 1.0, &["--csv"], &["--budget", "--metrics"])
    }

    #[test]
    fn figure_args_accept_scale_and_flags_in_any_order() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, 1.0);
        assert!(!a.has("--csv"));
        assert_eq!(a.value("--budget"), None);
        let a = parse(&["--csv", "0.05", "--budget", "65536"]).unwrap();
        assert_eq!(a.scale, 0.05);
        assert!(a.has("--csv"));
        assert_eq!(a.value("--budget"), Some("65536"));
        assert_eq!(a.value("--metrics"), None);
        let a = parse(&["--metrics", "m.json", "2"]).unwrap();
        assert_eq!((a.scale, a.value("--metrics")), (2.0, Some("m.json")));
    }

    #[test]
    fn figure_args_reject_what_they_do_not_know() {
        for (args, why) in [
            (&["--simpoint", "k=12"][..], "unknown flag --simpoint"),
            (&["0.5", "0.25"][..], "unexpected argument"),
            (&["fast"][..], "scale must be a positive number"),
            (&["0"][..], "scale must be a positive number"),
            (&["-1"][..], "scale must be a positive number"),
            (&["inf"][..], "scale must be a positive number"),
            (&["--budget"][..], "--budget needs a value"),
            (&["--csv", "--csv"][..], "--csv given twice"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(why), "{args:?}: {err}");
        }
    }
}
