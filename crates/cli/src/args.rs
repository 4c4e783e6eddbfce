//! Minimal argument parsing (kept dependency-free by design).

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParsedArgs {
    /// The subcommand (first non-flag argument).
    pub(crate) command: String,
    /// Positional arguments after the subcommand.
    pub(crate) positionals: Vec<String>,
    /// `--key value` options in argv order (flags map to `"true"`).
    options: Vec<(String, String)>,
}

/// Parses `argv[1..]`. Options may appear anywhere after the subcommand;
/// an option followed by another option (or nothing) is a boolean flag.
pub(crate) fn parse(args: &[String]) -> Result<ParsedArgs, String> {
    let mut iter = args.iter().peekable();
    let command = iter.next().cloned().ok_or("missing subcommand")?;
    if command.starts_with("--") {
        return Err(format!("expected a subcommand, got option `{command}`"));
    }
    let mut positionals = Vec::new();
    let mut options = Vec::new();
    while let Some(arg) = iter.next() {
        if let Some(key) = arg.strip_prefix("--") {
            let value = match iter.next_if(|n| !n.starts_with("--")) {
                Some(value) => value.clone(),
                None => "true".to_owned(),
            };
            options.push((key.to_owned(), value));
        } else {
            positionals.push(arg.clone());
        }
    }
    Ok(ParsedArgs {
        command,
        positionals,
        options,
    })
}

impl ParsedArgs {
    /// Refuses the first option, in argv order, that `known` (the flags
    /// the subcommand reads) does not list, then the first positional
    /// beyond the `positionals` the subcommand reads.
    pub(crate) fn accept_only(&self, known: &[&str], positionals: usize) -> Result<(), String> {
        if let Some((key, _)) = self
            .options
            .iter()
            .find(|(key, _)| !known.contains(&key.as_str()))
        {
            return Err(format!("unknown argument `--{key}`"));
        }
        match self.positionals.get(positionals) {
            Some(surplus) => Err(format!("unexpected argument `{surplus}`")),
            None => Ok(()),
        }
    }

    /// The raw value of option `key`; the last one when it is given twice.
    pub(crate) fn option(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, value)| value.as_str())
    }

    /// An option parsed as `T`, with a default.
    pub(crate) fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.option(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for --{key}")),
        }
    }

    /// A required positional argument.
    pub(crate) fn positional(&self, index: usize, name: &str) -> Result<&str, String> {
        self.positionals
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| format!("missing <{name}> argument"))
    }

    /// A comma-separated `usize` list option.
    pub(crate) fn usize_list(&self, key: &str) -> Result<Vec<usize>, String> {
        match self.option(key) {
            None => Ok(Vec::new()),
            Some(raw) => raw
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse()
                        .map_err(|_| format!("invalid index `{p}` in --{key}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_positionals_and_options() {
        let p = parse(&argv(&["audit", "data.csv", "--rounds", "50", "--verbose"])).unwrap();
        assert_eq!(p.command, "audit");
        assert_eq!(p.positionals, vec!["data.csv"]);
        assert_eq!(p.option("rounds"), Some("50"));
        assert_eq!(p.option("verbose"), Some("true"));
    }

    #[test]
    fn missing_subcommand_errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&argv(&["--oops"])).is_err());
    }

    #[test]
    fn typed_option_access() {
        let p = parse(&argv(&["x", "--rounds", "50"])).unwrap();
        assert_eq!(p.get_or("rounds", 10usize).unwrap(), 50);
        assert_eq!(p.get_or("epsilon", 1.5f64).unwrap(), 1.5);
        assert!(p.get_or::<usize>("rounds", 0).is_ok());
        let bad = parse(&argv(&["x", "--rounds", "abc"])).unwrap();
        assert!(bad.get_or::<usize>("rounds", 0).is_err());
    }

    #[test]
    fn positional_access() {
        let p = parse(&argv(&["audit", "a.csv"])).unwrap();
        assert_eq!(p.positional(0, "file").unwrap(), "a.csv");
        assert!(p.positional(1, "other").is_err());
    }

    #[test]
    fn usize_lists() {
        let p = parse(&argv(&["x", "--qi", "0, 2,5"])).unwrap();
        assert_eq!(p.usize_list("qi").unwrap(), vec![0, 2, 5]);
        assert!(p.usize_list("missing").unwrap().is_empty());
        let bad = parse(&argv(&["x", "--qi", "a,b"])).unwrap();
        assert!(bad.usize_list("qi").is_err());
    }

    #[test]
    fn flag_before_value_option() {
        let p = parse(&argv(&["x", "--dry-run", "--k", "4"])).unwrap();
        assert_eq!(p.option("dry-run"), Some("true"));
        assert_eq!(p.option("k"), Some("4"));
    }

    #[test]
    fn unknown_options_are_refused_in_argv_order() {
        let p = parse(&argv(&["x", "--k", "4", "--b", "--a", "1", "--k", "5"])).unwrap();
        assert_eq!(p.option("k"), Some("5"), "the last value wins");
        assert_eq!(p.accept_only(&["a", "b", "k"], 0), Ok(()));
        assert_eq!(
            p.accept_only(&["k"], 0),
            Err("unknown argument `--b`".to_owned())
        );
        assert_eq!(
            p.accept_only(&[], 0),
            Err("unknown argument `--k`".to_owned())
        );
    }

    #[test]
    fn surplus_positionals_are_refused_after_unknown_options() {
        let p = parse(&argv(&["x", "a.csv", "b.csv", "--k", "4", "c.csv"])).unwrap();
        assert_eq!(p.accept_only(&["k"], 3), Ok(()));
        assert_eq!(
            p.accept_only(&["k"], 1),
            Err("unexpected argument `b.csv`".to_owned())
        );
        assert_eq!(
            p.accept_only(&["k"], 0),
            Err("unexpected argument `a.csv`".to_owned())
        );
        assert_eq!(
            p.accept_only(&[], 1),
            Err("unknown argument `--k`".to_owned())
        );
    }
}
