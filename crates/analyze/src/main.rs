#![forbid(unsafe_code)]
//! CLI entry point for `hmd-analyze`.
//!
//! ```text
//! cargo run -p hmd-analyze                    # human report, exit 1 on errors
//! cargo run -p hmd-analyze -- --format json   # machine-readable report
//! cargo run -p hmd-analyze -- --list-rules    # registry with severities
//! cargo run -p hmd-analyze -- --show-suppressed
//! cargo run -p hmd-analyze -- --root path/to/tree
//! ```
//!
//! Every run reads and analyzes every `.rs` file under the root.

use hmd_analyze::report::{count_denied, render_human, render_json, render_rule_list};
use hmd_analyze::workspace::default_root;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    json: bool,
    show_suppressed: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: default_root(),
        json: false,
        show_suppressed: false,
        list_rules: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let val = args.next().ok_or("--root needs a directory argument")?;
                opts.root = PathBuf::from(val);
            }
            "--format" => {
                let val = args.next().ok_or("--format needs `human` or `json`")?;
                match val.as_str() {
                    "human" => opts.json = false,
                    "json" => opts.json = true,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--show-suppressed" => opts.show_suppressed = true,
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => {
                return Err("usage: hmd-analyze [--root DIR] [--format human|json] \
                     [--show-suppressed] [--list-rules]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        print!("{}", render_rule_list());
        return ExitCode::SUCCESS;
    }

    let diags = match hmd_analyze::analyze_workspace(&opts.root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "hmd-analyze: cannot read workspace at {}: {e}",
                opts.root.display()
            );
            return ExitCode::from(2);
        }
    };

    if opts.json {
        print!("{}", render_json(&diags));
    } else {
        print!("{}", render_human(&diags, opts.show_suppressed));
    }

    if count_denied(&diags) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
