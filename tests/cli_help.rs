//! The `pipemap` binary's help surface: `--help`, `-h` and `help` print
//! the usage to stdout and exit 0, and the usage line names every
//! subcommand the binary dispatches.

use std::process::{Command, Output};

fn pipemap(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pipemap"))
        .args(args)
        .output()
        .expect("pipemap binary runs")
}

/// The subcommands listed in the `usage: pipemap <a|b|...>` line.
fn usage_subcommands(stdout: &str) -> Vec<String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("usage: pipemap <"))
        .unwrap_or_else(|| panic!("no usage line in:\n{stdout}"));
    let start = line.find('<').expect("opening bracket") + 1;
    let end = line.find('>').expect("closing bracket");
    line[start..end].split('|').map(str::to_string).collect()
}

#[test]
fn help_flags_and_subcommand_print_usage_and_exit_zero() {
    for args in [&["--help"][..], &["-h"], &["help"]] {
        let out = pipemap(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{args:?} exited {:?}; stderr:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.starts_with("usage: pipemap"), "{args:?}:\n{stdout}");
    }
}

#[test]
fn usage_line_lists_every_dispatched_subcommand() {
    let out = pipemap(&["help"]);
    let subs = usage_subcommands(&String::from_utf8_lossy(&out.stdout));
    for expected in [
        "info", "dot", "schedule", "verilog", "lint", "analyze", "verify", "bench", "run", "sweep",
        "report", "help",
    ] {
        assert!(
            subs.iter().any(|s| s == expected),
            "usage omits `{expected}`: {subs:?}"
        );
    }
    // And every listed name is one the binary accepts: without its
    // argument each fails on the missing argument, never as unknown.
    for sub in subs.iter().filter(|s| *s != "help") {
        let out = pipemap(&[sub]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("unknown subcommand"),
            "`{sub}` is listed but not dispatched:\n{stderr}"
        );
    }
}

#[test]
fn missing_subcommand_still_fails_with_usage_on_stderr() {
    let out = pipemap(&[]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: pipemap"));
}
