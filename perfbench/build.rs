//! Records the git revision and rustc version for the run manifest.

use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        output(&rustc, &["--version"])
    );
    // Outside a git checkout (a source export) the revision is unknown.
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        output("git", &["rev-parse", "HEAD"])
    );
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=../.git/HEAD");
    println!("cargo:rerun-if-changed=../.git/refs");
}
