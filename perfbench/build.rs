//! Records host facts the benchmark prints beside its results: the
//! compiler version and, when the tree is a git checkout, its commit.

use std::path::Path;
use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version =
        stdout_of(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    // Only ask git when the repository root itself is a checkout, so an
    // exported tree never reports the commit of some enclosing repository.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git_dir = root.join(".git");
    let commit = if git_dir.exists() {
        println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
        println!("cargo:rerun-if-changed={}", git_dir.join("refs").display());
        stdout_of(Command::new("git").arg("-C").arg(&root).args([
            "rev-parse",
            "--short=12",
            "HEAD",
        ]))
    } else {
        None
    };
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", commit.unwrap_or_else(|| "unknown".into()));
    println!("cargo:rerun-if-changed=build.rs");
}
