//! Every figure and table binary regenerates its checked-in
//! `results/<name>.txt` byte for byte under the process defaults, so a
//! change that moves a modelled number fails here. A results file
//! without a binary, or a binary without one, fails too. The binaries
//! run concurrently: together they are the slowest suite of a debug build.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Stdio};

/// The stems of the files in `dir` with extension `ext`.
fn stems(dir: &Path, ext: &str) -> BTreeSet<String> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    entries
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn every_results_file_regenerates_byte_identical() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let results = manifest.join("../../results");
    let bins = stems(&manifest.join("src/bin"), "rs");
    assert_eq!(stems(&results, "txt"), bins, "one results/*.txt per bin");
    // Cargo builds every bin of the package into one directory.
    let dir = Path::new(env!("CARGO_BIN_EXE_fig7_spec_safara_only")).parent().unwrap();
    let children: Vec<_> = bins
        .iter()
        .map(|name| {
            let mut cmd = Command::new(dir.join(name));
            cmd.env_remove("SAFARA_ENGINE").env_remove("SAFARA_SIM_THREADS");
            let child = cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn();
            (name, child.unwrap_or_else(|e| panic!("spawn {name}: {e}")))
        })
        .collect();
    let stale: Vec<&String> = children
        .into_iter()
        .filter_map(|(name, child)| {
            let out = child.wait_with_output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{name} {}: {stderr}", out.status);
            (out.stdout != std::fs::read(results.join(format!("{name}.txt"))).unwrap()).then_some(name)
        })
        .collect();
    assert!(stale.is_empty(), "these bins no longer print their results/*.txt: {stale:?}");
}
