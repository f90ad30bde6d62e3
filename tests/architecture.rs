//! Architectural invariants that live in the shape of the sources: each
//! test reads the tree and fails when a structure an earlier
//! simplification removed grows back. (`Inst::uses()` returning inline
//! is pinned by type in `vir.rs`'s tests.)

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The files under `dirs` (paths from the repository root, sorted)
/// whose text satisfies `hit`.
fn files_where(dirs: &[&str], hit: impl Fn(&str) -> bool) -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() { walk(&path, out) } else { out.push(path) }
        }
    }
    let mut paths = Vec::new();
    dirs.iter().for_each(|d| walk(&root().join(d), &mut paths));
    let mut hits: Vec<String> = paths
        .iter()
        .filter(|p| hit(&String::from_utf8_lossy(&std::fs::read(p).unwrap())))
        .map(|p| p.strip_prefix(root()).unwrap().to_string_lossy().into_owned())
        .collect();
    hits.sort();
    hits
}

#[test]
fn one_wallclock_harness() {
    // Only `benchmark/` reads a clock; figures and workloads stay in modelled cycles.
    let timed = files_where(&["crates/bench", "crates/workloads/src"], |s| {
        s.contains("std::time") || s.contains("Instant")
    });
    assert!(timed.is_empty(), "these read a clock; wallclock belongs in benchmark/: {timed:?}");
    let hand_made: Vec<String> = std::fs::read_dir(root())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    assert!(hand_made.is_empty(), "hand-assembled {hand_made:?}; timings come from benchmark/");
}

#[test]
fn one_content_hash() {
    // The FNV prime: the hasher, the wire digest, one test-local golden.
    let mut fnv = files_where(&["crates"], |s| s.contains("01b3"));
    fnv.retain(|f| f.ends_with(".rs"));
    let expected = [
        "crates/gpusim/src/content.rs",
        "crates/server/src/protocol.rs",
        "crates/workloads/tests/dim_offset_golden.rs",
    ];
    assert_eq!(fnv, expected, "FNV constants outside the one hasher");
    let memo = read("crates/gpusim/src/memo.rs");
    let debug_string = memo.match_indices("format!(\"{").any(|(at, m)| {
        let name_end = memo[at + m.len()..].trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '_');
        name_end.starts_with(":?}\")")
    });
    assert!(!debug_string, "memo.rs hashes a Debug string again");
    let bare = files_where(&["crates"], |s| {
        s.match_indices("HashMap<u64,").any(|(at, m)| {
            let value = s[at + m.len()..].trim_start_matches(' ');
            value.starts_with("CachedLaunch") || value.starts_with("Vec<Waiter>")
        })
    });
    assert!(bare.is_empty(), "a table is keyed on a bare u64 hash again: {bare:?}");
}

#[test]
fn each_byte_keyed_once() {
    // `launch_key` reads each buffer through the key `DeviceMemory` carries.
    let memo = read("crates/gpusim/src/memo.rs");
    let start = memo.find("\npub fn launch_key(").expect("memo.rs defines launch_key");
    let body = &memo[start..start + memo[start..].find("\n}").expect("launch_key ends")];
    let hashes_bytes = body.lines().any(|l| {
        ["h.bytes(", "h.value("].iter().any(|c| l.find(c).is_some_and(|at| l[at..].contains("buffer_bytes")))
    });
    assert!(!hashes_bytes, "launch_key hashes buffer bytes again:\n{body}");
    assert!(body.contains("buffer_key"), "launch_key no longer goes through DeviceMemory::buffer_key");
}

#[test]
fn lockstep_never_logs_per_lane() {
    // Memory superinstructions account per warp; only lane-major execution feeds `WarpMerge::log`.
    let superblock = read("crates/gpusim/src/superblock.rs");
    assert!(!superblock.contains("warp.log"), "superblock.rs logs memory events per lane again");
}

#[test]
fn lockstep_accesses_memory_per_warp() {
    // Lockstep loads and stores hand all lanes to `read_warp` / `write_warp`; the one
    // single-address read left is a hoisted load's, whose one address stands for the warp.
    let superblock = read("crates/gpusim/src/superblock.rs");
    assert!(!superblock.contains("mem.write("), "a lockstep store writes lane by lane again");
    assert_eq!(superblock.matches("mem.read(").count(), 1, "a lockstep load reads lane by lane again");
    assert!(superblock.contains("mem.read_warp(") && superblock.contains("mem.write_warp("));
}

/// The text of the item (a `fn` or a `macro_rules!`) whose first line
/// contains `head`: from there to the closing brace at the same indent.
fn item<'a>(src: &'a str, head: &str) -> &'a str {
    let at = src.find(head).unwrap_or_else(|| panic!("no `{head}`"));
    let line_start = src[..at].rfind('\n').map_or(0, |i| i + 1);
    let indent = &src[line_start..at];
    let close = format!("\n{}}}", " ".repeat(indent.len() - indent.trim_start().len()));
    let end = src[at..].find(&close).unwrap_or_else(|| panic!("`{head}` does not end"));
    &src[at..at + end + close.len()]
}

#[test]
fn lockstep_reads_operands_in_place() {
    // The ALU, compare, convert and math lane loops borrow their operand columns where
    // they are. Only a load that overwrites its address register and an atomic copy one.
    let superblock = read("crates/gpusim/src/superblock.rs");
    let src = superblock.split("\n#[cfg(test)]").next().unwrap();
    let copies = ["fetch!(", "copy_from_slice", "= v[", "; WARP_SIZE]"];
    for head in [
        "fn lanes1(",
        "fn lanes2(",
        "macro_rules! v2 ",
        "macro_rules! vun ",
        "macro_rules! vb ",
        "macro_rules! vcmp ",
        "macro_rules! vmath ",
    ] {
        let body = item(src, head);
        let found: Vec<_> = copies.iter().filter(|c| body.contains(*c)).collect();
        assert!(found.is_empty(), "`{head}` copies an operand column again ({found:?}):\n{body}");
    }
    let allowed = item(src, "macro_rules! vld ").matches("fetch!(").count()
        + item(src, "macro_rules! vatom ").matches("fetch!(").count();
    let fetched = src.matches("fetch!(").count();
    assert_eq!(fetched, allowed, "a column is fetched outside loads and atomics");
}

#[test]
fn one_build_site() {
    // `Candidate::build` is the only place a function body is lowered and allocated.
    let driver = read("crates/core/src/driver.rs");
    let non_test = driver.split("\n#[cfg(test)]").next().unwrap();
    for call in ["lower_function(", "allocate_registers_with("] {
        let sites = non_test.lines().filter(|l| l.contains(call)).count();
        assert_eq!(sites, 1, "driver.rs calls {call} at {sites} places outside its tests");
    }
}

#[test]
fn exec_knobs_are_the_operators() {
    // No request and no threshold steers a launch. `sb_threshold` may
    // appear only as quoted wire text, in tests that expect it ignored.
    let settable = files_where(&["crates", "scripts"], |s| {
        s.contains("superblock_threshold")
            || s.contains("SAFARA_SB_THRESHOLD")
            || s.match_indices("sb_threshold").any(|(at, _)| !s[..at].ends_with(['"', '\\']))
    });
    assert!(settable.is_empty(), "the hot-block threshold is settable again: {settable:?}");
    let steered = files_where(&["crates/server/src"], |s| {
        s.contains("resolve_exec_options") || s.contains("invalid_engine")
    });
    assert!(steered.is_empty(), "a request steers execution again: {steered:?}");
}

#[test]
fn one_level_of_parallelism() {
    // A launch runs its blocks on the calling thread; parallelism lives across requests and
    // cells. The in-launch pool held the tree's only `unsafe`, and its knob is gone with it.
    let with_unsafe = files_where(&["crates"], |s| s.contains("unsafe"));
    assert!(with_unsafe.is_empty(), "`unsafe` under crates/: {with_unsafe:?}");
    let threaded = files_where(&["crates/gpusim/src"], |s| {
        let non_test = s.split("\n#[cfg(test)]").next().unwrap().replace("thread_local!", "");
        non_test.contains("std::thread") || non_test.contains("thread::")
    });
    assert!(threaded.is_empty(), "gpusim spawns host threads again: {threaded:?}");
    let knob = files_where(&["crates", "scripts"], |s| {
        s.contains(".sim_threads(")
            || s.contains("\"SAFARA_SIM_THREADS\"")
            || s.contains("$SAFARA_SIM_THREADS")
            || s.contains("${SAFARA_SIM_THREADS")
    });
    assert!(knob.is_empty(), "a block-parallel worker count is settable again: {knob:?}");
}
