#!/usr/bin/env bash
# Tier-1 gate: offline release build, full test suite, and clippy with
# warnings as errors. No network access is required — the workspace has
# no external dependencies (SplitMix64 replaces `rand`; the property
# tests are hand-rolled on it).
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline

echo "== test (release) =="
cargo test --release --offline -q

if cargo clippy --version >/dev/null 2>&1; then
  echo "== clippy (-D warnings) =="
  cargo clippy -q --release --offline --workspace --all-targets -- -D warnings
else
  echo "== clippy not installed; skipping =="
fi

echo "== one wallclock harness =="
# `benchmark/` is the only place that reads a clock for measurement:
# the figure/table crate and the workloads stay in modelled cycles, so
# a timing bin cannot quietly regrow beside the harness.
timed="$(grep -rlE 'std::time|Instant' crates/bench crates/workloads/src || true)"
[ -z "$timed" ] \
  || { echo "one-harness gate: these read a clock; wallclock belongs in benchmark/:" >&2; echo "$timed" >&2; exit 1; }
! compgen -G 'BENCH_*.json' >/dev/null \
  || { echo "one-harness gate: a hand-assembled BENCH_*.json is back; timings come from benchmark/" >&2; exit 1; }

echo "== one content hash =="
# `gpusim::content` is the only hasher. The FNV prime may appear there,
# in `protocol::digest` (wire format, a fold with no hasher type behind
# it) and in one test-local golden over printed VIR — nowhere else; no
# `format!("{x:?}")` feeds the launch key; no table takes a bare 64-bit
# hash for identity.
fnv_files="$(grep -rl '01b3' crates --include='*.rs' | sort | tr '\n' ' ')"
[ "$fnv_files" = "crates/gpusim/src/content.rs crates/server/src/protocol.rs crates/workloads/tests/dim_offset_golden.rs " ] \
  || { echo "one-hash gate: FNV constants live in: $fnv_files" >&2; exit 1; }
! grep -nE 'format!\("\{[a-z_]*:\?\}"\)' crates/gpusim/src/memo.rs \
  || { echo "one-hash gate: memo.rs hashes a Debug string again" >&2; exit 1; }
! grep -rnE 'HashMap<u64, *(CachedLaunch|Vec<Waiter>)' crates \
  || { echo "one-hash gate: a table is keyed on a bare u64 hash again" >&2; exit 1; }

echo "== each byte keyed once =="
# The launch key reads a buffer through the content key `DeviceMemory`
# carries for it, never through its bytes: a `buffer_bytes` fed to the
# hasher inside `launch_key` is the per-launch hash of all of device
# memory coming back. The reply digests' lane loop is FNV too and lives
# in `protocol.rs` — the file list of the one-hash gate above stays as
# it is.
! sed -n '/^pub fn launch_key(/,/^}/p' crates/gpusim/src/memo.rs | grep -nE 'h\.(bytes|value)\(.*buffer_bytes' \
  || { echo "keyed-once gate: launch_key hashes buffer bytes again" >&2; exit 1; }
sed -n '/^pub fn launch_key(/,/^}/p' crates/gpusim/src/memo.rs | grep -q 'buffer_key' \
  || { echo "keyed-once gate: launch_key no longer goes through DeviceMemory::buffer_key" >&2; exit 1; }

echo "== lockstep never logs per lane =="
# The superblock engine's memory superinstructions account their
# transactions per warp, at the instruction; only lane-major execution
# (profile warps, peels, the decoded engine) feeds `WarpMerge::log`. A
# per-lane log call creeping back into the lockstep path shows up here.
[ "$(grep -c 'warp\.log' crates/gpusim/src/superblock.rs || true)" = "0" ] \
  || { echo "lockstep gate: superblock.rs logs memory events per lane again" >&2; exit 1; }

echo "== one build site =="
# A function body is lowered and register-allocated in one place,
# `Candidate::build`; saturation, every feedback round and the compiled
# program all hold what it returned. A second call site in the driver is
# a body being rebuilt (or built some other way) again.
driver_src="$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/driver.rs)"
for call in 'lower_function(' 'allocate_registers_with('; do
  sites="$(printf '%s\n' "$driver_src" | grep -cF "$call" || true)"
  [ "$sites" = "1" ] \
    || { echo "one-build-site gate: driver.rs calls $call at $sites places outside its tests" >&2; exit 1; }
done

echo "== no allocation per instruction =="
# `Inst::uses()` is asked once per instruction per sweep by DCE and
# liveness, and once per *executed* instruction by the reference engine:
# it hands back an inline value. A `Vec` return is that heap allocation
# coming back.
! grep -nF 'fn uses(&self) -> Vec' crates/gpusim/src/vir.rs \
  || { echo "inline-uses gate: Inst::uses() returns a Vec again" >&2; exit 1; }

echo "== exec knobs are the operator's =="
# How a launch executes — engine, worker count — is set by the process
# (`SAFARA_ENGINE`, `SAFARA_SIM_THREADS`) or an `ExecOptions` scope,
# never by a request, and the superblock hot-block threshold is a
# constant. A threshold knob, a wire resolver or a typed error for a
# request-chosen engine coming back shows up here. `sb_threshold` may
# appear only as quoted wire text: the tests that send it and expect it
# ignored.
! grep -rnE '(^|[^"\\])sb_threshold|superblock_threshold|SAFARA_SB_THRESHOLD' crates scripts --exclude=tier1.sh \
  || { echo "exec-knob gate: the hot-block threshold is settable again" >&2; exit 1; }
! grep -rnE 'resolve_exec_options|invalid_engine' crates/server/src \
  || { echo "exec-knob gate: a request steers execution again" >&2; exit 1; }

echo "== safara-serve stdin smoke =="
# Three requests through the real service binary: parse, queue, worker
# pool, pipeline, response — all via the wire protocol. Request 3 sets
# "trace":true and must come back with the pipeline span tree.
smoke_out="$(printf '%s\n' \
  '{"id":1,"op":"ping"}' \
  '{"id":2,"op":"run","source":"void dbl(int n, float x[n]) { #pragma acc kernels copy(x)\n { #pragma acc loop gang vector\n for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; } } }","entry":"dbl","profile":"safara_only","scalars":{"n":8},"arrays":{"x":{"elem":"f32","data":[1,2,3,4,5,6,7,8]}},"return_arrays":true}' \
  '{"id":3,"op":"run","trace":true,"source":"void dbl(int n, float x[n]) { #pragma acc kernels copy(x)\n { #pragma acc loop gang vector\n for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; } } }","entry":"dbl","profile":"safara_only","scalars":{"n":8},"arrays":{"x":{"elem":"f32","data":[1,2,3,4,5,6,7,8]}}}' \
  | ./target/release/safara-serve --stdin --workers 2)"
echo "$smoke_out"
echo "$smoke_out" | grep -q '"id":1,"status":"ok"'
echo "$smoke_out" | grep -q '"id":2,"status":"ok"'
# 2.0f * 8.0f = 16.0f -> bit pattern 0x41800000 = 1098907648
echo "$smoke_out" | grep -q '1098907648'
# The traced response carries a well-formed span tree: a "trace" array
# with every pipeline phase (`codegen` and `regalloc` nested under
# `opt`, once per build) and duration fields.
traced_line="$(echo "$smoke_out" | grep '"id":3')"
echo "$traced_line" | grep -q '"status":"ok"'
echo "$traced_line" | grep -q '"trace":\['
for phase in parse sema analysis opt codegen regalloc sim; do
  echo "$traced_line" | grep -q "\"name\":\"$phase\"" \
    || { echo "traced smoke: phase $phase missing from span tree" >&2; exit 1; }
done
echo "$traced_line" | grep -q '"dur_us":'
echo "$traced_line" | grep -q '"start_us":'

echo "== superblock engine smoke =="
# The same iterative kernel through the decoded engine, through the
# superblock engine (both forced via SAFARA_ENGINE) and through whatever
# the process default is (SAFARA_ENGINE unset): the response lines must
# be byte-identical — outputs, stats-derived cycles, everything.
sb_req='{"id":4,"op":"run","source":"void grind(int n, float x[n]) { #pragma acc kernels copy(x)\n { #pragma acc loop gang vector\n for (int i = 0; i < n; i++) { #pragma acc loop seq\n for (int k = 0; k < 500; k++) { x[i] = x[i] * 1.0001f + 0.5f; } } } }","entry":"grind","profile":"safara_only","scalars":{"n":64},"arrays":{"x":{"elem":"f32","data":[1,2,3,4,5,6,7,8,1,2,3,4,5,6,7,8,1,2,3,4,5,6,7,8,1,2,3,4,5,6,7,8,1,2,3,4,5,6,7,8,1,2,3,4,5,6,7,8,1,2,3,4,5,6,7,8,1,2,3,4,5,6,7,8]}},"return_arrays":true}'
dec_smoke="$(printf '%s\n' "$sb_req" | SAFARA_ENGINE=decoded ./target/release/safara-serve --stdin --workers 1)"
sb_smoke="$(printf '%s\n' "$sb_req" | SAFARA_ENGINE=superblock ./target/release/safara-serve --stdin --workers 1)"
echo "$sb_smoke" | grep -q '"id":4,"status":"ok"' \
  || { echo "superblock smoke: run failed: $sb_smoke" >&2; exit 1; }
[ "$dec_smoke" = "$sb_smoke" ] \
  || { echo "superblock smoke: decoded and superblock responses differ" >&2; exit 1; }
default_smoke="$(printf '%s\n' "$sb_req" | env -u SAFARA_ENGINE ./target/release/safara-serve --stdin --workers 1)"
[ "$default_smoke" = "$sb_smoke" ] \
  || { echo "superblock smoke: the default engine's response differs from the forced ones" >&2; exit 1; }

echo "== block-parallel smoke (sim_threads=2 vs serial) =="
# The same iterative kernel once serially and once with the block-level
# worker pool (forced via SAFARA_SIM_THREADS): the response lines must
# be byte-identical — the deterministic-merge contract at the wire
# level.
serial_smoke="$(printf '%s\n' "$sb_req" | SAFARA_SIM_THREADS=1 ./target/release/safara-serve --stdin --workers 1)"
par_smoke="$(printf '%s\n' "$sb_req" | SAFARA_SIM_THREADS=2 ./target/release/safara-serve --stdin --workers 1)"
echo "$par_smoke" | grep -q '"id":4,"status":"ok"' \
  || { echo "parallel smoke: run failed: $par_smoke" >&2; exit 1; }
[ "$serial_smoke" = "$par_smoke" ] \
  || { echo "parallel smoke: serial and sim_threads=2 responses differ" >&2; exit 1; }

echo "== launch_bounds clause smoke (end-to-end) =="
# A kernel carrying a `launch_bounds(256, 4)` register-budget contract
# through the wire: the run must succeed with correct outputs, and an
# out-of-range contract (2048 threads on a 1024-thread device) must
# come back as a typed, non-retryable `launch_bounds` error.
lb_out="$(printf '%s\n' \
  '{"id":5,"v":2,"op":"run","source":"void dbl(int n, float x[n]) { #pragma acc kernels launch_bounds(256, 4) copy(x)\n { #pragma acc loop gang vector\n for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; } } }","entry":"dbl","profile":"safara_only","scalars":{"n":8},"arrays":{"x":{"elem":"f32","data":[1,2,3,4,5,6,7,8]}},"return_arrays":true}' \
  '{"id":6,"v":2,"op":"run","source":"void dbl(int n, float x[n]) { #pragma acc kernels launch_bounds(2048) copy(x)\n { #pragma acc loop gang vector\n for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; } } }","entry":"dbl","profile":"safara_only","scalars":{"n":8},"arrays":{"x":{"elem":"f32","data":[1,2,3,4,5,6,7,8]}}}' \
  | ./target/release/safara-serve --stdin --workers 1)"
echo "$lb_out"
echo "$lb_out" | grep -q '"id":5,"status":"ok"' \
  || { echo "launch_bounds smoke: bounded run failed" >&2; exit 1; }
echo "$lb_out" | grep '"id":5' | grep -q '1098907648' \
  || { echo "launch_bounds smoke: wrong output under launch_bounds" >&2; exit 1; }
lb_err="$(echo "$lb_out" | grep '"id":6')"
echo "$lb_err" | grep -q '"status":"error"' \
  || { echo "launch_bounds smoke: out-of-range bounds did not error" >&2; exit 1; }
echo "$lb_err" | grep -q '"code":"launch_bounds"' \
  || { echo "launch_bounds smoke: expected typed launch_bounds code: $lb_err" >&2; exit 1; }
echo "$lb_err" | grep -q '"retryable":false' \
  || { echo "launch_bounds smoke: launch_bounds error must not be retryable" >&2; exit 1; }

echo "== equality-saturation smoke (profile safara_saturated) =="
# The same kernel through the wire under the default (greedy) profile
# and under `safara_saturated` (the e-graph phase ahead of SAFARA): both
# must succeed with bitwise-identical array payloads — saturation only
# rewrites in the integer ring, so outputs can never move.
sat_req() {
  printf '{"id":%d,"op":"run","source":"void quad(int n, float x[n]) { #pragma acc kernels copy(x)\\n { #pragma acc loop gang vector\\n for (int i = 0; i < n; i++) { x[i * 4 / 4] = x[(i + i) / 2] * 2.0f; } } }","entry":"quad","profile":"%s","scalars":{"n":8},"arrays":{"x":{"elem":"f32","data":[1,2,3,4,5,6,7,8]}},"return_arrays":true}' \
    "$1" "$2"
}
sat_out="$(printf '%s\n' "$(sat_req 7 safara_only)" "$(sat_req 8 safara_saturated)" \
  | ./target/release/safara-serve --stdin --workers 1)"
echo "$sat_out"
echo "$sat_out" | grep -q '"id":7,"status":"ok"' \
  || { echo "saturate smoke: greedy run failed" >&2; exit 1; }
echo "$sat_out" | grep -q '"id":8,"status":"ok"' \
  || { echo "saturate smoke: saturated profile failed to resolve or run" >&2; exit 1; }
sat_uniq="$(echo "$sat_out" | grep -E '"id":[78]' | sed 's/"id":[78]//;s/"profile":"[^"]*"//' | sort -u | wc -l)"
[ "$sat_uniq" = "1" ] \
  || { echo "saturate smoke: greedy and saturated payloads differ" >&2; exit 1; }

echo "== default-off byte-diff gate (results/*.txt untouched) =="
# Every figure/table binary regenerates its checked-in file under the
# process defaults (engine, saturation off, ...); each must come out
# byte-identical to HEAD, so a default that moves a modelled number
# shows up here as a diff.
for bin in crates/bench/src/bin/*.rs; do
  name="$(basename "$bin" .rs)"
  env -u SAFARA_ENGINE ./target/release/"$name" > "results/$name.txt"
done
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git diff --exit-code -- results/ \
    || { echo "byte-diff gate: results/ artifacts changed" >&2; exit 1; }
else
  echo "(not a git checkout; skipping)"
fi

echo "== chaos smoke (seeded fault injection + retry) =="
# Two identical v2 run requests through a server whose first simulation
# is forced to fail: request 1 must come back as a structured,
# retryable `sim` error, and the identical retry (request 2) must
# succeed — the wire-level proof of the retryable-error contract.
# `--no-coalesce` models the real client, which retries only *after*
# seeing the error: the stdin transport submits both lines up front, so
# with single-flight on the "retry" would race into parking as a waiter
# and (by design) inherit the leader's verdict.
chaos_out="$(printf '%s\n' \
  '{"id":1,"v":2,"op":"run","source":"void dbl(int n, float x[n]) { #pragma acc kernels copy(x)\n { #pragma acc loop gang vector\n for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; } } }","entry":"dbl","profile":"safara_only","scalars":{"n":8},"arrays":{"x":{"elem":"f32","data":[1,2,3,4,5,6,7,8]}}}' \
  '{"id":2,"v":2,"op":"run","source":"void dbl(int n, float x[n]) { #pragma acc kernels copy(x)\n { #pragma acc loop gang vector\n for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; } } }","entry":"dbl","profile":"safara_only","scalars":{"n":8},"arrays":{"x":{"elem":"f32","data":[1,2,3,4,5,6,7,8]}}}' \
  | ./target/release/safara-serve --stdin --workers 1 --no-coalesce --fault sim:fail:1 --fault-seed 1)"
echo "$chaos_out"
faulted_line="$(echo "$chaos_out" | grep '"id":1')"
echo "$faulted_line" | grep -q '"status":"error"'
echo "$faulted_line" | grep -q '"code":"sim"'
echo "$faulted_line" | grep -q '"retryable":true'
echo "$chaos_out" | grep -q '"id":2,.*"status":"ok"'

echo "== coalescing stampede smoke (stdin) =="
# One worker held by a 200 ms sleep, then four identical runs submitted
# while it sleeps: one leader plus three coalesced waiters. The stdin
# transport submits every line before draining, and the trailing stats
# op is answered inline after all submissions — so its `coalesced`
# counter already reflects the parked duplicates.
dbl_src='void dbl(int n, float x[n]) { #pragma acc kernels copy(x)\n { #pragma acc loop gang vector\n for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; } } }'
# stamp_req ID [DATA] — a dbl run request; DATA defaults to the shared
# ramp so identical-content duplicates coalesce.
stamp_req() {
  printf '{"id":%d,"op":"run","source":"%s","entry":"dbl","profile":"safara_only","scalars":{"n":8},"arrays":{"x":{"elem":"f32","data":[%s]}},"return_arrays":true}' \
    "$1" "$dbl_src" "${2:-1,2,3,4,5,6,7,8}"
}
stamp_out="$(printf '%s\n' \
  '{"id":10,"op":"sleep","ms":200}' \
  "$(stamp_req 11)" "$(stamp_req 12)" "$(stamp_req 13)" "$(stamp_req 14)" \
  '{"id":15,"op":"stats"}' \
  | ./target/release/safara-serve --stdin --workers 1)"
for id in 11 12 13 14; do
  echo "$stamp_out" | grep -q "\"id\":$id,\"status\":\"ok\"" \
    || { echo "stampede smoke: run $id failed" >&2; exit 1; }
done
# All four responses must be byte-identical once the per-waiter id is
# stripped — the fan-out serves one leader result to everyone.
bodies="$(echo "$stamp_out" | grep -cE '"id":1[1-4]')"
uniq_bodies="$(echo "$stamp_out" | grep -E '"id":1[1-4]' | sed 's/"id":1[1-4]//' | sort -u | wc -l)"
[ "$bodies" = "4" ] && [ "$uniq_bodies" = "1" ] \
  || { echo "stampede smoke: fan-out responses differ ($bodies bodies, $uniq_bodies unique)" >&2; exit 1; }
echo "$stamp_out" | grep '"id":15' | grep -q '"coalesced":3' \
  || { echo "stampede smoke: expected coalesced:3 in stats: $stamp_out" >&2; exit 1; }

echo "== sharded scale-out smoke (2 shards, byte diff) =="
# Three distinct runs through a real 2-shard deployment via safara-send
# (which routes by content key), byte-diffed against the same requests
# through a single-process server. --shutdown tears the shards down.
shard_log="$(mktemp)"
./target/release/safara-serve --shards 2 --workers 1 > "$shard_log" &
shard_pid=$!
for _ in $(seq 1 100); do grep -q '^shards ' "$shard_log" 2>/dev/null && break; sleep 0.1; done
shard_addrs="$(grep '^shards ' "$shard_log" | cut -d' ' -f2-)"
[ -n "$shard_addrs" ] \
  || { echo "shard smoke: parent never printed shard addresses" >&2; kill "$shard_pid" 2>/dev/null; exit 1; }
# Distinct payloads → distinct content keys, so the consistent hash can
# spread them across both shards.
shard_reqs="$(printf '%s\n' \
  "$(stamp_req 21 '1,2,3,4,5,6,7,8')" \
  "$(stamp_req 22 '9,8,7,6,5,4,3,2')" \
  "$(stamp_req 23 '2,4,6,8,10,12,14,16')")"
sharded_out="$(printf '%s\n' "$shard_reqs" | ./target/release/safara-send --shards "$shard_addrs" --shutdown)"
single_out="$(printf '%s\n' "$shard_reqs" | ./target/release/safara-serve --stdin --workers 1)"
[ "$sharded_out" = "$single_out" ] \
  || { echo "shard smoke: sharded and single-process responses differ" >&2; exit 1; }
wait "$shard_pid" || { echo "shard smoke: shard parent exited nonzero" >&2; exit 1; }
rm -f "$shard_log"

echo "== tcp latency smoke =="
# Twenty pings, one at a time, through one safara-send connection to a
# real safara-serve on an ephemeral port. A reply that leaves as two
# segments on a Nagle socket waits for the client's delayed ACK (40 ms)
# every time: >= 800 ms for the twenty. One segment per reply is a few
# milliseconds, process start included.
lat_log="$(mktemp)"
./target/release/safara-serve --listen 127.0.0.1:0 --workers 1 > "$lat_log" &
lat_pid=$!
for _ in $(seq 1 100); do grep -q '^listening on ' "$lat_log" 2>/dev/null && break; sleep 0.1; done
lat_addr="$(sed -n 's/^listening on //p' "$lat_log")"
[ -n "$lat_addr" ] \
  || { echo "latency smoke: server never printed its address" >&2; kill "$lat_pid" 2>/dev/null; exit 1; }
lat_reqs="$(for i in $(seq 1 20); do printf '{"id":%d,"op":"ping"}\n' "$i"; done)"
lat_start="$(date +%s%N)"
lat_out="$(printf '%s\n' "$lat_reqs" | ./target/release/safara-send --shards "$lat_addr" --shutdown)"
lat_ms=$(( ($(date +%s%N) - lat_start) / 1000000 ))
wait "$lat_pid" || { echo "latency smoke: server exited nonzero" >&2; exit 1; }
rm -f "$lat_log"
[ "$(echo "$lat_out" | grep -c '"status":"ok"')" = "20" ] \
  || { echo "latency smoke: expected 20 ok replies: $lat_out" >&2; exit 1; }
echo "20 pings in ${lat_ms} ms"
[ "$lat_ms" -le 400 ] \
  || { echo "latency smoke: 20 sequential pings took ${lat_ms} ms (> 400): replies are stalling" >&2; exit 1; }

echo "== benchmark smoke =="
# The benchmark package builds against these crates from its own
# manifest; a change that breaks one of its call sites must fail here,
# not in the merge pipeline.
benchmark/smoke.sh

echo "tier-1 OK"
