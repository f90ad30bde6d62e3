//! The request/response wire protocol.
//!
//! One request or response per line, each a JSON object. Requests:
//!
//! ```json
//! {"id":1,"op":"ping"}
//! {"id":2,"op":"stats"}
//! {"id":3,"op":"compile","source":"…","profile":"safara_only"}
//! {"id":4,"op":"run","source":"…","entry":"axpy","profile":"base",
//!  "scalars":{"n":8,"alpha":2.0},
//!  "arrays":{"x":{"elem":"f32","data":[1,2,3]},
//!            "y":{"elem":"f32","bits":[1065353216]}},
//!  "return_arrays":true,"timeout_ms":5000}
//! {"id":5,"op":"shutdown"}
//! ```
//!
//! Array payloads carry either `data` (plain JSON numbers — convenient
//! by hand) or `bits` (raw IEEE-754 bit patterns — lossless; `f64` bits
//! are hex strings like `"0x3fb999999999999a"` since they overflow JSON
//! integers). `compile` and `run` requests may add `"trace": true` to
//! receive a `trace` span tree (see [`spans_to_json`]) covering every
//! pipeline phase. Responses echo `id` and carry `"status"`: `ok`, `error`,
//! `overloaded` (admission control rejected the request), `timeout`
//! (the request expired waiting in the queue, or its pipeline finished
//! past the deadline — the stale result is discarded), or
//! `shutting_down`. Run responses always include per-array content
//! digests; full array contents (bits encoding) are returned when the
//! request set `"return_arrays": true`.
//!
//! Members an op does not read are ignored. How a run executes — the
//! engine, the worker count — belongs to the server process
//! (`gpusim::ExecOptions`: scope > env > default), never to a request:
//! a line that carries `"engine"`, `"sim_threads"` or `"sb_threshold"`
//! is answered byte for byte as the same line without them.

//!
//! ## Protocol versions
//!
//! Requests may carry `"v": 2` to opt into protocol v2. The only
//! difference is the failure shape: a v1 failure is a bare status (plus
//! a `message` string when `status` is `error`), while every v2 failure
//! carries a structured [`WireError`] object —
//!
//! ```json
//! {"id":4,"v":2,"status":"error",
//!  "error":{"code":"sim","message":"sim: injected simulator fault",
//!           "phase":"sim","retryable":true}}
//! ```
//!
//! `code` is stable and machine-matchable (see [`WireError`]);
//! `retryable` tells a client whether resending the identical request
//! can succeed. Requests without `"v"` (or with `"v": 1`) get the
//! legacy shapes unchanged.

use crate::json::{obj, write_int, write_key, Json, JsonError, Plain, Reader};
use safara_core::gpusim::content::{ContentHasher, ContentKey};
use safara_core::ir::{Ident, ScalarTy};
use safara_core::obs::{MetaValue, Span};
use safara_core::runtime::HostArray;
use safara_core::{Args, CompileError, CompilerConfig, RunOutcome};
use std::collections::BTreeMap;

/// Default per-request timeout when the request does not set one.
pub const DEFAULT_TIMEOUT_MS: u64 = 30_000;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed on the response (responses may arrive
    /// out of submission order on a pipelined connection).
    pub id: Option<i64>,
    /// Per-request deadline override (milliseconds from admission).
    pub timeout_ms: Option<u64>,
    /// Opt-in pipeline tracing (`"trace": true`): the response carries a
    /// `trace` span tree covering every pipeline phase. Traced compiles
    /// bypass the compiled-program store so the compile phases are
    /// always measured, not skipped.
    pub trace: bool,
    /// Protocol version (`"v"` field; 1 when absent). Version 2 renders
    /// failures as structured [`WireError`] objects.
    pub v: u8,
    /// The operation.
    pub op: Op,
}

/// Request operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Liveness check.
    Ping,
    /// Server counters + cache statistics.
    Stats,
    /// Diagnostic: hold a worker for `ms` milliseconds (testing
    /// admission control and timeouts).
    Sleep {
        /// How long to hold the worker (clamped server-side).
        ms: u64,
    },
    /// Compile only; reports register counts per kernel.
    Compile(CompileRequest),
    /// The full compile-and-simulate pipeline.
    Run(RunRequest),
    /// Ask the server to drain and exit.
    Shutdown,
}

/// `op: "compile"` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// MiniACC source.
    pub source: String,
    /// Profile key (see [`resolve_profile`]).
    pub profile: String,
    /// Restrict the report to one function (default: all).
    pub entry: Option<String>,
}

/// `op: "run"` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// MiniACC source.
    pub source: String,
    /// Function to execute.
    pub entry: String,
    /// Profile key (see [`resolve_profile`]).
    pub profile: String,
    /// Marshaled scalar and array arguments.
    pub args: Args,
    /// Return full post-run array contents (bits encoding), not just
    /// digests.
    pub return_arrays: bool,
}

/// Why a request line was refused, with what routing the line still
/// yielded: the `id` to echo and the protocol version to answer in
/// (`None` and 1 when the line is not JSON at all).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BadRequest {
    /// What is wrong with the line.
    pub(crate) message: String,
    /// The line's `id`, when it has an integer one.
    pub(crate) id: Option<i64>,
    /// 2 when the line carries `"v": 2`, else 1.
    pub(crate) v: u8,
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    decode_request(line).map_err(|bad| bad.message)
}

/// [`parse_request`], keeping on failure the `id` and version the same
/// pass saw — so a transport answers a malformed line without reading
/// it a second time.
///
/// One pass: the top-level object is walked with the pull [`Reader`];
/// `arrays` payloads decode straight into [`HostArray`] bytes, every
/// other field is small and goes through [`Reader::value`].
pub(crate) fn decode_request(line: &str) -> Result<Request, BadRequest> {
    let syntax = |e: JsonError| BadRequest { message: e.to_string(), id: None, v: 1 };
    let (fields, arrays) = read_fields(line).map_err(syntax)?;
    request_from(&fields, arrays).map_err(|message| BadRequest {
        message,
        id: fields.get("id").and_then(Json::as_i64),
        v: if fields.get("v").and_then(Json::as_i64) == Some(2) { 2 } else { 1 },
    })
}

/// The `arrays` field of a request as the single pass leaves it: the
/// decoded payloads, or the first thing wrong with them.
type Arrays = Result<BTreeMap<Ident, HostArray>, String>;

/// The syntax pass. Returns the document with its top-level `arrays`
/// member (the last one, as [`Json::get`] would pick) taken out and
/// decoded. Nothing is judged here beyond JSON syntax: a payload fault
/// is carried in `Arrays` until [`request_from`] reaches the point
/// where it matters, so a syntax error later in the line still wins
/// and an op that ignores `arrays` still parses.
fn read_fields(line: &str) -> Result<(Json, Option<Arrays>), JsonError> {
    let mut r = Reader::new(line);
    if r.peek_value() != Some(b'{') {
        let document = r.value()?;
        r.end()?;
        return Ok((document, None));
    }
    let mut fields = Vec::new();
    let mut arrays = None;
    r.open_object()?;
    while let Some(key) = r.key()? {
        if key == "arrays" {
            arrays = Some(read_arrays(&mut r)?);
        } else {
            fields.push((key.into_owned(), r.value()?));
        }
    }
    r.end()?;
    Ok((Json::Obj(fields), arrays))
}

fn request_from(v: &Json, arrays: Option<Arrays>) -> Result<Request, String> {
    let id = v.get("id").and_then(Json::as_i64);
    let timeout_ms = match v.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(t) => Some(
            t.as_i64()
                .filter(|ms| *ms >= 0)
                .ok_or("`timeout_ms` must be a non-negative integer")? as u64,
        ),
    };
    let op_key = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field `op`")?;
    let op = match op_key {
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "sleep" => Op::Sleep {
            ms: v.get("ms").and_then(Json::as_i64).unwrap_or(0).max(0) as u64,
        },
        "compile" => Op::Compile(CompileRequest {
            source: required_str(v, "source")?,
            profile: required_str(v, "profile")?,
            entry: v.get("entry").and_then(Json::as_str).map(str::to_string),
        }),
        "run" => Op::Run(RunRequest {
            source: required_str(v, "source")?,
            entry: required_str(v, "entry")?,
            profile: required_str(v, "profile")?,
            args: parse_args(v, arrays)?,
            return_arrays: v.get("return_arrays").and_then(Json::as_bool).unwrap_or(false),
        }),
        "shutdown" => Op::Shutdown,
        other => return Err(format!("unknown op `{other}`")),
    };
    let trace = match v.get("trace") {
        None | Some(Json::Null) => false,
        Some(t) => t.as_bool().ok_or("`trace` must be a boolean")?,
    };
    let version = match v.get("v") {
        None | Some(Json::Null) => 1,
        Some(t) => t
            .as_i64()
            .filter(|n| (1..=2).contains(n))
            .ok_or("`v` must be 1 or 2")? as u8,
    };
    Ok(Request { id, timeout_ms, trace, v: version, op })
}

/// Best-effort `(id, v)` from a line that was never read in full (it
/// outgrew the transport's line cap), so even that refusal can echo
/// the id and speak the client's protocol version. Only the first
/// 4 KiB are looked at — every builder in this repository writes `id`
/// and `v` first — and whatever the cut leaves unreadable defaults to
/// `(None, 1)`.
pub fn request_meta(line: &[u8]) -> (Option<i64>, u8) {
    let head = String::from_utf8_lossy(&line[..line.len().min(4096)]);
    let mut r = Reader::new(&head);
    let (mut id, mut v) = (None, 1);
    // The cut usually lands mid-value: the scan ends at the first
    // error and keeps what it had.
    let _ = (|| -> Result<(), JsonError> {
        r.open_object()?;
        while let Some(key) = r.key()? {
            let value = r.value()?;
            match &*key {
                "id" => id = value.as_i64(),
                "v" => v = if value.as_i64() == Some(2) { 2 } else { 1 },
                _ => {}
            }
        }
        Ok(())
    })();
    (id, v)
}

fn required_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn parse_args(v: &Json, arrays: Option<Arrays>) -> Result<Args, String> {
    let mut args = Args::new();
    if let Some(scalars) = v.get("scalars") {
        let fields = scalars.as_obj().ok_or("`scalars` must be an object")?;
        for (name, val) in fields {
            args = match val {
                Json::Int(i) => args.i64(name, *i),
                Json::Float(f) => args.f64(name, *f),
                _ => return Err(format!("scalar `{name}` must be a number")),
            };
        }
    }
    if let Some(arrays) = arrays {
        args.arrays = arrays?;
    }
    Ok(args)
}

/// Read the value of a top-level `arrays` member: `{name: payload, …}`.
/// The outer `Result` is JSON syntax, the inner one the first payload
/// fault in document order (duplicated names included, as each used to
/// be decoded before the last one won).
fn read_arrays(r: &mut Reader<'_>) -> Result<Arrays, JsonError> {
    if r.peek_value() != Some(b'{') {
        r.value()?;
        return Ok(Err("`arrays` must be an object".into()));
    }
    let mut arrays = Ok(BTreeMap::new());
    r.open_object()?;
    while let Some(name) = r.key()? {
        let payload = read_array(r)?;
        if let Ok(map) = &mut arrays {
            match payload {
                Ok(arr) => {
                    map.insert(Ident::new(&name), arr);
                }
                Err(m) => arrays = Err(format!("array `{name}`: {m}")),
            }
        }
    }
    Ok(arrays)
}

/// The element types a payload may name.
fn wire_elem(name: &str) -> Option<ScalarTy> {
    match name {
        "f32" => Some(ScalarTy::F32),
        "f64" => Some(ScalarTy::F64),
        "i32" => Some(ScalarTy::I32),
        _ => None,
    }
}

/// A `data` or `bits` member whose value is an array.
struct Elements<'a> {
    /// A reader in front of the array, to decode it (again) from.
    at: Reader<'a>,
    /// The bytes it decoded to under the `elem` known when it was
    /// read, if one was.
    decoded: Option<(ScalarTy, Result<Vec<u8>, String>)>,
}

/// Read one array payload: `{"elem": "f32"|"f64"|"i32", "data"|"bits":
/// […]}`. Member order is not protocol and duplicate keys keep the
/// last, so an element list is decoded as it is met only when `elem`
/// is already known — the order every builder writes — and decoded
/// from its saved position once the object has closed otherwise (or
/// when a later `elem` changed the type).
fn read_array(r: &mut Reader<'_>) -> Result<Result<HostArray, String>, JsonError> {
    const NO_ELEM: &str = "missing `elem` (one of f32, f64, i32)";
    if r.peek_value() != Some(b'{') {
        r.value()?;
        return Ok(Err(NO_ELEM.into()));
    }
    let mut elem: Option<Json> = None;
    let (mut data, mut bits) = (None, None);
    r.open_object()?;
    while let Some(key) = r.key()? {
        match &*key {
            "elem" => elem = Some(r.value()?),
            "data" | "bits" => {
                let as_bits = key == "bits";
                let elements = if r.peek_value() == Some(b'[') {
                    let at = r.clone();
                    let decoded = match elem.as_ref().and_then(Json::as_str).and_then(wire_elem) {
                        Some(ty) => Some((ty, read_elements(r, ty, as_bits)?)),
                        None => {
                            r.value()?;
                            None
                        }
                    };
                    Some(Elements { at, decoded })
                } else {
                    // Not a list: as good as absent.
                    r.value()?;
                    None
                };
                *(if as_bits { &mut bits } else { &mut data }) = elements;
            }
            _ => {
                r.value()?;
            }
        }
    }
    let Some(elem) = elem.as_ref().and_then(Json::as_str) else {
        return Ok(Err(NO_ELEM.into()));
    };
    let Some(ty) = wire_elem(elem) else {
        return Ok(Err(format!("unknown element type `{elem}`")));
    };
    let (mut elements, as_bits) = match (data, bits) {
        (Some(d), None) => (d, false),
        (None, Some(b)) => (b, true),
        (None, None) => return Ok(Err("missing `data` or `bits`".into())),
        (Some(_), Some(_)) => return Ok(Err("give `data` or `bits`, not both".into())),
    };
    let bytes = match elements.decoded {
        Some((decoded_as, bytes)) if decoded_as == ty => bytes,
        _ => read_elements(&mut elements.at, ty, as_bits)?,
    };
    Ok(bytes.map(|bytes| HostArray { elem: ty, bytes: bytes.into() }))
}

/// Read an element list into the little-endian bytes of a `ty` array.
/// After the first bad element the rest is still read, for syntax only.
///
/// A `bits` list is all but entirely runs of plain elements, which
/// [`Reader::plain_run`] decodes in place; whatever a run stops at is
/// read one element at a time below — the general path, which alone
/// decides what every other spelling means or which error it is.
fn read_elements(
    r: &mut Reader<'_>,
    ty: ScalarTy,
    as_bits: bool,
) -> Result<Result<Vec<u8>, String>, JsonError> {
    let plain = match ty {
        _ if !as_bits => None,
        ScalarTy::F32 => Some(Plain::Low32),
        ScalarTy::F64 => Some(Plain::Word64),
        ScalarTy::I32 => Some(Plain::Int32),
        ScalarTy::I64 => None,
    };
    let mut bytes = Vec::new();
    let mut fault = None;
    r.open_array()?;
    loop {
        if let (Some(kind), None) = (plain, &fault) {
            r.plain_run(kind, &mut bytes);
        }
        if !r.element()? {
            break;
        }
        // Strings (`f64` bit patterns) are read in place; a number
        // comes back from `value` without touching the heap.
        let word = if r.peek_value() == Some(b'"') {
            element_word(ty, as_bits, &Json::Null, Some(&r.string()?))
        } else {
            element_word(ty, as_bits, &r.value()?, None)
        };
        match word {
            Ok(w) if fault.is_none() => {
                if ty == ScalarTy::F64 {
                    bytes.extend_from_slice(&w.to_le_bytes());
                } else {
                    bytes.extend_from_slice(&(w as u32).to_le_bytes());
                }
            }
            Ok(_) => {}
            Err(m) => fault = fault.or(Some(m)),
        }
    }
    Ok(fault.map_or(Ok(bytes), Err))
}

/// One element as the low bits of a word: `text` when it was a string,
/// else `number` (which a non-number fails as it always did).
fn element_word(
    ty: ScalarTy,
    as_bits: bool,
    number: &Json,
    text: Option<&str>,
) -> Result<u64, String> {
    match (ty, as_bits) {
        // i32 "bits" are just the values; negatives are legal.
        (ScalarTy::I32, true) => number
            .as_i64()
            .and_then(|x| i32::try_from(x).ok())
            .map(|x| x as u32 as u64)
            .ok_or_else(|| "i32 out of range".to_string()),
        // A bit pattern: a JSON integer, or a `"0x…"` hex string for
        // values that overflow `i64` (any `f64` with the sign bit set).
        // `f32` patterns keep the low 32 bits.
        (_, true) => match (number, text) {
            (Json::Int(i), None) if *i >= 0 => Ok(*i as u64),
            (_, Some(s)) => {
                let hex = s.strip_prefix("0x").ok_or("bit strings must start with 0x")?;
                u64::from_str_radix(hex, 16).map_err(|e| format!("bad bit string `{s}`: {e}"))
            }
            _ => Err("bits must be non-negative integers or 0x-hex strings".into()),
        },
        (ScalarTy::I32, false) => number
            .as_i64()
            .map(|i| i as i32 as u32 as u64)
            .ok_or_else(|| "non-integer element".to_string()),
        (_, false) => {
            let v = number.as_f64().ok_or_else(|| "non-numeric element".to_string())?;
            Ok(if ty == ScalarTy::F32 { (v as f32).to_bits() as u64 } else { v.to_bits() })
        }
    }
}

/// Append a [`HostArray`] as a lossless `bits` payload:
/// `{"elem":"f32","bits":[…]}`, one number (or `"0x…"` string, for
/// `f64`) per element.
fn write_bits(arr: &HostArray, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let (elem, width) = match arr.elem {
        ScalarTy::F32 => ("f32", 4),
        ScalarTy::F64 => ("f64", 8),
        ScalarTy::I32 | ScalarTy::I64 => ("i32", 4),
    };
    out.push_str("{\"elem\":\"");
    out.push_str(elem);
    out.push_str("\",\"bits\":[");
    for (i, chunk) in arr.bytes.chunks_exact(width).enumerate() {
        if i > 0 {
            out.push(',');
        }
        match arr.elem {
            ScalarTy::F64 => {
                let b = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                out.push_str("\"0x");
                out.extend((0..16).rev().map(|n| HEX[(b >> (4 * n)) as usize & 15] as char));
                out.push('"');
            }
            ScalarTy::F32 => {
                write_int(u32::from_le_bytes(chunk.try_into().expect("4-byte chunk")) as i64, out)
            }
            ScalarTy::I32 | ScalarTy::I64 => {
                write_int(i32::from_le_bytes(chunk.try_into().expect("4-byte chunk")) as i64, out)
            }
        }
    }
    out.push_str("]}");
}

/// Append one member of the object being written into `out`.
fn write_member(out: &mut String, key: &str, value: &Json) {
    write_key(out, key);
    value.write_to(out);
}

/// Append `{name: payload, …}` for every array, payloads as
/// [`write_bits`] writes them.
fn write_arrays(arrays: &BTreeMap<Ident, HostArray>, out: &mut String) {
    out.push('{');
    for (name, arr) in arrays {
        write_key(out, name.as_str());
        write_bits(arr, out);
    }
    out.push('}');
}

/// Content key of a run request — the single-flight dedup key. Two
/// requests share a key iff they ask for identical work: source,
/// entry, resolved profile, and every argument (scalar bit patterns and
/// array contents, in `Args`' stable `BTreeMap` order) all match.
/// Arrays go in by their allocations' content keys, which the run's
/// launch keys then read instead of hashing the bytes again.
/// Every spelling of one profile is the same work; a key that names no
/// profile goes in raw (that request fails `unknown_profile` whatever
/// it shares a key with).
///
/// Deliberately excluded: `return_arrays` (response shaping, not work)
/// and the envelope fields `id`, `v`, `trace`, `timeout_ms`. Nothing on
/// the wire chooses how a run executes, so nothing of that is keyed.
pub fn run_key(r: &RunRequest) -> ContentKey {
    let (source, entry, profile) = (r.source.as_str(), r.entry.as_str(), r.profile.as_str());
    let mut h = ContentHasher::default();
    // `Ok(name)` / `Err(raw key)`: an unknown key can never pass for a
    // profile by spelling out its display name.
    h.value(&(source, entry, CompilerConfig::canonical_name(profile).ok_or(profile)));
    for (name, value) in &r.args.scalars {
        let (tag, bits) = match value {
            safara_core::runtime::ArgValue::I32(i) => (1u32, *i as i64 as u64),
            safara_core::runtime::ArgValue::I64(i) => (2, *i as u64),
            safara_core::runtime::ArgValue::F32(f) => (3, f.to_bits() as u64),
            safara_core::runtime::ArgValue::F64(f) => (4, f.to_bits()),
        };
        h.value(&(name.as_str(), tag, bits));
    }
    for (name, arr) in &r.args.arrays {
        h.value(&(name.as_str(), arr.elem as u32, arr.bytes.len(), arr.bytes.key()));
    }
    h.key()
}

/// FNV-1a/64: one step of the chain, and where an array's chain starts.
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

fn fnv_start(arr: &HostArray) -> u64 {
    fnv(0xcbf2_9ce4_8422_2325, arr.elem as u8)
}

/// Content digest of an array: FNV-1a/64 over the element tag and raw
/// bytes, printed as 16 hex digits. Two arrays digest equal iff their
/// bytes (and element type) are identical. This is wire format — the one
/// hash a client can recompute — so it stays byte-at-a-time FNV and is
/// not a [`ContentKey`].
pub fn digest(arr: &HostArray) -> String {
    format!("{:016x}", arr.bytes.iter().fold(fnv_start(arr), |h, b| fnv(h, *b)))
}

/// Chains advanced together by [`digests`].
const LANES: usize = 4;

std::thread_local! {
    static DIGESTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bytes this thread has fed to the FNV chains of reply digests so far
/// (an exact counter, as `shared::bytes_keyed` is for content keys).
pub fn bytes_digested() -> u64 {
    DIGESTED.with(std::cell::Cell::get)
}

/// [`digest`] of every array, in order. An array whose allocation
/// records its digest under the array's element tag — one an earlier
/// reply computed — is not read again; the others are digested here and
/// the digest recorded in their allocations.
///
/// A chain cannot go faster than one multiply latency per byte, but the
/// arrays of a reply are independent chains: up to [`LANES`] of them
/// advance in one loop so their multiplies overlap, and a lane whose
/// array ends takes the next array not yet started.
fn digests<'a>(arrays: impl IntoIterator<Item = &'a HostArray>) -> Vec<String> {
    let arrays: Vec<&HostArray> = arrays.into_iter().collect();
    let mut found: Vec<Option<u64>> =
        arrays.iter().map(|a| a.bytes.recorded_digest(a.elem as u8)).collect();
    let unknown: Vec<usize> = (0..arrays.len()).filter(|&at| found[at].is_none()).collect();
    let mut waiting = unknown.into_iter();
    // The live lanes are `..live`: chain state, bytes still to absorb,
    // and the position of the lane's array in the output.
    let (mut h, mut rest, mut slot) = ([0u64; LANES], [&[][..]; LANES], [0usize; LANES]);
    let mut live = 0;
    loop {
        while live < LANES {
            let Some(at) = waiting.next() else { break };
            let arr = arrays[at];
            DIGESTED.with(|n| n.set(n.get() + arr.bytes.len() as u64));
            (h[live], rest[live], slot[live]) = (fnv_start(arr), &arr.bytes, at);
            live += 1;
        }
        if live == 0 {
            break;
        }
        // As far as the shortest live lane goes, all lanes in lockstep.
        let n = rest[..live].iter().map(|r| r.len()).min().unwrap_or(0);
        match live {
            4 => advance::<4>(&mut h, &mut rest, n),
            3 => advance::<3>(&mut h, &mut rest, n),
            2 => advance::<2>(&mut h, &mut rest, n),
            _ => advance::<1>(&mut h, &mut rest, n),
        }
        let mut lane = 0;
        while lane < live {
            if rest[lane].is_empty() {
                let arr = arrays[slot[lane]];
                arr.bytes.record_digest(arr.elem as u8, h[lane]);
                found[slot[lane]] = Some(h[lane]);
                live -= 1;
                (h[lane], rest[lane], slot[lane]) = (h[live], rest[live], slot[live]);
            } else {
                lane += 1;
            }
        }
    }
    found.into_iter().map(|h| format!("{:016x}", h.expect("every chain ran to its end"))).collect()
}

/// Absorb the next `n` bytes of the first `N` lanes, a byte of each in
/// turn.
fn advance<const N: usize>(h: &mut [u64; LANES], rest: &mut [&[u8]; LANES], n: usize) {
    let mut state: [u64; N] = std::array::from_fn(|lane| h[lane]);
    let heads: [&[u8]; N] = std::array::from_fn(|lane| &rest[lane][..n]);
    for i in 0..n {
        for (state, head) in state.iter_mut().zip(&heads) {
            *state = fnv(*state, head[i]);
        }
    }
    for lane in 0..N {
        h[lane] = state[lane];
        rest[lane] = &rest[lane][n..];
    }
}

/// A run request as it goes on the wire — the client-side counterpart
/// of [`parse_request`]. The fields are the wire fields; everything is
/// borrowed, so formatting a line never clones the argument arrays.
#[derive(Debug, Clone, Copy)]
pub struct RunRequestLine<'a> {
    /// Protocol version: `2` asks for structured [`WireError`] failures;
    /// `1` omits the field, the legacy line shape.
    pub v: u8,
    /// Request id, echoed in the response.
    pub id: i64,
    /// MiniACC source.
    pub source: &'a str,
    /// Function to execute.
    pub entry: &'a str,
    /// Profile key (see [`resolve_profile`]).
    pub profile: &'a str,
    /// Scalar and array arguments; arrays are encoded losslessly (`bits`).
    pub args: &'a Args,
    /// Ask for full post-run array contents, not just digests.
    pub return_arrays: bool,
}

impl<'a> RunRequestLine<'a> {
    /// A v1 request; set `v` with struct-update syntax.
    pub fn new(
        id: i64,
        source: &'a str,
        entry: &'a str,
        profile: &'a str,
        args: &'a Args,
        return_arrays: bool,
    ) -> Self {
        RunRequestLine { v: 1, id, source, entry, profile, args, return_arrays }
    }

    /// The request line. Array payloads — all but a few hundred bytes of
    /// a line — are written straight into it (`write_bits`), not through
    /// a [`Json`] tree.
    pub fn render(&self) -> String {
        let payload: usize = self.args.arrays.values().map(|a| a.bytes.len()).sum();
        let mut out = String::with_capacity(256 + self.source.len() + 3 * payload);
        out.push('{');
        write_member(&mut out, "id", &Json::Int(self.id));
        if self.v >= 2 {
            write_member(&mut out, "v", &Json::Int(self.v as i64));
        }
        write_member(&mut out, "op", &Json::Str("run".into()));
        write_member(&mut out, "source", &Json::Str(self.source.into()));
        write_member(&mut out, "entry", &Json::Str(self.entry.into()));
        write_member(&mut out, "profile", &Json::Str(self.profile.into()));
        write_member(
            &mut out,
            "scalars",
            &Json::Obj(
                self.args
                    .scalars
                    .iter()
                    .map(|(k, v)| {
                        let jv = match v {
                            safara_core::runtime::ArgValue::I32(i) => Json::Int(*i as i64),
                            safara_core::runtime::ArgValue::I64(i) => Json::Int(*i),
                            safara_core::runtime::ArgValue::F32(f) => Json::Float(*f as f64),
                            safara_core::runtime::ArgValue::F64(f) => Json::Float(*f),
                        };
                        (k.to_string(), jv)
                    })
                    .collect(),
            ),
        );
        write_key(&mut out, "arrays");
        write_arrays(&self.args.arrays, &mut out);
        write_member(&mut out, "return_arrays", &Json::Bool(self.return_arrays));
        out.push('}');
        out
    }
}

/// [`RunRequestLine::new`] rendered: a v1 run request line.
pub fn build_run_request(
    id: i64,
    source: &str,
    entry: &str,
    profile: &str,
    args: &Args,
    return_arrays: bool,
) -> String {
    RunRequestLine::new(id, source, entry, profile, args, return_arrays).render()
}

/// A minimal status response line.
pub fn status_line(id: Option<i64>, status: &str) -> String {
    response_base(id, status).dump()
}

/// An error response line (v1 legacy shape: `message` string).
pub fn error_line(id: Option<i64>, message: &str) -> String {
    let mut base = response_base(id, "error");
    if let Json::Obj(fields) = &mut base {
        fields.push(("message".into(), Json::Str(message.into())));
    }
    base.dump()
}

/// A structured failure, as carried on the v2 wire.
///
/// `code` is the stable machine-matchable taxonomy — the pipeline codes
/// from [`CompileError::code`] (`parse`, `sema`, `analysis`,
/// `regalloc_spill`, `budget`, `launch_bounds`, `saturate`, `sim`,
/// `internal`) plus the server-level
/// codes `bad_request`, `resource_limit`, `unknown_profile`, `shed`,
/// `timeout`, and `shutting_down`. `retryable` is the client contract:
/// resending the identical request can succeed iff it is true.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Stable machine-readable code.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Pipeline phase provenance, when the failure came from the
    /// pipeline.
    pub phase: Option<&'static str>,
    /// Whether resending the identical request can succeed.
    pub retryable: bool,
}

impl WireError {
    /// A pipeline failure, carrying the typed error's code, phase, and
    /// retryability.
    pub fn from_compile(e: &CompileError) -> WireError {
        WireError {
            code: e.code(),
            message: e.to_string(),
            phase: Some(e.phase().name()),
            retryable: e.retryable(),
        }
    }

    /// A malformed request (unparseable line, missing/ill-typed field).
    pub fn bad_request(message: &str) -> WireError {
        WireError { code: "bad_request", message: message.into(), phase: None, retryable: false }
    }

    /// A request larger than the transport accepts (a line past
    /// `server::MAX_LINE_BYTES`); resending it cannot succeed.
    pub fn resource_limit(message: String) -> WireError {
        WireError { code: "resource_limit", message, phase: None, retryable: false }
    }

    /// An unknown compiler-profile key.
    pub fn unknown_profile(message: String) -> WireError {
        WireError { code: "unknown_profile", message, phase: None, retryable: false }
    }

    /// An unexpected server-side failure (worker panic, poisoned state).
    pub fn internal(message: &str) -> WireError {
        WireError { code: "internal", message: message.into(), phase: None, retryable: true }
    }

    /// The queue was full: admission refused the request before
    /// queueing it.
    pub fn shed() -> WireError {
        WireError { code: "shed", message: "queue full".into(), phase: None, retryable: true }
    }

    /// The request expired (in the queue or mid-pipeline).
    pub fn timeout() -> WireError {
        WireError {
            code: "timeout",
            message: "deadline exceeded".into(),
            phase: None,
            retryable: true,
        }
    }

    /// The server is draining and admits no new work.
    pub fn shutting_down() -> WireError {
        WireError {
            code: "shutting_down",
            message: "server is shutting down".into(),
            phase: None,
            retryable: false,
        }
    }

    /// The v2 wire object: `{"code":…,"message":…,"phase":…,"retryable":…}`
    /// (`phase` omitted when unknown).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("code", Json::Str(self.code.into())),
            ("message", Json::Str(self.message.clone())),
        ];
        if let Some(p) = self.phase {
            fields.push(("phase", Json::Str(p.into())));
        }
        fields.push(("retryable", Json::Bool(self.retryable)));
        obj(fields)
    }
}

/// Render a failure in the client's protocol version.
///
/// v1 keeps the legacy shapes byte-compatible: `status: "error"` plus a
/// `message` string, or a bare status line for `timeout` / `overloaded`
/// / `shutting_down`. v2 always attaches the structured `error` object
/// (and a `"v": 2` marker) alongside the same `status` value.
pub fn failure_line(v: u8, id: Option<i64>, status: &str, err: &WireError) -> String {
    if v < 2 {
        return if status == "error" {
            error_line(id, &err.message)
        } else {
            status_line(id, status)
        };
    }
    let mut base = response_base(id, status);
    if let Json::Obj(fields) = &mut base {
        fields.push(("v".into(), Json::Int(2)));
        fields.push(("error".into(), err.to_json()));
    }
    base.dump()
}

/// [`failure_line`] with `status: "error"` — the common case.
pub fn error_line_v(v: u8, id: Option<i64>, err: &WireError) -> String {
    failure_line(v, id, "error", err)
}

/// Serialize a span tree for the wire: an array of
/// `{"name":…,"start_us":…,"dur_us":…,"meta":{…}?,"children":[…]?}`
/// objects (`meta`/`children` omitted when empty).
pub fn spans_to_json(spans: &[Span]) -> Json {
    fn one(s: &Span) -> Json {
        let mut fields = vec![
            ("name", Json::Str(s.name.clone())),
            ("start_us", Json::Int(s.start_us as i64)),
            ("dur_us", Json::Int(s.dur_us as i64)),
        ];
        if !s.meta.is_empty() {
            fields.push((
                "meta",
                Json::Obj(
                    s.meta
                        .iter()
                        .map(|(k, v)| {
                            let jv = match v {
                                MetaValue::Int(i) => Json::Int(*i),
                                MetaValue::Float(f) => Json::Float(*f),
                                MetaValue::Str(t) => Json::Str(t.clone()),
                            };
                            (k.clone(), jv)
                        })
                        .collect(),
                ),
            ));
        }
        if !s.children.is_empty() {
            fields.push(("children", spans_to_json(&s.children)));
        }
        obj(fields)
    }
    Json::Arr(spans.iter().map(one).collect())
}

/// The common response skeleton: `{"id":…,"status":…}`.
pub fn response_base(id: Option<i64>, status: &str) -> Json {
    let id_json = match id {
        Some(i) => Json::Int(i),
        None => Json::Null,
    };
    obj(vec![("id", id_json), ("status", Json::Str(status.into()))])
}

/// Render a [`RunOutcome`] + post-run [`Args`] as an `ok` response,
/// attaching a `trace` span tree when the request opted in.
pub fn run_response(
    id: Option<i64>,
    outcome: &RunOutcome,
    args: &Args,
    return_arrays: bool,
    trace: Option<&[Span]>,
) -> String {
    let mut base = response_base(id, "ok");
    let Json::Obj(fields) = &mut base else { unreachable!("response_base builds an object") };
    fields.push(("op".into(), Json::Str("run".into())));
    fields.push(("function".into(), Json::Str(outcome.function.clone())));
    fields.push(("profile".into(), Json::Str(outcome.profile.into())));
    let kernels = outcome
        .kernels
        .iter()
        .map(|k| {
            obj(vec![
                ("name", Json::Str(k.name.clone())),
                ("regs", Json::Int(k.regs_used as i64)),
                ("spills", Json::Int(k.spills as i64)),
                (
                    "grid",
                    Json::Arr(
                        [k.grid.0, k.grid.1, k.grid.2]
                            .iter()
                            .map(|v| Json::Int(*v as i64))
                            .collect(),
                    ),
                ),
                (
                    "block",
                    Json::Arr(
                        [k.block.0, k.block.1, k.block.2]
                            .iter()
                            .map(|v| Json::Int(*v as i64))
                            .collect(),
                    ),
                ),
                ("cycles", Json::Float(k.cycles)),
            ])
        })
        .collect();
    fields.push(("kernels".into(), Json::Arr(kernels)));
    fields.push(("total_cycles".into(), Json::Float(outcome.total_cycles)));
    fields.push(("max_regs".into(), Json::Int(outcome.max_regs as i64)));
    fields.push(("sr_temps".into(), Json::Int(outcome.sr_temps_added as i64)));
    fields.push(("feedback_rounds".into(), Json::Int(outcome.feedback_rounds as i64)));
    fields.push((
        "scalars".into(),
        Json::Obj(
            args.scalars
                .iter()
                .map(|(k, v)| {
                    let jv = match v {
                        safara_core::runtime::ArgValue::I32(i) => Json::Int(*i as i64),
                        safara_core::runtime::ArgValue::I64(i) => Json::Int(*i),
                        safara_core::runtime::ArgValue::F32(f) => {
                            obj(vec![("bits", Json::Int(f.to_bits() as i64))])
                        }
                        safara_core::runtime::ArgValue::F64(f) => {
                            obj(vec![("bits", Json::Str(format!("0x{:016x}", f.to_bits())))])
                        }
                    };
                    (k.to_string(), jv)
                })
                .collect(),
        ),
    ));
    fields.push((
        "digests".into(),
        Json::Obj(
            args.arrays
                .keys()
                .map(Ident::to_string)
                .zip(digests(args.arrays.values()).into_iter().map(Json::Str))
                .collect(),
        ),
    ));
    // Array contents are written straight into the line, not through
    // a tree of one node per element.
    let mut out = String::from("{");
    for (key, value) in fields.iter() {
        write_member(&mut out, key, value);
    }
    if return_arrays {
        write_key(&mut out, "arrays");
        write_arrays(&args.arrays, &mut out);
    }
    if let Some(spans) = trace {
        write_key(&mut out, "trace");
        spans_to_json(spans).write_to(&mut out);
    }
    out.push('}');
    out
}

/// Render a compile-only report as an `ok` response, attaching a
/// `trace` span tree when the request opted in.
pub fn compile_response(
    id: Option<i64>,
    program: &safara_core::CompiledProgram,
    entry: Option<&str>,
    trace: Option<&[Span]>,
) -> Result<String, WireError> {
    let mut base = response_base(id, "ok");
    let Json::Obj(fields) = &mut base else { unreachable!("response_base builds an object") };
    fields.push(("op".into(), Json::Str("compile".into())));
    fields.push(("profile".into(), Json::Str(program.config.name.into())));
    let mut funcs = Vec::new();
    for f in &program.functions {
        if entry.is_some_and(|e| e != f.name) {
            continue;
        }
        funcs.push(obj(vec![
            ("name", Json::Str(f.name.clone())),
            (
                "kernels",
                Json::Arr(
                    f.kernels
                        .iter()
                        .map(|k| {
                            obj(vec![
                                ("name", Json::Str(k.kernel.name.clone())),
                                ("regs", Json::Int(k.alloc.regs_used as i64)),
                                ("demand", Json::Int(k.alloc.demand as i64)),
                                ("spills", Json::Int(k.alloc.spilled.len() as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("max_regs", Json::Int(f.max_regs() as i64)),
            ("sr_temps", Json::Int(f.sr_outcome.temps_added as i64)),
            ("feedback_rounds", Json::Int(f.feedback_rounds as i64)),
        ]));
    }
    if funcs.is_empty() {
        return Err(match entry {
            Some(e) => WireError::from_compile(&CompileError::no_such_function(e)),
            None => WireError::from_compile(&CompileError::Sema {
                message: "program has no functions".into(),
                span: None,
            }),
        });
    }
    fields.push(("functions".into(), Json::Arr(funcs)));
    if let Some(spans) = trace {
        fields.push(("trace".into(), spans_to_json(spans)));
    }
    Ok(base.dump())
}

/// Resolve a profile key or build the standard `unknown_profile` error.
pub fn resolve_profile(key: &str) -> Result<CompilerConfig, WireError> {
    CompilerConfig::by_name(key).ok_or_else(|| {
        WireError::unknown_profile(format!(
            "unknown profile `{key}` (expected one of: {})",
            CompilerConfig::PROFILE_KEYS.join(", ")
        ))
    })
}

#[cfg(test)]
mod decode_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use safara_core::runtime::ArgValue;

    #[test]
    fn run_request_roundtrips_through_builder_and_parser() {
        let args = Args::new()
            .i32("n", 8)
            .f32("alpha", 0.1) // 0.1f32 is inexact in decimal — bits keep it
            .array_f32("x", &[1.0, 0.1, -0.0])
            .array_i32("idx", &[3, -1]);
        let line = build_run_request(7, "void f() {}", "f", "base", &args, true);
        let req = parse_request(&line).unwrap();
        assert_eq!(req.id, Some(7));
        match req.op {
            Op::Run(r) => {
                assert_eq!(r.entry, "f");
                assert_eq!(r.profile, "base");
                assert!(r.return_arrays);
                assert_eq!(r.args.array("x"), args.array("x"), "bit-exact arrays");
                assert_eq!(r.args.array("idx"), args.array("idx"));
                assert_eq!(r.args.scalar("n"), Some(ArgValue::I64(8)));
                match r.args.scalar("alpha") {
                    Some(ArgValue::F64(v)) => assert_eq!(v, 0.1f32 as f64),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn f64_bits_roundtrip_via_hex_strings() {
        let args = Args::new().array_f64("d", &[-0.1, 1.0e308]);
        let line = build_run_request(1, "s", "e", "base", &args, false);
        let req = parse_request(&line).unwrap();
        let Op::Run(r) = req.op else { panic!() };
        assert_eq!(r.args.array("d"), args.array("d"));
    }

    #[test]
    fn decimal_data_arrays_parse() {
        let req = parse_request(
            r#"{"op":"run","source":"s","entry":"e","profile":"base",
                "arrays":{"x":{"elem":"f32","data":[1,2.5]},"k":{"elem":"i32","data":[4]}}}"#
                .replace('\n', " ")
                .as_str(),
        )
        .unwrap();
        assert_eq!(req.timeout_ms, None);
        let Op::Run(r) = req.op else { panic!() };
        assert_eq!(r.args.array("x").unwrap().as_f32(), vec![1.0, 2.5]);
        assert_eq!(r.args.array("k").unwrap().as_i32(), vec![4]);
        assert!(!r.return_arrays);
    }

    #[test]
    fn malformed_requests_report_errors() {
        for bad in [
            "not json",
            "{}",
            r#"{"op":"dance"}"#,
            r#"{"op":"run","entry":"e","profile":"base"}"#,
            r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f99","data":[]}}}"#,
            r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f32"}}}"#,
            r#"{"op":"ping","timeout_ms":-5}"#,
            r#"{"op":"run","source":"s","entry":"e","profile":"base","scalars":{"n":"x"}}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn ops_parse() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap().op, Op::Ping);
        assert_eq!(parse_request(r#"{"op":"stats","id":9}"#).unwrap().id, Some(9));
        assert_eq!(parse_request(r#"{"op":"sleep","ms":50}"#).unwrap().op, Op::Sleep { ms: 50 });
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#).unwrap().op, Op::Shutdown);
        let c = parse_request(r#"{"op":"compile","source":"s","profile":"base"}"#).unwrap();
        assert!(matches!(c.op, Op::Compile(_)));
        assert_eq!(
            parse_request(r#"{"op":"ping","timeout_ms":250}"#).unwrap().timeout_ms,
            Some(250)
        );
    }

    #[test]
    fn digests_discriminate_content_and_type() {
        let a = HostArray::from_f32(&[1.0, 2.0]);
        let b = HostArray::from_f32(&[1.0, 2.0]);
        let c = HostArray::from_f32(&[1.0, 2.5]);
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        let as_ints = HostArray::from_i32(&[1065353216, 1073741824]); // same bytes, different elem
        assert_ne!(digest(&a), digest(&as_ints));
    }

    #[test]
    fn digests_of_a_reply_are_the_digests_of_its_arrays() {
        // Seeded sets of 0..=9 arrays: empty ones, runs of equal length
        // (lanes that end together), unequal ones (lanes that refill one
        // at a time), every element tag.
        let mut rng = safara_core::SplitMix64::new(0xd16e_5700);
        let mut below = |n: u64| (rng.next_u64() % n) as usize;
        let elems = [ScalarTy::F32, ScalarTy::F64, ScalarTy::I32, ScalarTy::I64];
        let mut sets_of = [0usize; 10];
        for case in 0..400 {
            let shared_len = below(70);
            let arrays: Vec<HostArray> = (0..case % 10)
                .map(|_| {
                    let len = match below(4) {
                        0 => 0,
                        1 => shared_len,
                        _ => below(300),
                    };
                    let bytes = (0..len).map(|_| below(256) as u8).collect::<Vec<u8>>().into();
                    HostArray { elem: elems[below(4)], bytes }
                })
                .collect();
            let one_by_one: Vec<String> = arrays.iter().map(digest).collect();
            assert_eq!(digests(&arrays), one_by_one, "case {case}: {arrays:?}");
            sets_of[arrays.len()] += 1;
        }
        assert!(sets_of.iter().all(|&n| n == 40), "{sets_of:?}");
        // The wire value itself, pinned: it is what clients recompute.
        assert_eq!(digest(&HostArray::from_f32_bits(&[0x3f80_0000])), "ffcd272e213c6f78");
        assert_eq!(digests([&HostArray::from_f32_bits(&[0x3f80_0000])]), ["ffcd272e213c6f78"]);
    }

    #[test]
    fn a_rendered_allocation_is_not_digested_again() {
        let args = Args::new().i32("n", 16).array_f32("x", &[1.5; 16]).array_i32("k", &[3; 4]);
        let outcome = RunOutcome {
            function: "f".into(),
            profile: "base",
            kernels: vec![],
            total_cycles: 1.0,
            h2d_bytes: 0,
            d2h_bytes: 0,
            max_regs: 1,
            sr_temps_added: 0,
            feedback_rounds: 0,
        };
        let before = bytes_digested();
        let first = run_response(Some(1), &outcome, &args, false, None);
        let between = bytes_digested();
        let second = run_response(Some(1), &outcome, &args, false, None);
        assert_eq!((between - before, bytes_digested() - between), (64 + 16, 0));
        assert_eq!(first, second);
        // The same allocation under another element tag is another digest;
        // equal bytes in another allocation are digested again; a set that
        // mixes recorded and unrecorded arrays keeps its order.
        let x = args.array("x").unwrap();
        let as_ints = HostArray { elem: ScalarTy::I32, bytes: x.bytes.clone() };
        let copy = HostArray::from_f32(&[1.5; 16]);
        let before = bytes_digested();
        let mixed = digests([x, &as_ints, &copy, x]);
        assert_eq!(bytes_digested() - before, 2 * 64);
        assert_eq!(mixed, [digest(x), digest(&as_ints), digest(&copy), digest(x)]);
        assert_ne!(mixed[0], mixed[1]);
    }

    #[test]
    fn status_and_error_lines_are_single_line_json() {
        let s = status_line(Some(3), "overloaded");
        assert_eq!(Json::parse(&s).unwrap().get("status").and_then(Json::as_str), Some("overloaded"));
        let e = error_line(None, "boom\nwith newline");
        assert!(!e.contains('\n'));
        let v = Json::parse(&e).unwrap();
        assert_eq!(v.get("id"), Some(&Json::Null));
        assert_eq!(v.get("message").and_then(Json::as_str), Some("boom\nwith newline"));
    }

    #[test]
    fn unknown_profile_message_lists_keys() {
        let e = resolve_profile("nvcc").unwrap_err();
        assert_eq!(e.code, "unknown_profile");
        assert!(!e.retryable);
        assert!(e.message.contains("safara_only") && e.message.contains("carr_kennedy"), "{}", e.message);
        assert!(resolve_profile("safara_clauses").is_ok());
    }

    #[test]
    fn saturated_profile_resolves_over_the_wire() {
        let cfg = resolve_profile("safara_saturated").unwrap();
        assert_eq!(cfg.name, "SAFARA(saturated)");
        assert!(cfg.saturate);
        // Every other wire profile keeps the e-graph phase off, so the
        // pre-existing response corpus stays byte-identical.
        for key in CompilerConfig::PROFILE_KEYS {
            if key != "safara_saturated" {
                assert!(!resolve_profile(key).unwrap().saturate, "{key}");
            }
        }
    }

    #[test]
    fn protocol_version_parses_and_defaults_to_v1() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap().v, 1);
        assert_eq!(parse_request(r#"{"op":"ping","v":1}"#).unwrap().v, 1);
        assert_eq!(parse_request(r#"{"op":"ping","v":2}"#).unwrap().v, 2);
        for bad in [r#"{"op":"ping","v":0}"#, r#"{"op":"ping","v":3}"#, r#"{"op":"ping","v":"2"}"#] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
        let args = Args::new();
        let v1 = RunRequestLine::new(5, "s", "e", "base", &args, false);
        let v2 = RunRequestLine { v: 2, ..v1 }.render();
        assert_eq!(parse_request(&v2).unwrap().v, 2);
        // A v1 line omits the field: byte-identical to the legacy shape.
        assert_eq!(build_run_request(5, "s", "e", "base", &args, false), v1.render());
        assert!(!v1.render().contains("\"v\""));
    }

    #[test]
    fn failure_lines_speak_both_protocol_versions() {
        let sim = CompileError::Sim { message: "boom".into(), transient: true };
        let err = WireError::from_compile(&sim);
        // v1: legacy message-string shape, no error object.
        let v1 = Json::parse(&error_line_v(1, Some(4), &err)).unwrap();
        assert_eq!(v1.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(v1.get("message").and_then(Json::as_str), Some("sim: boom"));
        assert!(v1.get("error").is_none());
        // v2: structured object, no bare message.
        let v2 = Json::parse(&error_line_v(2, Some(4), &err)).unwrap();
        assert_eq!(v2.get("v").and_then(Json::as_i64), Some(2));
        assert!(v2.get("message").is_none());
        let e = v2.get("error").expect("error object");
        assert_eq!(e.get("code").and_then(Json::as_str), Some("sim"));
        assert_eq!(e.get("phase").and_then(Json::as_str), Some("sim"));
        assert_eq!(e.get("retryable").and_then(Json::as_bool), Some(true));
        assert_eq!(e.get("message").and_then(Json::as_str), Some("sim: boom"));
        // Non-error statuses: v1 stays a bare status line, v2 explains.
        let t1 = Json::parse(&failure_line(1, Some(9), "timeout", &WireError::timeout())).unwrap();
        assert_eq!(t1.get("status").and_then(Json::as_str), Some("timeout"));
        assert!(t1.get("error").is_none());
        let t2 = Json::parse(&failure_line(2, Some(9), "timeout", &WireError::timeout())).unwrap();
        assert_eq!(t2.get("status").and_then(Json::as_str), Some("timeout"));
        assert_eq!(
            t2.get("error").and_then(|e| e.get("retryable")).and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn run_key_matches_work_not_envelope() {
        let args = Args::new().i32("n", 8).f32("a", 0.5).array_f32("x", &[1.0, 2.0]);
        let base = RunRequest {
            source: "void f() {}".into(),
            entry: "f".into(),
            profile: "base".into(),
            args: args.clone(),
            return_arrays: false,
        };
        let key = run_key(&base);
        // Response shaping does not change the work.
        let mut same = base.clone();
        same.return_arrays = true;
        assert_eq!(run_key(&same), key);
        // A request built afresh from the same parts is the same work.
        let rebuilt = RunRequest {
            source: "void f() {}".into(),
            entry: "f".into(),
            profile: "base".into(),
            args: args.clone(),
            return_arrays: false,
        };
        assert_eq!(run_key(&rebuilt), key);
        // Source, entry, profile, and argument bits all do.
        let mut other = base.clone();
        other.source = "void f() { }".into();
        assert_ne!(run_key(&other), key);
        let mut other = base.clone();
        other.profile = "safara_only".into();
        assert_ne!(run_key(&other), key);
        // ...the profile as resolved: spellings of one profile are one
        // piece of work, unknown keys stay apart by their text.
        let of = |profile: &str| run_key(&RunRequest { profile: profile.into(), ..base.clone() });
        assert_eq!(of(" Base "), of("base"));
        assert_eq!(of("SAFARA-ONLY"), of("safara_only"));
        assert_ne!(of("safara_only"), of("safara_clauses"));
        assert_ne!(of("nope"), of("nope2"));
        assert_ne!(of("OpenUH(SAFARA)"), of("safara_only"), "a display name is not a key");
        let mut other = base.clone();
        other.args = args.clone().i32("n", 9);
        assert_ne!(run_key(&other), key);
        let mut other = base.clone();
        other.args = Args::new().i32("n", 8).f32("a", 0.5).array_f32("x", &[1.0, 2.5]);
        assert_ne!(run_key(&other), key);
        // -0.0 and 0.0 are distinct bit patterns, hence distinct work.
        let neg = RunRequest { args: Args::new().f32("a", -0.0), ..base.clone() };
        let pos = RunRequest { args: Args::new().f32("a", 0.0), ..base.clone() };
        assert_ne!(run_key(&neg), run_key(&pos));
    }

    #[test]
    fn run_key_sees_every_byte_and_the_order_of_an_array() {
        // 27 × 4 bytes: three 32-byte blocks over four lanes, and a tail.
        let values: Vec<i32> = (0..27).collect();
        let key_of = |arr: HostArray| {
            let mut args = Args::new();
            args.arrays.insert(Ident::new("x"), arr);
            run_key(&RunRequest {
                source: "s".into(),
                entry: "e".into(),
                profile: "base".into(),
                args,
                return_arrays: false,
            })
        };
        let base = HostArray::from_i32(&values);
        let mut keys = std::collections::BTreeSet::from([key_of(base.clone())]);
        for at in 0..base.bytes.len() {
            let mut flipped = base.bytes.to_vec();
            flipped[at] ^= 0x80;
            let flipped = HostArray { elem: base.elem, bytes: flipped.into() };
            assert!(keys.insert(key_of(flipped)), "byte {at} does not reach the key");
        }
        // The same words dealt to other lanes, or to the tail, are other work.
        for (a, b) in [(0, 1), (0, 2), (1, 9), (8, 26), (25, 26)] {
            let mut swapped = values.clone();
            swapped.swap(a, b);
            assert!(keys.insert(key_of(HostArray::from_i32(&swapped))), "swap {a} <-> {b}");
        }
        assert!(keys.insert(key_of(HostArray::from_i32(&values[..26]))), "length");
    }

    #[test]
    fn request_meta_is_best_effort() {
        assert_eq!(request_meta(br#"{"id":7,"v":2,"op":"nope"}"#), (Some(7), 2));
        assert_eq!(request_meta(br#"{"id":3}"#), (Some(3), 1));
        assert_eq!(request_meta(b"not json"), (None, 1));
        // Its use: the head of a line that was cut off, never its whole.
        assert_eq!(request_meta(br#"{"id":7,"v":2,"op":"run","arrays":{"x":{"bits":[1,2,"#), (Some(7), 2));
        let long = format!(r#"{{"pad":"{}","id":7}}"#, "é".repeat(4096));
        assert_eq!(request_meta(long.as_bytes()), (None, 1), "past the scanned head");
    }
}
