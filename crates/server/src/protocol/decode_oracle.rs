//! The tree-based request decoder this crate used before the pull
//! [`Reader`](crate::json::Reader) pass, kept as the reference the new
//! decoder is compared against: build the whole [`Json`] tree, then walk
//! `arrays` into typed vectors, then into [`HostArray`] bytes.

use super::*;
use safara_core::SplitMix64;
use std::time::{Duration, Instant};

/// The old `parse_request`.
fn tree_parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let arrays = v.get("arrays").map(tree_arrays);
    request_from(&v, arrays)
}

/// The old `request_meta`: a second full parse, just for `id` and `v`.
fn tree_request_meta(line: &str) -> (Option<i64>, u8) {
    match Json::parse(line) {
        Ok(v) => {
            let id = v.get("id").and_then(Json::as_i64);
            let version = match v.get("v").and_then(Json::as_i64) {
                Some(2) => 2,
                _ => 1,
            };
            (id, version)
        }
        Err(_) => (None, 1),
    }
}

fn tree_arrays(arrays: &Json) -> Arrays {
    let fields = arrays.as_obj().ok_or("`arrays` must be an object")?;
    let mut out = BTreeMap::new();
    for (name, payload) in fields {
        let arr = parse_array(payload).map_err(|m| format!("array `{name}`: {m}"))?;
        out.insert(Ident::new(name), arr);
    }
    Ok(out)
}

fn parse_array(payload: &Json) -> Result<HostArray, String> {
    let elem = payload
        .get("elem")
        .and_then(Json::as_str)
        .ok_or("missing `elem` (one of f32, f64, i32)")?;
    let data = payload.get("data").and_then(Json::as_arr);
    let bits = payload.get("bits").and_then(Json::as_arr);
    match (elem, data, bits) {
        ("f32", Some(d), None) => {
            let vals = numeric(d)?;
            Ok(HostArray::from_f32(
                &vals.iter().map(|v| *v as f32).collect::<Vec<_>>(),
            ))
        }
        ("f64", Some(d), None) => Ok(HostArray::from_f64(&numeric(d)?)),
        ("i32", Some(d), None) => {
            let vals: Result<Vec<i32>, String> = d
                .iter()
                .map(|v| {
                    v.as_i64()
                        .map(|i| i as i32)
                        .ok_or("non-integer element".to_string())
                })
                .collect();
            Ok(HostArray::from_i32(&vals?))
        }
        ("f32", None, Some(b)) => {
            let raw: Result<Vec<u32>, String> =
                b.iter().map(|v| bits_u64(v).map(|x| x as u32)).collect();
            Ok(HostArray::from_f32_bits(&raw?))
        }
        ("f64", None, Some(b)) => {
            let raw: Result<Vec<u64>, String> = b.iter().map(bits_u64).collect();
            Ok(HostArray::from_f64_bits(&raw?))
        }
        ("i32", None, Some(b)) => {
            let raw: Result<Vec<i32>, String> = b
                .iter()
                .map(|v| {
                    v.as_i64()
                        .filter(|x| i32::try_from(*x).is_ok())
                        .map(|x| x as i32)
                        .ok_or_else(|| "i32 out of range".to_string())
                })
                .collect();
            Ok(HostArray::from_i32(&raw?))
        }
        ("f32" | "f64" | "i32", None, None) => Err("missing `data` or `bits`".into()),
        ("f32" | "f64" | "i32", Some(_), Some(_)) => Err("give `data` or `bits`, not both".into()),
        (other, _, _) => Err(format!("unknown element type `{other}`")),
    }
}

fn numeric(items: &[Json]) -> Result<Vec<f64>, String> {
    items
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| "non-numeric element".to_string()))
        .collect()
}

fn bits_u64(v: &Json) -> Result<u64, String> {
    match v {
        Json::Int(i) if *i >= 0 => Ok(*i as u64),
        Json::Str(s) => {
            let hex = s
                .strip_prefix("0x")
                .ok_or("bit strings must start with 0x")?;
            u64::from_str_radix(hex, 16).map_err(|e| format!("bad bit string `{s}`: {e}"))
        }
        _ => Err("bits must be non-negative integers or 0x-hex strings".into()),
    }
}

/// The old encoder: one `Json` node per element.
fn array_to_json(arr: &HostArray) -> Json {
    let (elem, bits) = match arr.elem {
        ScalarTy::F32 => (
            "f32",
            Json::Arr(
                arr.as_f32_bits()
                    .iter()
                    .map(|b| Json::Int(*b as i64))
                    .collect(),
            ),
        ),
        ScalarTy::F64 => (
            "f64",
            Json::Arr(
                arr.as_f64_bits()
                    .iter()
                    .map(|b| Json::Str(format!("0x{b:016x}")))
                    .collect(),
            ),
        ),
        ScalarTy::I32 | ScalarTy::I64 => (
            "i32",
            Json::Arr(arr.as_i32().iter().map(|v| Json::Int(*v as i64)).collect()),
        ),
    };
    obj(vec![("elem", Json::Str(elem.into())), ("bits", bits)])
}

/// Both decoders on one line: the same request or the same refusal,
/// message, echoed id and version included.
fn agree(line: &str) {
    let new = decode_request(line);
    let old = tree_parse_request(line).map_err(|message| {
        let (id, v) = tree_request_meta(line);
        BadRequest { message, id, v }
    });
    assert_eq!(new, old, "decoders disagree on {line:?}");
    assert_eq!(parse_request(line), old.map_err(|bad| bad.message));
}

fn payload_args() -> Args {
    Args::new()
        .i32("n", 4)
        .f32("alpha", 0.1)
        .array_f32("x", &[1.0, 0.1, -0.0, f32::MAX])
        .array_f64("d", &[-0.1, 1.0e308, 0.0, -2.5])
        .array_i32("idx", &[3, -1, i32::MIN, i32::MAX])
}

/// Arrays whose `bits` lists are runs of equally long elements broken
/// by length changes, as the decoder predicts them: `f32` patterns of 10
/// digits and `0`, `f64` hex strings, `i32` values of either sign.
fn long_runs() -> Args {
    let f32s: Vec<f32> =
        (0..40).map(|i| if i % 7 == 3 { 0.0 } else { 1.0 + i as f32 / 8.0 }).collect();
    let f64s: Vec<f64> =
        (0..40).map(|i| if i % 9 == 4 { 0.0 } else { -0.1 - i as f64 / 2.0 }).collect();
    let i32s: Vec<i32> = (0..40).map(|i| [7, -7, 12, -12, i32::MIN, i32::MAX][i % 6]).collect();
    Args::new().array_f32("a", &f32s).array_f64("b", &f64s).array_i32("c", &i32s)
}

/// Lists whose elements change length almost every time: `f32` bit
/// patterns and `i32`s of 1 to 10 digits, uniformly mixed.
fn mixed_lengths() -> Args {
    let mut rng = SplitMix64::new(0x3d_1e57);
    let mut pattern = || {
        let digits = 1 + below(&mut rng, 10) as u32;
        let low = if digits == 1 { 0 } else { 10u64.pow(digits - 1) };
        // Below the first NaN pattern, 0x7f80_0001.
        let high = (10u64.pow(digits) - 1).min(0x7f80_0000);
        (low + rng.next_u64() % (high - low + 1)) as u32
    };
    let bits: Vec<f32> = (0..600).map(|_| f32::from_bits(pattern())).collect();
    let ints: Vec<i32> =
        (0..600).map(|i| if i % 3 == 0 { -(pattern() as i32) } else { pattern() as i32 }).collect();
    Args::new().array_f32("m", &bits).array_i32("n", &ints)
}

/// Valid lines of every shape the protocol tests use.
fn valid_lines() -> Vec<String> {
    let args = payload_args();
    let v2 = RunRequestLine {
        v: 2,
        ..RunRequestLine::new(9, "void f() {\n}", "f", "safara_only", &args, true)
    };
    let mut lines = vec![
        build_run_request(7, "void f() {}", "f", "base", &args, true),
        build_run_request(1, "s", "e", "base", &Args::new(), false),
        v2.render(),
        build_run_request(2, "s", "e", "base", &long_runs(), false),
        build_run_request(3, "s", "e", "base", &mixed_lengths(), false),
    ];
    lines.extend(
        [
            r#"{"op":"ping"}"#,
            r#"{"id":1,"op":"ping","v":2,"timeout_ms":250,"trace":false}"#,
            r#"{"op":"stats","id":9}"#,
            r#"{"op":"sleep","ms":50}"#,
            r#"{"op":"shutdown"}"#,
            r#"{"op":"compile","source":"s","profile":"base","entry":"f","trace":true}"#,
            // Members no op reads, of any type, are ignored.
            r#"{"op":"run","source":"s","entry":"e","profile":"base","sim_threads":4,"sb_threshold":16}"#,
            r#"{"op":"run","source":"s","entry":"e","profile":"base","engine":"bogus","sim_threads":true,"sb_threshold":"x"}"#,
            r#"{"op":"run","source":"s","entry":"e","profile":"base",
                "arrays":{"x":{"elem":"f32","data":[1,2.5]},"k":{"elem":"i32","data":[4]}}}"#,
            // Member order is not protocol; duplicate keys keep the last.
            r#"{"arrays":{"x":{"bits":[1065353216,"0x40000000"],"elem":"f32"}},"profile":"base","entry":"e","source":"s","op":"run"}"#,
            r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f32","bits":[1],"elem":"f64"}}}"#,
            r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f64","data":[1],"data":[2,3]}}}"#,
            r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"i32","data":5,"bits":[-7]}}}"#,
            r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f32"}},"arrays":{}}"#,
            r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f32","data":[1]},"x":{"elem":"i32","bits":[2]}}}"#,
            // f32 bits keep the low 32 bits; i32 data truncates.
            r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f32","bits":[4294967297,"0x1ffffffff"]},"k":{"elem":"i32","data":[4294967298]}}}"#,
            // `arrays` is not looked at unless the op is `run`.
            r#"{"op":"ping","arrays":{"x":{"elem":"f99"}}}"#,
        ]
        .map(|l| l.replace('\n', " ")),
    );
    lines
}

/// Lines with exactly one thing wrong, and what is said about it.
const SINGLE_FAULTS: &[(&str, &str)] = &[
    ("not json", "json error at byte 0: expected `null`"),
    ("{}", "missing string field `op`"),
    ("[1,2]", "missing string field `op`"),
    (r#"{"op":"dance"}"#, "unknown op `dance`"),
    (
        r#"{"op":"ping","timeout_ms":-5}"#,
        "`timeout_ms` must be a non-negative integer",
    ),
    (r#"{"op":"ping","v":3}"#, "`v` must be 1 or 2"),
    (r#"{"op":"ping","trace":1}"#, "`trace` must be a boolean"),
    (
        r#"{"op":"ping"} x"#,
        "json error at byte 14: trailing characters after document",
    ),
    (r#"{"op":"ping",}"#, "json error at byte 13: expected `\"`"),
    (
        r#"{"op":"run","entry":"e","profile":"base"}"#,
        "missing string field `source`",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","scalars":{"n":"x"}}"#,
        "scalar `n` must be a number",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","scalars":[]}"#,
        "`scalars` must be an object",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":[]}"#,
        "`arrays` must be an object",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":7}}"#,
        "array `x`: missing `elem` (one of f32, f64, i32)",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f99","data":[]}}}"#,
        "array `x`: unknown element type `f99`",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f32"}}}"#,
        "array `x`: missing `data` or `bits`",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f32","data":[1],"bits":[1]}}}"#,
        "array `x`: give `data` or `bits`, not both",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f32","data":[1,"2"]}}}"#,
        "array `x`: non-numeric element",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"i32","data":[1.5]}}}"#,
        "array `x`: non-integer element",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"i32","bits":[2147483648]}}}"#,
        "array `x`: i32 out of range",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f32","bits":[-1]}}}"#,
        "array `x`: bits must be non-negative integers or 0x-hex strings",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f64","bits":["3ff0"]}}}"#,
        "array `x`: bit strings must start with 0x",
    ),
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f64","bits":["0xzz"]}}}"#,
        "array `x`: bad bit string `0xzz`: invalid digit found in string",
    ),
    // A payload fault met first still loses to a syntax error after it.
    (
        r#"{"op":"run","source":"s","entry":"e","profile":"base","arrays":{"x":{"elem":"f32","bits":[-1,2]}},"id":}"#,
        "json error at byte 103: unexpected character `}`",
    ),
];

#[test]
fn reader_decoder_matches_the_tree_decoder_on_the_protocol_lines() {
    for line in valid_lines() {
        agree(&line);
        assert!(decode_request(&line).is_ok(), "{line}");
    }
    for (line, message) in SINGLE_FAULTS {
        agree(line);
        assert_eq!(parse_request(line).unwrap_err(), *message, "{line}");
    }
}

/// Element lists that begin, break and resume [`Reader::plain_run`] at
/// every kind of boundary, as the value of a `bits` (and `data`) member.
const RUN_BOUNDARIES: &[&str] = &[
    // Nothing, one, many; every digit count up to the last plain one.
    "[]",
    "[7]",
    "[1,22,333,4444,55555,666666,7777777,88888888,999999999,1065353216]",
    "[123456789012345,1234567890123456,12345678901234567,123456789012345678]",
    // 18 digits is the last plain width; 19 take the text route, to i64 or float.
    "[999999999999999999,1]",
    "[1000000000000000000,1]",
    "[9223372036854775807,1]",
    "[9223372036854775808,1]",
    "[1,99999999999999999999999,1]",
    // Leading zeros, to 18 digits and past them.
    "[007,00,000000000000000012,2]",
    "[0000000000000000001,2]",
    // Signs.
    "[-0,1]",
    "[1,-0]",
    "[-1,2,3]",
    "[1,-,2]",
    "[--1]",
    "[+1]",
    "[2147483647,-2147483648,0]",
    "[1,2147483648,3]",
    "[1,-2147483649,3]",
    "[4294967295,4294967296,4294967297]",
    // Whitespace on either side of a separator or bracket.
    "[1 ,2]",
    "[1, 2]",
    "[ 1,2]",
    "[1,2 ]",
    "[1,2,\t3,4]",
    "[ ]",
    // A float, a string, a keyword, a container in the middle of a run.
    "[1,2.5,3]",
    "[1,2e3,3]",
    "[1,2E+3,3]",
    "[1,\"0x2\",3]",
    "[1,\"x\",3]",
    "[1,null,3]",
    "[1,[2],3]",
    "[1,{\"a\":2},3]",
    // Integers and hex strings mixed; case; 16 digits, 17, none.
    "[1,\"0x3ff0000000000000\",2,\"0xA\",\"0xa\",3]",
    "[\"0xABCDEF0123456789\",\"0xabcdef0123456789\",\"0xfFfFfFfFfFfFfFfF\"]",
    "[\"0x00000000000000001\",1]",
    "[\"0x10000000000000000\",1]",
    "[\"0x\",1]",
    "[\"0\",1]",
    "[\"+0xff\",1]",
    "[\"0x+ff\",1]",
    "[\"0x-1\",1]",
    "[\"0x_1\",1]",
    "[\"0x1g\",1]",
    "[\"0X1f\",1]",
    "[\"0x1\\u0030\",1]",
    "[\"0x1\\\",1]",
    "[\"0x1f\" ,\"0x20\"]",
    "[\"0x1f\"x]",
    // Lists that do not close, or close wrongly.
    "[1,2",
    "[1,2,",
    "[1,2}",
    "[1,,2]",
    "[1,]",
    "[,1]",
    "[1 2]",
    "[1,2]]",
    "[12345678",
    "[\"0x12",
];

/// A run request whose one array has the given members, as the last
/// thing on the line or with members behind it.
fn payload_line(members: &str, last: bool) -> String {
    let head = r#"{"id":3,"v":2,"op":"run","source":"s","entry":"e","profile":"base""#;
    if last {
        format!(r#"{head},"arrays":{{"x":{{{members}}}}}}}"#)
    } else {
        format!(r#"{head},"arrays":{{"x":{{{members}}},"y":{{"elem":"i32","bits":[5,-6]}}}},"return_arrays":true}}"#)
    }
}

/// Lists that break a run decoded at the predicted length (the length
/// of the element before) in every way: a length change, each digit
/// count around the two 8-byte loads and the plain limit, a sign with no
/// digits, the edges of `i32`, hex strings of every length in either
/// case or with `0X`, an escape of the predicted length, and runs that
/// end within the last window of the line.
fn predicted_lengths() -> Vec<String> {
    const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";
    let same = |e: &str, n: usize| format!("[{}]", vec![e; n].join(","));
    let mut lists = vec![
        "[1065353216,1065353216,0,1065353216,1065353216,0,0,1065353216,7]".to_string(),
        "[1,-,2]".into(),
        "[5,-]".into(),
        "[5,-,-5]".into(),
        "[-0,-0,00,-0,0,-,0]".into(),
        "[2147483647,2147483648,2147483647,2147483649]".into(),
        "[-2147483647,-2147483648,-2147483649,-2147483648]".into(),
        "[1,1,1e,1]".into(),
        "[12,12,1.,12]".into(),
        "[\"0x3ff0000000000000\",\"0x3ff00000000000\\/\",1]".into(),
        "[\"0x3ff0000000000000\",\"0x3ff0000000000\\u0030\",1]".into(),
        "[\"0x3ff0000000000000\",\"\\u00300x3ff0000000000\",1]".into(),
        "[\"0x3ff0000000000000\",\"0x3ff000000000000\\\"\"]".into(),
        "[\"0x3ff0000000000000\",\"0x3ff0000000000000\"x,1]".into(),
        "[\"0x3ff0000000000000\",\"0x3ff0000000000000\" ,1]".into(),
        "[\"0x3ff0000000000000\",1234567890123456789,12]".into(),
    ];
    for n in [1, 2, 7, 8, 9, 10, 15, 16, 17, 18, 19] {
        let digits: String = (0..n).map(|i| char::from(b'1' + (i % 9) as u8)).collect();
        lists.push(same(&digits, 4));
        lists.push(same(&"9".repeat(n), 3));
        lists.push(format!("[{digits},-{digits},{digits}]"));
    }
    for n in 1..=17 {
        let hex: String = (0..n).map(|i| char::from(HEX_DIGITS[(7 * i + 3) % 16])).collect();
        for h in [hex.clone(), hex.to_uppercase()] {
            lists.push(same(&format!("\"0x{h}\""), 3));
            lists.push(format!("[\"0x{h}\",\"0X{h}\",\"0x{h}\"]"));
            lists.push(format!("[\"0x{h}\",\"0x{h}g\",\"0x{h}\"]"));
        }
    }
    // One byte just outside a digit or hex range, where the last digit
    // of an element of the predicted length would be.
    for c in ["/", ":", "@", "`", "G", "g", "F", "f", "\\u0041", "\u{7f}", "é"] {
        lists.push(format!("[1065353216,106535321{c},1]"));
        lists.push(format!("[\"0x3ff0000000000000\",\"0x3ff000000000000{c}\",1]"));
        lists.push(format!("[\"0x3ff0000000000000\",\"0x{c}ff0000000000000\",1]"));
    }
    // Long enough that the last elements lie within the final window.
    lists.push(same("1065353216", 12));
    lists.push(same("-2147483648", 12));
    lists.push(same("\"0xBFB999999999999A\"", 6));
    lists
}

#[test]
fn runs_of_plain_elements_decode_as_the_general_path_does_at_every_boundary() {
    let generated = predicted_lengths();
    for list in RUN_BOUNDARIES.iter().copied().chain(generated.iter().map(String::as_str)) {
        for elem in ["f32", "f64", "i32"] {
            for last in [false, true] {
                for members in [
                    format!(r#""elem":"{elem}","bits":{list}"#),
                    format!(r#""elem":"{elem}","data":{list}"#),
                    // `elem` behind the list: decoded from the saved position.
                    format!(r#""bits":{list},"elem":"{elem}""#),
                    // Two `bits` members: both decoded, the last one kept.
                    format!(r#""elem":"{elem}","bits":{list},"bits":[3,4]"#),
                    format!(r#""elem":"{elem}","bits":[3,4],"bits":{list}"#),
                    // An `elem` that changes its mind: decoded as one type, kept as another.
                    format!(r#""elem":"i32","bits":{list},"elem":"{elem}""#),
                ] {
                    agree(&payload_line(&members, last));
                }
            }
        }
    }
    // What a run must leave behind it: the reader where `element` wants it.
    let line = payload_line(r#""elem":"f64","bits":[1,"0xfff0000000000000", 18,"0x7"]"#, false);
    let Op::Run(run) = decode_request(&line).unwrap().op else { panic!() };
    assert_eq!(run.args.array("x").unwrap().as_f64_bits(), [1, 0xfff0_0000_0000_0000, 18, 7]);
    assert_eq!(run.args.array("y").unwrap().as_i32(), [5, -6]);
    let line = payload_line(r#""elem":"i32","bits":[2147483647,-2147483648,-0,00000000000000000-1]"#, true);
    agree(&line);
    assert_eq!(
        decode_request(&line).unwrap_err().message,
        format!("json error at byte {}: expected `]`", line.find("-1]").unwrap()),
    );
}

/// Pieces a random element list is put together from.
const ELEMENTS: &[&str] = &[
    "0", "7", "-7", "-0", "12345678", "123456789", "1065353216", "2147483647", "2147483648",
    "-2147483648", "-2147483649", "4294967296", "123456789012345678", "1234567890123456789",
    "00000000000000000001", "1.5", "1e2", "\"0x0\"", "\"0x3fb999999999999a\"", "\"0xBFB999999999999A\"",
    "\"0x123456789abcdef01\"", "\"0x\"", "\"+0x1\"", "\"0x1\\u0031\"", "null", "[1]", "",
    "-", "1234567890123456", "12345678901234567", "\"0X3FF0000000000000\"",
    "\"0x3FF0000000000000\"", "\"0x3ff00000000000\\/\"", "2147483649", "-2147483647",
];
const SEPARATORS: &[&str] = &[",", ",", ",", ",", ",", " ,", ", ", ",,", " ", ""];

#[test]
fn random_element_lists_decode_as_the_general_path_does() {
    let mut rng = SplitMix64::new(0x0b17_5eed);
    for case in 0..4_000 {
        let mut list = String::from(["[", "[", "[ "][below(&mut rng, 3)]);
        for i in 0..below(&mut rng, 12) {
            if i > 0 {
                list.push_str(SEPARATORS[below(&mut rng, SEPARATORS.len())]);
            }
            // Mostly plain elements, so that runs form and break.
            let pool = if below(&mut rng, 4) == 0 { ELEMENTS.len() } else { 7 };
            list.push_str(ELEMENTS[below(&mut rng, pool)]);
        }
        list.push_str(["]", "]", "]", " ]", "", "}"][below(&mut rng, 6)]);
        let elem = ["f32", "f64", "i32"][below(&mut rng, 3)];
        agree(&payload_line(&format!(r#""elem":"{elem}","bits":{list}"#), case % 2 == 0));
    }
}

#[test]
fn a_refusal_keeps_the_id_and_version_of_its_line() {
    let bad = decode_request(r#"{"id":7,"v":2,"op":"nope"}"#).unwrap_err();
    assert_eq!((bad.id, bad.v), (Some(7), 2));
    let bad = decode_request(r#"{"v":1,"id":3}"#).unwrap_err();
    assert_eq!((bad.id, bad.v), (Some(3), 1));
    // A line that is not JSON yields nothing to echo, wherever it breaks.
    let bad = decode_request(r#"{"id":7,"v":2,"op":"#).unwrap_err();
    assert_eq!((bad.id, bad.v), (None, 1));
}

/// A random index below `n` (`n > 0`).
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Tokens a mutation splices in: the pieces payload decoding branches on.
const SPLICES: &[&str] = &[
    ",1065353216",
    ",0",
    ",-2147483648",
    ",-",
    ",\"0x3ff0000000000000\"",
    ",\"0X3ff0000000000000\"",
    "\"elem\":\"f64\",",
    "\"elem\":\"i32\",",
    "\"bits\":[1,2],",
    "\"data\":[1.5],",
    "\"data\":7,",
    "-1",
    "\"0xzz\"",
    "\"0x8000000000000000\"",
    "1e999",
    "9223372036854775808",
    "2147483648",
    "1.5",
    "null",
    "true",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"",
    " ",
    "\\",
    "\\u00e9",
    "é",
];

#[test]
fn reader_decoder_matches_the_tree_decoder_on_a_mutated_corpus() {
    let seeds = valid_lines();
    let mut rng = SplitMix64::new(0x5afa_2a13);
    let started = Instant::now();
    let mut cases = 0u32;
    // Sized by time, with a floor so a slow machine still covers ground.
    while cases < 3_000 || started.elapsed() < Duration::from_millis(1_500) {
        let seed = &seeds[below(&mut rng, seeds.len())];
        let mut bytes = seed.clone().into_bytes();
        for _ in 0..=below(&mut rng, 3) {
            let at = below(&mut rng, bytes.len().max(1)).min(bytes.len());
            match below(&mut rng, 6) {
                0 if !bytes.is_empty() => {
                    let at = at.min(bytes.len() - 1);
                    bytes[at] = b" \"\\,:[]{}-+.0123456789eExabcdf\t\x01"[below(&mut rng, 32)];
                }
                1 => bytes.truncate(at),
                2 => {
                    let token = SPLICES[below(&mut rng, SPLICES.len())];
                    bytes.splice(at..at, token.bytes());
                }
                3 if !bytes.is_empty() => {
                    bytes.remove(at.min(bytes.len() - 1));
                }
                _ => bytes = restructure(&bytes, &mut rng),
            }
        }
        agree(&String::from_utf8_lossy(&bytes));
        cases += 1;
    }
}

/// Reorder or duplicate the members of one object of the line (the
/// document, `arrays`, or a payload — so `bits` lands before `elem`, a
/// key appears twice, a second `arrays` shadows the first); a line that
/// is no longer JSON comes back unchanged.
fn restructure(bytes: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let Ok(mut doc) = Json::parse(&String::from_utf8_lossy(bytes)) else {
        return bytes.to_vec();
    };
    let mut paths: Vec<Vec<usize>> = vec![vec![]];
    if let Json::Obj(top) = &doc {
        for (i, (key, arrays)) in top.iter().enumerate() {
            if let (true, Json::Obj(payloads)) = (key == "arrays", arrays) {
                paths.push(vec![i]);
                paths.extend((0..payloads.len()).map(|j| vec![i, j]));
            }
        }
    }
    let path = &paths[below(rng, paths.len())];
    let mut node = &mut doc;
    for &i in path {
        let Json::Obj(fields) = node else {
            unreachable!("paths lead through objects")
        };
        node = &mut fields[i].1;
    }
    if let Json::Obj(fields) = node {
        if !fields.is_empty() {
            let (a, b) = (below(rng, fields.len()), below(rng, fields.len()));
            match below(rng, 3) {
                0 => fields.swap(a, b),
                1 => fields.rotate_left(a),
                _ => {
                    let copy = fields[a].clone();
                    fields.insert(b, copy);
                }
            }
        }
    }
    doc.dump().into_bytes()
}

#[test]
fn payloads_are_written_as_the_tree_dumped_them() {
    let args = payload_args();
    for arr in args.arrays.values() {
        let mut direct = String::new();
        write_bits(arr, &mut direct);
        assert_eq!(direct, array_to_json(arr).dump());
    }
    // f32 decimal, f64 sign bit set → hex, i32 negative.
    let mut x = String::new();
    write_bits(&HostArray::from_f32(&[1.0, -0.0]), &mut x);
    assert_eq!(x, r#"{"elem":"f32","bits":[1065353216,2147483648]}"#);
    let mut d = String::new();
    write_bits(&HostArray::from_f64(&[-0.1]), &mut d);
    assert_eq!(d, r#"{"elem":"f64","bits":["0xbfb999999999999a"]}"#);
    let mut k = String::new();
    write_bits(&HostArray::from_i32(&[-1, i32::MIN]), &mut k);
    assert_eq!(k, r#"{"elem":"i32","bits":[-1,-2147483648]}"#);

    // The whole line, both directions: the request as the tree built it…
    let line = build_run_request(7, "void f() {\n}", "f", "base", &args, true);
    let Json::Obj(mut fields) = Json::parse(&line).unwrap() else {
        panic!()
    };
    let at = fields.iter().position(|(k, _)| k == "arrays").unwrap();
    fields[at].1 = Json::Obj(
        args.arrays
            .iter()
            .map(|(k, a)| (k.to_string(), array_to_json(a)))
            .collect(),
    );
    assert_eq!(line, Json::Obj(fields).dump());
    // …and a response that returns arrays re-parses to the same bits.
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
    let reply = Json::parse(&run_response(Some(7), &outcome, &args, true, None)).unwrap();
    for (name, arr) in &args.arrays {
        assert_eq!(
            reply.get("arrays").and_then(|a| a.get(name.as_str())),
            Some(&array_to_json(arr)),
            "{name}"
        );
    }
}
