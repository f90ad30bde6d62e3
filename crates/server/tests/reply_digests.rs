//! Reply bits that hold on every host: the simulator's transcendentals
//! are defined in the tree (`safara_gpusim::math`), so the outputs of
//! kernels that call `sin`, `cos`, `exp`, `log` and `pow` no longer
//! depend on the C library of the machine that serves them. The scalar
//! bits and array digests of three replies are pinned here: 314.omriq and
//! 352.ep at test scale under `base`, and a small kernel that calls
//! `exp`, `log` and `pow` at both float types.

use safara_core::Args;
use safara_server::json::Json;
use safara_server::protocol::build_run_request;
use safara_workloads::spec::{ep::SpecEp, omriq::OMriq};
use safara_workloads::{Scale, Workload};
use std::io::Write;
use std::process::{Command, Stdio};

const EXP_LOG_POW: &str = r#"
void elp(int n, const float x[n], const double y[n], float a[n], double b[n]) {
  #pragma acc kernels copyin(x, y) copyout(a, b)
  {
    #pragma acc loop gang vector
    for (int i = 0; i < n; i++) {
      a[i] = exp(x[i]) + log(x[i]) + pow(x[i], x[i] * 0.5f);
      b[i] = exp(y[i]) + log(y[i]) + pow(y[i], y[i] * 0.5);
    }
  }
}"#;

/// Each request's reply from one `safara-serve --stdin`, parsed.
fn replies(lines: &[String]) -> Vec<Json> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_safara-serve"))
        .args(["--stdin", "--workers", "1"])
        .env_remove("SAFARA_ENGINE")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child.stdin.take().unwrap().write_all((lines.join("\n") + "\n").as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    String::from_utf8(out.stdout).unwrap().lines().map(|l| Json::parse(l).unwrap()).collect()
}

/// The bits of a reply's outputs `names`: an array's digest, a float
/// scalar's bits.
fn output_bits(reply: &Json, names: &[&str]) -> String {
    let out = |k: &str| {
        let member = |m| reply.get(m).and_then(|o: &Json| o.get(k)).map(|v| v.to_string());
        member("digests")
            .or_else(|| member("scalars"))
            .unwrap_or_else(|| panic!("no `{k}` in {reply}"))
    };
    names.iter().map(|k| format!("{k}={}", out(k))).collect::<Vec<_>>().join(" ")
}

#[test]
fn transcendental_replies_are_pinned() {
    let workload = |id, w: &dyn Workload| {
        build_run_request(id, &w.source(), w.entry(), "base", &w.args(Scale::Test), false)
    };
    let x: Vec<f32> = (0..64).map(|i| i as f32 * 0.375).collect();
    let y: Vec<f64> = (0..64).map(|i| i as f64 * 11.0 - 40.0).collect();
    let args = Args::new()
        .i32("n", 64)
        .array_f32("x", &x)
        .array_f64("y", &y)
        .array_f32("a", &[0.0; 64])
        .array_f64("b", &[0.0; 64]);
    let lines = [
        workload(1, &OMriq),
        workload(2, &SpecEp),
        build_run_request(3, EXP_LOG_POW, "elp", "base", &args, false),
    ];
    let replies = replies(&lines);
    let got: Vec<String> = replies
        .iter()
        .zip([&["qr", "qi"][..], &["sx", "sy"], &["a", "b"]])
        .map(|(reply, names)| output_bits(reply, names))
        .collect();
    let want = [
        r#"qr="b42b9712475d9391" qi="b00893c512fb3418""#,
        r#"sx={"bits":1154472671} sy={"bits":1153925647}"#,
        r#"a="1cd1f66a9498a4e5" b="3fe1f62c97be42e1""#,
    ];
    assert_eq!(got, want);
}
