//! `355.seismic` — finite-difference elastic wave propagation.
//!
//! Modeled on the SPEC ACCEL seismic benchmark the paper uses as its
//! motivating example (Fig. 8): a Fortran application whose kernels touch
//! several allocatable 3-D arrays that all share dimensions, with the
//! innermost `k` loop sequential — the configuration where the `dim` and
//! `small` clauses save the most registers (Table I) and where aggressive
//! SAFARA alone *overuses* registers and loses occupancy (Fig. 7).
//!
//! Seven hot kernels (velocity updates HOT1–HOT3, stress updates
//! HOT4–HOT7) run per step; HOT3 reproduces the paper's Fig. 8 pattern
//! literally: three same-dimension arrays differenced along the
//! sequential `k` loop.

use crate::util::{check_close_f64, rand_f64};
use crate::{Scale, Suite, Workload};
use safara_core::Args;

/// The 355.seismic-like workload.
pub struct Seismic;

/// Problem size per scale.
pub fn size(scale: Scale) -> usize {
    match scale {
        Scale::Test => 8,
        Scale::Bench => 30,
    }
}

const ARRAYS: [&str; 12] =
    ["vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz", "mx", "my", "mz"];

impl Workload for Seismic {
    fn name(&self) -> &'static str {
        "355.seismic"
    }

    fn suite(&self) -> Suite {
        Suite::SpecAccel
    }

    fn entry(&self) -> &'static str {
        "seismic_step"
    }

    fn uses_dim(&self) -> bool {
        true
    }

    fn source(&self) -> String {
        source()
    }

    fn args(&self, scale: Scale) -> Args {
        let n = size(scale);
        let total = n * n * n;
        let mut args = Args::new()
            .i32("nx", n as i32)
            .i32("ny", n as i32)
            .i32("nz", n as i32)
            .f64("h", 0.5)
            .f64("dt", 0.01);
        for (s, name) in ARRAYS.iter().enumerate() {
            args = args.array_f64(name, &rand_f64(100 + s as u64, total, -1.0, 1.0));
        }
        args
    }

    fn check(&self, args: &Args, scale: Scale) -> Result<(), String> {
        let n = size(scale);
        let mut state: Vec<Vec<f64>> = ARRAYS
            .iter()
            .enumerate()
            .map(|(s, _)| rand_f64(100 + s as u64, n * n * n, -1.0, 1.0))
            .collect();
        reference_step(n, 0.5, 0.01, &mut state);
        for (s, name) in ARRAYS.iter().enumerate() {
            let got = args.array(name).ok_or_else(|| format!("missing {name}"))?.as_f64();
            check_close_f64(&got, &state[s], 1e-9).map_err(|m| format!("{name}: {m}"))?;
        }
        Ok(())
    }
}

/// The MiniACC source. All nine arrays share dimensions `[1:nz][1:ny][1:nx]`
/// (Fortran-allocatable-style lower bound 1), so one `dim` group covers
/// them all and `small` covers every subscript.
pub fn source() -> String {
    let arrays: Vec<String> = ARRAYS
        .iter()
        .map(|a| format!("double {a}[1:nz][1:ny][1:nx]"))
        .collect();
    let list = ARRAYS.join(", ");
    format!(
        r#"
void seismic_step(int nx, int ny, int nz, double h, double dt, {params}) {{
  #pragma acc kernels copy({list}) \
      dim((1:nz, 1:ny, 1:nx)({list})) \
      small({list})
  {{
    // HOT1: vx update with a CPML-style memory field (mx).
    #pragma acc loop gang
    for (int j = 2; j <= ny; j++) {{
      #pragma acc loop vector
      for (int i = 2; i <= nx; i++) {{
        #pragma acc loop seq
        for (int k = 2; k <= nz; k++) {{
          double dsx = (sxx[k][j][i] - sxx[k][j][i - 1]) / h;
          double dsy = (sxy[k][j][i] - sxy[k][j - 1][i]) / h;
          double dsz = (sxz[k][j][i] - sxz[k - 1][j][i]) / h;
          mx[k][j][i] = 0.9 * mx[k][j][i] + 0.1 * (dsx + dsy + dsz);
          vx[k][j][i] += dt * (dsx + dsy + dsz + mx[k][j][i]);
        }}
      }}
    }}
    // HOT2: vy update with memory field (my).
    #pragma acc loop gang
    for (int j = 2; j <= ny; j++) {{
      #pragma acc loop vector
      for (int i = 2; i <= nx; i++) {{
        #pragma acc loop seq
        for (int k = 2; k <= nz; k++) {{
          double dsx = (sxy[k][j][i] - sxy[k][j][i - 1]) / h;
          double dsy = (syy[k][j][i] - syy[k][j - 1][i]) / h;
          double dsz = (syz[k][j][i] - syz[k - 1][j][i]) / h;
          my[k][j][i] = 0.9 * my[k][j][i] + 0.1 * (dsx + dsy + dsz);
          vy[k][j][i] += dt * (dsx + dsy + dsz + my[k][j][i]);
        }}
      }}
    }}
    // HOT3: vz update — the paper's Fig. 8 pattern: three arrays all
    // differenced along the sequential k loop.
    #pragma acc loop gang
    for (int j = 2; j <= ny; j++) {{
      #pragma acc loop vector
      for (int i = 2; i <= nx; i++) {{
        #pragma acc loop seq
        for (int k = 2; k <= nz; k++) {{
          double d1 = (sxz[k][j][i] - sxz[k - 1][j][i]) / h;
          double d2 = (syz[k][j][i] - syz[k - 1][j][i]) / h;
          double d3 = (szz[k][j][i] - szz[k - 1][j][i]) / h;
          mz[k][j][i] = 0.9 * mz[k][j][i] + 0.1 * (d1 + d2 + d3);
          vz[k][j][i] += dt * (d1 + d2 + d3 + mz[k][j][i]);
        }}
      }}
    }}
    // HOT4: normal stress updates (reads vx, vy, vz; writes sxx, syy, szz).
    #pragma acc loop gang
    for (int j = 2; j <= ny; j++) {{
      #pragma acc loop vector
      for (int i = 2; i <= nx; i++) {{
        #pragma acc loop seq
        for (int k = 2; k <= nz; k++) {{
          double dvx = (vx[k][j][i] - vx[k][j][i - 1]) / h;
          double dvy = (vy[k][j][i] - vy[k][j - 1][i]) / h;
          double dvz = (vz[k][j][i] - vz[k - 1][j][i]) / h;
          sxx[k][j][i] += dt * (2.0 * dvx + dvy + dvz);
          syy[k][j][i] += dt * (dvx + 2.0 * dvy + dvz);
          szz[k][j][i] += dt * (dvx + dvy + 2.0 * dvz);
        }}
      }}
    }}
    // HOT5: sxy shear stress.
    #pragma acc loop gang
    for (int j = 2; j <= ny; j++) {{
      #pragma acc loop vector
      for (int i = 2; i <= nx; i++) {{
        #pragma acc loop seq
        for (int k = 2; k <= nz; k++) {{
          sxy[k][j][i] += dt * ((vy[k][j][i] - vy[k][j][i - 1]) / h
                              + (vx[k][j][i] - vx[k][j - 1][i]) / h);
        }}
      }}
    }}
    // HOT6: sxz shear stress (vx differenced along k: inter-iteration).
    #pragma acc loop gang
    for (int j = 2; j <= ny; j++) {{
      #pragma acc loop vector
      for (int i = 2; i <= nx; i++) {{
        #pragma acc loop seq
        for (int k = 2; k <= nz; k++) {{
          sxz[k][j][i] += dt * ((vz[k][j][i] - vz[k][j][i - 1]) / h
                              + (vx[k][j][i] - vx[k - 1][j][i]) / h);
        }}
      }}
    }}
    // HOT7: syz shear stress (vy differenced along k).
    #pragma acc loop gang
    for (int j = 2; j <= ny; j++) {{
      #pragma acc loop vector
      for (int i = 2; i <= nx; i++) {{
        #pragma acc loop seq
        for (int k = 2; k <= nz; k++) {{
          syz[k][j][i] += dt * ((vz[k][j][i] - vz[k][j - 1][i]) / h
                              + (vy[k][j][i] - vy[k - 1][j][i]) / h);
        }}
      }}
    }}
  }}
}}
"#,
        params = arrays.join(", "),
        list = list,
    )
}

/// Pure-Rust reference: the same seven kernels, executed in launch order.
/// `state` holds the twelve arrays in `ARRAYS` order.
pub fn reference_step(n: usize, h: f64, dt: f64, state: &mut [Vec<f64>]) {
    let idx = |k: usize, j: usize, i: usize| ((k - 1) * n + (j - 1)) * n + (i - 1);
    #[allow(clippy::too_many_arguments)]
    let (vx, vy, vz, sxx, syy, szz, sxy, sxz, syz, mx, my, mz) =
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11);

    // HOT1 — vx with memory field mx. Mirrors the device semantics
    // exactly: mx is updated first, then vx reads the *new* mx.
    {
        let snapshot: Vec<Vec<f64>> = state.to_vec();
        for j in 2..=n {
            for i in 2..=n {
                for k in 2..=n {
                    let dsx = (snapshot[sxx][idx(k, j, i)] - snapshot[sxx][idx(k, j, i - 1)]) / h;
                    let dsy = (snapshot[sxy][idx(k, j, i)] - snapshot[sxy][idx(k, j - 1, i)]) / h;
                    let dsz = (snapshot[sxz][idx(k, j, i)] - snapshot[sxz][idx(k - 1, j, i)]) / h;
                    let m = 0.9 * state[mx][idx(k, j, i)] + 0.1 * (dsx + dsy + dsz);
                    state[mx][idx(k, j, i)] = m;
                    state[vx][idx(k, j, i)] += dt * (dsx + dsy + dsz + m);
                }
            }
        }
    }
    // HOT2 — vy with memory field my.
    {
        let snapshot: Vec<Vec<f64>> = state.to_vec();
        for j in 2..=n {
            for i in 2..=n {
                for k in 2..=n {
                    let dsx = (snapshot[sxy][idx(k, j, i)] - snapshot[sxy][idx(k, j, i - 1)]) / h;
                    let dsy = (snapshot[syy][idx(k, j, i)] - snapshot[syy][idx(k, j - 1, i)]) / h;
                    let dsz = (snapshot[syz][idx(k, j, i)] - snapshot[syz][idx(k - 1, j, i)]) / h;
                    let m = 0.9 * state[my][idx(k, j, i)] + 0.1 * (dsx + dsy + dsz);
                    state[my][idx(k, j, i)] = m;
                    state[vy][idx(k, j, i)] += dt * (dsx + dsy + dsz + m);
                }
            }
        }
    }
    // HOT3 — vz with memory field mz (the Fig. 8 pattern).
    {
        let snapshot: Vec<Vec<f64>> = state.to_vec();
        for j in 2..=n {
            for i in 2..=n {
                for k in 2..=n {
                    let d1 = (snapshot[sxz][idx(k, j, i)] - snapshot[sxz][idx(k - 1, j, i)]) / h;
                    let d2 = (snapshot[syz][idx(k, j, i)] - snapshot[syz][idx(k - 1, j, i)]) / h;
                    let d3 = (snapshot[szz][idx(k, j, i)] - snapshot[szz][idx(k - 1, j, i)]) / h;
                    let m = 0.9 * state[mz][idx(k, j, i)] + 0.1 * (d1 + d2 + d3);
                    state[mz][idx(k, j, i)] = m;
                    state[vz][idx(k, j, i)] += dt * (d1 + d2 + d3 + m);
                }
            }
        }
    }
    // HOT4 — normal stresses.
    {
        let snapshot: Vec<Vec<f64>> = state.to_vec();
        for j in 2..=n {
            for i in 2..=n {
                for k in 2..=n {
                    let dvx = (snapshot[vx][idx(k, j, i)] - snapshot[vx][idx(k, j, i - 1)]) / h;
                    let dvy = (snapshot[vy][idx(k, j, i)] - snapshot[vy][idx(k, j - 1, i)]) / h;
                    let dvz = (snapshot[vz][idx(k, j, i)] - snapshot[vz][idx(k - 1, j, i)]) / h;
                    state[sxx][idx(k, j, i)] += dt * (2.0 * dvx + dvy + dvz);
                    state[syy][idx(k, j, i)] += dt * (dvx + 2.0 * dvy + dvz);
                    state[szz][idx(k, j, i)] += dt * (dvx + dvy + 2.0 * dvz);
                }
            }
        }
    }
    // HOT5/6/7 — shear stresses.
    #[allow(clippy::type_complexity)]
    let run = |state: &mut [Vec<f64>],
               target: usize,
               f: &dyn Fn(&[Vec<f64>], usize, usize, usize) -> f64| {
        let snapshot: Vec<Vec<f64>> = state.to_vec();
        for j in 2..=n {
            for i in 2..=n {
                for k in 2..=n {
                    state[target][idx(k, j, i)] += f(&snapshot, k, j, i);
                }
            }
        }
    };
    run(state, sxy, &|s, k, j, i| {
        dt * ((s[vy][idx(k, j, i)] - s[vy][idx(k, j, i - 1)]) / h
            + (s[vx][idx(k, j, i)] - s[vx][idx(k, j - 1, i)]) / h)
    });
    run(state, sxz, &|s, k, j, i| {
        dt * ((s[vz][idx(k, j, i)] - s[vz][idx(k, j, i - 1)]) / h
            + (s[vx][idx(k, j, i)] - s[vx][idx(k - 1, j, i)]) / h)
    });
    run(state, syz, &|s, k, j, i| {
        dt * ((s[vz][idx(k, j, i)] - s[vz][idx(k, j - 1, i)]) / h
            + (s[vy][idx(k, j, i)] - s[vy][idx(k - 1, j, i)]) / h)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_workload;
    use safara_core::{CompilerConfig, DeviceConfig};

    #[test]
    fn seismic_correct_under_base_and_clauses() {
        let dev = DeviceConfig::k20xm();
        for cfg in [CompilerConfig::base(), CompilerConfig::safara_clauses()] {
            run_workload(&Seismic, &cfg, Scale::Test, &dev)
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        }
    }

    #[test]
    fn seismic_has_seven_kernels() {
        let (_, program) =
            run_workload(&Seismic, &CompilerConfig::base(), Scale::Test, &DeviceConfig::k20xm())
                .unwrap();
        assert_eq!(program.function("seismic_step").unwrap().kernels.len(), 7);
    }

    #[test]
    fn clauses_reduce_register_usage_table1_shape() {
        // The Table I property: Base ≥ +small ≥ +small+dim, strictly
        // saving overall.
        let dev = DeviceConfig::k20xm();
        let (_, base) = run_workload(&Seismic, &CompilerConfig::base(), Scale::Test, &dev).unwrap();
        let (_, small) =
            run_workload(&Seismic, &CompilerConfig::small(), Scale::Test, &dev).unwrap();
        let (_, dim) =
            run_workload(&Seismic, &CompilerConfig::small_dim(), Scale::Test, &dev).unwrap();
        let b = base.function("seismic_step").unwrap();
        let s = small.function("seismic_step").unwrap();
        let d = dim.function("seismic_step").unwrap();
        let mut saved_total = 0i64;
        for i in 0..7 {
            let rb = b.kernels[i].alloc.regs_used;
            let rs = s.kernels[i].alloc.regs_used;
            let rd = d.kernels[i].alloc.regs_used;
            assert!(rs <= rb, "HOT{}: +small {rs} > base {rb}", i + 1);
            assert!(rd <= rs, "HOT{}: +dim {rd} > +small {rs}", i + 1);
            saved_total += rb as i64 - rd as i64;
        }
        assert!(saved_total > 0, "clauses must save registers overall");
    }
}
