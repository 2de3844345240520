//! Dense-kernel throughput smoke benchmark.
//!
//! Times the seed scalar kernels (`dense::kernels::reference`) against the
//! packed/blocked implementations at the block sizes the factorization
//! actually uses, and writes the results as `BENCH_kernels.json`. This is a
//! quick wall-clock harness (medians of calibrated repetitions), not a
//! statistics suite — for that use `cargo bench -p bench kernels`.
//!
//! ```text
//! kernbench [--json <path>] [--quick]
//! ```

use bench::table::{json_str, TextTable};
use dense::kernels::{self, reference};
use dense::KernelArena;
use std::time::Instant;

/// Deterministic fill so runs are comparable.
fn filled(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        })
        .collect()
}

fn spd(n: usize) -> Vec<f64> {
    let m = filled(n * n, n as u64);
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut s = if i == j { n as f64 } else { 0.0 };
            for t in 0..n {
                s += m[i * n + t] * m[j * n + t];
            }
            a[i * n + j] = s;
        }
    }
    a
}

/// Median seconds per call: calibrates the per-sample repetition count to
/// `min_sample_s`, then takes the median of `samples` samples.
fn time_median(samples: usize, min_sample_s: f64, mut f: impl FnMut()) -> f64 {
    // Warm-up + calibration.
    let mut iters = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= min_sample_s || iters > 1 << 24 {
            break;
        }
        let scale = (min_sample_s / dt.max(1e-9) * 1.25).max(2.0);
        iters = ((iters as f64) * scale).ceil() as usize;
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).unwrap());
    per_call[per_call.len() / 2]
}

struct Row {
    kernel: &'static str,
    shape: String,
    flops: f64,
    ref_s: f64,
    new_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.ref_s / self.new_s
    }
}

fn main() {
    let mut json_path = "BENCH_kernels.json".to_string();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next().expect("--json needs a path"),
            "--quick" => quick = true,
            other => {
                eprintln!("unknown arg {other}");
                std::process::exit(2);
            }
        }
    }
    let (samples, min_sample_s) = if quick { (3, 0.01) } else { (5, 0.05) };
    let mut rows: Vec<Row> = Vec::new();
    let mut arena = KernelArena::new();

    // GEMM: C := C − A·Bᵀ at square block shapes.
    for n in [48usize, 96, 192] {
        let (m, k) = (n, n);
        let a = filled(m * k, 1);
        let b = filled(n * k, 2);
        let mut c = filled(m * n, 3);
        let ref_s = time_median(samples, min_sample_s, || {
            reference::gemm_abt_sub(&mut c, &a, &b, m, n, k);
        });
        let new_s = time_median(samples, min_sample_s, || {
            kernels::gemm_abt_sub_with(&mut c, &a, &b, m, n, k, &mut arena);
        });
        rows.push(Row {
            kernel: "gemm_abt_sub",
            shape: format!("m=n=k={n}"),
            flops: 2.0 * (m * n * k) as f64,
            ref_s,
            new_s,
        });
    }

    // SYRK: lower-triangle C := C − A·Aᵀ.
    for n in [48usize, 96, 192] {
        let k = n;
        let a = filled(n * k, 4);
        let mut c = filled(n * n, 5);
        let ref_s = time_median(samples, min_sample_s, || {
            reference::syrk_lt_sub(&mut c, &a, n, k);
        });
        let new_s = time_median(samples, min_sample_s, || {
            kernels::syrk_lt_sub_with(&mut c, &a, n, k, &mut arena);
        });
        rows.push(Row {
            kernel: "syrk_lt_sub",
            shape: format!("n=k={n}"),
            flops: (n * n * k) as f64, // lower triangle: half of GEMM
            ref_s,
            new_s,
        });
    }

    // POTRF on an SPD block (factor into a scratch copy each call).
    for n in [48usize, 96, 192] {
        let a = spd(n);
        let mut w = a.clone();
        let ref_s = time_median(samples, min_sample_s, || {
            w.copy_from_slice(&a);
            reference::potrf(&mut w, n).unwrap();
        });
        let new_s = time_median(samples, min_sample_s, || {
            w.copy_from_slice(&a);
            kernels::potrf_with(&mut w, n, &mut arena).unwrap();
        });
        rows.push(Row {
            kernel: "potrf",
            shape: format!("n={n}"),
            flops: (n * n * n) as f64 / 3.0,
            ref_s,
            new_s,
        });
    }

    // TRSM: m rows solved against an n × n factor.
    for n in [48usize, 96, 192] {
        let m = n;
        let mut l = spd(n);
        reference::potrf(&mut l, n).unwrap();
        let x0 = filled(m * n, 6);
        let mut x = x0.clone();
        let ref_s = time_median(samples, min_sample_s, || {
            x.copy_from_slice(&x0);
            reference::trsm_right_lower_trans(&l, n, &mut x, m);
        });
        let new_s = time_median(samples, min_sample_s, || {
            x.copy_from_slice(&x0);
            kernels::trsm_right_lower_trans_with(&l, n, &mut x, m, &mut arena);
        });
        rows.push(Row {
            kernel: "trsm_right_lower_trans",
            shape: format!("m=n={n}"),
            flops: (m * n * n) as f64,
            ref_s,
            new_s,
        });
    }

    let mut table = TextTable::new(
        "Dense kernel throughput: seed scalar (ref) vs packed/blocked (new)",
        &["kernel", "shape", "ref Mflop/s", "new Mflop/s", "speedup"],
    );
    for r in &rows {
        table.row(vec![
            r.kernel.to_string(),
            r.shape.clone(),
            format!("{:.0}", r.flops / r.ref_s / 1e6),
            format!("{:.0}", r.flops / r.new_s / 1e6),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    println!("{table}");
    println!("register tile: {}", dense::pack::TILE);

    let env = bench::WorkerEnv::probe_and_warn("kernbench");
    let env_fields = env.json_fields();
    let mut out = String::from("{\"kernels\":[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"kernel\":{},\"shape\":{},\"tile\":{},\"block_policy\":\"n/a\",{env_fields},\"flops\":{},\"ref_s\":{:.6e},\"new_s\":{:.6e},\"ref_mflops\":{:.1},\"new_mflops\":{:.1},\"speedup\":{:.3}}}",
            json_str(r.kernel),
            json_str(&r.shape),
            json_str(dense::pack::TILE),
            r.flops,
            r.ref_s,
            r.new_s,
            r.flops / r.ref_s / 1e6,
            r.flops / r.new_s / 1e6,
            r.speedup()
        ));
    }
    out.push_str("\n]}\n");
    std::fs::write(&json_path, out).expect("write json");
    eprintln!("[wrote {json_path}]");
}
