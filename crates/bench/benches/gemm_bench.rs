//! GEMM microkernel benchmarks for the persistent compute-pool runtime.
//!
//! * `gemm/*` — GFLOP/s of the three pooled matmul variants at 128³, 256³,
//!   and 512³ under the full machine core budget.
//! * `spawn_overhead/*` — A/B of the pre-pool scoped-spawn matmul (kept
//!   verbatim below as `scoped_spawn_matmul`) against the pooled packed
//!   kernel at identical sizes: the spawn-per-call cost plus the unpacked
//!   strided-`B` traversal is exactly what the pool + packing removed.
//!
//! Besides the criterion timings, the bench writes a machine-readable
//! scaling-curve summary to `target/BENCH_gemm.json`: pool sizes 1→N ×
//! {f32, mixed} × all three kernels × {128³, 256³, 512³}, each point
//! reporting achieved GFLOP/s **and percent-of-roofline** against
//! `summit_perf::roofline`'s CPU ceiling for the detected backend (AVX2
//! f32x8 lanes or the scalar fallback). Every pool-size configuration runs
//! inside `summit_pool::with_core_budget`, whose drop-guard restore
//! guarantees one configuration can never leak its budget into the next —
//! even if an iteration panics (regression-tested in `summit-pool`).
//! A `step_shapes` block adds the shapes a training or serving step
//! actually issues (`m × k × n` = 64×1024×1024, 2×1024×1024, 16×512×512;
//! one thread, f32, each variant on its own operand layout), where the
//! per-call pack and the skinny `m` weigh far more than at 512³.
//! Headline 512³ numbers feed the committed perf trajectory via
//! `summit_bench::harness` (append gated behind `SUMMIT_BENCH_RECORD=1`),
//! and `src/bin/gemm_gate.rs` enforces the floor / no-regression contract
//! in CI. In `--test` mode (CI smoke) every measurement runs a single
//! iteration.

use criterion::{BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use summit_bench::harness;
use summit_perf::roofline::{Kernel, Roofline};
use summit_tensor::{simd, Matrix, Precision};

/// The paper-scale shapes: square m = k = n.
const SHAPES: [usize; 3] = [128, 256, 512];

/// `(m, k, n)` of the products one step issues per layer: the benchmark's
/// `train_compute` and `train_sync` hidden layers and a served batch of 16.
const STEP_SHAPES: [(usize, usize, usize); 3] = [(64, 1024, 1024), (2, 1024, 1024), (16, 512, 512)];

fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| {
            let v = seed.wrapping_add(i as u64).wrapping_mul(2654435761) % 29;
            v as f32 * 0.37 - 4.0
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn square(n: usize, seed: u64) -> Matrix {
    filled(n, n, seed)
}

/// The pre-pool `Matrix::matmul`, kept verbatim as the in-bench baseline:
/// every call above the parallelism threshold spawns scoped threads, walks
/// `B` strided (no packing), and pays a data-dependent `a == 0.0` branch in
/// the innermost loop.
fn scoped_spawn_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let rows = a.rows();
    let n = b.cols();
    let run_rows = |rows_out: &mut [f32], row_range: std::ops::Range<usize>| {
        for (oi, i) in row_range.enumerate() {
            let a_row = a.row(i);
            let out_row = &mut rows_out[oi * n..(oi + 1) * n];
            for (k, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = b.row(k);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    };
    if rows < 128 {
        run_rows(out.as_mut_slice(), 0..rows);
    } else {
        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(4)
            .min(rows);
        let chunk_rows = rows.div_ceil(threads);
        std::thread::scope(|s| {
            for (t, chunk) in out.as_mut_slice().chunks_mut(chunk_rows * n).enumerate() {
                let start = t * chunk_rows;
                let end = (start + chunk.len() / n).min(rows);
                let run = &run_rows;
                s.spawn(move || run(chunk, start..end));
            }
        });
    }
    out
}

fn gemm_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    for &s in &SHAPES {
        let a = square(s, 1);
        let b = square(s, 2);
        let mut out = Matrix::zeros(s, s);
        group.bench_with_input(BenchmarkId::new("matmul", s), &s, |bench, _| {
            bench.iter(|| {
                a.matmul_into(black_box(&b), &mut out);
                out.get(0, 0)
            })
        });
        group.bench_with_input(BenchmarkId::new("matmul_at_b", s), &s, |bench, _| {
            bench.iter(|| {
                a.matmul_at_b_into(black_box(&b), &mut out);
                out.get(0, 0)
            })
        });
        group.bench_with_input(BenchmarkId::new("matmul_a_bt", s), &s, |bench, _| {
            bench.iter(|| {
                a.matmul_a_bt_into(black_box(&b), &mut out);
                out.get(0, 0)
            })
        });
    }
    group.finish();
}

fn spawn_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("spawn_overhead");
    group.sample_size(10);
    for &s in &[256usize, 512] {
        let a = square(s, 3);
        let b = square(s, 4);
        let mut out = Matrix::zeros(s, s);
        group.bench_with_input(BenchmarkId::new("scoped_spawn", s), &s, |bench, _| {
            bench.iter(|| scoped_spawn_matmul(black_box(&a), black_box(&b)).get(0, 0))
        });
        group.bench_with_input(BenchmarkId::new("pooled", s), &s, |bench, _| {
            bench.iter(|| {
                a.matmul_into(black_box(&b), &mut out);
                out.get(0, 0)
            })
        });
    }
    group.finish();
}

/// Best-of-`iters` wall-clock seconds for `f` (1 iteration in smoke mode).
fn time_best(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Base clock of the host CPU in GHz, for the roofline ceiling:
/// `SUMMIT_CPU_GHZ` overrides, else the `@ X.XXGHz` suffix of the
/// `/proc/cpuinfo` model name, else the live `cpu MHz` line, else 2.0.
/// On a host that boosts above its nominal clock, set `SUMMIT_CPU_GHZ` to
/// the clock it sustains before recording a trajectory row, or the row's
/// percentages pass 100 and a runner that does not boost fails the gate.
fn cpu_ghz() -> f64 {
    if let Some(g) = std::env::var("SUMMIT_CPU_GHZ")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        return g;
    }
    if let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in info.lines() {
            if line.starts_with("model name") {
                if let Some(at) = line.rfind('@') {
                    let tail = line[at + 1..].trim();
                    if let Some(ghz) = tail
                        .strip_suffix("GHz")
                        .and_then(|v| v.trim().parse::<f64>().ok())
                    {
                        return ghz;
                    }
                }
            }
        }
        for line in info.lines() {
            if line.starts_with("cpu MHz") {
                if let Some(mhz) = line
                    .split(':')
                    .nth(1)
                    .and_then(|v| v.trim().parse::<f64>().ok())
                {
                    return mhz / 1000.0;
                }
            }
        }
    }
    2.0
}

/// Assumed host memory bandwidth (bytes/s) for the roofline's memory leg;
/// paper-scale GEMM tiles are compute-bound well below any plausible
/// value, so precision here barely moves the ceiling. `SUMMIT_CPU_MEMBW`
/// overrides.
fn cpu_mem_bw() -> f64 {
    std::env::var("SUMMIT_CPU_MEMBW")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2.5e10)
}

/// Run one (variant, precision) product.
fn run_variant(a: &Matrix, b: &Matrix, out: &mut Matrix, variant: &str, prec: Precision) {
    match variant {
        "matmul" => a.matmul_into_prec(b, out, prec),
        "matmul_at_b" => a.matmul_at_b_into_prec(b, out, prec),
        _ => a.matmul_a_bt_into_prec(b, out, prec),
    }
}

/// The scaling-curve sweep: pool sizes 1→N × {f32, mixed} × all three
/// kernels × all shapes, each point scored as percent-of-roofline, plus
/// the scoped-vs-pooled A/B; writes `target/BENCH_gemm.json` through the
/// shared harness and (when recording) appends the trajectory entry.
fn write_summary(smoke: bool) {
    let iters = if smoke { 1 } else { 5 };
    let machine = summit_pool::machine_parallelism();
    // Powers of two up to min(max(machine, 4), 8): small hosts still get a
    // curve (the oversubscribed tail shows where dispatch overhead flattens
    // it), big hosts stop at 8 as the issue's 1→8 contract. On a
    // single-core host the sweep is pure oversubscription — every pool
    // size time-slices one core — so it measures scheduler noise, not
    // scaling; run pool = 1 only and say why.
    let pool_sweep = machine > 1;
    let pools: Vec<usize> = if pool_sweep {
        let max_pool = machine.clamp(4, 8);
        (0..4)
            .map(|i| 1usize << i)
            .filter(|&p| p <= max_pool)
            .collect()
    } else {
        println!(
            "gemm_bench: machine_parallelism() == 1 — skipping the pool scaling sweep \
             (oversubscribed pools on one core measure time-slicing, not scaling); \
             running pool = 1 only"
        );
        vec![1]
    };
    let simd_active = simd::active();
    let lanes = if simd_active { 8 } else { 1 };
    let ghz = cpu_ghz();
    let mem_bw = cpu_mem_bw();

    let mut entries = Vec::new();
    let mut headline: BTreeMap<String, f64> = BTreeMap::new();
    let mut headline_max = |key: String, v: f64| {
        let e = headline.entry(key).or_insert(f64::MIN);
        *e = e.max(v);
    };
    for &pool in &pools {
        // The drop-guard restore in `with_core_budget` is what keeps one
        // configuration's pool size from leaking into the next.
        summit_pool::with_core_budget(pool, || {
            // Oversubscribed pools cannot raise the hardware ceiling.
            let cores = pool.min(machine).max(1) as u32;
            for prec in [Precision::F32, Precision::Mixed] {
                let prec_name = match prec {
                    Precision::F32 => "f32",
                    Precision::Mixed => "mixed",
                };
                for &s in &SHAPES {
                    let a = square(s, 1);
                    let b = square(s, 2);
                    let mut out = Matrix::zeros(s, s);
                    let flops = 2.0 * (s as f64).powi(3);
                    let kernel = match prec {
                        Precision::F32 => Kernel::matmul_f32(s as u32),
                        Precision::Mixed => Kernel::matmul_mixed_bf16(s as u32),
                    };
                    let roof = Roofline::of_cpu(cores, ghz, lanes, 2, mem_bw);
                    let ceiling = roof.evaluate(kernel).attainable_flops / 1e9;
                    for variant in ["matmul", "matmul_at_b", "matmul_a_bt"] {
                        // Warm the pool and packing scratch before timing.
                        run_variant(&a, &b, &mut out, variant, prec);
                        let secs =
                            time_best(iters, || run_variant(&a, &b, &mut out, variant, prec));
                        let gflops = flops / secs / 1e9;
                        let pct = 100.0 * gflops / ceiling;
                        entries.push(format!(
                            "    {{\"variant\": \"{variant}\", \"shape\": {s}, \
                             \"precision\": \"{prec_name}\", \"pool\": {pool}, \
                             \"cores\": {cores}, \"seconds\": {secs:.6}, \
                             \"gflops\": {gflops:.3}, \"roofline_gflops\": {ceiling:.3}, \
                             \"pct_of_roofline\": {pct:.2}}}"
                        ));
                        if s == 512 {
                            // Best-over-pools headline: stable on any core
                            // count, and what the CI gate compares.
                            headline_max(format!("{variant}_512_{prec_name}_gflops"), gflops);
                            headline_max(format!("{variant}_512_{prec_name}_pct"), pct);
                        }
                    }
                }
            }
        });
    }

    // The step shapes, as a layer's forward (`x·W`), weight-gradient
    // (`xᵀ·dy`) and input-gradient (`dy·Wᵀ`) products, on one thread — the
    // budget a rank of a data-parallel world on this host computes under.
    let mut step_entries = Vec::new();
    summit_pool::with_core_budget(1, || {
        for &(m, k, n) in &STEP_SHAPES {
            let x = filled(m, k, 5);
            let w = filled(k, n, 6);
            let dy = filled(m, n, 7);
            let mut y = Matrix::zeros(m, n);
            let mut gw = Matrix::zeros(k, n);
            let mut dx = Matrix::zeros(m, k);
            let flops = 2.0 * (m * k * n) as f64;
            let mut point = |variant: &str, f: &mut dyn FnMut()| {
                f();
                let secs = time_best(iters, f);
                let gflops = flops / secs / 1e9;
                step_entries.push(format!(
                    "    {{\"variant\": \"{variant}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
                     \"seconds\": {secs:.6}, \"gflops\": {gflops:.3}}}"
                ));
                headline_max(format!("{variant}_step_{m}x{k}x{n}_f32_gflops"), gflops);
            };
            point("matmul", &mut || x.matmul_into(&w, &mut y));
            point("matmul_at_b", &mut || x.matmul_at_b_into(&dy, &mut gw));
            point("matmul_a_bt", &mut || dy.matmul_a_bt_into(&w, &mut dx));
        }
    });

    // Spawn-overhead A/B at the acceptance shape, under the default budget.
    let s = 512;
    let a = square(s, 3);
    let b = square(s, 4);
    let mut out = Matrix::zeros(s, s);
    a.matmul_into(&b, &mut out);
    let scoped = time_best(iters, || {
        black_box(scoped_spawn_matmul(&a, &b));
    });
    let pooled = time_best(iters, || a.matmul_into(&b, &mut out));
    let stats = summit_pool::global().stats();

    let headline_json = headline
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:.4}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!
(
        "{{\n  \"bench\": \"gemm\",\n  \"cores\": {machine},\n  \"simd\": {simd_active},\n  \"lanes\": {lanes},\n  \"ghz\": {ghz:.3},\n  \"pool_sweep\": {pool_sweep},\n  \"pool_sweep_note\": \"{}\",\n  \"results\": [\n{}\n  ],\n  \"step_shapes\": [\n{}\n  ],\n  \"headline\": {{{headline_json}}},\n  \"spawn_overhead_ab\": {{\"shape\": {s}, \"scoped_seconds\": {scoped:.6}, \"pooled_seconds\": {pooled:.6}, \"speedup\": {:.3}}},\n  \"pool\": {{\"tasks_dispatched\": {}, \"tasks_stolen\": {}, \"parks\": {}, \"workers\": {}, \"busy_seconds\": {:.3}, \"max_concurrency\": {}}}\n}}\n",
        if pool_sweep {
            "1..=min(max(cores,4),8)"
        } else {
            "skipped: machine_parallelism() == 1, pool = 1 only"
        },
        entries.join(",\n"),
        step_entries.join(",\n"),
        scoped / pooled,
        stats.tasks_dispatched,
        stats.tasks_stolen,
        stats.parks,
        stats.workers_spawned,
        stats.busy_seconds(),
        stats.max_concurrency,
    );
    harness::write_bench_json("gemm", &json);
    harness::record_trajectory(&harness::TrajectoryEntry::now("gemm", headline));
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let mut criterion = Criterion::default();
    gemm_variants(&mut criterion);
    spawn_overhead(&mut criterion);
    write_summary(smoke);
}
