//! Statistics, digests and the run manifest.

use std::time::Instant;

use crate::Args;

/// Median of `values` (sorts in place). Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn gmean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a over `text`: a stable digest of printed statistics.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Host nanoseconds one `Instant::now()` costs, measured here. Replays
/// that time single calls subtract it per timed call.
pub fn clock_overhead_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..CALLS {
        last = std::hint::black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(CALLS)
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Peak resident set size of this process image in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage` would also count the launcher's peak,
/// since Linux carries `ru_maxrss` across `exec`.)
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kib / 1024.0)
}

/// The CPU brand string from CPUID, or `unknown`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".into();
        }
        let mut brand = Vec::with_capacity(48);
        for leaf in 0x8000_0002..=0x8000_0004u32 {
            let r = __cpuid(leaf);
            for word in [r.eax, r.ebx, r.ecx, r.edx] {
                brand.extend_from_slice(&word.to_le_bytes());
            }
        }
        String::from_utf8_lossy(&brand)
            .trim_matches(char::from(0))
            .trim()
            .to_string()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "unknown".into()
    }
}

/// Prints the run manifest: what a result must carry to be compared with
/// another. `scale` lists the workload's seeds, threads and scale values.
pub fn print_manifest(args: &Args, scale: &[(&str, String)]) {
    let backend = match synergy_crypto::Backend::detect() {
        synergy_crypto::Backend::Simd => "simd",
        synergy_crypto::Backend::Table => "table",
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload", args.workload.clone()),
        ("git_rev", env!("PERFBENCH_GIT_REV").to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("cpu", cpu_model()),
        ("nproc", nproc.to_string()),
        ("crypto_backend", backend.to_string()),
        (
            "seed_arg",
            args.seed.map_or("none".into(), |s| s.to_string()),
        ),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    fields.extend(scale.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    println!("manifest {{{}}}", body.join(", "));
}
