//! Criterion micro-benchmarks for the crypto substrate: AES block
//! throughput, counter-mode line encryption, GMAC and Carter–Wegman tags.
//!
//! Each hot-path kernel is benchmarked on every backend the host can run
//! (the AES-NI/PCLMULQDQ [`Backend::Simd`] path where available, the
//! portable [`Backend::Table`] path everywhere) plus the retained
//! bit-serial / per-byte `*_reference` path, so both speedup stages are
//! visible directly in the report: tables over the reference
//! implementation, and hardware instructions over the tables
//! (`gmac_line_tag/simd` vs `gmac_line_tag/table` vs
//! `gmac_line_tag/reference`). Batched entry points
//! ([`Gmac::line_tags_batch`], [`LineCipher::pads_batch`],
//! [`Aes128::encrypt_blocks`]) get `<backend>_batch8` rows alongside the
//! scalar ones.
//!
//! Every benchmark is named `<kernel>/<backend>[_batch8]`. After the
//! groups run, the same measurements are written to
//! `target/experiments/micro_crypto_backends.csv` (one row per
//! kernel/backend/mode with ns per block or line and the speedup over
//! the kernel's table/scalar row), so CI can archive the comparison
//! without parsing the console report.

use criterion::{Criterion, Throughput};
use std::hint::black_box;
use synergy_crypto::ctr::LineCipher;
use synergy_crypto::cw_mac::CarterWegmanMac;
use synergy_crypto::gmac::Gmac;
use synergy_crypto::{Aes128, Backend, CacheLine, EncryptionKey, MacKey};

/// Items one `_batch8` call processes.
const BATCH: u64 = 8;

/// Backends runnable on this host, best first.
fn backends() -> Vec<(Backend, &'static str)> {
    if Backend::simd_available() {
        vec![(Backend::Simd, "simd"), (Backend::Table, "table")]
    } else {
        vec![(Backend::Table, "table")]
    }
}

fn bench_aes(c: &mut Criterion) {
    let block = [0x3Cu8; 16];
    let mut g = c.benchmark_group("aes_encrypt_block");
    for (backend, label) in backends() {
        let aes = Aes128::with_backend(&[7u8; 16], backend);
        g.throughput(Throughput::Bytes(16));
        g.bench_function(label, |b| b.iter(|| aes.encrypt_block(black_box(&block))));
        g.throughput(Throughput::Bytes(16 * BATCH));
        let mut blocks = [block; BATCH as usize];
        g.bench_function(&format!("{label}_batch8"), |b| {
            b.iter(|| aes.encrypt_blocks(black_box(&mut blocks)))
        });
    }
    g.throughput(Throughput::Bytes(16));
    let aes = Aes128::new(&[7u8; 16]);
    g.bench_function("reference", |b| {
        b.iter(|| aes.encrypt_block_reference(black_box(&block)))
    });
    g.finish();

    let mut g = c.benchmark_group("aes_decrypt_block");
    g.throughput(Throughput::Bytes(16));
    let (backend, label) = backends()[0];
    let aes = Aes128::with_backend(&[7u8; 16], backend);
    let ct = aes.encrypt_block(&block);
    g.bench_function(label, |b| b.iter(|| aes.decrypt_block(black_box(&ct))));
    g.finish();
}

fn bench_ctr(c: &mut Criterion) {
    let line = CacheLine::from_bytes([0xA5; 64]);
    let mut g = c.benchmark_group("ctr_encrypt_line");
    for (backend, label) in backends() {
        let cipher = LineCipher::with_backend(&EncryptionKey::from_bytes([1; 16]), backend);
        g.throughput(Throughput::Bytes(64));
        g.bench_function(label, |b| {
            let mut ctr = 0u64;
            b.iter(|| {
                ctr += 1;
                cipher.encrypt(black_box(0x4000), black_box(ctr), black_box(&line))
            })
        });
        g.throughput(Throughput::Bytes(64 * BATCH));
        let nonces: Vec<(u64, u64)> = (0..BATCH).map(|i| (0x4000 + i * 64, 9)).collect();
        g.bench_function(&format!("{label}_batch8"), |b| {
            b.iter(|| cipher.pads_batch(black_box(&nonces)))
        });
    }
    g.throughput(Throughput::Bytes(64));
    let cipher = LineCipher::new(&EncryptionKey::from_bytes([1; 16]));
    g.bench_function("reference", |b| {
        let mut ctr = 0u64;
        b.iter(|| {
            ctr += 1;
            cipher.encrypt_reference(black_box(0x4000), black_box(ctr), black_box(&line))
        })
    });
    g.finish();
}

fn bench_gmac(c: &mut Criterion) {
    let line = CacheLine::from_bytes([0x5A; 64]);
    let mut g = c.benchmark_group("gmac_line_tag");
    for (backend, label) in backends() {
        let gmac = Gmac::with_backend(&MacKey::from_bytes([2; 16]), backend);
        g.throughput(Throughput::Bytes(64));
        g.bench_function(label, |b| {
            b.iter(|| gmac.line_tag(black_box(0x4000), black_box(9), black_box(&line)))
        });
        g.throughput(Throughput::Bytes(64 * BATCH));
        let items: Vec<(u64, u64, &CacheLine)> =
            (0..BATCH).map(|i| (0x4000 + i * 64, 9, &line)).collect();
        g.bench_function(&format!("{label}_batch8"), |b| {
            b.iter(|| gmac.line_tags_batch(black_box(&items)))
        });
    }
    g.throughput(Throughput::Bytes(64));
    let gmac = Gmac::new(&MacKey::from_bytes([2; 16]));
    g.bench_function("reference", |b| {
        b.iter(|| gmac.line_tag_reference(black_box(0x4000), black_box(9), black_box(&line)))
    });
    g.finish();
}

fn bench_cw(c: &mut Criterion) {
    let line = CacheLine::from_bytes([0x5A; 64]);
    let mut g = c.benchmark_group("cw_tag_line");
    g.throughput(Throughput::Bytes(64));
    for (backend, label) in backends() {
        let cw = CarterWegmanMac::with_backend(&MacKey::from_bytes([3; 16]), backend);
        g.bench_function(label, |b| {
            b.iter(|| cw.line_tag(black_box(0x4000), black_box(9), black_box(&line)))
        });
    }
    let cw = CarterWegmanMac::new(&MacKey::from_bytes([3; 16]));
    g.bench_function("reference", |b| {
        b.iter(|| cw.line_tag_reference(black_box(0x4000), black_box(9), black_box(&line)))
    });
    g.finish();
}

/// Writes `micro_crypto_backends.csv` from the measurements and prints
/// the same matrix. Batched rows report ns per *item* (a batch-8 call
/// amortizes over its 8 blocks or lines), so every row of a kernel is
/// directly comparable.
fn export_matrix(c: &Criterion) {
    let rows: Vec<(&str, &str, &str, f64)> = c
        .measurements()
        .iter()
        .map(|m| {
            let (kernel, variant) = m.name.split_once('/').unwrap_or((&m.name, ""));
            match variant.strip_suffix("_batch8") {
                Some(backend) => (kernel, backend, "batch8", m.median_ns / BATCH as f64),
                None => (kernel, variant, "scalar", m.median_ns),
            }
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|&(kernel, backend, mode, ns)| {
            // Speedup relative to the same kernel's table/scalar row.
            let speedup = rows
                .iter()
                .find(|r| r.0 == kernel && r.1 == "table" && r.2 == "scalar")
                .map_or_else(String::new, |t| format!("{:.2}", t.3 / ns));
            vec![kernel.into(), backend.into(), mode.into(), format!("{ns:.1}"), speedup]
        })
        .collect();

    println!("\nbackend × mode matrix (ns/op; speedup vs table/scalar):");
    synergy_bench::print_table(&["kernel", "backend", "mode", "ns_per_op", "vs_table"], &table);
    synergy_bench::write_csv(
        "micro_crypto_backends",
        "kernel,backend,mode,ns_per_op,speedup_vs_table_scalar",
        &table.iter().map(|r| r.join(",")).collect::<Vec<_>>(),
    );
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_aes(&mut c);
    bench_ctr(&mut c);
    bench_gmac(&mut c);
    bench_cw(&mut c);
    export_matrix(&c);
}
