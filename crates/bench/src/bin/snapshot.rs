//! Snapshot cold-start benchmark: full rebuild vs save → load, across
//! every load mode, plus the v2 format's compression win over v1.
//!
//! ```text
//! cargo run --release -p hlsh-bench --bin snapshot -- \
//!     [--n N] [--dim N] [--queries N] [--shards N] [--levels N] \
//!     [--seed N] [--runs N] [--json PATH]
//! ```
//!
//! Builds the standard [`MixturePreset`] index (default n=20k, d=256 —
//! the serving-scale configuration), saves it with both the retained v1
//! writer and the v2 writer, then cold-starts fresh child processes
//! that load the v2 snapshot and answer a first query batch. Child
//! processes give honest numbers: load time, time to the first answered
//! batch, and resident set (`VmRSS`) are measured in a process that
//! never built anything. Probes cover all four load modes — `read`,
//! `mmap`, `mmap-verify` and `auto`, which picks from the file length —
//! so `auto`'s pick can be compared against every hand-picked mode. The
//! headline numbers — rebuild time over snapshot cold-start, v2 bytes
//! over v1 bytes, bytes per indexed point, the five largest sections —
//! land in `BENCH_snapshot.json` for CI to track.
//!
//! Each probe also returns a checksum of its first batch's result ids,
//! which must equal the parent's in-memory answer: a load that is fast
//! but wrong fails the run.

use std::io::Read as _;
use std::time::Instant;

use hlsh_core::snapshot::save_snapshot_v1;
use hlsh_core::{load_snapshot, read_layout, save_snapshot, LoadMode, MixturePreset, ShardedIndex};
use hlsh_datagen::benchmark_mixture;
use hlsh_families::PStableL2;
use hlsh_vec::L2;

struct Args {
    preset: MixturePreset,
    queries: usize,
    runs: usize,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        // Serving scale: d=256 stresses the data section, which
        // dominates the file and the rebuild's hashing cost.
        preset: MixturePreset { n: 20_000, dim: 256, levels: 2, ..MixturePreset::default() },
        queries: 64,
        runs: 3,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut grab_str =
            |name: &str| -> String { it.next().unwrap_or_else(|| panic!("{name} needs a value")) };
        let mut grab = |name: &str| -> usize {
            grab_str(name).parse().unwrap_or_else(|_| panic!("{name} needs a positive integer"))
        };
        match arg.as_str() {
            "--n" => out.preset.n = grab("--n"),
            "--dim" => out.preset.dim = grab("--dim").max(1),
            "--queries" => out.queries = grab("--queries").max(1),
            "--shards" => out.preset.shards = grab("--shards").max(1),
            "--levels" => out.preset.levels = grab("--levels"),
            "--seed" => out.preset.seed = grab("--seed") as u64,
            "--runs" => out.runs = grab("--runs").max(1),
            "--json" => out.json = Some(grab_str("--json")),
            other => {
                eprintln!(
                    "unknown flag {other:?}\nusage: snapshot [--n N] [--dim N] [--queries N] [--shards N] [--levels N] [--seed N] [--runs N] [--json PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    out
}

/// The load modes a cold-starting server can pick from, with the CLI
/// spelling used for the probe child and the JSON keys.
const MODES: [(&str, LoadMode); 4] = [
    ("read", LoadMode::Read),
    ("mmap", LoadMode::Mmap),
    ("mmap-verify", LoadMode::MmapVerify),
    ("auto", LoadMode::Auto),
];

/// Up to `count` probe queries drawn from shard 0 of a loaded or built
/// index — no data generation in the child, identical rows both sides.
fn probe_queries(
    rnnr: &ShardedIndex<hlsh_vec::DenseDataset, PStableL2, L2, hlsh_core::FrozenStore>,
    count: usize,
) -> Vec<Vec<f32>> {
    let shard0 = &rnnr.shards()[0];
    let data = shard0.data();
    let n = data.len();
    let step = (n / count).max(1);
    (0..n).step_by(step).take(count).map(|i| data.row(i).to_vec()).collect()
}

fn ids_checksum(outputs: &[hlsh_core::QueryOutput]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in outputs {
        for &id in &o.ids {
            h = (h ^ id as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h = h.wrapping_add(o.ids.len() as u64);
    }
    h
}

fn vm_rss_kb() -> u64 {
    let mut status = String::new();
    if std::fs::File::open("/proc/self/status")
        .and_then(|mut f| f.read_to_string(&mut status))
        .is_err()
    {
        return 0;
    }
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Child-process entry: load the snapshot, answer one query batch,
/// report timings + residency as one parseable line, exit.
fn run_probe(mut rest: impl Iterator<Item = String>) -> ! {
    let path = rest.next().expect("probe: snapshot path");
    let mode_str = rest.next().expect("probe: mode");
    let mode: LoadMode =
        mode_str.parse().unwrap_or_else(|e| panic!("probe: mode {mode_str:?}: {e}"));
    let radius: f64 = rest.next().expect("probe: radius").parse().expect("probe: radius float");
    let queries: usize = rest.next().expect("probe: queries").parse().expect("probe: queries int");

    let t0 = Instant::now();
    let loaded = load_snapshot::<PStableL2, L2>(path.as_ref(), mode)
        .unwrap_or_else(|e| panic!("probe: cannot load {path}: {e}"));
    let load_secs = t0.elapsed().as_secs_f64();

    let qs = probe_queries(&loaded.rnnr, queries);
    let t1 = Instant::now();
    let outputs = loaded.rnnr.query_batch(&qs, radius);
    let first_batch_secs = t1.elapsed().as_secs_f64();

    if let Some(plan) = &loaded.plan {
        eprintln!(
            "probe plan: {:?} backend, prefetch={} — {}",
            plan.backend, plan.prefetch, plan.reason
        );
    }
    println!(
        "PROBE mode={mode_str} load_secs={:.6} first_batch_secs={:.6} cold_start_secs={:.6} vm_rss_kb={} checksum={:#018x}",
        load_secs,
        first_batch_secs,
        load_secs + first_batch_secs,
        vm_rss_kb(),
        ids_checksum(&outputs),
    );
    std::process::exit(0);
}

#[derive(Clone, Copy, Debug, Default)]
struct ProbeResult {
    load_secs: f64,
    first_batch_secs: f64,
    cold_start_secs: f64,
    vm_rss_kb: u64,
    checksum: u64,
}

fn parse_probe(line: &str) -> ProbeResult {
    let mut out = ProbeResult::default();
    for field in line.split_whitespace() {
        if let Some((key, val)) = field.split_once('=') {
            match key {
                "load_secs" => out.load_secs = val.parse().expect("load_secs"),
                "first_batch_secs" => out.first_batch_secs = val.parse().expect("first_batch"),
                "cold_start_secs" => out.cold_start_secs = val.parse().expect("cold_start"),
                "vm_rss_kb" => out.vm_rss_kb = val.parse().expect("vm_rss_kb"),
                "checksum" => {
                    out.checksum =
                        u64::from_str_radix(val.trim_start_matches("0x"), 16).expect("checksum")
                }
                _ => {}
            }
        }
    }
    out
}

fn spawn_probe(path: &str, mode: &str, radius: f64, queries: usize) -> ProbeResult {
    let exe = std::env::current_exe().expect("current_exe");
    let output = std::process::Command::new(exe)
        .args(["--_probe", path, mode])
        .arg(format!("{radius}"))
        .arg(format!("{queries}"))
        .output()
        .expect("spawn probe");
    assert!(
        output.status.success(),
        "probe {mode} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().find(|l| l.starts_with("PROBE ")).expect("probe output line");
    parse_probe(line)
}

fn main() {
    let mut argv = std::env::args().skip(1);
    if argv.next().as_deref() == Some("--_probe") {
        run_probe(argv);
    }

    let args = parse_args();
    let preset = args.preset;

    eprintln!("generating mixture corpus n={} dim={} seed={}…", preset.n, preset.dim, preset.seed);
    let t = Instant::now();
    let (data, _) = benchmark_mixture(preset.dim, preset.n, preset.radius, preset.seed);
    let datagen_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let rnnr = preset.build_rnnr(data.clone());
    let topk = (preset.levels > 0).then(|| preset.build_topk(data));
    let build_secs = t.elapsed().as_secs_f64();

    // The number a restarting server actually pays without snapshots.
    let qs = probe_queries(&rnnr, args.queries);
    let t = Instant::now();
    let reference = rnnr.query_batch(&qs, preset.radius);
    let rebuild_first_batch_secs = t.elapsed().as_secs_f64();
    let rebuild_cold_start = datagen_secs + build_secs + rebuild_first_batch_secs;
    let reference_checksum = ids_checksum(&reference);

    let dir = std::env::temp_dir().join("hlsh-snapshot-bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("bench-{}.hlsh", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path").to_string();

    // v1 exists only to size the format win; probes run against v2.
    let v1_path = dir.join(format!("bench-{}-v1.hlsh", std::process::id()));
    let v1_stats = save_snapshot_v1(&v1_path, &rnnr, topk.as_ref()).expect("save v1 snapshot");
    std::fs::remove_file(&v1_path).ok();

    let t = Instant::now();
    let stats = save_snapshot(&path, &rnnr, topk.as_ref()).expect("save snapshot");
    let save_secs = t.elapsed().as_secs_f64();
    let v2_vs_v1 = stats.bytes as f64 / v1_stats.bytes as f64;
    let payload_ratio = stats.encoded_payload_bytes as f64 / stats.raw_payload_bytes.max(1) as f64;
    let bytes_per_point = stats.bytes as f64 / preset.n.max(1) as f64;
    println!(
        "built n={} dim={} shards={} levels={} in {build_secs:.2} s (+{datagen_secs:.2} s datagen); snapshot: {} bytes, {} sections, saved in {save_secs:.3} s",
        preset.n, preset.dim, preset.shards, preset.levels, stats.bytes, stats.sections,
    );
    println!(
        "format: v2 {} B vs v1 {} B ({:.1}% smaller); encodings raw={} varint={} delta={} ef={}; payload {} -> {} B ({:.1}% of raw); {:.1} B/point",
        stats.bytes,
        v1_stats.bytes,
        (1.0 - v2_vs_v1) * 100.0,
        stats.raw_sections,
        stats.varint_sections,
        stats.delta_sections,
        stats.ef_sections,
        stats.raw_payload_bytes,
        stats.encoded_payload_bytes,
        payload_ratio * 100.0,
        bytes_per_point,
    );

    let layout = read_layout(&path).expect("read layout");
    let mut by_size: Vec<_> = layout.sections.iter().collect();
    by_size.sort_by(|a, b| b.enc_len.cmp(&a.enc_len).then(a.label.cmp(&b.label)));
    let top_sections: Vec<_> = by_size.into_iter().take(5).collect();
    println!("largest sections:");
    for s in &top_sections {
        println!(
            "  {:<24} {:>12} B on disk  ({:>12} B decoded, {:?})",
            s.label, s.enc_len, s.raw_len, s.encoding
        );
    }

    // Fresh child process per run: cold allocator, honest RSS.
    let mut best: Vec<(&str, ProbeResult)> = Vec::new();
    for (name, _) in MODES {
        let mut runs: Vec<ProbeResult> = (0..args.runs)
            .map(|_| spawn_probe(&path_str, name, preset.radius, args.queries))
            .collect();
        for r in &runs {
            assert_eq!(
                r.checksum, reference_checksum,
                "{name} probe answered differently than the in-memory index"
            );
        }
        runs.sort_by(|a, b| a.cold_start_secs.total_cmp(&b.cold_start_secs));
        let b = runs[0];
        println!(
            "cold start ({name:>11}): load {:>8.1} ms + first batch {:>7.1} ms = {:>8.1} ms   rss {:>7} kB   ({} runs)",
            b.load_secs * 1e3,
            b.first_batch_secs * 1e3,
            b.cold_start_secs * 1e3,
            b.vm_rss_kb,
            args.runs,
        );
        best.push((name, b));
    }

    let best_fixed = best
        .iter()
        .filter(|(name, _)| *name != "auto")
        .map(|(_, r)| r.cold_start_secs)
        .fold(f64::INFINITY, f64::min);
    let auto = best.iter().find(|(name, _)| *name == "auto").expect("auto probed").1;
    println!(
        "rebuild cold start: {:.2} s ({datagen_secs:.2} datagen + {build_secs:.2} build + {:.3} first batch)",
        rebuild_cold_start, rebuild_first_batch_secs,
    );
    let speedups: Vec<String> = best
        .iter()
        .map(|(name, r)| format!("{name} {:.1}x", rebuild_cold_start / r.cold_start_secs))
        .collect();
    println!(
        "speedup vs rebuild: {}   (auto vs best fixed mode: {:+.1}%)",
        speedups.join(", "),
        (auto.cold_start_secs / best_fixed - 1.0) * 100.0,
    );

    if let Some(json_path) = &args.json {
        let probe_json = |r: &ProbeResult| {
            format!(
                "{{ \"load_secs\": {:.6}, \"first_batch_secs\": {:.6}, \"cold_start_secs\": {:.6}, \"vm_rss_kb\": {}, \"speedup_vs_rebuild\": {:.2} }}",
                r.load_secs,
                r.first_batch_secs,
                r.cold_start_secs,
                r.vm_rss_kb,
                rebuild_cold_start / r.cold_start_secs
            )
        };
        let modes_json: Vec<String> = best
            .iter()
            .map(|(name, r)| format!("    \"{}\": {}", name.replace('-', "_"), probe_json(r)))
            .collect();
        let sections_json: Vec<String> = top_sections
            .iter()
            .map(|s| {
                format!(
                    "    {{ \"label\": \"{}\", \"enc_len\": {}, \"raw_len\": {}, \"encoding\": \"{:?}\" }}",
                    s.label, s.enc_len, s.raw_len, s.encoding
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"snapshot\",\n  \"command\": \"cargo run --release -p hlsh-bench --bin snapshot\",\n  \"params\": {{ \"n\": {}, \"dim\": {}, \"shards\": {}, \"levels\": {}, \"queries\": {}, \"seed\": {}, \"runs\": {} }},\n  \"snapshot\": {{ \"bytes\": {}, \"v1_bytes\": {}, \"v2_vs_v1_ratio\": {v2_vs_v1:.4}, \"bytes_per_point\": {bytes_per_point:.1}, \"sections\": {}, \"raw_sections\": {}, \"varint_sections\": {}, \"delta_sections\": {}, \"ef_sections\": {}, \"raw_payload_bytes\": {}, \"encoded_payload_bytes\": {}, \"payload_ratio\": {payload_ratio:.4}, \"save_secs\": {save_secs:.4} }},\n  \"largest_sections\": [\n{}\n  ],\n  \"rebuild\": {{ \"datagen_secs\": {datagen_secs:.4}, \"build_secs\": {build_secs:.4}, \"first_batch_secs\": {rebuild_first_batch_secs:.6}, \"cold_start_secs\": {rebuild_cold_start:.4} }},\n  \"modes\": {{\n{}\n  }},\n  \"auto_vs_best_fixed\": {:.4}\n}}\n",
            preset.n,
            preset.dim,
            preset.shards,
            preset.levels,
            args.queries,
            preset.seed,
            args.runs,
            stats.bytes,
            v1_stats.bytes,
            stats.sections,
            stats.raw_sections,
            stats.varint_sections,
            stats.delta_sections,
            stats.ef_sections,
            stats.raw_payload_bytes,
            stats.encoded_payload_bytes,
            sections_json.join(",\n"),
            modes_json.join(",\n"),
            auto.cold_start_secs / best_fixed,
        );
        std::fs::write(json_path, json).unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
        println!("wrote {json_path}");
    }

    std::fs::remove_file(&path).ok();
}
