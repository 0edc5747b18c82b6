//! Build (or cold-start from a snapshot) the standard mixture corpus
//! index and serve it over TCP — standalone, as one shard node of a
//! distributed deployment, or as the coordinator in front of one.
//!
//! ```text
//! cargo run --release -p hlsh-server --bin serve -- \
//!     [--role standalone|shard|coordinator] \
//!     [--addr HOST] [--port N] [--n N] [--dim N] [--seed N] \
//!     [--shards N | ADDR,ADDR,...] [--shard-id N] [--levels N] \
//!     [--no-topk] [--radius F] [--batch-window-us N] \
//!     [--max-window-us N] [--max-conns N] [--idle-timeout-ms N] \
//!     [--deadline-ms N] [--threads N] \
//!     [--max-frame-mb N] [--shard-deadline-ms N] \
//!     [--connect-timeout-secs N] \
//!     [--snapshot-save PATH] [--snapshot-load PATH [--load-mode MODE]] \
//!     [--live]
//! ```
//!
//! # Admission window
//!
//! By default the admission batcher's linger **adapts** to the
//! observed arrival rate (proportional to the inter-arrival EWMA,
//! capped by `--max-window-us`, default 1000): bursty traffic
//! coalesces, sparse traffic drains immediately. `--batch-window-us N`
//! overrides it with a fixed window — `0` drains immediately, and
//! older invocations that passed `--batch-window-us 100` keep exactly
//! the pre-adaptive behavior they always had. Nothing is deprecated:
//! omit the flag to opt into adaptation, pass it to pin the window.
//!
//! # Connection governance
//!
//! `--max-conns` (default 1024) caps concurrent connections — the
//! excess get a typed `Busy` error frame and an immediate close.
//! `--idle-timeout-ms` (default 60000, `0` disables) evicts
//! connections that stall without progress, including half-written
//! frames from slow-loris peers. `--deadline-ms` (default `0` = off)
//! expires requests still queued after that long with a `Deadline`
//! error frame while keeping their connection alive. `docs/SERVING.md`
//! is the ops guide for all three.
//!
//! Builds a frozen `ShardedIndex` (rNNR) and, unless `--no-topk`, a
//! frozen `ShardedTopKIndex` ladder over the same
//! `benchmark_mixture` corpus the `throughput`/`topk` bench bins use
//! (all of them share [`MixturePreset`]), then serves both until
//! killed. Port 0 binds an ephemeral port; the bound address is
//! printed either way.
//!
//! `--snapshot-save PATH` writes the built indexes to a snapshot
//! before serving. `--snapshot-load PATH` skips the build entirely and
//! cold-starts from the file — milliseconds instead of a full rebuild.
//! `--load-mode read|mmap|mmap-verify|auto` picks how sections are
//! materialised (default `read`); `auto` lets the storage-aware load
//! planner choose from the file's layout and the medium's cached or
//! probed profile, and the resolved plan is logged. The manifest is
//! checked against the CLI parameters *before* any section is read, so
//! a stale or mismatched file fails fast with a parameter-by-parameter
//! message instead of silently serving the wrong index.
//!
//! # Living index
//!
//! `--live` (standalone only) builds the same corpus into LSM-style
//! [`SegmentedIndex`](hlsh_core::SegmentedIndex) /
//! [`SegmentedTopKIndex`](hlsh_core::SegmentedTopKIndex) structures
//! and serves them through
//! [`LiveLshService`]: the server then
//! accepts `Insert`/`Delete` frames, and every query remains
//! byte-identical to an index rebuilt from scratch on the surviving
//! points. Segmented indexes have no snapshot format, so `--live`
//! rejects the snapshot flags; shard and coordinator roles refuse
//! mutation with a typed error regardless.
//!
//! # Distributed roles
//!
//! `--role shard --shard-id I` serves shard `I`: the node builds or
//! (the intended path) loads the full snapshot and answers the shard
//! protocol for its slice, plus plain client queries for debugging.
//! `--role coordinator --shards HOST:PORT,HOST:PORT,...` dials one
//! shard node per listed address (list position = shard id), then
//! serves the ordinary client protocol — responses byte-identical to
//! a standalone server over the same snapshot. `docs/DISTRIBUTED.md`
//! walks through the full topology.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hlsh_core::{load_snapshot, read_manifest, save_snapshot, LoadMode, MixturePreset};
use hlsh_datagen::benchmark_mixture;
use hlsh_families::PStableL2;
use hlsh_server::{
    AdmissionWindow, Coordinator, CoordinatorConfig, LiveLshService, QueryService, ServerConfig,
    ShardNodeService, ShardedLshService,
};
use hlsh_vec::L2;

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Standalone,
    Shard,
    Coordinator,
}

struct Args {
    role: Role,
    addr: String,
    port: u16,
    preset: MixturePreset,
    /// Raw `--shards` value: an integer (standalone/shard roles) or a
    /// comma-separated shard address list (coordinator role).
    shards_raw: Option<String>,
    shard_id: Option<u32>,
    topk: bool,
    /// `Some(n)` pins a fixed admission window of `n` µs (0 = drain
    /// immediately); `None` (the default) adapts to the arrival rate.
    batch_window_us: Option<u64>,
    max_window_us: u64,
    max_conns: usize,
    idle_timeout_ms: u64,
    deadline_ms: u64,
    threads: Option<usize>,
    max_frame_mb: usize,
    shard_deadline_ms: u64,
    connect_timeout_secs: u64,
    snapshot_save: Option<String>,
    snapshot_load: Option<String>,
    load_mode: Option<LoadMode>,
    live: bool,
}

const USAGE: &str = "usage: serve [--role standalone|shard|coordinator] [--addr HOST] [--port N] [--n N] [--dim N] [--seed N] [--shards N|ADDR,ADDR,...] [--shard-id N] [--levels N] [--no-topk] [--radius F] [--batch-window-us N] [--max-window-us N] [--max-conns N] [--idle-timeout-ms N] [--deadline-ms N] [--threads N] [--max-frame-mb N] [--shard-deadline-ms N] [--connect-timeout-secs N] [--snapshot-save PATH] [--snapshot-load PATH [--load-mode read|mmap|mmap-verify|auto]] [--live]
  --live (standalone only) serves an LSM-segmented living index that accepts Insert/Delete frames; queries stay byte-identical to a rebuild on the surviving points. Incompatible with the snapshot flags.
  admission window: adaptive by default (linger tracks the arrival rate, capped by --max-window-us, default 1000).
  --batch-window-us N pins a fixed window instead (0 = drain immediately) — existing scripts passing it behave exactly as before; drop the flag to opt into adaptation. Nothing is deprecated.
  governance: --max-conns (default 1024) rejects excess connections with a Busy frame; --idle-timeout-ms (default 60000, 0 = off) evicts stalled connections; --deadline-ms (default 0 = off) expires queued requests with a Deadline frame without closing their connection.";

fn parse_args() -> Args {
    let mut out = Args {
        role: Role::Standalone,
        addr: "127.0.0.1".into(),
        port: 7411,
        preset: MixturePreset::default(),
        shards_raw: None,
        shard_id: None,
        topk: true,
        batch_window_us: None,
        max_window_us: 1_000,
        max_conns: 1024,
        idle_timeout_ms: 60_000,
        deadline_ms: 0,
        threads: None,
        max_frame_mb: 32,
        shard_deadline_ms: 5_000,
        connect_timeout_secs: 30,
        snapshot_save: None,
        snapshot_load: None,
        load_mode: None,
        live: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut grab_str =
            |name: &str| -> String { it.next().unwrap_or_else(|| panic!("{name} needs a value")) };
        let mut grab = |name: &str| -> usize {
            grab_str(name).parse().unwrap_or_else(|_| panic!("{name} needs a positive integer"))
        };
        match arg.as_str() {
            "--role" => {
                out.role = match grab_str("--role").as_str() {
                    "standalone" => Role::Standalone,
                    "shard" => Role::Shard,
                    "coordinator" => Role::Coordinator,
                    other => {
                        fatal(&format!("--role {other:?} is not standalone|shard|coordinator"));
                    }
                }
            }
            "--addr" => out.addr = grab_str("--addr"),
            "--port" => out.port = grab("--port") as u16,
            "--n" => out.preset.n = grab("--n"),
            "--dim" => out.preset.dim = grab("--dim").max(1),
            "--seed" => out.preset.seed = grab("--seed") as u64,
            "--shards" => out.shards_raw = Some(grab_str("--shards")),
            "--shard-id" => out.shard_id = Some(grab("--shard-id") as u32),
            "--levels" => out.preset.levels = grab("--levels").max(1),
            "--no-topk" => out.topk = false,
            "--radius" => {
                out.preset.radius = grab_str("--radius")
                    .parse()
                    .unwrap_or_else(|_| panic!("--radius needs a float"))
            }
            "--batch-window-us" => out.batch_window_us = Some(grab("--batch-window-us") as u64),
            "--max-window-us" => out.max_window_us = grab("--max-window-us") as u64,
            "--max-conns" => out.max_conns = grab("--max-conns").max(1),
            "--idle-timeout-ms" => out.idle_timeout_ms = grab("--idle-timeout-ms") as u64,
            "--deadline-ms" => out.deadline_ms = grab("--deadline-ms") as u64,
            "--threads" => out.threads = Some(grab("--threads").max(1)),
            "--max-frame-mb" => out.max_frame_mb = grab("--max-frame-mb").max(1),
            "--shard-deadline-ms" => out.shard_deadline_ms = grab("--shard-deadline-ms") as u64,
            "--connect-timeout-secs" => {
                out.connect_timeout_secs = grab("--connect-timeout-secs") as u64
            }
            "--snapshot-save" => out.snapshot_save = Some(grab_str("--snapshot-save")),
            "--snapshot-load" => out.snapshot_load = Some(grab_str("--snapshot-load")),
            "--load-mode" => {
                let value = grab_str("--load-mode");
                out.load_mode =
                    Some(value.parse().unwrap_or_else(|e| panic!("--load-mode {value:?}: {e}")))
            }
            "--live" => out.live = true,
            other => {
                fatal(&format!("unknown flag {other:?}\n{USAGE}"));
            }
        }
    }
    if out.snapshot_save.is_some() && out.snapshot_load.is_some() {
        fatal("--snapshot-save and --snapshot-load are mutually exclusive");
    }
    if out.load_mode.is_some() && out.snapshot_load.is_none() {
        fatal("--load-mode only makes sense with --snapshot-load");
    }
    if out.live {
        if out.role != Role::Standalone {
            fatal("--live only applies to --role standalone (shard nodes and coordinators refuse mutation)");
        }
        if out.snapshot_save.is_some() || out.snapshot_load.is_some() {
            fatal(
                "--live is incompatible with snapshots (segmented indexes have no snapshot format)",
            );
        }
    }
    match out.role {
        Role::Standalone | Role::Shard => {
            if let Some(raw) = &out.shards_raw {
                out.preset.shards = raw
                    .parse::<usize>()
                    .unwrap_or_else(|_| {
                        fatal(
                            "--shards must be an integer shard count for this role \
                             (address lists are for --role coordinator)",
                        );
                    })
                    .max(1);
            }
            if out.role == Role::Shard && out.shard_id.is_none() {
                fatal("--role shard requires --shard-id");
            }
            if out.role == Role::Standalone && out.shard_id.is_some() {
                fatal("--shard-id only makes sense with --role shard");
            }
        }
        Role::Coordinator => {
            let ok = out
                .shards_raw
                .as_deref()
                .is_some_and(|raw| raw.parse::<usize>().is_err() && !raw.is_empty());
            if !ok {
                fatal(
                    "--role coordinator requires --shards as a comma-separated address \
                     list (e.g. --shards 10.0.0.1:7411,10.0.0.2:7411)",
                );
            }
            if out.shard_id.is_some() || out.snapshot_save.is_some() || out.snapshot_load.is_some()
            {
                fatal(
                    "--shard-id/--snapshot-save/--snapshot-load do not apply to the \
                     coordinator role (shard nodes own the snapshots)",
                );
            }
        }
    }
    out
}

fn main() {
    let args = parse_args();
    if args.role == Role::Coordinator {
        run_coordinator(&args);
    }
    if args.live {
        run_live(&args);
    }
    let preset = args.preset;

    let (rnnr, topk) = if let Some(path) = &args.snapshot_load {
        // Fail fast on parameter disagreement before reading sections.
        let manifest = read_manifest(path.as_ref())
            .unwrap_or_else(|e| fatal(&format!("cannot read snapshot manifest {path}: {e}")));
        if let Err(mismatches) = preset.check_manifest(&manifest, args.topk) {
            fatal(&format!("snapshot {path} disagrees with CLI parameters: {mismatches}"));
        }
        let mode = args.load_mode.unwrap_or(LoadMode::Read);
        let t0 = Instant::now();
        let loaded = load_snapshot::<PStableL2, L2>(path.as_ref(), mode)
            .unwrap_or_else(|e| fatal(&format!("cannot load snapshot {path}: {e}")));
        eprintln!(
            "cold-started from {path} in {:.1} ms ({mode:?}, n={}, shards={})",
            t0.elapsed().as_secs_f64() * 1e3,
            loaded.manifest.n,
            loaded.manifest.shards,
        );
        if let Some(plan) = &loaded.plan {
            eprintln!(
                "load plan: {:?} backend, prefetch={} — {}",
                plan.backend, plan.prefetch, plan.reason
            );
        }
        // A carried ladder is dropped under --no-topk.
        (loaded.rnnr, loaded.topk.filter(|_| args.topk))
    } else {
        eprintln!(
            "building mixture corpus n={} dim={} seed={} (shards={}, topk={})…",
            preset.n, preset.dim, preset.seed, preset.shards, args.topk
        );
        let (data, _) = benchmark_mixture(preset.dim, preset.n, preset.radius, preset.seed);
        let rnnr = preset.build_rnnr(data);
        let topk = args.topk.then(|| {
            let (data, _) = benchmark_mixture(preset.dim, preset.n, preset.radius, preset.seed);
            preset.build_topk(data)
        });
        if let Some(path) = &args.snapshot_save {
            let t0 = Instant::now();
            let stats = save_snapshot(path.as_ref(), &rnnr, topk.as_ref())
                .unwrap_or_else(|e| fatal(&format!("cannot save snapshot {path}: {e}")));
            eprintln!(
                "saved snapshot {path}: {} bytes, {} sections, {:.1} ms",
                stats.bytes,
                stats.sections,
                t0.elapsed().as_secs_f64() * 1e3,
            );
        }
        (rnnr, topk)
    };

    let shards = rnnr.assignment().shards();
    let inner = ShardedLshService::new(rnnr, topk, preset.dim);
    match args.role {
        Role::Standalone => serve_forever(&args, Arc::new(inner), ""),
        Role::Shard => {
            let sid = args.shard_id.expect("parse_args requires --shard-id for shard role");
            if sid as usize >= shards {
                fatal(&format!("--shard-id {sid} out of range: the index has {shards} shard(s)"));
            }
            let node = Arc::new(ShardNodeService::new(inner, sid));
            serve_forever(&args, node, &format!(", role=shard/{sid}"))
        }
        Role::Coordinator => unreachable!("coordinator role handled before the build"),
    }
}

/// Builds the mixture corpus into LSM-segmented (living) indexes and
/// serves them — the only deployment that accepts `Insert`/`Delete`
/// frames.
fn run_live(args: &Args) -> ! {
    let preset = args.preset;
    eprintln!(
        "building living mixture corpus n={} dim={} seed={} (shards={}, topk={})…",
        preset.n, preset.dim, preset.seed, preset.shards, args.topk
    );
    let (data, _) = benchmark_mixture(preset.dim, preset.n, preset.radius, preset.seed);
    let rnnr = preset.build_live_rnnr(data);
    let topk = args.topk.then(|| {
        let (data, _) = benchmark_mixture(preset.dim, preset.n, preset.radius, preset.seed);
        preset.build_live_topk(data)
    });
    serve_forever(args, Arc::new(LiveLshService::new(rnnr, topk)), ", role=live")
}

/// Dials the shard fleet and serves the client protocol in front of it.
fn run_coordinator(args: &Args) -> ! {
    let addrs: Vec<String> = args
        .shards_raw
        .as_deref()
        .expect("parse_args requires --shards for the coordinator role")
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if addrs.is_empty() {
        fatal("--shards address list is empty");
    }
    let config = CoordinatorConfig {
        shard_deadline: Duration::from_millis(args.shard_deadline_ms),
        connect_timeout: Duration::from_secs(args.connect_timeout_secs),
        max_frame_bytes: args.max_frame_mb * 1024 * 1024,
    };
    eprintln!("dialing {} shard node(s): {}…", addrs.len(), addrs.join(", "));
    let t0 = Instant::now();
    let coordinator = Coordinator::connect(&addrs, config)
        .unwrap_or_else(|e| fatal(&format!("cannot assemble the shard fleet: {e}")));
    let info = coordinator.info();
    eprintln!(
        "fleet up in {:.1} ms: n={}, dim={}, topk_levels={}",
        t0.elapsed().as_secs_f64() * 1e3,
        info.points,
        info.dim,
        info.topk_levels,
    );
    serve_forever(args, Arc::new(coordinator), ", role=coordinator")
}

/// Serves `service` until killed, after one parseable listening line
/// for scripts (flushed past any pipe buffering).
fn serve_forever(args: &Args, service: Arc<dyn QueryService>, role_tag: &str) -> ! {
    let info = service.info();
    let server = hlsh_server::spawn(service, (args.addr.as_str(), args.port), server_config(args))
        .unwrap_or_else(|e| panic!("cannot bind {}:{}: {e}", args.addr, args.port));
    use std::io::Write as _;
    println!(
        "hlsh-server listening on {} (n={}, dim={}, shards={}, topk_levels={}, batch_window={}{role_tag})",
        server.local_addr(),
        info.points,
        info.dim,
        info.shards,
        info.topk_levels,
        window_tag(args),
    );
    std::io::stdout().flush().ok();
    loop {
        std::thread::park();
    }
}

/// Maps parsed flags to the server's config: fixed window if
/// `--batch-window-us` was given, adaptive (capped by
/// `--max-window-us`) otherwise, plus the governance knobs.
fn server_config(args: &Args) -> ServerConfig {
    ServerConfig {
        max_frame_bytes: args.max_frame_mb * 1024 * 1024,
        admission: match args.batch_window_us {
            Some(us) => AdmissionWindow::Fixed(Duration::from_micros(us)),
            None => AdmissionWindow::Adaptive { max: Duration::from_micros(args.max_window_us) },
        },
        batch_threads: args.threads,
        max_connections: args.max_conns,
        idle_timeout: (args.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(args.idle_timeout_ms)),
        request_deadline: (args.deadline_ms > 0).then(|| Duration::from_millis(args.deadline_ms)),
    }
}

/// The admission window as printed in the listening line.
fn window_tag(args: &Args) -> String {
    match args.batch_window_us {
        Some(us) => format!("{us}us"),
        None => format!("adaptive(max={}us)", args.max_window_us),
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
