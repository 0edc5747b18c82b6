//! The serving workloads on the standard mixture corpus
//! (`MixturePreset`): `serve-mixture` (frozen 2-shard server),
//! `live-churn` (living index under INSERT/DELETE) and `dist-2shard`
//! (coordinator plus two shard nodes cold-started from a snapshot).
//!
//! Load comes from this one process: a closed loop of at most `nproc`
//! connections, each sending its next request when the previous one is
//! answered. Servers bind 127.0.0.1 port 0 only.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hlsh_core::snapshot::LoadMode;
use hlsh_core::{
    load_snapshot, save_snapshot, FrozenStore, HybridLshIndex, MixturePreset, SegmentedIndex,
    SegmentedTopKIndex, ShardedIndex, ShardedQueryEngine, ShardedTopKIndex, Strategy, TopKReport,
};
use hlsh_datagen::benchmark_mixture;
use hlsh_families::PStableL2;
use hlsh_server::protocol::{
    decode_request, decode_response, decode_shard_response, read_frame, write_frame,
    DEFAULT_MAX_FRAME_BYTES,
};
use hlsh_server::{
    spawn, Arm, Client, Coordinator, CoordinatorConfig, LiveLshService, QueryBlock, QueryService,
    Request, Response, ServerConfig, ServerHandle, ShardNodeService, ShardRequest, ShardResponse,
    ShardTarget, ShardedLshService,
};
use hlsh_vec::{DenseDataset, L2};

use crate::common::{
    self, check_rnnr, check_topk, churn_tape, kth_smallest, median, nproc, percentile, PoolCycle,
    Rng, Sample, TapeOp, TapeShape, TempDir, L2_TOL,
};
use crate::layers::IndexTrace;
use crate::{Args, Outcome};

/// The corpus and index parameters every serving workload shares.
const PRESET: MixturePreset =
    MixturePreset { n: 20_000, dim: 24, seed: 23, shards: 2, levels: 4, radius: 1.5 };
/// Fixed query pool, over which `neighbors_found` is counted.
const POOL: usize = 256;
/// Seed of the query pool and of inserted points' base rows.
const POOL_SEED: u64 = 0x9001;
/// Queries per request.
const BATCH: usize = 8;
/// Top-k requests ask for this many neighbours.
const K: usize = 10;
/// Requests in one pass of a read tape: every pool query once as rNNR
/// and once as top-k.
const PASS: usize = 2 * POOL / BATCH;
/// Passes in a read tape, each grouping the pool afresh, so a run's
/// tail latency does not hang on one seed's grouping.
const READ_PASSES: usize = 32;
/// Set-ups per run; `setup_s` is their median, and each serves a third
/// of the measured phase.
const SETUPS: usize = 3;
/// Connections of the read-only closed loop. One: with two,
/// throughput moved by up to 25% from run to run on a 2-CPU host
/// while staying level within each run. The traced run drives `nproc`
/// connections to measure admission coalescing.
const CLIENTS: usize = 1;
/// Passes of the read tape timed per traced server-layer measurement.
const TRACE_PASSES: usize = 2;

type Rnnr = ShardedIndex<DenseDataset, PStableL2, L2, FrozenStore>;
type Ladder = ShardedTopKIndex<DenseDataset, PStableL2, L2, FrozenStore>;
type Node = ShardNodeService<DenseDataset, PStableL2, L2>;

/// The generated inputs: corpus, query pool and each pool query's
/// reference `K`-th nearest distance.
struct Corpus {
    data: DenseDataset,
    pool: Vec<Vec<f32>>,
    kth: Vec<f64>,
}

impl Corpus {
    fn new() -> Self {
        let (data, _) = benchmark_mixture(PRESET.dim, PRESET.n, PRESET.radius, PRESET.seed);
        let mut rng = Rng::new(POOL_SEED, 1);
        let pool: Vec<Vec<f32>> =
            (0..POOL).map(|_| jitter(data.row(rng.below(data.len())), &mut rng)).collect();
        let kth = pool
            .iter()
            .map(|q| {
                let d: Vec<f64> = (0..data.len()).map(|i| common::l2(q, data.row(i))).collect();
                kth_smallest(&d, K)
            })
            .collect();
        Self { data, pool, kth }
    }

    fn queries(&self, picks: &[usize]) -> Vec<Vec<f32>> {
        picks.iter().map(|&i| self.pool[i].clone()).collect()
    }
}

/// A corpus row moved by a small Gaussian step, so generated points
/// land in the corpus's clusters without duplicating a row.
fn jitter(row: &[f32], rng: &mut Rng) -> Vec<f32> {
    let step = PRESET.radius / (4.0 * (PRESET.dim as f64).sqrt());
    row.iter().map(|&x| x + (rng.gauss() * step) as f32).collect()
}

/// Which deployment a stack is.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Frozen,
    Live,
    Dist,
}

/// A running deployment: the service clients reach through `front`,
/// plus anything that must outlive it.
struct Stack {
    service: Arc<dyn QueryService>,
    front: ServerHandle,
    nodes: Vec<ServerHandle>,
    live: Option<Arc<LiveLshService<PStableL2, L2>>>,
}

impl Stack {
    fn addr(&self) -> SocketAddr {
        self.front.local_addr()
    }
}

/// Builds (or, for `Dist`, loads from `snapshot`) one deployment and
/// spawns its servers.
fn build_stack(kind: Kind, data: &DenseDataset, snapshot: &std::path::Path) -> Stack {
    let bind = "127.0.0.1:0";
    match kind {
        Kind::Frozen => {
            let svc = Arc::new(ShardedLshService::new(
                PRESET.build_rnnr(data.clone()),
                Some(PRESET.build_topk(data.clone())),
                PRESET.dim,
            ));
            let front =
                spawn(svc.clone(), bind, ServerConfig::default()).expect("bind 127.0.0.1:0");
            Stack { service: svc, front, nodes: Vec::new(), live: None }
        }
        Kind::Live => {
            let svc = Arc::new(LiveLshService::new(
                PRESET.build_live_rnnr(data.clone()),
                Some(PRESET.build_live_topk(data.clone())),
            ));
            let front =
                spawn(svc.clone(), bind, ServerConfig::default()).expect("bind 127.0.0.1:0");
            Stack { service: svc.clone(), front, nodes: Vec::new(), live: Some(svc) }
        }
        Kind::Dist => {
            let nodes: Vec<ServerHandle> = (0..PRESET.shards as u32)
                .map(|sid| {
                    let loaded = load_snapshot::<PStableL2, L2>(snapshot, LoadMode::Auto)
                        .expect("load the run's snapshot");
                    if let Some(plan) = &loaded.plan {
                        eprintln!(
                            "# shard {sid} load plan: {:?}, prefetch {}",
                            plan.backend, plan.prefetch
                        );
                    }
                    let node: Arc<Node> = Arc::new(ShardNodeService::new(
                        ShardedLshService::new(loaded.rnnr, loaded.topk, PRESET.dim),
                        sid,
                    ));
                    spawn(node, bind, ServerConfig::default()).expect("bind 127.0.0.1:0")
                })
                .collect();
            let addrs: Vec<String> = nodes.iter().map(|h| h.local_addr().to_string()).collect();
            let config = CoordinatorConfig {
                connect_timeout: Duration::from_secs(30),
                shard_deadline: Duration::from_secs(30),
                ..CoordinatorConfig::default()
            };
            let coord = Arc::new(Coordinator::connect(&addrs, config).expect("assemble the fleet"));
            let front =
                spawn(coord.clone(), bind, ServerConfig::default()).expect("bind 127.0.0.1:0");
            Stack { service: coord, front, nodes, live: None }
        }
    }
}

fn connect(addr: SocketAddr, n: usize) -> Vec<Client> {
    (0..n).map(|_| Client::connect(addr).expect("connect to 127.0.0.1")).collect()
}

/// One timed set-up: the deployment plus `clients` connections to it.
fn set_up(
    kind: Kind,
    data: &DenseDataset,
    snapshot: &std::path::Path,
    clients: usize,
) -> (Stack, Vec<Client>, f64) {
    let t = Instant::now();
    let stack = build_stack(kind, data, snapshot);
    let conns = connect(stack.addr(), clients);
    (stack, conns, t.elapsed().as_secs_f64())
}

/// Repeats the set-up `SETUPS` times (tearing the previous one down
/// first) and returns the last stack, its clients and the median time.
fn timed_setup(
    kind: Kind,
    data: &DenseDataset,
    snapshot: &std::path::Path,
) -> (Stack, Vec<Client>, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (stack, clients, secs) = set_up(kind, data, snapshot, nproc());
        times.push(secs);
        last = Some((stack, clients));
    }
    eprintln!("# set-up times (s): {times:?}");
    let (stack, clients) = last.expect("SETUPS > 0");
    (stack, clients, median(&times))
}

/// A served answer.
enum Reply {
    Ids(Vec<Vec<u32>>),
    Ranked(Vec<Vec<(u32, f64)>>),
    Written(u32),
}

fn send(
    client: &mut Client,
    corpus: &Corpus,
    op: &TapeOp,
    inserts: &Inserted,
) -> Result<Reply, String> {
    match op {
        TapeOp::Rnnr(p) => client.query_batch(&corpus.queries(p), PRESET.radius).map(Reply::Ids),
        TapeOp::TopK(p) => client.query_topk_batch(&corpus.queries(p), K).map(Reply::Ranked),
        TapeOp::Insert(ids) => {
            let pts: Vec<Vec<f32>> = ids.iter().map(|&id| inserts.row(id).to_vec()).collect();
            client.insert_batch(ids, &pts).map(Reply::Written)
        }
        TapeOp::Delete(ids) => client.delete_batch(ids).map(Reply::Written),
    }
    .map_err(|e| e.to_string())
}

/// Vectors of the points a churn tape inserts (ids `n..`).
struct Inserted {
    base: usize,
    rows: Vec<Vec<f32>>,
}

impl Inserted {
    fn none() -> Self {
        Self { base: PRESET.n, rows: Vec::new() }
    }

    fn for_tape(tape: &[TapeOp], data: &DenseDataset, seed: u64) -> Self {
        let count =
            tape.iter().map(|op| if let TapeOp::Insert(ids) = op { ids.len() } else { 0 }).sum();
        let mut rng = Rng::new(seed, 0x1A5E);
        let rows = (0..count).map(|_| jitter(data.row(rng.below(data.len())), &mut rng)).collect();
        Self { base: data.len(), rows }
    }

    fn row(&self, id: u32) -> &[f32] {
        &self.rows[id as usize - self.base]
    }

    /// The vector of any id the run can see: corpus row or inserted.
    fn point<'a>(&'a self, data: &'a DenseDataset, id: u32) -> Option<&'a [f32]> {
        let i = id as usize;
        if i < data.len() {
            Some(data.row(i))
        } else {
            self.rows.get(i - self.base).map(Vec::as_slice)
        }
    }
}

/// What a closed loop measured.
#[derive(Default)]
struct LoopStats {
    samples: Vec<Sample>,
    /// Tape indexes of the writes the server acknowledged.
    acked: Vec<usize>,
    ops: u64,
    wall: f64,
    failed: Vec<String>,
    wrong: Vec<String>,
}

/// How long a closed loop runs its tape.
#[derive(Clone, Copy)]
enum Until {
    /// Cycle in whole passes of `PASS` requests until this many seconds
    /// have passed and `MIN_SAMPLES` requests have been sent.
    Seconds(f64),
    /// Run the tape once, stopping early after this many seconds.
    OnceOrCap(f64),
}

/// Drives `tape` through `clients`, one thread per connection, each
/// taking the next operation when its previous one is answered.
fn closed_loop(
    clients: &mut [Client],
    corpus: &Corpus,
    inserts: &Inserted,
    tape: &[TapeOp],
    until: Until,
    check: &(dyn Fn(&TapeOp, &Reply) -> Result<(), String> + Sync),
) -> LoopStats {
    // (next index, stopped): taken under one lock, so a pass is either
    // started whole or not at all.
    let next = Mutex::new((0usize, false));
    let t0 = Instant::now();
    let per_client: Vec<LoopStats> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut st = LoopStats::default();
                    loop {
                        let i = {
                            let mut g = next.lock().expect("tape cursor lock");
                            let i = g.0;
                            let elapsed = t0.elapsed().as_secs_f64();
                            let stop = match until {
                                Until::Seconds(s) => {
                                    i > 0
                                        && i.is_multiple_of(PASS)
                                        && i >= MIN_SAMPLES
                                        && elapsed >= s
                                }
                                Until::OnceOrCap(cap) => i == tape.len() || elapsed >= cap,
                            };
                            if g.1 || stop {
                                g.1 = true;
                                break;
                            }
                            g.0 += 1;
                            i
                        };
                        let op = &tape[i % tape.len()];
                        let t = Instant::now();
                        let reply = send(client, corpus, op, inserts);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        match reply {
                            Err(e) => st.failed.push(format!("{op:?}: {e}")),
                            Ok(r) => {
                                let (n, write) = match op {
                                    TapeOp::Rnnr(p) | TapeOp::TopK(p) => (p.len(), false),
                                    TapeOp::Insert(ids) | TapeOp::Delete(ids) => (ids.len(), true),
                                };
                                st.ops += n as u64;
                                let end_s = t0.elapsed().as_secs_f64();
                                st.samples.push(Sample {
                                    end_s,
                                    ops: n as u64,
                                    ms: (!write).then_some(ms),
                                });
                                if write {
                                    st.acked.push(i % tape.len());
                                }
                                if let Err(e) = check(op, &r) {
                                    st.wrong.push(e);
                                }
                            }
                        }
                    }
                    st
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut all = LoopStats { wall: t0.elapsed().as_secs_f64(), ..LoopStats::default() };
    for st in per_client {
        all.samples.extend(st.samples);
        all.acked.extend(st.acked);
        all.ops += st.ops;
        all.failed.extend(st.failed);
        all.wrong.extend(st.wrong);
    }
    all
}

/// `passes` seeded passes of read requests over the pool: in each,
/// every pool query appears once in an rNNR request and once in a
/// top-k request, `BATCH` queries per request, the two kinds
/// alternating.
fn read_tape(seed: u64, passes: usize) -> Vec<TapeOp> {
    let mut rnnr = PoolCycle::new(POOL, Rng::new(seed, 0x2EAD));
    let mut topk = PoolCycle::new(POOL, Rng::new(seed, 0x7095));
    (0..passes * POOL / BATCH)
        .flat_map(|_| [TapeOp::Rnnr(rnnr.take(BATCH)), TapeOp::TopK(topk.take(BATCH))])
        .collect()
}

/// Answers to every pool query, as served and checked.
struct Expected {
    ids: Vec<Vec<u32>>,
    ranked: Vec<Vec<(u32, f64)>>,
}

/// Sends the whole pool through `client`, checks every answer against
/// reference distances over the points `point` resolves, and returns
/// the answers with the count of true neighbours reported.
fn pool_pass(
    client: &mut Client,
    corpus: &Corpus,
    n_live: usize,
    kth: &[f64],
    point: &dyn Fn(u32) -> Option<Vec<f32>>,
    out: &mut Outcome,
) -> (Expected, usize) {
    let mut exp = Expected { ids: Vec::new(), ranked: Vec::new() };
    let mut found = 0;
    for chunk in corpus.pool.chunks(BATCH) {
        let chunk = chunk.to_vec();
        out.attempted += 2 * chunk.len() as u64;
        match (client.query_batch(&chunk, PRESET.radius), client.query_topk_batch(&chunk, K)) {
            (Ok(ids), Ok(ranked)) => {
                exp.ids.extend(ids);
                exp.ranked.extend(ranked);
            }
            (a, b) => {
                out.failed(format!("pool pass: {:?} / {:?}", a.err(), b.err()));
                return (exp, found);
            }
        }
    }
    for (qi, q) in corpus.pool.iter().enumerate() {
        let dist = |id: u32| point(id).map(|p| common::l2(q, &p));
        match check_rnnr(&exp.ids[qi], dist, PRESET.radius, L2_TOL, true) {
            Ok(n) => found += n,
            Err(e) => out.wrong(format!("rNNR pool query {qi}: {e}")),
        }
        match check_topk(&exp.ranked[qi], K, n_live, dist, kth[qi], L2_TOL) {
            Ok(n) => found += n,
            Err(e) => out.wrong(format!("top-k pool query {qi}: {e}")),
        }
    }
    (exp, found)
}

fn bits(ranked: &[Vec<(u32, f64)>]) -> Vec<Vec<(u32, u64)>> {
    ranked.iter().map(|v| v.iter().map(|&(id, d)| (id, d.to_bits())).collect()).collect()
}

/// In-process answers of a sharded index pair for the pool.
fn in_process(rnnr: &Rnnr, ladder: &Ladder, pool: &[Vec<f32>]) -> Expected {
    Expected {
        ids: rnnr.query_batch(pool, PRESET.radius).into_iter().map(|o| o.ids).collect(),
        ranked: ladder
            .query_topk_batch(pool, K)
            .into_iter()
            .map(|o| o.neighbors.iter().map(|n| (n.id, n.dist)).collect())
            .collect(),
    }
}

/// Runs `serve-mixture`.
pub fn serve(args: &Args) -> Outcome {
    read_only(args, Kind::Frozen)
}

/// Runs `dist-2shard`.
pub fn dist(args: &Args) -> Outcome {
    read_only(args, Kind::Dist)
}

fn save_fresh_snapshot(data: &DenseDataset, tmp: &TempDir) -> std::path::PathBuf {
    let path = tmp.path().join("mixture.hlsh");
    let stats = save_snapshot(
        &path,
        &PRESET.build_rnnr(data.clone()),
        Some(&PRESET.build_topk(data.clone())),
    )
    .expect("save the run's snapshot");
    eprintln!("# snapshot: {} bytes, {} sections", stats.bytes, stats.sections);
    path
}

fn read_only(args: &Args, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let corpus = Corpus::new();
    let tmp = TempDir::new("mixture").expect("create the run's scratch directory");
    let snapshot = if kind == Kind::Dist {
        save_fresh_snapshot(&corpus.data, &tmp)
    } else {
        tmp.path().join("unused")
    };
    let data = &corpus.data;
    let point = |id: u32| ((id as usize) < data.len()).then(|| data.row(id as usize).to_vec());
    let tape = read_tape(args.seed, READ_PASSES);
    let (mut times, mut pooled, mut wall) = (Vec::new(), Vec::new(), 0.0);
    let mut first: Option<Expected> = None;
    // Each set-up is a fresh deployment: its answers are checked, then
    // it serves a third of the measured phase.
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let (stack, mut clients, secs) = set_up(kind, data, &snapshot, CLIENTS);
        times.push(secs);
        let (exp, found) =
            pool_pass(&mut clients[0], &corpus, data.len(), &corpus.kth, &point, &mut out);
        if let Some(first) = &first {
            if first.ids != exp.ids || bits(&first.ranked) != bits(&exp.ranked) {
                out.wrong("a fresh deployment answers the pool differently from the first".into());
            }
        } else {
            out.metrics.set("neighbors_found", found as f64, "count");
            if kind == Kind::Dist {
                let loaded = load_snapshot::<PStableL2, L2>(&snapshot, LoadMode::Read)
                    .expect("reload the snapshot");
                let local = in_process(
                    &loaded.rnnr,
                    loaded.topk.as_ref().expect("snapshot carries the ladder"),
                    &corpus.pool,
                );
                if local.ids != exp.ids || bits(&local.ranked) != bits(&exp.ranked) {
                    out.wrong("distributed answers differ from the in-process index loaded from the same snapshot".into());
                }
            }
            if args.trace {
                trace(kind, &corpus, &stack, &tmp, &snapshot, args.seed, &mut out);
                return out;
            }
        }
        let check = |op: &TapeOp, reply: &Reply| -> Result<(), String> {
            let same = match (op, reply) {
                (TapeOp::Rnnr(p), Reply::Ids(got)) => {
                    p.iter().zip(got).all(|(&i, g)| *g == exp.ids[i])
                }
                (TapeOp::TopK(p), Reply::Ranked(got)) => p.iter().zip(got).all(|(&i, g)| {
                    bits(std::slice::from_ref(g)) == bits(std::slice::from_ref(&exp.ranked[i]))
                }),
                _ => false,
            };
            if same {
                Ok(())
            } else {
                Err(format!("{op:?}: answer differs from the checked pool answer"))
            }
        };
        let share = args.seconds / SETUPS as f64;
        let mut st = closed_loop(
            &mut clients,
            &corpus,
            &Inserted::none(),
            &tape,
            Until::Seconds(share),
            &check,
        );
        // The deployments' phases are summarized as one, back to back.
        pooled.extend(st.samples.drain(..).map(|s| Sample { end_s: s.end_s + wall, ..s }));
        wall += st.wall;
        finish(&mut out, st);
        first.get_or_insert(exp);
    }
    eprintln!("# set-up times (s): {times:?}");
    out.metrics.set("setup_s", median(&times), "s");
    out.latency("request", pooled, wall);
    out
}

/// Folds a closed loop's tallies into the outcome.
fn finish(out: &mut Outcome, st: LoopStats) {
    out.attempted += st.ops + st.failed.len() as u64;
    for f in st.failed {
        out.failed(f);
    }
    for w in st.wrong {
        out.wrong(w);
    }
}

/// Churn-tape rounds per second of `--seconds`, sized on a 2-CPU host
/// so the fixed tape takes about that long.
const CHURN_ROUNDS_PER_S: f64 = 14.0;
/// A churn tape still running after this many times `--seconds` (plus
/// 10 s) is cut, so a stalled server cannot hold the run past its
/// time limit.
const CHURN_CAP_FACTOR: f64 = 3.0;
/// Fewest latency samples a run takes.
const MIN_SAMPLES: usize = 1000;

/// Shape of the end-to-end churn tape for a run of `seconds`.
fn churn_shape(seconds: f64) -> TapeShape {
    TapeShape {
        rounds: ((seconds * CHURN_ROUNDS_PER_S).round() as usize)
            .clamp(MIN_SAMPLES / 8, PRESET.n / 64),
        insert_batch: 64,
        delete_batch: 64,
        queries_per_round: 8,
        query_batch: BATCH,
        base: PRESET.n,
        pool: POOL,
    }
}

/// The traced run's in-process write tape: long enough for every
/// shard to flush its memtable more than eight times, so the default
/// segment budget forces merges.
fn merge_shape() -> TapeShape {
    TapeShape { rounds: 280, insert_batch: 256, queries_per_round: 0, ..churn_shape(0.0) }
}

/// Runs `live-churn`.
pub fn live(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let corpus = Corpus::new();
    let tmp = TempDir::new("live").expect("create the run's scratch directory");
    let tape = churn_tape(churn_shape(args.seconds), args.seed);
    let inserts = Inserted::for_tape(&tape, &corpus.data, args.seed);
    let (stack, mut clients, setup) = timed_setup(Kind::Live, &corpus.data, tmp.path());
    out.metrics.set("setup_s", setup, "s");

    let data = &corpus.data;
    if args.trace {
        let point = |id: u32| ((id as usize) < data.len()).then(|| data.row(id as usize).to_vec());
        pool_pass(&mut clients[0], &corpus, data.len(), &corpus.kth, &point, &mut out);
        trace(Kind::Live, &corpus, &stack, &tmp, tmp.path(), args.seed, &mut out);
        return out;
    }

    let check = |op: &TapeOp, reply: &Reply| -> Result<(), String> {
        let dist = |q: &[f32], id: u32| inserts.point(data, id).map(|p| common::l2(q, p));
        match (op, reply) {
            (TapeOp::Rnnr(p), Reply::Ids(got)) if got.len() == p.len() => {
                for (&qi, ids) in p.iter().zip(got) {
                    check_rnnr(ids, |id| dist(&corpus.pool[qi], id), PRESET.radius, L2_TOL, true)?;
                }
                Ok(())
            }
            (TapeOp::TopK(p), Reply::Ranked(got)) if got.len() == p.len() => {
                for (&qi, ranked) in p.iter().zip(got) {
                    check_topk(
                        ranked,
                        K,
                        usize::MAX,
                        |id| dist(&corpus.pool[qi], id),
                        f64::INFINITY,
                        L2_TOL,
                    )?;
                }
                Ok(())
            }
            (TapeOp::Insert(ids) | TapeOp::Delete(ids), Reply::Written(n))
                if *n as usize == ids.len() =>
            {
                Ok(())
            }
            _ => Err(format!("{op:?}: reply of the wrong shape")),
        }
    };
    let cap_s = CHURN_CAP_FACTOR * args.seconds + 10.0;
    let mut st =
        closed_loop(&mut clients, &corpus, &inserts, &tape, Until::OnceOrCap(cap_s), &check);
    let writes = st.acked.len();
    let planned =
        tape.iter().filter(|op| matches!(op, TapeOp::Insert(_) | TapeOp::Delete(_))).count();
    if writes < planned {
        eprintln!("# churn tape cut after {cap_s:.0} s: {writes} of {planned} write requests ran");
    }
    let acked = std::mem::take(&mut st.acked);
    let (samples, wall) = (std::mem::take(&mut st.samples), st.wall);
    finish(&mut out, st);
    out.latency("request", samples, wall);

    // Post-churn pass: the survivors of the acknowledged writes,
    // rebuilt from scratch, must give byte-identical answers, and no
    // deleted id may appear.
    let mut deleted = std::collections::HashSet::new();
    let mut live_ids: Vec<u32> = (0..PRESET.n as u32).collect();
    for op in acked.iter().map(|&i| &tape[i]) {
        match op {
            TapeOp::Insert(ids) => live_ids.extend(ids),
            TapeOp::Delete(ids) => deleted.extend(ids.iter().copied()),
            _ => {}
        }
    }
    live_ids.retain(|id| !deleted.contains(id));
    let survivors = DenseDataset::from_rows(
        PRESET.dim,
        live_ids.iter().map(|&id| inserts.point(data, id).expect("live id has a vector")),
    );
    let kth: Vec<f64> = corpus
        .pool
        .iter()
        .map(|q| {
            kth_smallest(
                &(0..survivors.len()).map(|i| common::l2(q, survivors.row(i))).collect::<Vec<_>>(),
                K,
            )
        })
        .collect();
    let point = |id: u32| {
        if deleted.contains(&id) {
            None
        } else {
            inserts.point(data, id).map(<[f32]>::to_vec)
        }
    };
    let (exp, found) = pool_pass(&mut clients[0], &corpus, survivors.len(), &kth, &point, &mut out);
    out.metrics.set("neighbors_found", found as f64, "count");
    let assignment = PRESET.assignment();
    let oracle =
        SegmentedIndex::build_bulk(survivors.clone(), &live_ids, assignment, PRESET.rnnr_builder());
    let ladder = SegmentedTopKIndex::build_bulk(
        survivors,
        &live_ids,
        assignment,
        PRESET.schedule(),
        |_, r| PRESET.level_builder(r),
    );
    for (qi, q) in corpus.pool.iter().enumerate() {
        let want = oracle.query_with_strategy(q, PRESET.radius, Strategy::Hybrid).ids;
        let want_k: Vec<(u32, f64)> =
            ladder.query_topk(q, K).neighbors.iter().map(|n| (n.id, n.dist)).collect();
        if exp.ids.get(qi) != Some(&want)
            || exp.ranked.get(qi).map(|r| bits(std::slice::from_ref(r))) != Some(bits(&[want_k]))
        {
            out.wrong(format!(
                "post-churn pool query {qi} differs from a fresh build on the survivors"
            ));
        }
    }
    let segments: usize =
        stack.live.as_ref().map_or(0, |svc| svc.with_rnnr(|r| r.segment_counts().iter().sum()));
    eprintln!(
        "# churn: {writes} write requests, {} survivors, {segments} segments after",
        live_ids.len()
    );
    drop(clients);
    drop(stack);
    out
}

/// The traced run of a serving workload (and, for the paper
/// workloads, of the reference frozen stack): index layers on the
/// frozen mixture index, then top-k, segmented, server, coordinator
/// and snapshot layers, each timed through its public functions.
fn trace(
    kind: Kind,
    corpus: &Corpus,
    stack: &Stack,
    tmp: &TempDir,
    snapshot: &std::path::Path,
    seed: u64,
    out: &mut Outcome,
) {
    let data = &corpus.data;
    let m = &mut out.metrics;

    // Builder: the frozen rNNR index and top-k ladder.
    let t = Instant::now();
    let rnnr = PRESET.build_rnnr(data.clone());
    let ladder = PRESET.build_topk(data.clone());
    let build_s = t.elapsed().as_secs_f64();
    m.set("core.build_points_per_s", (data.len() * (1 + PRESET.levels)) as f64 / build_s, "1/s");

    // Index layers over the pool at the serving radius.
    let mut it = IndexTrace::default();
    it.begin_radius(format!("mixture r={}", PRESET.radius));
    let shards: Vec<&HybridLshIndex<DenseDataset, PStableL2, L2, FrozenStore>> =
        rnnr.shards().iter().collect();
    let mut local_of = vec![0u32; rnnr.len()];
    for s in 0..shards.len() {
        for (row, &id) in rnnr.global_ids(s).iter().enumerate() {
            local_of[id as usize] = row as u32;
        }
    }
    let mut engine = ShardedQueryEngine::new();
    for q in (0..crate::layers::TRACE_REPS).flat_map(|_| &corpus.pool) {
        let mut call =
            |q: &[f32], s: Strategy| engine.query_with_strategy(&rnnr, q, PRESET.radius, s);
        it.query(&shards, Some(&local_of), q, PRESET.radius, rnnr.len(), &mut call);
    }
    if it.decision_mismatches() > 0 {
        out.wrong
            .push(format!("{} traced decisions differ from the engine", it.decision_mismatches()));
    }
    it.report(m);

    // Segmented: a long write tape in process (flushes and merges),
    // then the end-to-end churn tape's writes over the wire to a fresh
    // living server.
    let tape = churn_tape(merge_shape(), seed);
    let inserts = Inserted::for_tape(&tape, data, seed);
    let local: Vec<&TapeOp> =
        tape.iter().filter(|op| matches!(op, TapeOp::Insert(_) | TapeOp::Delete(_))).collect();
    let mut live_rnnr = PRESET.build_live_rnnr(data.clone());
    let mut live_ladder = PRESET.build_live_topk(data.clone());
    let (mut ins, mut del) = (Vec::new(), Vec::new());
    for op in &local {
        match op {
            TapeOp::Insert(ids) => {
                for &id in ids {
                    let t = Instant::now();
                    let ok = live_rnnr
                        .insert(id, inserts.row(id))
                        .and(live_ladder.insert(id, inserts.row(id)));
                    ins.push(t.elapsed().as_secs_f64() * 1e6);
                    if let Err(e) = ok {
                        out.wrong.push(format!("insert {id}: {e:?}"));
                    }
                }
            }
            TapeOp::Delete(ids) => {
                for &id in ids {
                    let t = Instant::now();
                    let ok = live_rnnr.delete(id).and(live_ladder.delete(id));
                    del.push(t.elapsed().as_secs_f64() * 1e6);
                    if let Err(e) = ok {
                        out.wrong.push(format!("delete {id}: {e:?}"));
                    }
                }
            }
            _ => {}
        }
    }
    out.attempted += (ins.len() + del.len()) as u64;
    let m = &mut out.metrics;
    m.set("core.segments", live_rnnr.segment_counts().iter().sum::<usize>() as f64, "count");
    m.set("core.insert_us", ins.iter().sum::<f64>() / ins.len() as f64, "us");
    m.set("core.delete_us", del.iter().sum::<f64>() / del.len() as f64, "us");

    // Top-k ladder reports: the churned living ladder on live-churn,
    // the frozen one elsewhere.
    let reports: Vec<TopKReport> = corpus
        .pool
        .iter()
        .map(|q| {
            if kind == Kind::Live {
                live_ladder.query_topk(q, K).report
            } else {
                ladder.query_topk(q, K).report
            }
        })
        .collect();
    let nq = reports.len() as f64;
    m.set(
        "core.topk_levels",
        reports.iter().map(|r| r.levels_executed).sum::<usize>() as f64 / nq,
        "count",
    );
    m.set(
        "core.topk_verified",
        reports.iter().map(|r| r.verified).sum::<usize>() as f64 / nq,
        "count",
    );
    m.set(
        "core.topk_fallback_share",
        reports.iter().filter(|r| r.exact_fallback).count() as f64 / nq,
        "ratio",
    );

    drop((live_rnnr, live_ladder));
    let tape = churn_tape(churn_shape(10.0), seed);
    let inserts = Inserted::for_tape(&tape, data, seed);
    let live_svc = Arc::new(LiveLshService::new(
        PRESET.build_live_rnnr(data.clone()),
        Some(PRESET.build_live_topk(data.clone())),
    ));
    let live_server =
        spawn(live_svc, "127.0.0.1:0", ServerConfig::default()).expect("bind 127.0.0.1:0");
    let mut client = Client::connect(live_server.local_addr()).expect("connect to 127.0.0.1");
    let mut write_ms = Vec::new();
    for op in tape.iter().filter(|op| matches!(op, TapeOp::Insert(_) | TapeOp::Delete(_))) {
        out.attempted += 1;
        let t = Instant::now();
        if let Err(e) = send(&mut client, corpus, op, &inserts) {
            out.failed(format!("traced write {op:?}: {e}"));
        }
        write_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(client);
    drop(live_server);
    write_ms.sort_by(f64::total_cmp);
    let m = &mut out.metrics;
    m.set("server.write_ms_p50", percentile(&write_ms, 50.0), "ms");
    m.set("server.write_ms_p99", percentile(&write_ms, 99.0), "ms");

    // Server: codec, a direct service call and the client round trip
    // on the same requests.
    let sample = read_tape(seed ^ 0x7ACE, TRACE_PASSES);
    let mut client = Client::connect(stack.addr()).expect("connect to 127.0.0.1");
    let (mut codec, mut service, mut rtt) = (Vec::new(), Vec::new(), Vec::new());
    for op in &sample {
        let (TapeOp::Rnnr(p) | TapeOp::TopK(p)) = op else { continue };
        let queries = corpus.queries(p);
        out.attempted += 2;
        let t = Instant::now();
        let resp = match op {
            TapeOp::Rnnr(_) => {
                stack.service.rnnr_batch(&queries, PRESET.radius, None).map(Response::Rnnr)
            }
            _ => stack.service.topk_batch(&queries, K, None).map(Response::TopK),
        };
        service.push(t.elapsed().as_secs_f64() * 1e3);
        let Ok(resp) = resp else {
            out.failed(format!("direct service call {op:?} failed"));
            continue;
        };
        let block = QueryBlock::pack(&queries, PRESET.dim);
        let req = match op {
            TapeOp::Rnnr(_) => Request::Rnnr { radius: PRESET.radius, queries: block },
            _ => Request::TopK { k: K as u32, queries: block },
        };
        let t = Instant::now();
        let frame = req.encode();
        let (kind_byte, body) =
            read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME_BYTES).expect("own frame");
        let back = decode_request(kind_byte, &body);
        let frame = resp.encode();
        let (kind_byte, body) =
            read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME_BYTES).expect("own frame");
        let resp_back = decode_response(kind_byte, &body);
        codec.push(t.elapsed().as_secs_f64() * 1e6);
        if back.as_ref().ok() != Some(&req) || resp_back.as_ref().ok() != Some(&resp) {
            out.wrong.push(format!("{op:?}: a frame did not survive encode/decode"));
        }
        let t = Instant::now();
        let ok = send(&mut client, corpus, op, &Inserted::none());
        rtt.push(t.elapsed().as_secs_f64() * 1e3);
        if ok.is_err() {
            out.failed(format!("traced request {op:?} failed"));
        }
    }
    drop(client);
    let (codec_us, service_ms, rtt_ms) = (median(&codec), median(&service), median(&rtt));
    let m = &mut out.metrics;
    m.set("server.codec_us", codec_us, "us");
    m.set("server.service_ms", service_ms, "ms");
    m.set("server.wire_overhead_ms", rtt_ms - service_ms - codec_us / 1e3, "ms");
    eprintln!(
        "# server: client {rtt_ms:.3} ms = service {service_ms:.3} ms + codec {:.3} ms + wire",
        codec_us / 1e3
    );

    // Admission batching under the closed loop.
    let before = stack.front.stats();
    let mut clients = connect(stack.addr(), nproc());
    let never = |_: &TapeOp, _: &Reply| Ok(());
    let st = closed_loop(
        &mut clients,
        corpus,
        &Inserted::none(),
        &read_tape(seed, 1),
        Until::Seconds(1.0),
        &never,
    );
    drop(clients);
    let after = stack.front.stats();
    out.attempted += st.ops + st.failed.len() as u64;
    out.failed += st.failed.len() as u64;
    let ticks = (after.ticks - before.ticks).max(1);
    out.metrics.set(
        "server.requests_per_tick",
        (after.admitted - before.admitted) as f64 / ticks as f64,
        "count",
    );

    // Snapshot: save the frozen build (dist-2shard reuses its own
    // file), then cold-load it as a shard node would.
    let snap = if kind == Kind::Dist {
        snapshot.to_path_buf()
    } else {
        let p = tmp.path().join("trace.hlsh");
        save_snapshot(&p, &rnnr, Some(&ladder)).expect("save the traced snapshot");
        p
    };
    let bytes = std::fs::metadata(&snap).map_or(0, |md| md.len());
    let loads: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let loaded =
                load_snapshot::<PStableL2, L2>(&snap, LoadMode::Auto).expect("load the snapshot");
            let s = t.elapsed().as_secs_f64();
            drop(loaded);
            s
        })
        .collect();
    out.metrics.set("core.snapshot_load_s", median(&loads), "s");
    out.metrics.set("core.snapshot_bytes_per_point", bytes as f64 / data.len() as f64, "B");

    // Coordinator: shard frames sent by hand to one shard node.
    let own_node;
    let node_addr = if kind == Kind::Dist {
        stack.nodes[0].local_addr()
    } else {
        let node: Arc<Node> = Arc::new(ShardNodeService::new(
            ShardedLshService::new(rnnr, Some(ladder), PRESET.dim),
            0,
        ));
        own_node = spawn(node, "127.0.0.1:0", ServerConfig::default()).expect("bind 127.0.0.1:0");
        own_node.local_addr()
    };
    let mut stream = TcpStream::connect(node_addr).expect("connect to 127.0.0.1");
    let _ = stream.set_nodelay(true);
    let (mut summarize, mut execute, mut summary_bytes, mut frames) =
        (Vec::new(), Vec::new(), 0usize, 0usize);
    for op in sample.iter().filter(|op| matches!(op, TapeOp::Rnnr(_))) {
        let TapeOp::Rnnr(p) = op else { continue };
        let block = QueryBlock::pack(&corpus.queries(p), PRESET.dim);
        let reqs = [
            ShardRequest::Summarize { target: ShardTarget::Rnnr, queries: block.clone() },
            ShardRequest::Execute {
                target: ShardTarget::Rnnr,
                arm: Arm::Lsh,
                radius: PRESET.radius,
                queries: block,
            },
        ];
        for (i, req) in reqs.iter().enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            let reply =
                write_frame(&mut stream, &req.encode()).map_err(|e| e.to_string()).and_then(|_| {
                    read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).map_err(|e| e.to_string())
                });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match reply.and_then(|(k, body)| {
                decode_shard_response(k, &body).map(|r| (r, body.len())).map_err(|e| e.to_string())
            }) {
                Ok((ShardResponse::Summaries(s), len)) if i == 0 && s.len() == p.len() => {
                    summarize.push(ms);
                    summary_bytes += len + 12;
                    frames += p.len();
                }
                Ok((ShardResponse::Ids(ids), _)) if i == 1 && ids.len() == p.len() => {
                    execute.push(ms)
                }
                other => out.failed(format!("shard frame {i}: unexpected reply {:?}", other.err())),
            }
        }
    }
    drop(stream);
    let m = &mut out.metrics;
    m.set("server.summarize_rtt_ms", median(&summarize), "ms");
    m.set("server.execute_rtt_ms", median(&execute), "ms");
    m.set("server.summary_bytes_per_query", summary_bytes as f64 / frames.max(1) as f64, "B");
}

/// The serving-layer half of a paper workload's traced run: the paper
/// corpora never cross a socket, so the server, segmented, top-k,
/// coordinator and snapshot layers are measured on the reference
/// frozen mixture stack. The index-layer metrics this also computes
/// are dropped: the paper workload reports its own.
pub fn reference_layers(seed: u64, out: &mut Outcome) {
    let corpus = Corpus::new();
    let tmp = TempDir::new("reference").expect("create the run's scratch directory");
    let stack = build_stack(Kind::Frozen, &corpus.data, tmp.path());
    let mut own = Outcome::default();
    trace(Kind::Frozen, &corpus, &stack, &tmp, tmp.path(), seed, &mut own);
    drop(stack);
    for (name, value, unit) in own.metrics.iter() {
        if out.metrics.get(name).is_none() {
            out.metrics.set(name, value, unit);
        }
    }
    out.failed += own.failed;
    out.wrong.extend(own.wrong);
}
