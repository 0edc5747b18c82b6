//! CI gate: the serving layer over a real loopback socket.
//!
//! Pins the network determinism contract: responses decoded from the
//! wire are **byte-identical** to the in-process
//! `query_batch`/`query_topk_batch` calls on the same index — ids,
//! order, and `f64` distance bit patterns — regardless of how the
//! admission batcher slices concurrent traffic. Also exercises the
//! failure surface a third-party client will hit: error frames
//! (dimension mismatch, malformed body, unknown kind, bad version) and
//! oversized-request rejection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hybrid_lsh::prelude::*;
use hybrid_lsh::server::service::ServiceError;
use hybrid_lsh::server::{
    spawn, Client, ClientError, ErrorCode, LiveLshService, QueryBlock, QueryService, ServerConfig,
    ServerHandle, ServerInfo, ShardNodeService, ShardedLshService,
};

const DIM: usize = 16;
const RADIUS: f64 = 1.5;

type Service = ShardedLshService<DenseDataset, PStableL2, L2>;

/// The standard fixture: a sharded frozen rNNR index + top-k ladder
/// over a fixed-seed mixture, the in-process reference outputs, and a
/// server on an ephemeral loopback port.
struct Fixture {
    service: Arc<Service>,
    queries: Vec<Vec<f32>>,
    server: ServerHandle,
}

fn fixture(config: ServerConfig) -> Fixture {
    let (data, _) = hybrid_lsh::datagen::benchmark_mixture(DIM, 3_000, RADIUS, 11);
    let queries: Vec<Vec<f32>> = (0..24).map(|i| data.row(i * 125).to_vec()).collect();
    let builder = |radius: f64| {
        IndexBuilder::new(PStableL2::new(DIM, 2.0 * radius), L2)
            .tables(10)
            .hash_len(5)
            .seed(11)
            .cost_model(CostModel::from_ratio(6.0))
    };
    let assignment = ShardAssignment::new(11, 2);
    let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, builder(RADIUS));
    let topk =
        ShardedTopKIndex::build(data, assignment, RadiusSchedule::doubling(RADIUS, 3), |_, r| {
            builder(r)
        })
        .freeze();
    let service = Arc::new(ShardedLshService::new(rnnr, Some(topk), DIM));
    let server = spawn(Arc::clone(&service) as Arc<dyn QueryService>, "127.0.0.1:0", config)
        .expect("bind loopback");
    Fixture { service, queries, server }
}

fn connect(server: &ServerHandle) -> Client {
    Client::connect_retry(server.local_addr(), Duration::from_secs(10)).expect("connect")
}

#[test]
fn rnnr_responses_byte_identical_to_in_process_batch() {
    let mut fx = fixture(ServerConfig::default());
    let expect: Vec<Vec<u32>> = fx
        .service
        .with_rnnr(|rnnr| rnnr.query_batch(&fx.queries, RADIUS))
        .into_iter()
        .map(|o| o.ids)
        .collect();
    assert!(expect.iter().any(|ids| !ids.is_empty()), "fixture must produce non-trivial output");

    let mut client = connect(&fx.server);
    // The whole batch in one request, then the same queries one by one
    // over the reused connection: identical either way.
    assert_eq!(client.query_batch(&fx.queries, RADIUS).unwrap(), expect);
    for (qi, q) in fx.queries.iter().enumerate() {
        let one = client.query_batch(std::slice::from_ref(q), RADIUS).unwrap();
        assert_eq!(one, vec![expect[qi].clone()], "query {qi} diverged over the socket");
    }
    fx.server.shutdown();
}

#[test]
fn topk_responses_byte_identical_including_distance_bits() {
    let mut fx = fixture(ServerConfig::default());
    let k = 7;
    let expect = fx.service.with_indexes(|_, topk| topk.unwrap().query_topk_batch(&fx.queries, k));

    let mut client = connect(&fx.server);
    let got = client.query_topk_batch(&fx.queries, k).unwrap();
    assert_eq!(got.len(), expect.len());
    for (qi, (g, e)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(g.len(), e.neighbors.len(), "query {qi} neighbor count");
        for (a, b) in g.iter().zip(&e.neighbors) {
            assert_eq!(a.0, b.id, "query {qi} id");
            assert_eq!(a.1.to_bits(), b.dist.to_bits(), "query {qi} distance bits");
        }
    }
    fx.server.shutdown();
}

#[test]
fn concurrent_clients_are_coalesced_without_changing_answers() {
    // A generous admission window guarantees genuinely concurrent
    // requests land in one tick, exercising the group/scatter path.
    let mut fx = fixture(ServerConfig {
        admission: hybrid_lsh::server::AdmissionWindow::Fixed(Duration::from_millis(20)),
        ..Default::default()
    });
    let expect: Vec<Vec<u32>> = fx
        .service
        .with_rnnr(|rnnr| rnnr.query_batch(&fx.queries, RADIUS))
        .into_iter()
        .map(|o| o.ids)
        .collect();
    let k = 5;
    let expect_topk =
        fx.service.with_indexes(|_, topk| topk.unwrap().query_topk_batch(&fx.queries, k));

    std::thread::scope(|scope| {
        for (qi, q) in fx.queries.iter().enumerate() {
            let addr = fx.server.local_addr();
            let expect_ids = &expect[qi];
            let expect_nb = &expect_topk[qi].neighbors;
            scope.spawn(move || {
                let mut client =
                    Client::connect_retry(addr, Duration::from_secs(10)).expect("connect");
                let ids = client.query_batch(std::slice::from_ref(q), RADIUS).unwrap();
                assert_eq!(&ids[0], expect_ids, "concurrent rnnr query {qi}");
                let nb = client.query_topk_batch(std::slice::from_ref(q), k).unwrap();
                assert_eq!(nb[0].len(), expect_nb.len());
                for (a, b) in nb[0].iter().zip(expect_nb) {
                    assert_eq!((a.0, a.1.to_bits()), (b.id, b.dist.to_bits()));
                }
            });
        }
    });

    let hybrid_lsh::server::ServerStats { ticks, admitted, .. } = fx.server.stats();
    assert_eq!(admitted, 2 * fx.queries.len() as u64);
    assert!(ticks >= 2, "at least one tick per request kind");
    assert!(
        ticks < admitted,
        "admission batcher never coalesced: {ticks} ticks for {admitted} requests"
    );
    fx.server.shutdown();
}

#[test]
fn info_and_error_frames() {
    let mut fx = fixture(ServerConfig::default());
    let mut client = connect(&fx.server);

    let info = client.info().unwrap();
    assert_eq!(info.points, 3_000);
    assert_eq!(info.dim, DIM as u32);
    assert_eq!(info.shards, 2);
    assert_eq!(info.topk_levels, 3);

    // Dimension mismatch → typed error frame, connection stays usable.
    let wrong = vec![vec![0.0f32; DIM + 3]];
    match client.query_batch(&wrong, RADIUS) {
        Err(ClientError::Server { code: ErrorCode::DimMismatch, message }) => {
            assert!(message.contains("16"), "diagnostic should name the index dim: {message}")
        }
        other => panic!("expected DimMismatch, got {other:?}"),
    }

    // A nonsensical radius is rejected as malformed.
    match client.query_batch(&[vec![0.0f32; DIM]], f64::NAN) {
        Err(ClientError::Server { code: ErrorCode::Malformed, .. }) => {}
        other => panic!("expected Malformed for NaN radius, got {other:?}"),
    }

    // An empty batch short-circuits to an empty response.
    assert_eq!(client.query_batch(&[], RADIUS).unwrap(), Vec::<Vec<u32>>::new());

    // The connection survived every error above.
    assert_eq!(client.info().unwrap().points, 3_000);
    fx.server.shutdown();
}

/// Speaks raw bytes to the server to exercise frame-level rejection.
fn raw_exchange(server: &ServerHandle, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(bytes).expect("write");
    // Half-close: the server drains our frames, replies, sees EOF and
    // closes, so read_to_end returns promptly with every response.
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = stream.read_to_end(&mut out);
    out
}

/// Decodes `(code, kind)` of the first frame in `bytes`, asserting it
/// is an error frame.
fn first_error_code(bytes: &[u8]) -> ErrorCode {
    assert!(bytes.len() >= 14, "expected at least one error frame, got {} bytes", bytes.len());
    assert_eq!(&bytes[4..8], b"HLSH");
    assert_eq!(bytes[9], 0x7F, "expected an error frame, kind was {:#04x}", bytes[9]);
    let code = u16::from_le_bytes([bytes[12], bytes[13]]);
    ErrorCode::from_u16(code).expect("valid error code")
}

#[test]
fn oversized_requests_are_rejected_and_connection_closed() {
    let mut fx = fixture(ServerConfig { max_frame_bytes: 4 * 1024, ..ServerConfig::default() });

    // Declare a frame far past the limit; send nothing else. The
    // server must answer TooLarge without reading the phantom payload,
    // then close (read_to_end returning proves the close).
    let mut evil = Vec::new();
    evil.extend_from_slice(&(50 * 1024 * 1024u32).to_le_bytes());
    let reply = raw_exchange(&fx.server, &evil);
    assert_eq!(first_error_code(&reply), ErrorCode::TooLarge);

    // A well-formed client on the same server still works after the
    // rejection.
    let mut client = connect(&fx.server);
    assert_eq!(client.info().unwrap().points, 3_000);
    fx.server.shutdown();
}

/// A frame limit small enough that no answer test allocates much.
const SMALL_FRAME: usize = 64 * 1024;

/// A service whose top-k path must never run: it reports a
/// 100 000-point index with a ladder and answers every rNNR query with
/// id 7.
#[derive(Default)]
struct NoTopK {
    topk_called: std::sync::atomic::AtomicBool,
}

impl QueryService for NoTopK {
    fn info(&self) -> ServerInfo {
        ServerInfo { points: 100_000, dim: DIM as u32, shards: 1, topk_levels: 1 }
    }

    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        _: f64,
        _: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError> {
        Ok(vec![vec![7]; queries.len()])
    }

    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        _: usize,
        _: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError> {
        self.topk_called.store(true, std::sync::atomic::Ordering::SeqCst);
        Ok(vec![Vec::new(); queries.len()])
    }
}

#[test]
fn an_oversize_topk_answer_is_refused_before_any_work() {
    let stub = Arc::new(NoTopK::default());
    let config = ServerConfig { max_frame_bytes: SMALL_FRAME, ..ServerConfig::default() };
    let mut server =
        spawn(Arc::clone(&stub) as Arc<dyn QueryService>, "127.0.0.1:0", config).expect("bind");
    let mut client = connect(&server);
    // Two queries at k = 3 000 may answer 12 + 2 · (4 + 12 · 3 000)
    // bytes: over 64 KiB, so the server refuses before it runs them.
    let queries = vec![vec![0.5f32; DIM]; 2];
    match client.query_topk_batch(&queries, 3_000) {
        Err(ClientError::Server { code: ErrorCode::TooLarge, .. }) => {}
        other => panic!("expected a TooLarge error frame, got {other:?}"),
    }
    assert!(!stub.topk_called.load(std::sync::atomic::Ordering::SeqCst), "top-k ran");
    // The connection stays open and answers the next call.
    assert_eq!(client.query_batch(&queries, RADIUS).unwrap(), vec![vec![7], vec![7]]);
    assert!(!stub.topk_called.load(std::sync::atomic::Ordering::SeqCst), "top-k ran");
    server.shutdown();
}

#[test]
fn an_oversize_rnnr_answer_is_refused_and_the_connection_lives_on() {
    let mut fx = fixture(ServerConfig { max_frame_bytes: SMALL_FRAME, ..ServerConfig::default() });
    let mut client = connect(&fx.server);
    // Every point lies within the radius, so the answers hold every
    // candidate the chosen arm finds: about 40 000 ids over the 96
    // queries, some 160 KB.
    let many: Vec<Vec<f32>> = fx.queries.iter().cycle().take(96).cloned().collect();
    let huge = fx.service.with_rnnr(|rnnr| rnnr.query_batch(&many, 1e6));
    assert!(huge.iter().map(|o| 4 + 4 * o.ids.len()).sum::<usize>() > SMALL_FRAME);
    match client.query_batch(&many, 1e6) {
        Err(ClientError::Server { code: ErrorCode::TooLarge, .. }) => {}
        other => panic!("expected a TooLarge error frame, got {:?}", other.map(|a| a.len())),
    }
    let expect: Vec<Vec<u32>> = fx
        .service
        .with_rnnr(|rnnr| rnnr.query_batch(&fx.queries, RADIUS))
        .into_iter()
        .map(|o| o.ids)
        .collect();
    assert_eq!(client.query_batch(&fx.queries, RADIUS).unwrap(), expect);
    fx.server.shutdown();
}

#[test]
fn frame_level_garbage_gets_typed_errors() {
    let mut fx = fixture(ServerConfig::default());

    // Valid length, wrong magic.
    let mut bad_magic = hybrid_lsh::server::Request::Info.encode();
    bad_magic[4] = b'X';
    assert_eq!(first_error_code(&raw_exchange(&fx.server, &bad_magic)), ErrorCode::BadMagic);

    // Unsupported version.
    let mut bad_version = hybrid_lsh::server::Request::Info.encode();
    bad_version[8] = 9;
    assert_eq!(first_error_code(&raw_exchange(&fx.server, &bad_version)), ErrorCode::BadVersion);

    // Unknown kind: recoverable — the server answers and keeps the
    // connection; a follow-up Info on the same socket must succeed.
    let mut unknown = hybrid_lsh::server::Request::Info.encode();
    unknown[9] = 0x5A;
    let mut follow_up = unknown.clone();
    follow_up[9] = 0x03; // Info
    let mut both = unknown;
    both.extend_from_slice(&follow_up);
    let reply = raw_exchange(&fx.server, &both);
    assert_eq!(first_error_code(&reply), ErrorCode::UnknownKind);
    // The second frame in the reply stream is the Info response.
    let first_len = 4 + u32::from_le_bytes(reply[0..4].try_into().unwrap()) as usize;
    assert!(reply.len() > first_len, "no second response after recoverable error");
    assert_eq!(reply[first_len + 9], 0x83, "expected INFO_RESP after recoverable error");

    // Truncated body: declared rNNR frame whose body is empty.
    let mut malformed = hybrid_lsh::server::Request::Info.encode();
    malformed[9] = 0x01; // RNNR with no radius/block
    assert_eq!(first_error_code(&raw_exchange(&fx.server, &malformed)), ErrorCode::Malformed);

    // A frame declaring len < 8 leaves its declared bytes unread, so
    // the server must answer Malformed and CLOSE — if it kept reading,
    // the phantom bytes would desync the stream and the trailing valid
    // Info frame would be misparsed instead of ignored.
    let mut desync = Vec::new();
    desync.extend_from_slice(&4u32.to_le_bytes());
    desync.extend_from_slice(&[0xAA; 4]);
    desync.extend_from_slice(&hybrid_lsh::server::Request::Info.encode());
    let reply = raw_exchange(&fx.server, &desync);
    assert_eq!(first_error_code(&reply), ErrorCode::Malformed);
    let first_len = 4 + u32::from_le_bytes(reply[0..4].try_into().unwrap()) as usize;
    assert_eq!(reply.len(), first_len, "connection must close after a too-short frame");

    fx.server.shutdown();
}

// ---------------------------------------------------------------------
// Living index over the wire: Insert/Delete frames against a
// `LiveLshService`, the post-churn byte-identity contract, and the
// mutation failure surface.
// ---------------------------------------------------------------------

const LIVE_N: usize = 1_200;

fn live_builder(radius: f64) -> IndexBuilder<PStableL2, L2> {
    IndexBuilder::new(PStableL2::new(DIM, 2.0 * radius), L2)
        .tables(10)
        .hash_len(5)
        .seed(11)
        .cost_model(CostModel::from_ratio(6.0))
}

/// A segmented (mutable) fixture: rNNR index + top-k ladder served by
/// a [`LiveLshService`], plus the corpus for insert vectors and
/// rebuild oracles.
struct LiveFixture {
    data: DenseDataset,
    queries: Vec<Vec<f32>>,
    service: Arc<LiveLshService<PStableL2, L2>>,
    server: ServerHandle,
}

fn live_fixture() -> LiveFixture {
    let (data, _) = hybrid_lsh::datagen::benchmark_mixture(DIM, LIVE_N, RADIUS, 11);
    let queries: Vec<Vec<f32>> = (0..16).map(|i| data.row(i * 75).to_vec()).collect();
    let assignment = ShardAssignment::new(11, 2);
    let ids: Vec<PointId> = (0..LIVE_N as PointId).collect();
    let rnnr = SegmentedIndex::build_bulk(data.clone(), &ids, assignment, live_builder(RADIUS));
    let topk = SegmentedTopKIndex::build_bulk(
        data.clone(),
        &ids,
        assignment,
        RadiusSchedule::doubling(RADIUS, 3),
        |_, r| live_builder(r),
    );
    let service = Arc::new(LiveLshService::new(rnnr, Some(topk)));
    let server = spawn(
        Arc::clone(&service) as Arc<dyn QueryService>,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind loopback");
    LiveFixture { data, queries, service, server }
}

#[test]
fn live_mutations_keep_answers_byte_identical_to_rebuild() {
    let mut fx = live_fixture();
    let mut client = connect(&fx.server);
    assert_eq!(client.info().unwrap().points, LIVE_N as u64);

    // Delete a spread of original ids, insert fresh points (corpus
    // rows under new ids), and mirror both locally.
    let deleted: Vec<PointId> = (0..LIVE_N as PointId).step_by(9).collect();
    assert_eq!(client.delete_batch(&deleted).unwrap(), deleted.len() as u32);
    let fresh_ids: Vec<PointId> = (0..40).map(|i| LIVE_N as PointId + i).collect();
    let fresh_points: Vec<Vec<f32>> = (0..40).map(|i| fx.data.row(i * 7 + 3).to_vec()).collect();
    assert_eq!(client.insert_batch(&fresh_ids, &fresh_points).unwrap(), 40);
    assert_eq!(
        client.info().unwrap().points,
        (LIVE_N - deleted.len() + 40) as u64,
        "info must reflect the mutated live count"
    );

    // The survivors, as a rebuild-from-scratch oracle.
    let dead: std::collections::HashSet<PointId> = deleted.iter().copied().collect();
    let mut survivors: Vec<(PointId, Vec<f32>)> = (0..LIVE_N as PointId)
        .filter(|id| !dead.contains(id))
        .map(|id| (id, fx.data.row(id as usize).to_vec()))
        .collect();
    survivors.extend(fresh_ids.iter().copied().zip(fresh_points.iter().cloned()));
    let ids: Vec<PointId> = survivors.iter().map(|(id, _)| *id).collect();
    let surviving = DenseDataset::from_rows(DIM, survivors.iter().map(|(_, p)| p.as_slice()));
    let assignment = ShardAssignment::new(11, 2);
    let oracle =
        SegmentedIndex::build_bulk(surviving.clone(), &ids, assignment, live_builder(RADIUS));
    let oracle_topk = SegmentedTopKIndex::build_bulk(
        surviving,
        &ids,
        assignment,
        RadiusSchedule::doubling(RADIUS, 3),
        |_, r| live_builder(r),
    );

    // Post-churn answers over the wire: byte-identical to the rebuild.
    let served = client.query_batch(&fx.queries, RADIUS).unwrap();
    let mut engine = SegmentedQueryEngine::new();
    let mut nonempty = 0;
    for (qi, (got, q)) in served.iter().zip(&fx.queries).enumerate() {
        let want = engine.query(&oracle, q, RADIUS).ids;
        assert_eq!(got, &want, "post-churn rNNR query {qi} diverged from the rebuild");
        nonempty += usize::from(!want.is_empty());
    }
    assert!(nonempty > 0, "fixture must produce non-trivial post-churn output");

    let k = 6;
    let served = client.query_topk_batch(&fx.queries, k).unwrap();
    let mut engine = SegmentedTopKEngine::new();
    for (qi, (got, q)) in served.iter().zip(&fx.queries).enumerate() {
        let want = engine.query_topk(&oracle_topk, q, k).neighbors;
        assert_eq!(got.len(), want.len(), "post-churn top-k query {qi} neighbor count");
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.0, b.id, "post-churn top-k query {qi} id");
            assert_eq!(a.1.to_bits(), b.dist.to_bits(), "post-churn top-k query {qi} bits");
        }
    }
    fx.server.shutdown();
}

#[test]
fn mutation_error_frames_are_recoverable_and_all_or_nothing() {
    let mut fx = live_fixture();
    let mut client = connect(&fx.server);
    let fresh = LIVE_N as PointId + 1_000;
    let point = fx.data.row(0).to_vec();

    // Wrong dimensionality → typed error, nothing applied.
    match client.insert_batch(&[fresh], &[vec![0.0f32; DIM + 1]]) {
        Err(ClientError::Server { code: ErrorCode::DimMismatch, message }) => {
            assert!(message.contains("16"), "diagnostic should name the index dim: {message}")
        }
        other => panic!("expected DimMismatch, got {other:?}"),
    }

    // Inserting a live id → DuplicateId; the batch's fresh id must NOT
    // have been applied (all-or-nothing), so inserting it afterwards
    // succeeds.
    match client.insert_batch(&[fresh, 0], &[point.clone(), point.clone()]) {
        Err(ClientError::Server { code: ErrorCode::DuplicateId, message }) => {
            assert!(message.contains('0'), "diagnostic should name the id: {message}")
        }
        other => panic!("expected DuplicateId, got {other:?}"),
    }
    assert_eq!(client.info().unwrap().points, LIVE_N as u64, "failed batch must not apply");
    assert_eq!(client.insert_batch(&[fresh], std::slice::from_ref(&point)).unwrap(), 1);

    // An id repeated within one batch is also DuplicateId.
    let (a, b) = (fresh + 1, fresh + 1);
    match client.insert_batch(&[a, b], &[point.clone(), point.clone()]) {
        Err(ClientError::Server { code: ErrorCode::DuplicateId, .. }) => {}
        other => panic!("expected DuplicateId for a repeated id, got {other:?}"),
    }

    // Deleting a never-inserted id → UnknownId; pairing it with a live
    // id must leave the live id alive (all-or-nothing again).
    match client.delete_batch(&[3, fresh + 77]) {
        Err(ClientError::Server { code: ErrorCode::UnknownId, message }) => {
            assert!(message.contains(&(fresh + 77).to_string()), "{message}")
        }
        other => panic!("expected UnknownId, got {other:?}"),
    }
    // A duplicate delete within one batch fails the same way: the
    // second occurrence is no longer live.
    match client.delete_batch(&[3, 3]) {
        Err(ClientError::Server { code: ErrorCode::UnknownId, .. }) => {}
        other => panic!("expected UnknownId for a duplicate delete, got {other:?}"),
    }
    // Delete-then-reinsert on one connection: both succeed.
    assert_eq!(client.delete_batch(&[3]).unwrap(), 1);
    assert_eq!(client.insert_batch(&[3], &[fx.data.row(3).to_vec()]).unwrap(), 1);

    // Truncated mutation bodies over the raw socket → Malformed.
    let mut empty_insert = hybrid_lsh::server::Request::Info.encode();
    empty_insert[9] = 0x04; // INSERT with no body
    assert_eq!(first_error_code(&raw_exchange(&fx.server, &empty_insert)), ErrorCode::Malformed);
    let mut empty_delete = hybrid_lsh::server::Request::Info.encode();
    empty_delete[9] = 0x05; // DELETE with no body
    assert_eq!(first_error_code(&raw_exchange(&fx.server, &empty_delete)), ErrorCode::Malformed);

    // The connection survived every recoverable error above and the
    // index reflects exactly the acked mutations (+1 for `fresh`).
    assert_eq!(client.info().unwrap().points, LIVE_N as u64 + 1);
    fx.server.shutdown();
}

#[test]
fn in_process_insert_without_a_row_per_id_is_rejected_whole() {
    // The wire decoder keeps ids and rows in step; a direct caller can
    // hand the service fewer rows than ids, or a ragged block. Either
    // batch must fail before any id is applied.
    let mut fx = live_fixture();
    let ids: Vec<PointId> = (0..3).map(|i| LIVE_N as PointId + i).collect();
    let one_row = QueryBlock::pack(&[fx.data.row(0).to_vec()], DIM);
    let mut ragged = QueryBlock::pack(&[fx.data.row(1).to_vec(), fx.data.row(2).to_vec()], DIM);
    ragged.data.pop();
    for (block, ids) in [(&one_row, &ids[..]), (&ragged, &ids[..2])] {
        match fx.service.insert_batch(ids, block) {
            Err(e) => assert_eq!(e.code, ErrorCode::Malformed, "{}", e.message),
            Ok(n) => {
                panic!("a block of {} floats for {} ids acked {n}", block.data.len(), ids.len())
            }
        }
        fx.service.with_rnnr(|rnnr| {
            assert_eq!(rnnr.len(), LIVE_N, "a rejected batch must not change the live count");
            for &id in ids {
                assert!(!rnnr.contains(id), "id {id} of a rejected batch is live");
            }
        });
    }
    fx.server.shutdown();
}

#[test]
fn frozen_and_shard_deployments_refuse_mutation_with_typed_errors() {
    // A frozen standalone server: mutation is Unsupported, and the
    // connection keeps serving queries afterwards.
    let mut fx = fixture(ServerConfig::default());
    let mut client = connect(&fx.server);
    match client.insert_batch(&[9_999], &[vec![0.0f32; DIM]]) {
        Err(ClientError::Server { code: ErrorCode::Unsupported, message }) => {
            assert!(message.contains("--live"), "should point at the living mode: {message}")
        }
        other => panic!("expected Unsupported from a frozen server, got {other:?}"),
    }
    match client.delete_batch(&[0]) {
        Err(ClientError::Server { code: ErrorCode::Unsupported, .. }) => {}
        other => panic!("expected Unsupported from a frozen server, got {other:?}"),
    }
    assert_eq!(client.info().unwrap().points, 3_000);
    fx.server.shutdown();

    // A shard node refuses too — mutating one shard behind a
    // coordinator's back would desync the fleet.
    let (data, _) = hybrid_lsh::datagen::benchmark_mixture(DIM, 600, RADIUS, 11);
    let assignment = ShardAssignment::new(11, 2);
    let rnnr = ShardedIndex::build_frozen(data, assignment, live_builder(RADIUS));
    let shard_node = Arc::new(ShardNodeService::new(ShardedLshService::new(rnnr, None, DIM), 0));
    let mut server =
        spawn(shard_node as Arc<dyn QueryService>, "127.0.0.1:0", ServerConfig::default())
            .expect("bind loopback");
    let mut client = Client::connect_retry(server.local_addr(), Duration::from_secs(10)).unwrap();
    match client.insert_batch(&[9_999], &[vec![0.0f32; DIM]]) {
        Err(ClientError::Server { code: ErrorCode::Unsupported, message }) => {
            assert!(message.contains("shard"), "should explain the refusal: {message}")
        }
        other => panic!("expected Unsupported from a shard node, got {other:?}"),
    }
    match client.delete_batch(&[0]) {
        Err(ClientError::Server { code: ErrorCode::Unsupported, .. }) => {}
        other => panic!("expected Unsupported from a shard node, got {other:?}"),
    }
    assert_eq!(client.info().unwrap().points, 600);
    server.shutdown();
}
