//! End-to-end tests for the crash-safe serving stack: server + client
//! over real loopback TCP, adversarial raw-socket input, and durable-tier
//! recovery across a full service restart (including a simulated crash
//! that tears the last record).

use dmcp::core::PartitionConfig;
use dmcp::mach::rng::Rng64;
use dmcp::mach::MachineConfig;
use dmcp::serve::codec::encode_request;
use dmcp::serve::wire::{
    decode_error, read_frame, write_frame, ErrorCode, FrameKind, WireError, FRAME_MAGIC,
    MAX_FRAME_BYTES, WIRE_VERSION,
};
use dmcp::serve::{
    ChaosAction, ChaosProxy, ClientConfig, ClientError, FaultyIo, MemIo, NetConfig, PlanClient,
    PlanRequest, PlanServer, PlanService, ServeConfig, StorageIo,
};
use dmcp::workloads::{all, by_name, Scale};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmcp-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(name: &str) -> PlanRequest {
    let w = by_name(name, Scale::Tiny).expect("known workload");
    PlanRequest::new(w.program, MachineConfig::knl_like(), PartitionConfig::default())
        .with_data(w.data)
}

/// Boots a service (durable tier at `dir`) and a loopback server.
fn boot(dir: &Path, net: NetConfig) -> (PlanServer, Arc<PlanService>, SocketAddr) {
    let config = ServeConfig { disk_dir: Some(dir.to_path_buf()), ..ServeConfig::default() };
    let service = Arc::new(PlanService::try_new(config).expect("open durable tier"));
    let server =
        PlanServer::start(Arc::clone(&service), "127.0.0.1:0", net).expect("bind loopback");
    let addr = server.local_addr();
    (server, service, addr)
}

/// Stops the server and drains the service, asserting a clean drain.
fn halt(server: PlanServer, service: Arc<PlanService>) {
    server.stop();
    let service = Arc::try_unwrap(service).ok().expect("server must release the service");
    assert!(service.shutdown_within(Duration::from_secs(60)), "service must drain");
}

/// Full restart cycle over one cache directory: the warm server must
/// answer every request bit-identically with zero recompiles, entirely
/// from the durable tier and the memory LRU it repopulates.
#[test]
fn warm_restart_serves_bit_identical_plans_with_zero_recompiles() {
    let dir = tmpdir("warm-restart");
    let names = ["fft", "lu", "ocean", "barnes", "radix", "water"];

    let (server, service, addr) = boot(&dir, NetConfig::default());
    let mut client = PlanClient::connect(addr, ClientConfig::default()).expect("connect");
    let cold: Vec<Vec<u8>> = names
        .iter()
        .map(|n| client.plan_bytes(&encode_request(&request(n))).expect("cold plan"))
        .collect();
    let stats = client.stats().expect("stats");
    assert_eq!(stats.compiles, names.len() as u64, "each workload compiles once");
    assert_eq!(stats.disk.writes, names.len() as u64, "every compile is written through");
    halt(server, service);

    // Fresh process state, same directory: only the disk remembers.
    let (server, service, addr) = boot(&dir, NetConfig::default());
    let mut client = PlanClient::connect(addr, ClientConfig::default()).expect("reconnect");
    for (name, cold_bytes) in names.iter().zip(&cold) {
        let warm = client.plan_bytes(&encode_request(&request(name))).expect("warm plan");
        assert_eq!(&warm, cold_bytes, "{name}: warm plan must be bit-identical");
    }
    let stats = client.stats().expect("warm stats");
    assert_eq!(stats.compiles, 0, "warm restart must not recompile anything");
    assert_eq!(stats.disk.hits, names.len() as u64, "every warm plan comes off disk");
    assert_eq!(stats.disk.recovered_records, names.len() as u64, "recovery indexes every record");
    halt(server, service);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash that tears the record being written (simulated by truncating
/// the segment tail) loses at most that one plan: the next boot serves
/// the other N−1 from disk and recompiles only the torn one, still
/// bit-identically.
#[test]
fn torn_tail_after_crash_loses_at_most_one_plan_end_to_end() {
    let dir = tmpdir("torn-tail");
    let names = ["fft", "lu", "ocean", "cholesky"];

    let (server, service, addr) = boot(&dir, NetConfig::default());
    let mut client = PlanClient::connect(addr, ClientConfig::default()).expect("connect");
    let cold: Vec<Vec<u8>> = names
        .iter()
        .map(|n| client.plan_bytes(&encode_request(&request(n))).expect("cold plan"))
        .collect();
    halt(server, service);

    // Tear the tail of the last segment mid-record, as a crash during the
    // final append would.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segments.sort();
    let last = segments.last().expect("at least one segment");
    let len = std::fs::metadata(last).expect("metadata").len();
    let file = std::fs::OpenOptions::new().write(true).open(last).expect("open segment");
    file.set_len(len - 7).expect("tear the tail");

    let (server, service, addr) = boot(&dir, NetConfig::default());
    let mut client = PlanClient::connect(addr, ClientConfig::default()).expect("reconnect");
    for (name, cold_bytes) in names.iter().zip(&cold) {
        let warm = client.plan_bytes(&encode_request(&request(name))).expect("post-crash plan");
        assert_eq!(&warm, cold_bytes, "{name}: post-crash plan must be bit-identical");
    }
    let stats = client.stats().expect("post-crash stats");
    assert_eq!(stats.compiles, 1, "exactly the torn plan recompiles");
    assert_eq!(stats.disk.hits, names.len() as u64 - 1, "the rest come off disk");
    assert_eq!(
        stats.disk.recovered_records,
        names.len() as u64 - 1,
        "recovery drops exactly the torn record"
    );
    halt(server, service);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads one frame with a deadline enforced by the socket read timeout.
fn read_reply(stream: &mut TcpStream) -> Result<(FrameKind, Vec<u8>), WireError> {
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    read_frame(stream)
}

/// Byte soup on a raw socket: the server answers with a typed error
/// frame (or closes cleanly) within its deadline, never hangs, and keeps
/// serving well-formed clients afterwards.
#[test]
fn raw_garbage_gets_a_typed_error_and_does_not_wedge_the_server() {
    let dir = tmpdir("garbage");
    let net = NetConfig { io_timeout: Duration::from_millis(500), ..NetConfig::default() };
    let (server, service, addr) = boot(&dir, net);

    let mut rng = Rng64::new(0xBAD5_0C4E);
    for round in 0..16 {
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        let n = 1 + (rng.next_u64() % 64) as usize;
        let soup: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        stream.write_all(&soup).expect("write soup");
        let started = Instant::now();
        match read_reply(&mut stream) {
            Ok((FrameKind::Error, payload)) => {
                let (code, _) = decode_error(&payload);
                assert!(
                    matches!(code, ErrorCode::Malformed | ErrorCode::TooLarge),
                    "round {round}: garbage must map to a malformed-class error, got {code:?}"
                );
            }
            Ok((kind, _)) => panic!("round {round}: unexpected success frame {kind:?}"),
            // Closed / timed out without an answer is also acceptable —
            // but it must happen promptly, not hang.
            Err(_) => {}
        }
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "round {round}: server must answer or close promptly"
        );
    }

    // The server is still healthy for a real client.
    let mut client = PlanClient::connect(addr, ClientConfig::default()).expect("connect");
    client.plan_bytes(&encode_request(&request("fft"))).expect("server still serves");
    halt(server, service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame that declares a payload larger than the protocol ceiling is
/// refused with `TooLarge` before any allocation happens.
#[test]
fn oversized_frame_length_is_refused_with_too_large() {
    let dir = tmpdir("oversized");
    let (server, service, addr) = boot(&dir, NetConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect raw");
    let mut header = Vec::new();
    header.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    header.push(WIRE_VERSION);
    header.push(1); // PlanRequest
    header.extend_from_slice(&[0, 0]); // reserved
    header.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
    stream.write_all(&header).expect("write header");

    match read_reply(&mut stream) {
        Ok((FrameKind::Error, payload)) => {
            let (code, _) = decode_error(&payload);
            assert_eq!(code, ErrorCode::TooLarge);
        }
        other => panic!("expected TooLarge error frame, got {other:?}"),
    }
    // The connection is closed after the framing error.
    let mut rest = Vec::new();
    let closed = stream.read_to_end(&mut rest);
    assert!(closed.is_ok() && rest.is_empty(), "stream must be cleanly closed");

    halt(server, service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request in the first request layout (version byte 1) and a current
/// request with a byte appended are both answered with a `Malformed`
/// error frame, before anything is compiled.
#[test]
fn old_layout_and_over_long_requests_get_malformed_frames() {
    let dir = tmpdir("old-layout");
    let (server, service, addr) = boot(&dir, NetConfig::default());

    let current = encode_request(&request("fft"));
    let mut old_layout = current.clone();
    old_layout[0] = 1;
    let mut over_long = current;
    over_long.push(0);
    for (label, payload, needle) in
        [("old layout", old_layout, "version 1"), ("over-long", over_long, "trailing")]
    {
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        write_frame(&mut stream, FrameKind::PlanRequest, &payload).expect("write request");
        match read_reply(&mut stream) {
            Ok((FrameKind::Error, payload)) => {
                let (code, message) = decode_error(&payload);
                assert_eq!(code, ErrorCode::Malformed, "{label}: {message}");
                assert!(message.contains(needle), "{label}: unexpected message {message:?}");
            }
            other => panic!("{label}: expected a Malformed error frame, got {other:?}"),
        }
    }
    assert_eq!(service.stats().compiles, 0, "a refused request must never compile");

    halt(server, service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer that sends a valid header then stalls mid-payload is cut off by
/// the per-connection deadline; the handler pool does not stay pinned and
/// honest clients keep getting answers while the staller waits.
#[test]
fn stalled_mid_frame_peer_is_disconnected_by_the_deadline() {
    let dir = tmpdir("staller");
    let net = NetConfig { io_timeout: Duration::from_millis(300), ..NetConfig::default() };
    let (server, service, addr) = boot(&dir, net);

    let mut stream = TcpStream::connect(addr).expect("connect raw");
    // Valid header promising 1024 bytes of payload — then silence.
    let mut header = Vec::new();
    header.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    header.push(WIRE_VERSION);
    header.push(1); // PlanRequest
    header.extend_from_slice(&[0, 0]); // reserved
    header.extend_from_slice(&1024_u32.to_le_bytes());
    stream.write_all(&header).expect("write header");

    // An honest client is served while the staller occupies a handler.
    let mut client = PlanClient::connect(addr, ClientConfig::default()).expect("connect");
    client.plan_bytes(&encode_request(&request("fft"))).expect("honest client served");

    // The stalled connection is closed once the deadline passes.
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut rest = Vec::new();
    let outcome = stream.read_to_end(&mut rest);
    assert!(outcome.is_ok(), "server must close the stalled connection, not hang it");

    halt(server, service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent clients over TCP for every workload: single-flight and the
/// cache keep compiles at one per distinct key even under fan-in.
#[test]
fn concurrent_tcp_clients_share_one_compile_per_key() {
    let dir = tmpdir("fan-in");
    let (server, service, addr) = boot(&dir, NetConfig::default());

    let payloads: Vec<Vec<u8>> = all(Scale::Tiny)
        .into_iter()
        .map(|w| {
            let req =
                PlanRequest::new(w.program, MachineConfig::knl_like(), PartitionConfig::default())
                    .with_data(w.data);
            encode_request(&req)
        })
        .collect();
    let distinct = payloads.len() as u64;

    std::thread::scope(|scope| {
        for c in 0..4 {
            let payloads = &payloads;
            scope.spawn(move || {
                let config = ClientConfig { seed: 0xFA51_0000 + c, ..ClientConfig::default() };
                let mut client = PlanClient::connect(addr, config).expect("connect");
                for p in payloads {
                    client.plan_bytes(p).expect("plan over tcp");
                }
            });
        }
    });

    let mut client = PlanClient::connect(addr, ClientConfig::default()).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.compiles, distinct, "one compile per distinct key");
    assert_eq!(stats.submitted, 4 * distinct, "every request was admitted");
    halt(server, service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fast-retry client config for the chaos-proxy tests.
fn chaos_client_config(seed: u64, max_retries: u32) -> ClientConfig {
    ClientConfig {
        io_timeout: Duration::from_secs(2),
        max_retries,
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(40),
        seed,
        ..ClientConfig::default()
    }
}

/// A bit flipped in the response payload in transit fails the frame
/// checksum; the client treats it as retryable corruption, retries on a
/// clean connection, and returns the *correct* plan — never the torn one.
#[test]
fn bit_flipped_response_is_rejected_by_checksum_and_retried_to_success() {
    let dir = tmpdir("bit-flip");
    let (server, service, addr) = boot(&dir, NetConfig::default());

    // Fetch the reference bytes directly first (this also warms the key,
    // keeping the proxied exchange deterministic).
    let payload = encode_request(&request("fft"));
    let mut direct = PlanClient::connect(addr, ClientConfig::default()).expect("connect direct");
    let reference = direct.plan_bytes(&payload).expect("reference plan");

    // Connection 0 flips a payload bit; connection 1 passes through.
    let proxy = ChaosProxy::start(
        addr,
        vec![ChaosAction::BitFlip { offset: 16, mask: 0x40 }, ChaosAction::Pass],
    )
    .expect("start proxy");
    let mut client =
        PlanClient::connect(proxy.local_addr(), chaos_client_config(0xB17F, 5)).expect("connect");
    let got = client.plan_bytes(&payload).expect("plan despite corruption");
    assert_eq!(got, reference, "the retried plan must be the correct bytes");
    assert!(client.counters().retries >= 1, "the flipped response must have cost a retry");
    assert_eq!(proxy.counters().flipped, 1, "the proxy flipped exactly one byte");

    proxy.stop();
    halt(server, service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A response truncated mid-frame surfaces promptly as a typed, retryable
/// i/o error — the client never hands back a partial plan, and the
/// deadline (not a hang) ends the read.
#[test]
fn mid_frame_truncation_is_a_prompt_typed_error_never_a_torn_plan() {
    let dir = tmpdir("truncate");
    let (server, service, addr) = boot(&dir, NetConfig::default());
    let payload = encode_request(&request("lu"));
    let mut direct = PlanClient::connect(addr, ClientConfig::default()).expect("connect direct");
    direct.plan_bytes(&payload).expect("warm the key");

    // 16 bytes = the 12-byte header plus 4 payload bytes, then the cut.
    let proxy =
        ChaosProxy::start(addr, vec![ChaosAction::Drop { after: 16 }]).expect("start proxy");
    let mut client =
        PlanClient::connect(proxy.local_addr(), chaos_client_config(0x7C07, 0)).expect("connect");
    let started = Instant::now();
    let err = client.plan_bytes(&payload).expect_err("truncation must not yield a plan");
    assert!(matches!(err, ClientError::Io(_)), "truncation is an i/o error, got {err:?}");
    assert!(err.retryable(), "a cut connection is worth retrying");
    assert!(started.elapsed() < Duration::from_secs(4), "the deadline must cut the read promptly");

    proxy.stop();
    halt(server, service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under a storm that refuses every connection, the client spends its
/// bounded backoff budget and returns a typed retryable error — it never
/// fabricates a plan, and the server still serves direct traffic.
#[test]
fn drop_storm_exhausts_bounded_backoff_with_a_typed_error_never_a_wrong_plan() {
    let dir = tmpdir("drop-storm");
    let (server, service, addr) = boot(&dir, NetConfig::default());
    let payload = encode_request(&request("ocean"));
    let mut direct = PlanClient::connect(addr, ClientConfig::default()).expect("connect direct");
    let reference = direct.plan_bytes(&payload).expect("reference plan");

    let proxy =
        ChaosProxy::start(addr, vec![ChaosAction::Drop { after: 0 }; 16]).expect("start proxy");
    let max_retries = 3;
    let mut client =
        PlanClient::connect(proxy.local_addr(), chaos_client_config(0xD707, max_retries))
            .expect("connect");
    let started = Instant::now();
    let err = client.plan_bytes(&payload).expect_err("storm must not yield a plan");
    assert!(err.retryable(), "the storm surfaces as a retryable class, got {err:?}");
    let counters = client.counters();
    assert_eq!(counters.attempts, u64::from(max_retries) + 1, "attempts are bounded");
    assert_eq!(counters.failed, 1, "exactly one request failed");
    assert!(counters.backoff > Duration::ZERO, "retries must have backed off");
    assert!(started.elapsed() < Duration::from_secs(5), "backoff is bounded, not a hang");

    // The same request direct to the server still answers correctly.
    let after = direct.plan_bytes(&payload).expect("direct path still serves");
    assert_eq!(after, reference, "the storm must not corrupt the served plan");

    proxy.stop();
    halt(server, service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end graceful degradation: every disk op failing mid-run flips
/// the tier to memory-only — requests keep succeeding — and lifting the
/// storm lets a re-probe restore the tier with nothing left parked.
#[test]
fn disk_storm_degrades_to_memory_only_and_recovers_end_to_end() {
    let mem = MemIo::new();
    let faulty = FaultyIo::new(Arc::new(mem), 0xD15C);
    let chaos = faulty.chaos();
    let config = ServeConfig {
        disk_dir: Some("/e2e-chaos".into()),
        disk_io: Some(Arc::new(faulty) as Arc<dyn StorageIo>),
        disk_reprobe: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let service = Arc::new(PlanService::try_new(config).expect("open virtual tier"));
    let server = PlanServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    let mut client = PlanClient::connect(addr, ClientConfig::default()).expect("connect");

    for name in ["fft", "lu", "ocean"] {
        client.plan_bytes(&encode_request(&request(name))).expect("healthy plan");
    }
    chaos.set_storm(true);
    for name in ["barnes", "radix", "water"] {
        client.plan_bytes(&encode_request(&request(name))).expect("plan during disk storm");
    }
    let stats = client.stats().expect("storm stats");
    assert!(stats.disk.degraded, "the storm must degrade the tier to memory-only");
    assert!(stats.disk.errors > 0, "disk failures must be counted");

    chaos.set_storm(false);
    let deadline = Instant::now() + Duration::from_secs(5);
    let recovered = loop {
        let s = client.stats().expect("recovery stats");
        if !s.disk.degraded && s.disk.pending_records == 0 {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(recovered, "the tier must restore and drain once the storm lifts");

    halt(server, service);
}

/// A panic inside the compile path is contained as an `Internal` error
/// frame; the connection stays open and answers the next request on the
/// same socket, and the panic is counted.
#[test]
fn compile_panic_answers_internal_frame_and_keeps_the_connection_open() {
    let config = ServeConfig { chaos_compile_panic: true, ..ServeConfig::default() };
    let service = Arc::new(PlanService::try_new(config).expect("service"));
    let server = PlanServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect raw");
    for round in 0..2 {
        let payload = encode_request(&request(if round == 0 { "fft" } else { "lu" }));
        write_frame(&mut stream, FrameKind::PlanRequest, &payload).expect("write request");
        match read_reply(&mut stream) {
            Ok((FrameKind::Error, payload)) => {
                let (code, msg) = decode_error(&payload);
                assert_eq!(code, ErrorCode::Internal, "round {round}: panic maps to Internal");
                assert!(
                    msg.contains("contained"),
                    "round {round}: the message names the containment, got {msg:?}"
                );
            }
            other => panic!("round {round}: expected an Internal error frame, got {other:?}"),
        }
    }
    drop(stream);

    let mut client = PlanClient::connect(addr, ClientConfig::default()).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.panics, 2, "every contained panic is counted");
    halt(server, service);
}
