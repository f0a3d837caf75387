//! Integration tests for the serving layer: determinism of the content
//! address, LRU eviction, single-flight deduplication under real
//! concurrency, and degraded-mode caching.

use dmcp::check::gencase::{gen_mask_case, gen_wild_spec};
use dmcp::core::PartitionConfig;
use dmcp::mach::rng::Rng64;
use dmcp::mach::{FaultPlan, MachineConfig, NodeId};
use dmcp::serve::codec::{decode_plan, encode_plan};
use dmcp::serve::{approx_plan_bytes, PlanRequest, PlanService, ServeConfig, ShardedPlanCache};
use dmcp::workloads::{all, by_name, Scale};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

fn request(name: &str) -> PlanRequest {
    let w = by_name(name, Scale::Tiny).expect("known workload");
    PlanRequest::new(w.program, MachineConfig::knl_like(), PartitionConfig::default())
        .with_data(w.data)
}

/// Same `PlanKey` ⇒ bit-identical `PartitionOutput`, whether the plan
/// comes from a fresh compile, the cache, or a recompile after the cache
/// was cleared (which exercises the memoized window-size path).
#[test]
fn equal_keys_give_bit_identical_plans() {
    let service = PlanService::new(ServeConfig::default());
    for w in all(Scale::Tiny) {
        let req =
            PlanRequest::new(w.program, MachineConfig::knl_like(), PartitionConfig::default())
                .with_data(w.data);
        assert_eq!(req.key(), req.key(), "{}: key must be stable", w.name);

        let compiled = service.plan(req.clone()).expect("compiles");
        let cached = service.plan(req.clone()).expect("cache hit");
        assert_eq!(compiled, cached, "{}: cached plan differs", w.name);

        service.cache().clear();
        let recompiled = service.plan(req).expect("recompile");
        assert_eq!(compiled, recompiled, "{}: window-memo recompile must be bit-identical", w.name);
    }
    service.shutdown();
}

/// A capacity that fits only a couple of plans evicts in LRU order as the
/// suite streams through the service.
#[test]
fn tiny_capacity_evicts_least_recently_used() {
    let probe = PlanService::new(ServeConfig::default());
    let fft = probe.plan(request("fft")).expect("probe plan");
    let plan_bytes = approx_plan_bytes(&fft);
    probe.shutdown();

    // One shard so recency ordering is observable; room for ~2 such plans.
    let cache = ShardedPlanCache::new(1, 2 * plan_bytes + plan_bytes / 2);
    let (fft_req, lu_req, ocean_req) = (request("fft"), request("lu"), request("ocean"));
    cache.insert(fft_req.key(), Arc::clone(&fft));
    cache.insert(lu_req.key(), Arc::clone(&fft));
    assert!(cache.get(fft_req.key()).is_some(), "refresh fft");
    cache.insert(ocean_req.key(), Arc::clone(&fft));
    assert!(cache.get(fft_req.key()).is_some(), "recently touched survives");
    assert!(cache.get(ocean_req.key()).is_some(), "newest survives");
    assert!(cache.get(lu_req.key()).is_none(), "LRU victim evicted");
    assert!(cache.stats().evictions >= 1);

    // End-to-end: a tiny service cache keeps compiling but never grows
    // past its budget.
    let service = PlanService::new(ServeConfig {
        cache_bytes: 2 * plan_bytes,
        cache_shards: 1,
        ..ServeConfig::default()
    });
    for w in ["fft", "lu", "ocean", "radix", "water"] {
        service.plan(request(w)).expect("compiles");
    }
    let stats = service.stats();
    assert!(stats.cache.evictions >= 3, "streaming 5 plans through 2 slots evicts");
    assert!(stats.cache.bytes <= 2 * plan_bytes as u64);
    service.shutdown();
}

/// Eight threads racing on the same key produce exactly one compile —
/// the single-flight table shares the in-flight result.
#[test]
fn single_flight_compiles_once_for_eight_racers() {
    let service = Arc::new(PlanService::new(ServeConfig { workers: 4, ..ServeConfig::default() }));
    let barrier = Arc::new(Barrier::new(8));
    let joined = Arc::new(AtomicUsize::new(0));
    // Collect the handles before joining: a lazy spawn→join chain would
    // serialize the threads and deadlock on the barrier.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let joined = Arc::clone(&joined);
            std::thread::spawn(move || {
                barrier.wait();
                let ticket = service.submit(request("cholesky")).expect("admitted");
                if !ticket.from_cache() {
                    joined.fetch_add(1, Ordering::Relaxed);
                }
                ticket.wait().expect("plan")
            })
        })
        .collect();
    let plans: Vec<_> = handles.into_iter().map(|h| h.join().expect("racer panicked")).collect();

    let stats = service.stats();
    assert_eq!(stats.compiles, 1, "exactly one compile for 8 concurrent requesters");
    assert_eq!(stats.submitted, 8);
    for p in &plans[1..] {
        assert_eq!(p, &plans[0], "all racers see the same plan");
    }
    // Every racer was served by the cache, joined the in-flight compile,
    // or created a flight whose enqueued job found the plan already cached
    // (the worker re-checks) — never a second compile.
    let creators = 8 - stats.shared - stats.cache.hits;
    assert!((1..=8).contains(&creators));
    assert!(joined.load(Ordering::Relaxed) >= 1);
}

/// Degraded-mode requests fingerprint distinctly from healthy ones and
/// from each other, and cache just the same.
#[test]
fn degraded_configs_cache_by_fault_fingerprint() {
    let service = PlanService::new(ServeConfig::default());
    let healthy = request("ocean");

    let mut one_dead = FaultPlan::healthy();
    one_dead.kill_node(NodeId::new(1, 1));
    let degraded_a = healthy.clone().with_faults(one_dead.clone());

    let mut two_dead = one_dead.clone();
    two_dead.kill_node(NodeId::new(2, 2));
    let degraded_b = healthy.clone().with_faults(two_dead);

    let keys = [healthy.key(), degraded_a.key(), degraded_b.key()];
    assert_ne!(keys[0], keys[1]);
    assert_ne!(keys[1], keys[2]);
    assert_ne!(keys[0], keys[2]);

    let h1 = service.plan(healthy.clone()).expect("healthy");
    let a1 = service.plan(degraded_a.clone()).expect("degraded a");
    let b1 = service.plan(degraded_b.clone()).expect("degraded b");
    assert_eq!(service.stats().compiles, 3);

    // Second round: all hits, bit-identical results.
    assert_eq!(service.plan(healthy).expect("hit"), h1);
    assert_eq!(service.plan(degraded_a).expect("hit"), a1);
    assert_eq!(service.plan(degraded_b).expect("hit"), b1);
    let stats = service.stats();
    assert_eq!(stats.compiles, 3, "second round is pure cache hits");
    assert_eq!(stats.cache.hits, 3);
    assert_ne!(h1, a1, "a dead node changes the plan");
    service.shutdown();
}

/// The content address keys the program's *structure*, not its spelling:
/// the same generated case rendered under fresh array and loop-variable
/// names produces the same `PlanKey` — and the cache serves the renamed
/// request from the original's compile.
#[test]
fn plan_key_is_independent_of_identifier_names() {
    let service = PlanService::new(ServeConfig::default());
    for seed in 0..24u64 {
        let mut rng = Rng64::new(0x5EED_0000 + seed);
        let spec = gen_mask_case(&mut rng, 192);
        let canonical = spec.build().expect("canonical build");
        let (arrays, vars) = spec.default_names();
        let renamed_arrays: Vec<String> =
            (0..arrays.len()).map(|k| format!("zeta_{seed}_{k}")).collect();
        let renamed_vars: Vec<String> = (0..vars.len()).map(|k| format!("idx{k}")).collect();
        let renamed = spec.build_named(&renamed_arrays, &renamed_vars).expect("renamed build");

        let req_a = PlanRequest::new(canonical.program, canonical.machine, canonical.config)
            .with_data(canonical.data);
        let req_b = PlanRequest::new(renamed.program, renamed.machine, renamed.config)
            .with_data(renamed.data);
        assert_eq!(req_a.key(), req_b.key(), "seed {seed}: rename changed the key");

        let first = service.plan(req_a).expect("compiles");
        let hits_before = service.stats().cache.hits;
        let second = service.plan(req_b).expect("served");
        assert_eq!(service.stats().cache.hits, hits_before + 1, "renamed request must hit");
        assert_eq!(first, second, "seed {seed}: cached plan differs under rename");
    }
    service.shutdown();
}

/// Anything that changes what the planner would do — the mesh shape or the
/// partitioner configuration — must change the key.
#[test]
fn plan_key_is_sensitive_to_mesh_and_config() {
    let mut rng = Rng64::new(0xC0FF_EE00);
    let spec = gen_mask_case(&mut rng, 192);
    let base = spec.build().expect("build");
    let key = PlanRequest::new(base.program.clone(), base.machine.clone(), base.config.clone())
        .with_data(base.data.clone())
        .key();

    let mut other_mesh = spec.clone();
    other_mesh.mesh = if spec.mesh == (4, 4) { (6, 6) } else { (4, 4) };
    let remeshed = other_mesh.build().expect("build");
    let mesh_key = PlanRequest::new(remeshed.program, remeshed.machine, remeshed.config.clone())
        .with_data(remeshed.data)
        .key();
    assert_ne!(key, mesh_key, "mesh shape must be part of the fingerprint");

    let mut config = base.config.clone();
    config.max_window += 1;
    let config_key = PlanRequest::new(base.program.clone(), base.machine.clone(), config)
        .with_data(base.data.clone())
        .key();
    assert_ne!(key, config_key, "partition config must be part of the fingerprint");

    let data_key = PlanRequest::new(base.program, base.machine, base.config).key();
    assert_ne!(key, data_key, "dropping the data snapshot must change the fingerprint");
}

/// Collision smoke: ten thousand programs differing only in one literal
/// constant produce ten thousand distinct keys.
#[test]
fn plan_key_collision_smoke_over_ten_thousand_variants() {
    let machine = MachineConfig::knl_like();
    let mut keys = HashSet::new();
    for k in 0..10_000u64 {
        let mut b = dmcp::ir::ProgramBuilder::new();
        b.array("A", &[64], 8);
        b.array("B", &[64], 8);
        let stmt = format!("A[i] = (B[i] + {k}) & 63");
        b.nest(&[("i", 0, 16)], &[&stmt]).expect("parses");
        let req = PlanRequest::new(b.build(), machine.clone(), PartitionConfig::default());
        assert!(keys.insert(req.key()), "constant {k} collided with an earlier key");
    }
    assert_eq!(keys.len(), 10_000);
}

/// The whole suite through `serve_batch`, twice: the second batch does no
/// work beyond cache lookups.
#[test]
fn batched_suite_is_all_hits_second_time() {
    let service = PlanService::new(ServeConfig::default());
    let requests: Vec<PlanRequest> = all(Scale::Tiny)
        .into_iter()
        .map(|w| {
            PlanRequest::new(w.program, MachineConfig::knl_like(), PartitionConfig::default())
                .with_data(w.data)
        })
        .collect();
    let first = service.serve_batch(requests.clone());
    let compiles_after_first = service.stats().compiles;
    assert_eq!(compiles_after_first, 12);
    let second = service.serve_batch(requests);
    assert_eq!(service.stats().compiles, 12, "no recompiles");
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.as_ref().expect("plan"), b.as_ref().expect("hit"));
    }
    service.shutdown();
}

/// The plan codec round-trips generated plans bit for bit — mask-family
/// programs and wild shapes with extreme bounds, under their generated
/// fault plans — and the decoded plan re-encodes to the same bytes.
#[test]
fn generated_plans_roundtrip_through_the_plan_codec() {
    let service = PlanService::new(ServeConfig::default());
    let mut planned = 0;
    for seed in 0..32u64 {
        let mut rng = Rng64::new(0xC0DE_C000 + seed);
        let spec =
            if seed % 2 == 0 { gen_mask_case(&mut rng, 192) } else { gen_wild_spec(&mut rng) };
        let Ok(built) = spec.build() else { continue };
        let mut req =
            PlanRequest::new(built.program, built.machine, built.config).with_data(built.data);
        req.faults = built.faults;
        let Ok(plan) = service.plan(req) else { continue };
        let bytes = encode_plan(&plan);
        let decoded = decode_plan(&bytes).expect("generated plan decodes");
        assert_eq!(decoded, *plan, "seed {seed}: round trip changed the plan");
        assert_eq!(encode_plan(&decoded), bytes, "seed {seed}: second encoding differs");
        planned += 1;
    }
    assert!(planned >= 24, "only {planned} of 32 generated cases planned");
    service.shutdown();
}
