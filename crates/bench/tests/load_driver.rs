//! The one load driver (`vardelay_bench::load`): its request scripts are
//! pinned by digest, and live in-process runs check what each campaign
//! case reports.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use vardelay_bench::load::{self, LoadPlan};
use vardelay_bench::serve_bench::{
    run_load, run_mt_load, LoadConfig, MtLoadConfig, HOT_TENANT_FACTOR,
};
use vardelay_bench::soak::{SoakConfig, DRIFT_CHANNEL};
use vardelay_obs::journal;
use vardelay_obs::Fingerprint;
use vardelay_serve::{serve, Request, ServeConfig};

/// Per-client digest of an open-loop script: each request's wire line
/// (tenant, `id`, request) and its scheduled offset in µs.
fn open_loop_digests(plan: &LoadPlan) -> Vec<u64> {
    (0..plan.clients.len())
        .map(|client| {
            let mut fp = Fingerprint::new();
            for step in plan.script(client) {
                let offset = step.offset.expect("open-loop steps carry an offset");
                fp.push_str(&step.envelope.to_value().render())
                    .push_u64(offset.as_micros() as u64);
            }
            fp.finish()
        })
        .collect()
}

// Digests of the scripts the three hand-written client loops generated
// before they were folded into the driver: a changed digest means a
// changed campaign.
const SINGLE: [u64; 4] = [
    0xf49d6d416ecef746,
    0x41ae19f6cdb20a91,
    0xa66aa231ebc45ea4,
    0x8a511276d22764be,
];
/// Clients 2..32 of the balanced and the hot campaign (tenants 1..16
/// are identical in both).
const MT_COLD: [u64; 30] = [
    0x9f9b6f1fd7ed53a2,
    0xb97e798244446f4c,
    0x47b5099555b01555,
    0x6a76da664acadae8,
    0x0cc4e83a8d234e66,
    0xabaf8e99b514b5e4,
    0xb533a92e2062204b,
    0x7e4b6d420e0d7f77,
    0x3f269691aa455056,
    0xd1bb330f2febdbf0,
    0xd496b98d4788020c,
    0xc7b36105658237be,
    0x320b19fb36601c05,
    0xecee1101729a1d13,
    0xe067af2907436300,
    0x4ee3d12b447dc7e4,
    0x7428fb40bee03991,
    0x50621217149aa308,
    0x26e39a4a1dff7572,
    0x39a56685d31708ce,
    0x64aaee0785a7c770,
    0x77c55384e1702695,
    0xfc0221200565862b,
    0xcf07445831daa80a,
    0x399fdcc28abd03da,
    0xfce2a8ec649da5a1,
    0x47dde9edf9d9e98c,
    0x14df12e1f60f915b,
    0x301bcdf91883ecc8,
    0xd46228597699aca1,
];
const MT_TENANT0: [u64; 2] = [0xe985c7f54f148c62, 0xb4c2c884e8618e0e];
const HOT_TENANT0: [u64; 2] = [0xbf06ab85ea675970, 0x7dd482c1e94b5939];
const SOAK_FIRST_200: [u64; 2] = [0x49692fb7e324f396, 0xde6842b089ab01d0];

#[test]
fn serve_bench_scripts_match_their_pinned_digests() {
    assert_eq!(open_loop_digests(&LoadConfig::default().plan()), SINGLE);

    let balanced = open_loop_digests(&MtLoadConfig::default().plan());
    assert_eq!(balanced[..2], MT_TENANT0);
    assert_eq!(balanced[2..], MT_COLD);

    let hot = MtLoadConfig {
        hot_tenant: Some(0),
        ..MtLoadConfig::default()
    };
    let hot = open_loop_digests(&hot.plan());
    assert_eq!(hot[..2], HOT_TENANT0);
    assert_eq!(hot[2..], MT_COLD);
}

#[test]
fn soak_scripts_match_their_pinned_digests() {
    let plan = SoakConfig::default().plan();
    let digests: Vec<u64> = (0..plan.clients.len())
        .map(|client| {
            let mut fp = Fingerprint::new();
            for step in plan.script(client).take(200) {
                assert_eq!(step.offset, None, "the soak is closed loop");
                let Request::SetDelay { channel, ps } = step.envelope.request else {
                    panic!("the soak sends only set_delay: {:?}", step.envelope);
                };
                fp.push_usize(channel).push_f64(ps);
            }
            fp.finish()
        })
        .collect();
    assert_eq!(digests, SOAK_FIRST_200);
}

/// An in-process server whose deadline leaves room for first-touch
/// calibration in an unoptimized build.
fn test_server(channels: usize) -> vardelay_serve::ServerHandle {
    let mut config = ServeConfig::in_process();
    config.channels = channels;
    config.default_deadline = Duration::from_secs(120);
    serve(config).expect("bind")
}

#[test]
fn a_small_single_tenant_run_is_answered_ok_throughout() {
    let handle = test_server(8);
    let config = LoadConfig {
        clients: 2,
        requests_per_client: 30,
        mean_gap: Duration::from_millis(1),
        ..LoadConfig::default()
    };
    let report = run_load(handle.addr(), &config).expect("load");
    handle.shutdown();
    handle.join();
    assert_eq!(report.tally.attempts(), 60);
    assert_eq!(report.tally.ok, 60, "{}", report.summary());
    assert!(report.p50_us > 0 && report.p99_us >= report.p50_us);
}

fn mt_config(hot_tenant: Option<usize>) -> MtLoadConfig {
    MtLoadConfig {
        tenants: 4,
        clients_per_tenant: 1,
        requests_per_client: 20,
        mean_gap: Duration::from_millis(1),
        hot_tenant,
        ..MtLoadConfig::default()
    }
}

#[test]
fn balanced_tenants_are_exactly_fair() {
    let handle = test_server(8);
    let report = run_mt_load(handle.addr(), &mt_config(None)).expect("load");
    handle.shutdown();
    handle.join();
    assert_eq!(report.per_tenant_ok, vec![20; 4], "{}", report.summary());
    assert_eq!(report.fairness_ratio, 1.0);
}

#[test]
fn a_hot_tenant_reads_its_factor_and_turns_the_fairness_gate_red() {
    let handle = test_server(8);
    let balanced = run_mt_load(handle.addr(), &mt_config(None)).expect("load");
    let hot = run_mt_load(handle.addr(), &mt_config(Some(0))).expect("load");
    handle.shutdown();
    handle.join();
    assert_eq!(
        hot.per_tenant_ok,
        vec![20 * HOT_TENANT_FACTOR as u64, 20, 20, 20],
        "{}",
        hot.summary()
    );
    assert_eq!(hot.fairness_ratio, HOT_TENANT_FACTOR as f64);
    assert!(hot.summary().contains("hot_tenant=0"), "{}", hot.summary());
    let records = vec![balanced.record("git", 1), hot.record("git", 2)];
    let verdict =
        journal::evaluate(journal::gate("fairness").unwrap(), &records).expect("records compare");
    assert!(verdict.regressed, "{verdict}");
}

#[test]
fn a_closed_loop_run_ends_on_its_stop_flag_and_stays_off_the_drift_channel() {
    // The server exposes only the healthy channels, so a request on
    // DRIFT_CHANNEL or above would draw `bad_request` at admission.
    let handle = test_server(DRIFT_CHANNEL);
    let stop = AtomicBool::new(false);
    let plan = SoakConfig::default().plan();
    let run = std::thread::scope(|scope| {
        let run = scope.spawn(|| load::drive(handle.addr(), &plan, &stop));
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        run.join().expect("driver thread")
    })
    .expect("load");
    handle.shutdown();
    let drained = handle.join();
    let t = run.tally;
    assert!(t.ok > 0, "{t:?}");
    assert_eq!(
        t.bad_requests, 0,
        "a request left the healthy channels: {t:?}"
    );
    assert_eq!(t.transport_errors, 0, "{t:?}");
    // Every attempt is one answered call, counted the same on both ends.
    assert_eq!(t.attempts(), t.ok + t.overloaded + t.failures());
    assert_eq!(t.attempts(), drained.stats.requests, "{t:?}");
    assert_eq!(t.ok, drained.stats.ok, "{t:?}");
}
