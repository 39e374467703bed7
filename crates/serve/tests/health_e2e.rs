//! End-to-end self-healing (DESIGN.md §15): a physically drifted
//! channel is detected by the sentinel loop, recalibrated in the
//! background, and — the acceptance criterion — answers **byte-
//! identical** to a freshly calibrated drifted bank once healed.
//! Gross drift walks the full quarantine → recovery arc over real
//! sockets; with recalibration sabotaged the channel stays out of
//! service forever, which is the red lever the chaos-soak gate pulls.

use std::time::{Duration, Instant};

use vardelay_core::config::ModelConfig;
use vardelay_core::{CombinedDelayCircuit, TempCo};
use vardelay_runner::Runner;
use vardelay_serve::{
    serve, ChannelState, Client, DelayReply, Envelope, ErrorKind, Request, Response, ServeConfig,
    ServerHandle, SERVE_SEED,
};
use vardelay_units::Time;

const TENANT: &str = "";
const WAIT: Duration = Duration::from_secs(60);

fn healing_config() -> ServeConfig {
    let mut config = ServeConfig::in_process();
    config.workers = 1;
    config.shards = 1;
    config.health_period = Some(Duration::from_millis(25));
    config
}

fn envelope(id: u64, request: Request) -> Envelope {
    Envelope {
        id: Some(id),
        deadline_ms: None,
        tenant: None,
        req_id: None,
        backend: None,
        request,
    }
}

fn set_delay(client: &mut Client, id: u64, channel: usize, ps: f64) -> Response {
    let (_, response) = client
        .call(&envelope(id, Request::SetDelay { channel, ps }))
        .expect("a response line");
    response
}

/// Polls `done` every few milliseconds until it returns true, panicking
/// with `what` after the global deadline.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + WAIT;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// What a freshly built, freshly calibrated bank at `delta_k` kelvin
/// answers for `ps` — the ground truth a healed channel must match
/// bit-for-bit (same model, same [`SERVE_SEED`], same serial sweep).
fn fresh_drifted_answer(delta_k: f64, ps: f64) -> (usize, u32, f64, f64, f64) {
    let drifted = ModelConfig::paper_prototype().at_temperature_offset(delta_k, &TempCo::default());
    let mut circuit = CombinedDelayCircuit::new(&drifted, SERVE_SEED);
    circuit.calibrate_with(Runner::serial());
    let setting = circuit
        .set_delay(Time::from_ps(ps))
        .expect("fresh drifted circuit solves");
    let predicted_ps = setting.predicted_delay.as_ps();
    // The batch path recomputes each waiter's error in ps space
    // (`predicted_ps - ps`), so the wire-identical mirror must too.
    (
        setting.tap,
        setting.dac_code,
        setting.vctrl.as_mv(),
        predicted_ps,
        predicted_ps - ps,
    )
}

fn assert_matches_fresh(reply: &DelayReply, delta_k: f64, ps: f64) {
    let (tap, dac_code, vctrl_mv, predicted_ps, error_ps) = fresh_drifted_answer(delta_k, ps);
    assert_eq!(reply.tap, tap, "healed tap differs from a fresh bank");
    assert_eq!(reply.dac_code, dac_code, "healed dac code differs");
    assert_eq!(reply.vctrl_mv, vctrl_mv, "healed vctrl differs");
    assert_eq!(
        reply.predicted_ps, predicted_ps,
        "healed prediction differs"
    );
    assert_eq!(reply.error_ps, error_ps, "healed error differs");
}

fn wire_stats(client: &mut Client, id: u64) -> vardelay_serve::StatsReply {
    let (_, response) = client
        .call(&envelope(id, Request::Stats))
        .expect("a stats line");
    match response {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

fn drain(handle: ServerHandle, client: &mut Client, id: u64) -> vardelay_serve::DrainReport {
    let (_, response) = client
        .call(&envelope(id, Request::Shutdown))
        .expect("draining");
    assert_eq!(response, Response::Draining);
    handle.join()
}

/// Mild drift (8 K): the sentinel flags it, the channel rides probation
/// — **still answering** the whole time — and the background rebuild
/// swaps in a table whose answers match a freshly calibrated drifted
/// bank exactly. No quarantine, no lost request.
#[test]
fn mild_drift_heals_in_probation_without_refusing_a_single_request() {
    vardelay_faults::set_enabled(true);
    let handle = serve(healing_config()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Pre-drift sanity: the channel answers.
    assert!(
        matches!(set_delay(&mut client, 1, 7, 60.0), Response::Delay(_)),
        "channel must serve before the fault"
    );

    assert!(
        handle.inject_drift(TENANT, 7, 8.0),
        "drift injection must land on the resident default bank"
    );

    // Wait for detect + heal, hammering the drifted channel throughout:
    // probation keeps serving, so every answer must be a Delay.
    let mut id = 10u64;
    wait_until("background recalibration after mild drift", || {
        id += 1;
        match set_delay(&mut client, id, 7, 60.0) {
            Response::Delay(_) => {}
            other => panic!("probation refused a request: {other:?}"),
        }
        id += 1;
        let stats = wire_stats(&mut client, id);
        stats.recalibrations >= 1 && stats.unhealthy == 0
    });

    // Healed: byte-identical to a fresh drifted bank.
    match set_delay(&mut client, 9_000, 7, 60.0) {
        Response::Delay(reply) => assert_matches_fresh(&reply, 8.0, 60.0),
        other => panic!("healed channel refused: {other:?}"),
    }
    assert_eq!(handle.channel_state(TENANT, 7), ChannelState::Healthy);

    let report = drain(handle, &mut client, 9_001);
    assert_eq!(
        report.stats.quarantines, 0,
        "mild drift must not quarantine"
    );
    assert!(report.stats.recalibrations >= 1);
    assert_eq!(report.stats.unavailable, 0);
}

/// Gross drift (40 K): quarantine answers a structured `unavailable`
/// with the documented retry hint while healthy channels keep serving;
/// after recalibration plus the re-admission rounds the channel returns
/// and answers byte-identical to a fresh drifted bank.
#[test]
fn gross_drift_quarantines_then_recovers_end_to_end() {
    vardelay_faults::set_enabled(true);
    let handle = serve(healing_config()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    assert!(matches!(
        set_delay(&mut client, 1, 5, 45.0),
        Response::Delay(_)
    ));
    assert!(handle.inject_drift(TENANT, 5, 40.0));

    // Detection: the channel starts refusing with the structured error.
    let mut id = 10u64;
    let mut saw_unavailable = false;
    wait_until("quarantine after gross drift", || {
        id += 1;
        match set_delay(&mut client, id, 5, 45.0) {
            Response::Delay(_) => {}
            Response::Error(err) if err.kind == ErrorKind::Unavailable => {
                assert!(
                    err.detail.contains("quarantined"),
                    "unavailable must say why: {}",
                    err.detail
                );
                // period 25 ms × (recovery rounds 3 + 1).
                assert_eq!(err.retry_after_ms, Some(100), "retry hint");
                saw_unavailable = true;
            }
            other => panic!("unexpected response under quarantine: {other:?}"),
        }
        // Healthy channels are untouched the whole time.
        id += 1;
        match set_delay(&mut client, id, 0, 30.0) {
            Response::Delay(_) => {}
            other => panic!("healthy channel 0 degraded: {other:?}"),
        }
        saw_unavailable
    });

    // Recovery: recalibration plus K consecutive healthy rounds.
    wait_until("re-admission after recalibration", || {
        handle.channel_state(TENANT, 5) == ChannelState::Healthy
    });
    match set_delay(&mut client, 9_000, 5, 45.0) {
        Response::Delay(reply) => assert_matches_fresh(&reply, 40.0, 45.0),
        other => panic!("recovered channel refused: {other:?}"),
    }

    let report = drain(handle, &mut client, 9_001);
    assert!(report.stats.quarantines >= 1, "{:?}", report.stats);
    assert!(report.stats.recalibrations >= 1, "{:?}", report.stats);
    assert!(report.stats.unavailable >= 1, "{:?}", report.stats);
    assert_eq!(report.stats.quarantined, 0, "nothing left in quarantine");
}

/// With recalibration sabotaged (`repro soak --no-recal` in the soak
/// gate; the config knob here), a grossly drifted channel is detected
/// and quarantined but can never heal: it keeps refusing for as long as
/// anyone cares to wait, while healthy channels serve on. This is the
/// determinism behind the gate's red leg.
#[test]
fn sabotaged_recalibration_leaves_the_channel_quarantined_forever() {
    vardelay_faults::set_enabled(true);
    let mut config = healing_config();
    config.recalibrate = false;
    let handle = serve(config).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    assert!(matches!(
        set_delay(&mut client, 1, 3, 70.0),
        Response::Delay(_)
    ));
    assert!(handle.inject_drift(TENANT, 3, 40.0));

    let mut id = 10u64;
    wait_until("quarantine with recalibration disabled", || {
        id += 1;
        matches!(
            set_delay(&mut client, id, 3, 70.0),
            Response::Error(ref err) if err.kind == ErrorKind::Unavailable
        )
    });

    // Ten more sentinel periods: still quarantined, still refusing —
    // the stale table is never rebuilt, so the verdict never improves.
    std::thread::sleep(Duration::from_millis(250));
    assert!(matches!(
        handle.channel_state(TENANT, 3),
        ChannelState::Quarantined
    ));
    match set_delay(&mut client, 9_000, 3, 70.0) {
        Response::Error(err) => assert_eq!(err.kind, ErrorKind::Unavailable),
        other => panic!("sabotaged channel healed anyway: {other:?}"),
    }
    assert!(
        matches!(set_delay(&mut client, 9_001, 0, 30.0), Response::Delay(_)),
        "healthy channels must be unaffected"
    );

    let report = drain(handle, &mut client, 9_002);
    assert_eq!(
        report.stats.recalibrations, 0,
        "sabotage means zero rebuilds"
    );
    assert_eq!(report.stats.quarantines, 1, "one incident, counted once");
    assert_eq!(report.stats.quarantined, 1, "still serving nothing on ch 3");
}
