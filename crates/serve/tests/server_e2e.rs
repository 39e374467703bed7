//! End-to-end behavior of the serve loop over real sockets: batching,
//! backpressure, per-request deadlines, chaos containment (the
//! acceptance criterion: a killed worker request draws an `internal`
//! error while the server keeps serving), and graceful drain.

use std::time::{Duration, Instant};

use vardelay_faults::RequestChaos;
use vardelay_serve::{serve, Client, Envelope, ErrorKind, Request, Response, ServeConfig};

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

/// Same-channel `set_delay` requests pipelined into one batch window
/// are answered from a single solve: everyone reports the same batch
/// size and the same (last-write-wins) hardware setting, but keeps
/// their own `requested_ps`.
#[test]
fn same_channel_set_delays_coalesce_into_one_solve() {
    let mut config = ServeConfig::in_process();
    config.workers = 1;
    config.batch_window = Duration::from_millis(100);
    let handle = serve(config).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let targets = [30.0, 45.0, 60.0];
    for (i, ps) in targets.iter().enumerate() {
        client
            .send_only(&envelope(
                i as u64 + 1,
                Request::SetDelay {
                    channel: 2,
                    ps: *ps,
                },
            ))
            .expect("send");
    }

    let mut replies = Vec::new();
    for _ in 0..targets.len() {
        let (id, response) = client.read_response().expect("a response");
        match response {
            Response::Delay(reply) => replies.push((id.expect("id echoed"), reply)),
            other => panic!("expected a delay reply, got {other:?}"),
        }
    }
    replies.sort_by_key(|(id, _)| *id);

    let lead = &replies[0].1;
    assert_eq!(lead.batched, targets.len(), "window missed the followers");
    for ((id, reply), ps) in replies.iter().zip(targets) {
        assert_eq!(reply.channel, 2);
        assert_eq!(reply.requested_ps, ps, "id {id} lost its own target");
        // One solve answered everyone: identical hardware setting.
        assert_eq!(reply.tap, lead.tap);
        assert_eq!(reply.dac_code, lead.dac_code);
        assert_eq!(reply.predicted_ps, lead.predicted_ps);
        assert_eq!(reply.batched, lead.batched);
        assert!(
            (reply.error_ps - (reply.predicted_ps - ps)).abs() < 1e-9,
            "error_ps must be measured against the waiter's own request"
        );
    }
    // The solve landed on the last write: its own error is the solver's.
    assert!(
        (lead.predicted_ps - 60.0).abs() < 10.0,
        "batch solved for {} ps, wanted ~60 (last write wins)",
        lead.predicted_ps
    );

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.stats.batched, targets.len() as u64 - 1);
}

/// The batch window counts from admission, not from when a worker pops
/// the lead. Two pipelined `set_delay`s on different channels form two
/// batches on a single worker: the first lead waits its whole window,
/// but the second has already queued for that long and is solved at
/// once instead of waiting a second full window.
#[test]
fn the_batch_window_counts_from_admission() {
    let window = Duration::from_millis(200);
    let mut config = ServeConfig::in_process();
    config.workers = 1;
    config.batch_window = window;
    let handle = serve(config).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Build the tenant bank first so calibration is not on the clock.
    let (_, warm) = client
        .call(&envelope(
            1,
            Request::SetDelay {
                channel: 5,
                ps: 40.0,
            },
        ))
        .expect("warm-up reply");
    assert!(matches!(warm, Response::Delay(_)), "{warm:?}");

    let sent = Instant::now();
    for (id, channel) in [(2, 0), (3, 1)] {
        client
            .send_only(&envelope(id, Request::SetDelay { channel, ps: 40.0 }))
            .expect("send");
    }
    let mut arrivals = Vec::new();
    for _ in 0..2 {
        let (id, response) = client.read_response().expect("a response");
        match response {
            Response::Delay(reply) => assert_eq!(reply.batched, 1, "channels never share a batch"),
            other => panic!("expected a delay reply, got {other:?}"),
        }
        arrivals.push((id.expect("id echoed"), sent.elapsed()));
    }
    assert_eq!(
        arrivals.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        [2, 3],
        "one worker answers its batches in admission order"
    );
    // The first lead is popped at once and still waits its full window…
    assert!(
        arrivals[0].1 >= window,
        "first reply after {:?}, inside its {window:?} window",
        arrivals[0].1
    );
    // …while the second used up its window in the queue.
    assert!(
        arrivals[1].1 < window * 3 / 2,
        "second reply after {:?}: its lead waited a fresh window after the pop",
        arrivals[1].1
    );

    handle.shutdown();
    handle.join();
}

/// A batch whose waiters sit on two connections answers each connection
/// with exactly its own lines: its own ids and targets, the batch's one
/// hardware setting, and no line split or interleaved with the other
/// connection's.
#[test]
fn a_batch_spanning_two_connections_answers_each_its_own_lines() {
    let mut config = ServeConfig::in_process();
    config.workers = 1;
    config.batch_window = Duration::from_millis(150);
    let handle = serve(config).expect("bind");
    let mut clients = [
        Client::connect(handle.addr()).expect("connect"),
        Client::connect(handle.addr()).expect("connect"),
    ];
    let sends: [[(u64, f64); 3]; 2] = [
        [(1, 30.0), (2, 35.0), (3, 40.0)],
        [(11, 45.0), (12, 50.0), (13, 55.0)],
    ];
    // Interleave the two connections' sends so the batch alternates
    // between them in admission order.
    for round in 0..3 {
        for (client, sends) in clients.iter_mut().zip(&sends) {
            let (id, ps) = sends[round];
            client
                .send_only(&envelope(id, Request::SetDelay { channel: 3, ps }))
                .expect("send");
        }
    }

    let total = sends.len() * sends[0].len();
    let mut setting = None;
    for (client, sends) in clients.iter_mut().zip(&sends) {
        for &(want_id, want_ps) in sends {
            let (id, response) = client.read_response().expect("a whole line");
            let Response::Delay(reply) = response else {
                panic!("expected a delay reply, got {response:?}");
            };
            assert_eq!(id, Some(want_id), "a line reached the wrong connection");
            assert_eq!(
                reply.requested_ps, want_ps,
                "id {want_id} lost its own target"
            );
            assert_eq!(reply.channel, 3);
            assert_eq!(reply.batched, total, "the window missed a waiter");
            let shared = (reply.tap, reply.dac_code);
            assert_eq!(
                *setting.get_or_insert(shared),
                shared,
                "one solve answers all"
            );
        }
        // Nothing else is queued on this connection: the next line is
        // the answer to the next request.
        let (id, response) = client.call(&envelope(99, Request::Stats)).expect("stats");
        assert_eq!(id, Some(99));
        assert!(matches!(response, Response::Stats(_)), "{response:?}");
    }

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.stats.batched, total as u64 - 1);
}

/// Runs the backpressure scenario once (single worker parked in a long
/// batch window, a flood piling into a queue of depth 1) and returns the
/// overloaded retry hints in arrival order plus the stats/delay counts.
fn overloaded_retry_hints() -> (Vec<u64>, u64, u64) {
    let mut config = ServeConfig::in_process();
    config.workers = 1;
    config.queue_depth = 1;
    config.batch_window = Duration::from_millis(150);
    let handle = serve(config).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The lead set_delay parks the single worker in its batch window…
    client
        .send_only(&envelope(
            1,
            Request::SetDelay {
                channel: 0,
                ps: 40.0,
            },
        ))
        .expect("send");
    // …while these pile into a queue of depth 1.
    let floods = 5u64;
    for id in 2..2 + floods {
        client
            .send_only(&envelope(id, Request::Stats))
            .expect("send");
    }

    let mut delays = 0u64;
    let mut stats_ok = 0u64;
    let mut hints = Vec::new();
    for _ in 0..1 + floods {
        let (_, response) = client.read_response().expect("a response");
        match response {
            Response::Delay(_) => delays += 1,
            Response::Stats(_) => stats_ok += 1,
            Response::Error(err) if err.kind == ErrorKind::Overloaded => {
                hints.push(err.retry_after_ms.expect("overloaded carries a retry hint"));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(delays, 1, "the admitted set_delay must still complete");
    assert!(
        hints.len() >= 3,
        "queue depth 1 under {floods} pipelined requests shed only {}",
        hints.len()
    );
    assert_eq!(stats_ok + hints.len() as u64, floods);

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.stats.overloaded, hints.len() as u64);
    (hints, delays, stats_ok)
}

/// When the bounded queue is full the reader answers `overloaded` with
/// a retry hint immediately — the socket never stalls and admitted work
/// still completes. The hints carry deterministic per-connection jitter:
/// bounded backoffs that are *not* all equal (no lockstep re-stampede),
/// yet reproduce exactly across identical runs.
#[test]
fn a_full_queue_answers_overloaded_with_jittered_retry_hints() {
    let (hints, _, _) = overloaded_retry_hints();

    // The hint is base + jitter with base = 1 + batch_window_ms +
    // default_deadline_ms/100 = 171 and jitter in [0, base/2).
    let base = 1 + 150 + 2000 / 100;
    let spread = base / 2;
    for &hint in &hints {
        assert!(
            (base..base + spread).contains(&hint),
            "hint {hint} outside [{base}, {})",
            base + spread
        );
    }
    // Jitter must actually spread the flood: a constant hint would make
    // every shed client retry at the same instant.
    assert!(
        hints.windows(2).any(|w| w[0] != w[1]),
        "all {} hints identical ({}) — retry stampede not broken",
        hints.len(),
        hints[0]
    );

    // Deterministic: the same scenario replays the same hint sequence
    // (modulo how many requests were shed, which depends on timing).
    let (again, _, _) = overloaded_retry_hints();
    let common = hints.len().min(again.len());
    assert_eq!(
        hints[..common],
        again[..common],
        "per-connection jitter must be reproducible run to run"
    );
}

/// A zero-width jitter window (no batch window, sub-100 ms default
/// deadline → base = 1, spread = 0) must pin every retry hint at the
/// base instead of dividing by zero in `rng % spread`.
#[test]
fn a_zero_width_jitter_window_pins_the_hint_and_does_not_panic() {
    let mut config = ServeConfig::in_process();
    config.workers = 1;
    config.queue_depth = 1;
    config.batch_window = Duration::ZERO;
    config.default_deadline = Duration::from_millis(50);
    let handle = serve(config).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A deskew lead parks the single worker long enough for the flood
    // to overflow the depth-1 queue.
    client
        .send_only(&envelope(1, Request::Deskew { bus: 32, seed: 7 }))
        .expect("send");
    let floods = 6u64;
    for id in 2..2 + floods {
        client
            .send_only(&envelope(id, Request::Stats))
            .expect("send");
    }

    let mut hints = Vec::new();
    let mut answered = 0u64;
    for _ in 0..1 + floods {
        let (_, response) = client.read_response().expect("a response");
        match response {
            Response::Error(err) if err.kind == ErrorKind::Overloaded => {
                hints.push(err.retry_after_ms.expect("overloaded carries a retry hint"));
            }
            _ => answered += 1,
        }
    }
    // base = 1 + 0 + 50/100 = 1, spread = 1/2 = 0 → every hint is
    // exactly the base. Before the guard this scenario panicked the
    // reader thread on `rng % 0`.
    for &hint in &hints {
        assert_eq!(hint, 1, "zero-spread hint must pin at base");
    }
    assert!(
        !hints.is_empty(),
        "queue depth 1 under {floods} pipelined requests shed nothing"
    );
    assert_eq!(answered + hints.len() as u64, 1 + floods);

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.stats.overloaded, hints.len() as u64);
}

/// An exhausted budget is a `deadline_exceeded` *response* on a healthy
/// connection, never a drop.
#[test]
fn an_expired_deadline_is_a_response_not_a_dropped_connection() {
    let handle = serve(ServeConfig::in_process()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let (id, response) = client
        .call(&Envelope {
            id: Some(9),
            deadline_ms: Some(0),
            tenant: None,
            req_id: None,
            backend: None,
            request: Request::Stats,
        })
        .expect("a response");
    assert_eq!(id, Some(9));
    assert_eq!(
        response.error_kind(),
        Some(ErrorKind::DeadlineExceeded),
        "{response:?}"
    );

    // Same connection, fresh budget: served, and the miss was counted.
    let (_, response) = client.call(&envelope(10, Request::Stats)).expect("stats");
    match response {
        Response::Stats(stats) => assert_eq!(stats.deadline_exceeded, 1),
        other => panic!("expected stats, got {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

/// The acceptance criterion: a seeded chaos kill mid-request panics the
/// worker, the doomed client gets an `internal` error response, and the
/// server keeps answering later requests and drains cleanly.
#[test]
fn a_chaos_killed_request_gets_an_error_while_the_server_keeps_serving() {
    vardelay_faults::set_enabled(true);
    let mut config = ServeConfig::in_process();
    config.workers = 1;
    config.chaos = Some(RequestChaos::new(0xC4A05, 2));
    let handle = serve(config).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let total = 10u64;
    let mut outcomes = Vec::new();
    for id in 0..total {
        let (_, response) = client
            .call(&envelope(id, Request::Selftest))
            .expect("a response");
        match response {
            Response::Selftest(_) => outcomes.push(true),
            Response::Error(err) if err.kind == ErrorKind::Internal => {
                assert!(
                    err.detail.contains("chaos"),
                    "internal error must carry the panic message: {}",
                    err.detail
                );
                outcomes.push(false);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let killed = outcomes.iter().filter(|ok| !**ok).count();
    assert!(
        killed >= 1,
        "chaos at one-in-2 never fired over {total} requests"
    );
    assert!(
        killed < total as usize,
        "chaos must not kill everything at one-in-2"
    );
    let first_kill = outcomes.iter().position(|ok| !*ok).unwrap();
    assert!(
        outcomes[first_kill..].iter().any(|ok| *ok),
        "no request succeeded after the first kill — worker did not survive"
    );

    // The drain after a chaos run is still clean and accounts for every
    // request.
    let (_, response) = client
        .call(&envelope(99, Request::Shutdown))
        .expect("draining");
    assert_eq!(response, Response::Draining);
    let report = handle.join();
    assert_eq!(report.stats.requests, total + 1);
    assert_eq!(report.stats.internal_errors, killed as u64);
    assert_eq!(report.stats.ok, total - killed as u64 + 1); // + the Draining reply
}

/// A wire `shutdown` answers `draining`, stops the accept loop, and the
/// joined report accounts for every request served.
#[test]
fn graceful_drain_reports_final_counters() {
    let mut config = ServeConfig::in_process();
    config.workers = 1;
    let handle = serve(config).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let (_, stats) = client.call(&envelope(1, Request::Stats)).expect("stats");
    assert!(matches!(stats, Response::Stats(_)));
    let (_, delay) = client
        .call(&envelope(
            2,
            Request::SetDelay {
                channel: 1,
                ps: 25.0,
            },
        ))
        .expect("delay");
    assert!(matches!(delay, Response::Delay(_)), "{delay:?}");

    assert!(!handle.is_draining());
    let (id, response) = client
        .call(&envelope(3, Request::Shutdown))
        .expect("draining");
    assert_eq!((id, &response), (Some(3), &Response::Draining));
    assert!(handle.is_draining());

    let report = handle.join();
    assert_eq!(report.stats.requests, 3);
    assert_eq!(report.stats.ok, 3);
    assert_eq!(report.stats.parse_errors, 0);
    assert_eq!(report.stats.internal_errors, 0);
    assert_eq!(report.stats.workers, 1);
    assert_eq!(report.stats.queue_depth, 0);
    let line = report.to_string();
    assert!(line.starts_with("drained: requests=3 ok=3"), "{line}");
}
