//! The adversarial fairness suite for multi-tenant serving.
//!
//! Every scenario pits tenants against each other on one server and
//! checks the scheduler's contract from the *client's* side:
//!
//! * a flooding batch tenant must not starve an interactive tenant out of
//!   its latency SLO;
//! * an exhausted admission quota is an explicit per-tenant verdict while
//!   other tenants proceed untouched;
//! * DRR weights divide a saturated server's throughput proportionally.
//!
//! The exact batch-by-batch DRR rules (credit reset on a drained queue, no
//! fresh quantum on a capacity-blocked resume) are pinned by the
//! `DrrState::assemble` traces in `crates/serve/src/sched.rs`.
//!
//! The backends here are synthetic timed stubs (sleep, then zeros): the
//! suite is about *queueing* behaviour, so service time must be a knob,
//! not a property of the conv kernels.

use fluid_serve::{
    loadgen, Backend, ServeConfig, ServeError, Server, TenancyConfig, TenantClass, TenantLoad,
    TenantPolicy,
};
use fluid_tensor::Tensor;
use std::time::Duration;

/// A backend with dial-a-latency service: `base + per_row × rows` of
/// sleep, then zero logits. Deterministic timing, no conv compute.
struct TimedBackend {
    name: String,
    base: Duration,
    per_row: Duration,
}

impl TimedBackend {
    fn boxed(name: &str, base_ms: u64, per_row_us: u64) -> Box<dyn Backend> {
        Box::new(TimedBackend {
            name: name.to_string(),
            base: Duration::from_millis(base_ms),
            per_row: Duration::from_micros(per_row_us),
        })
    }
}

impl Backend for TimedBackend {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_dims(&self) -> [usize; 3] {
        [1, 28, 28]
    }
    fn infer_batch(&mut self, x: &Tensor) -> Result<Tensor, fluid_dist::DistError> {
        let rows = x.dims()[0];
        std::thread::sleep(self.base + self.per_row * rows as u32);
        Ok(Tensor::zeros(&[rows, 10]))
    }
}

fn input() -> Tensor {
    Tensor::zeros(&[1, 1, 28, 28])
}

/// A two-tenant table: `web` (interactive, unmetered) and `etl` (batch),
/// with the given weights.
fn web_etl(web_weight: u32, etl_weight: u32, slo_ms: f64) -> TenancyConfig {
    let mut web = TenantPolicy::new(1, "web", TenantClass::Interactive);
    web.weight = web_weight;
    let mut etl = TenantPolicy::new(2, "etl", TenantClass::Batch);
    etl.weight = etl_weight;
    let mut t = TenancyConfig::new(vec![web, etl]);
    t.interactive_slo_ms = slo_ms;
    t
}

fn serve_cfg(tenancy: Option<TenancyConfig>) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.max_batch = 8;
    cfg.max_wait = Duration::from_millis(4);
    cfg.queue_cap = 64;
    cfg.tenancy = tenancy;
    cfg
}

#[test]
fn flooding_tenant_cannot_starve_interactive_out_of_its_slo() {
    // One worker at ~21ms per 8-row batch (~385 req/s); etl floods at 10×
    // web's rate and past total capacity, so a FIFO would bury web's
    // requests behind etl's standing backlog. The etl quota clips the
    // flood to a sustainable rate and DRR boards web onto every batch.
    let mut table = web_etl(1, 1, 250.0);
    table.tenants[1].rate = 250.0;
    table.tenants[1].burst = 10.0;
    let server = Server::start(
        serve_cfg(Some(table)),
        vec![TimedBackend::boxed("w0", 20, 100)],
    )
    .expect("start");
    let plans = [
        TenantLoad {
            tenant: 1,
            lambda: 40.0,
            requests: 60,
        },
        TenantLoad {
            tenant: 2,
            lambda: 400.0,
            requests: 600,
        },
    ];
    let reports = loadgen::run_open_loop_tenants(&server.handle(), &plans, &[input()], 11);
    let metrics = server.shutdown();
    let web = metrics
        .tenants
        .iter()
        .find(|t| t.name == "web")
        .expect("web row");
    let etl = metrics
        .tenants
        .iter()
        .find(|t| t.name == "etl")
        .expect("etl row");

    // The polite tenant is never shed and meets its SLO at p95.
    assert_eq!(
        reports[0].completed, 60,
        "interactive requests went missing: {:?}",
        reports[0]
    );
    assert!(
        web.p95_ms <= 250.0,
        "interactive p95 {}ms blew the 250ms SLO (etl p95 {}ms)",
        web.p95_ms,
        etl.p95_ms
    );
    // The flood is contained, not starved: it completes real work too.
    assert!(
        etl.completed > 50,
        "flood starved outright: {} completed",
        etl.completed
    );
    // And the flood pays for its own excess — shed comes out of etl.
    assert!(
        reports[1].shed > 0,
        "an over-capacity flood must shed: {:?}",
        reports[1]
    );
}

#[test]
fn quota_exhaustion_is_an_explicit_per_tenant_verdict() {
    // etl's bucket holds 4 requests and refills at 1/s; web is unmetered.
    let mut table = web_etl(1, 1, 250.0);
    table.tenants[1].rate = 1.0;
    table.tenants[1].burst = 4.0;
    let server = Server::start(
        serve_cfg(Some(table)),
        vec![TimedBackend::boxed("w0", 1, 10)],
    )
    .expect("start");
    let handle = server.handle();

    // Burn etl's burst, then the next submission must be the explicit
    // per-tenant verdict (naming the tenant), not Overloaded or a hang.
    let mut etl_tickets = Vec::new();
    for _ in 0..4 {
        etl_tickets.push(handle.submit_for(2, input()).expect("within burst"));
    }
    let err = handle.submit_for(2, input()).expect_err("bucket is dry");
    match &err {
        ServeError::QuotaExhausted { tenant } => assert_eq!(tenant, "etl"),
        other => panic!("expected QuotaExhausted, got {other}"),
    }

    // web proceeds as if nothing happened — quota is per-tenant.
    for _ in 0..8 {
        handle.infer_for(1, input()).expect("web is unmetered");
    }
    for t in etl_tickets {
        t.wait().expect("admitted etl work still completes");
    }
    let metrics = server.shutdown();
    let etl = metrics
        .tenants
        .iter()
        .find(|t| t.name == "etl")
        .expect("etl row");
    assert_eq!(etl.quota_rejected, 1);
    assert_eq!(etl.completed, 4);
    let web = metrics
        .tenants
        .iter()
        .find(|t| t.name == "web")
        .expect("web row");
    assert_eq!(web.quota_rejected, 0);
    assert_eq!(web.completed, 8);
    assert_eq!(metrics.quota_rejected, 1);
}

#[test]
fn weights_divide_a_saturated_server_proportionally() {
    // Both tenants pre-load a standing backlog (so every batch is formed
    // under contention), then DRR's 3:1 weights must show up as roughly
    // 3:1 service. Submissions go through tickets so nothing is shed.
    let mut table = web_etl(3, 1, f64::MAX);
    table.tenants[0].class = TenantClass::Batch; // same class: pure weights
    let mut cfg = serve_cfg(Some(table));
    cfg.queue_cap = 512;
    cfg.max_wait = Duration::from_millis(30); // let the backlog pre-load
    let server = Server::start(cfg, vec![TimedBackend::boxed("w0", 4, 100)]).expect("start");
    let handle = server.handle();

    let heavy: Vec<_> = (0..120)
        .map(|_| handle.submit_for(1, input()).expect("submit heavy"))
        .collect();
    let light: Vec<_> = (0..120)
        .map(|_| handle.submit_for(2, input()).expect("submit light"))
        .collect();

    // Wait for the first ~half of the heavy tenant's work, then measure
    // how far the light tenant has progressed in the same wall-clock.
    for t in heavy.into_iter().take(60) {
        t.wait().expect("heavy served");
    }
    let snapshot = server.metrics();
    let heavy_done = snapshot
        .tenants
        .iter()
        .find(|t| t.name == "web")
        .expect("row")
        .completed as f64;
    let light_done = snapshot
        .tenants
        .iter()
        .find(|t| t.name == "etl")
        .expect("row")
        .completed
        .max(1) as f64;
    let ratio = heavy_done / light_done;
    assert!(
        (1.8..=5.0).contains(&ratio),
        "3:1 weights gave a {ratio:.2}:1 service split \
         ({heavy_done} vs {light_done} under saturation)"
    );
    for t in light {
        t.wait().expect("light served eventually");
    }
    server.shutdown();
}

#[test]
fn untenanted_serving_is_unchanged_by_the_scheduler_rewrite() {
    // The degenerate single-queue path: no tenancy config, plain submits.
    // Batching, completion accounting, and explicit backpressure must all
    // behave exactly as the classic FIFO did.
    let server =
        Server::start(serve_cfg(None), vec![TimedBackend::boxed("w0", 1, 10)]).expect("start");
    let handle = server.handle();
    let tickets: Vec<_> = (0..32)
        .map(|_| handle.submit(input()).expect("submit"))
        .collect();
    for t in tickets {
        let out = t.wait().expect("served");
        assert_eq!(out.dims(), &[1, 10]);
    }
    let m = server.shutdown();
    assert_eq!(m.completed, 32);
    assert!(m.tenants.is_empty(), "no tenancy → no tenant rows");
    assert_eq!(m.quota_rejected, 0);
    assert!(
        m.mean_batch_requests > 1.0,
        "coalescing must still happen: {m}"
    );
}
