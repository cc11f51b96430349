//! The serve workloads: single-sample requests through the `Server`
//! gateway, from independent clients (open loop) or waiting callers
//! (closed loop).

use crate::deploy::{
    bit_exact, ctx, first_output, inputs, references, release, DeployTimes, Deploys, Result,
    Stopwatch,
};
use crate::host::{reference_requests, reference_slowdown, reference_slowdown_at, Reference};
use crate::report::{
    mean, median, percentile, windowed_percentile, Report, SERVE_STAGES, TAIL_STAGES,
};
use crate::Settings;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use vedliot_fleet::artifact::ModelArtifact;
use vedliot_nnir::det::{splitmix64, DetRng};
use vedliot_nnir::exec::{Parallelism, Runner};
use vedliot_nnir::{zoo, Graph, Shape, Tensor};
use vedliot_obs::{SpanOutcome, SpanRecord};
use vedliot_serve::{
    BatchPolicy, JournalPolicy, ModelConfig, Priority, ServeConfig, Server, SloPolicy,
    SubmitRequest, Ticket, TracePolicy, DEFAULT_MODEL,
};

/// Offered load of `serve-open`: about 10% of the ~2400 req/s knee of
/// the default gateway on f32 LeNet-5 on a quiet host. This host's speed
/// swings by 2x and more; at 30% load (750 req/s) such a swing drove the
/// worker into queueing that grows faster than the slowdown, and the p90
/// of runs of the same code then spread by over 60%.
const OPEN_RATE: f64 = 250.0;
/// Gateway queue of `serve-open`: deep enough that nothing is refused.
const OPEN_QUEUE: usize = 4096;
/// Closed-loop callers of `serve-tenants`.
const CALLERS: u64 = 2;
/// `serve-tenants` evaluates its SLOs once per this many replies.
const SLO_EVERY: u64 = 1000;
/// Upper bound on `serve-tenants` replies per second (about 4x the
/// ~2600 req/s measured on 2 threads), sizing the trace ring of the
/// traced window so that it keeps every span.
const TENANT_MAX_RATE: f64 = 10_000.0;
/// Untimed sequential requests before a measured window.
const WARMUP_REQUESTS: usize = 200;
/// Requests per measured window in the smoke form.
const SMOKE_REQUESTS: usize = 10;

/// One served model: its release, seeded inputs and reference outputs.
struct Model {
    /// Routing key; the model a server starts with is `DEFAULT_MODEL`.
    key: &'static str,
    graph: Graph,
    artifact: ModelArtifact,
    inputs: Vec<Tensor>,
    refs: Vec<Tensor>,
    /// The reference request shaped like a request for this model.
    reference: Reference,
}

impl Model {
    fn new(
        key: &'static str,
        graph: Graph,
        reference: Reference,
        seed: u64,
        salt: u64,
    ) -> Result<Self> {
        let inputs = inputs(&graph, seed, salt, 64)?;
        let refs = references(&graph, &inputs)?;
        let artifact = release(&graph)?;
        Ok(Model {
            key,
            graph,
            artifact,
            inputs,
            refs,
            reference,
        })
    }

    fn request(&self, k: usize, priority: Priority) -> SubmitRequest {
        SubmitRequest::new(vec![self.inputs[k].clone()])
            .model(self.key)
            .priority(priority)
    }

    /// Submits input `k`, waits, and checks the reply bit for bit.
    fn ask(&self, server: &Server, k: usize, priority: Priority) -> bool {
        let reply = first_output(
            server
                .submit_request(self.request(k, priority))
                .and_then(Ticket::wait),
        );
        reply.is_ok_and(|y| bit_exact(&y, &self.refs[k]))
    }
}

/// Starts a gateway over freshly unpacked `models`, timed as one deploy.
fn deploy(
    models: &[Model],
    config: ServeConfig,
    report: &mut Report,
) -> Result<(Server, DeployTimes)> {
    let mut clock = Stopwatch::start();
    let graphs = unpack_all(models)?;
    let unpack = clock.lap();
    let server = start(models, &graphs, config)?;
    let build = clock.lap();
    let replies: Vec<bool> = models
        .iter()
        .map(|m| m.ask(&server, 0, Priority::Normal))
        .collect();
    let first_reply = clock.lap();
    for ok in replies {
        report.check(ok);
    }
    Ok((
        server,
        DeployTimes {
            unpack,
            passes: 0.0,
            build,
            first_reply,
        },
    ))
}

fn unpack_all(models: &[Model]) -> Result<Vec<Graph>> {
    models
        .iter()
        .map(|m| m.artifact.unpack().map_err(ctx("unpack")))
        .collect()
}

/// Starts a gateway on the first graph and loads the others beside it.
fn start(models: &[Model], graphs: &[Graph], config: ServeConfig) -> Result<Server> {
    let server = Server::start(&graphs[0], config).map_err(ctx("start"))?;
    for (m, g) in models.iter().zip(graphs).skip(1) {
        server
            .load(m.key, g, ModelConfig::default())
            .map_err(ctx("load"))?;
    }
    Ok(server)
}

/// Cold deploys, then the last deployed server warmed up.
fn deploy_all(
    models: &[Model],
    config: ServeConfig,
    settings: &Settings,
    report: &mut Report,
) -> Result<Server> {
    let mut deploys = Deploys::new(settings);
    let mut kept: Option<Server> = None;
    while deploys.more() {
        let (server, times) = deploy(models, config, report)?;
        deploys.push(times);
        if let Some(old) = kept.replace(server) {
            old.shutdown();
        }
    }
    deploys.report(report);
    // The planned arena of a batch-1 runner over each served model.
    let mut arena = 0;
    for m in models {
        let runner = Runner::builder()
            .parallelism(Parallelism::Serial)
            .build(&m.graph)
            .map_err(ctx("build"))?;
        arena += runner.memory_plan().peak_bytes();
    }
    report.set("arena_peak_bytes", arena as f64);
    let server = kept.ok_or("no deploy ran")?;
    warm_up(&server, models, settings, report);
    Ok(server)
}

fn warm_up(server: &Server, models: &[Model], settings: &Settings, report: &mut Report) {
    let n = if settings.smoke {
        models.len()
    } else {
        WARMUP_REQUESTS
    };
    for i in 0..n {
        let m = &models[i % models.len()];
        report.check(m.ask(server, i % m.inputs.len(), Priority::Normal));
    }
}

/// What the clients saw in one measured window.
#[derive(Default)]
struct Clients {
    /// Per correct reply: when it arrived.
    received: Vec<Instant>,
    /// Per correct reply: the index of its model.
    model: Vec<usize>,
    /// Per correct reply: from due (open loop) or send (closed loop)
    /// to reply received.
    latencies_ms: Vec<f64>,
    /// Per correct reply: send time minus due time (open loop only).
    late_ms: Vec<f64>,
    /// Per correct reply: time inside `submit_request`.
    submit_ms: Vec<f64>,
    /// Per correct reply: from send to reply received.
    sent_to_reply_ms: Vec<f64>,
    elapsed_s: f64,
    slo_eval_s: f64,
    /// Per model: the kind of its reference requests, and when each one
    /// sent next to the window was answered with its round trip (ms), in
    /// time order.
    references: Vec<(Reference, Vec<(Instant, f64)>)>,
}

impl Clients {
    fn record(
        &mut self,
        model: usize,
        due: Instant,
        sent: Instant,
        submitted: Instant,
        received: Instant,
    ) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.received.push(received);
        self.model.push(model);
        self.latencies_ms.push(ms(received - due));
        self.late_ms.push(ms(sent - due));
        self.submit_ms.push(ms(submitted - sent));
        self.sent_to_reply_ms.push(ms(received - sent));
    }

    fn merge(&mut self, other: Clients) {
        self.received.extend(other.received);
        self.model.extend(other.model);
        self.latencies_ms.extend(other.latencies_ms);
        self.late_ms.extend(other.late_ms);
        self.submit_ms.extend(other.submit_ms);
        self.sent_to_reply_ms.extend(other.sent_to_reply_ms);
        self.slo_eval_s += other.slo_eval_s;
    }

    /// Request latencies at the reference host speed. The first
    /// `max_linger` of a request's latency is the batcher's timer and
    /// stays as measured (batches here rarely fill, so a request mostly
    /// waits the linger out); the rest, execution, queueing behind other
    /// batches and wake-ups, is divided by the slowdown of the same part
    /// of its model's reference requests answered around it.
    fn latencies(&self) -> Vec<f64> {
        let linger_ms = linger().as_secs_f64() * 1e3;
        self.received
            .iter()
            .zip(&self.model)
            .zip(&self.latencies_ms)
            .map(|((&at, &m), &ms)| {
                let (kind, round_trips) = &self.references[m];
                let slowdown = reference_slowdown_at(*kind, round_trips, linger_ms, at);
                ms.min(linger_ms) + (ms - linger_ms).max(0.0) / slowdown
            })
            .collect()
    }

    /// Median latency and throughput at the reference host speed,
    /// with the raw values beside them. An open loop's throughput is
    /// its schedule's and stays raw; a closed loop's scales with its
    /// latency.
    fn report_end_to_end(&self, report: &mut Report, closed_loop: bool) {
        let norm = self.latencies();
        let timed = |v: &[f64]| -> Vec<(Instant, f64)> {
            let mut t: Vec<(Instant, f64)> = self
                .received
                .iter()
                .copied()
                .zip(v.iter().copied())
                .collect();
            t.sort_by_key(|s| s.0);
            t
        };
        let (at_reference, raw) = (timed(&norm), timed(&self.latencies_ms));
        report.set("latency_p50_ms", windowed_percentile(&at_reference, 0.5));
        report.set("raw.latency_p50_ms", windowed_percentile(&raw, 0.5));
        let rate = self.latencies_ms.len() as f64 / self.elapsed_s;
        let speedup = if closed_loop {
            mean(&self.latencies_ms) / mean(&norm)
        } else {
            1.0
        };
        report.set("throughput_per_s", rate * speedup);
        report.set("raw.throughput_per_s", rate);
        for (kind, round_trips) in &self.references {
            let linger_ms = linger().as_secs_f64() * 1e3;
            report.set(
                format!("host.{}_slowdown", kind.name),
                reference_slowdown(*kind, round_trips, linger_ms),
            );
        }
    }
}

/// The batcher's linger in both serve workloads (the default policy).
fn linger() -> Duration {
    BatchPolicy::default().max_linger
}

/// One scheduled request of the open loop.
struct Arrival {
    at: Duration,
    input: usize,
}

/// Seeded Poisson arrivals at `rate` over `length`, or `cap` of them.
fn poisson(
    seed: u64,
    rate: f64,
    length: Duration,
    cap: Option<usize>,
    inputs: usize,
) -> Vec<Arrival> {
    let mut rng = DetRng::new(splitmix64(seed ^ 0x09E7));
    let mut t = 0.0;
    let mut schedule = Vec::new();
    loop {
        t += -(1.0 - rng.unit_f64()).ln() / rate;
        if cap.map_or(t >= length.as_secs_f64(), |c| schedule.len() >= c) {
            return schedule;
        }
        schedule.push(Arrival {
            at: Duration::from_secs_f64(t),
            input: rng.index(inputs),
        });
    }
}

/// Sends `schedule` from one thread, sleeping to each due time, while
/// this thread waits the tickets in order (one worker, FIFO).
fn open_loop(server: &Server, m: &Model, schedule: &[Arrival], report: &mut Report) -> Clients {
    struct Sent {
        input: usize,
        due: Instant,
        sent: Instant,
        submitted: Instant,
        ticket: std::result::Result<Ticket, vedliot_serve::ServeError>,
    }
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut clients = Clients::default();
    let (sent_n, replied_n, done) = (AtomicU64::new(0), AtomicU64::new(0), AtomicBool::new(false));
    let start = Instant::now();
    let mut last = start;
    let round_trips = std::thread::scope(|s| {
        let (sent_n, replied_n, done) = (&sent_n, &replied_n, &done);
        let prober = s.spawn(move || {
            let idle = || sent_n.load(Ordering::Acquire) == replied_n.load(Ordering::Acquire);
            reference_requests(m.reference, done, idle, linger())
        });
        s.spawn(move || {
            for a in schedule {
                let request = m.request(a.input, Priority::Normal);
                let due = start + a.at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                sent_n.fetch_add(1, Ordering::Release);
                let ticket = server.submit_request(request);
                let submitted = Instant::now();
                let msg = Sent {
                    input: a.input,
                    due,
                    sent,
                    submitted,
                    ticket,
                };
                if tx.send(msg).is_err() {
                    return;
                }
            }
        });
        for s in rx {
            let reply = first_output(s.ticket.and_then(Ticket::wait));
            let received = Instant::now();
            replied_n.fetch_add(1, Ordering::Release);
            let ok = reply.is_ok_and(|y| bit_exact(&y, &m.refs[s.input]));
            report.check(ok);
            if ok {
                clients.record(0, s.due, s.sent, s.submitted, received);
            }
            last = received;
        }
        done.store(true, Ordering::Release);
        prober.join().expect("probe thread panicked")
    });
    clients.references = vec![(m.reference, round_trips)];
    clients.elapsed_s = (last - start).as_secs_f64();
    clients
}

/// `CALLERS` threads, each sending its next request when the previous
/// reply arrives, until `length` has passed.
fn closed_loop(
    server: &Server,
    models: &[Model],
    seed: u64,
    length: Duration,
    cap: Option<usize>,
    report: &mut Report,
) -> Clients {
    let replies = AtomicU64::new(0);
    let start = Instant::now();
    let shared = Callers {
        server,
        models,
        end: start + length,
        cap,
        replies: &replies,
    };
    let done = AtomicBool::new(false);
    let (callers, references): (Vec<(Clients, u64, u64)>, _) = std::thread::scope(|s| {
        let done = &done;
        // The callers keep a request in flight at all times: never idle.
        let probers: Vec<_> = models
            .iter()
            .map(|m| {
                let kind = m.reference;
                s.spawn(move || (kind, reference_requests(kind, done, || true, linger())))
            })
            .collect();
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                let shared = &shared;
                s.spawn(move || shared.run(splitmix64(seed ^ (0xCA11 + c))))
            })
            .collect();
        let callers = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect();
        done.store(true, Ordering::Release);
        let references = probers
            .into_iter()
            .map(|p| p.join().expect("probe thread panicked"))
            .collect();
        (callers, references)
    });
    let mut clients = Clients {
        references,
        ..Clients::default()
    };
    for (c, attempted, failed) in callers {
        clients.merge(c);
        report.attempted += attempted;
        report.failed += failed;
    }
    clients.elapsed_s = start.elapsed().as_secs_f64();
    clients
}

/// What the closed-loop callers share.
struct Callers<'a> {
    server: &'a Server,
    models: &'a [Model],
    end: Instant,
    cap: Option<usize>,
    /// Replies so far, across callers: the SLO evaluation clock.
    replies: &'a AtomicU64,
}

impl Callers<'_> {
    /// One caller: 40% vision / 60% gesture, priorities High/Normal/Batch
    /// 20/50/30. Returns its clients view, attempted and failed.
    fn run(&self, seed: u64) -> (Clients, u64, u64) {
        let (server, models, cap) = (self.server, self.models, self.cap);
        let mut rng = DetRng::new(seed);
        let mut clients = Clients::default();
        let (mut attempted, mut failed) = (0u64, 0u64);
        loop {
            let model = if rng.chance(0.4) { 0 } else { 1 };
            let m = &models[model];
            let u = rng.unit_f64();
            let priority = if u < 0.2 {
                Priority::High
            } else if u < 0.7 {
                Priority::Normal
            } else {
                Priority::Batch
            };
            let k = rng.index(m.inputs.len());
            let request = m.request(k, priority);
            let sent = Instant::now();
            let ticket = server.submit_request(request);
            let submitted = Instant::now();
            let reply = first_output(ticket.and_then(Ticket::wait));
            let received = Instant::now();
            let ok = reply.is_ok_and(|y| bit_exact(&y, &m.refs[k]));
            attempted += 1;
            if ok {
                clients.record(model, sent, sent, submitted, received);
            } else {
                failed += 1;
            }
            if (self.replies.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(SLO_EVERY) {
                let t = Instant::now();
                server.evaluate_slo();
                clients.slo_eval_s += t.elapsed().as_secs_f64();
            }
            if received >= self.end || cap.is_some_and(|c| attempted as usize >= c) {
                return (clients, attempted, failed);
            }
        }
    }
}

/// Per-layer serve and obs metrics of a traced window on `server`.
fn serve_layers(report: &mut Report, server: &Server, clients: &Clients) {
    let spans: Vec<SpanRecord> = server
        .trace_spans()
        .into_iter()
        .filter(|s| s.outcome == SpanOutcome::Ok)
        .collect();
    let m = server.metrics();
    report.set(
        "obs.spans_missing",
        m.served.saturating_sub(spans.len() as u64) as f64,
    );
    let span_mean =
        |f: fn(&SpanRecord) -> u64| mean(&spans.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    let latency_us = mean(&clients.latencies_ms) * 1e3;
    let submit_us = mean(&clients.submit_ms) * 1e3;
    let wakeup_us =
        (mean(&clients.sent_to_reply_ms) * 1e3 - submit_us - span_mean(SpanRecord::end_to_end_us))
            .max(0.0);
    let stage_us = [
        submit_us,
        span_mean(SpanRecord::queue_wait_us),
        span_mean(|s| s.linger_us),
        span_mean(SpanRecord::dispatch_us),
        span_mean(SpanRecord::execute_us),
        span_mean(SpanRecord::reply_stage_us),
        wakeup_us,
    ];
    for (stage, us) in SERVE_STAGES.iter().zip(stage_us) {
        report.set(format!("serve.{stage}.share"), us / latency_us);
    }
    report.set(
        "client.late_share",
        mean(&clients.late_ms) * 1e3 / latency_us,
    );

    // What the slowest 1% of spans spent their time on.
    let e2e: Vec<f64> = spans.iter().map(|s| s.end_to_end_us() as f64).collect();
    let cut = percentile(&e2e, 0.99);
    let slow: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.end_to_end_us() as f64 >= cut)
        .collect();
    let slow_sum = |f: fn(&SpanRecord) -> u64| slow.iter().map(|s| f(s) as f64).sum::<f64>();
    let slow_e2e = slow_sum(SpanRecord::end_to_end_us);
    let tail_stages: [fn(&SpanRecord) -> u64; 3] = [
        SpanRecord::queue_wait_us,
        |s| s.linger_us,
        SpanRecord::execute_us,
    ];
    for (stage, f) in TAIL_STAGES.iter().zip(tail_stages) {
        report.set(format!("serve.{stage}.tail_share"), slow_sum(f) / slow_e2e);
    }

    report.set("serve.batches", m.batches as f64);
    report.set("serve.mean_batch", m.mean_batch);
    report.set(
        "serve.batch_fill",
        m.mean_batch / BatchPolicy::default().max_batch as f64,
    );
    report.set("serve.queue_hwm", m.queue_hwm as f64);
    report.set("serve.retries", m.retries as f64);
    report.set("serve.rejected", m.rejected as f64);
    report.set("serve.timed_out", m.timed_out as f64);
    report.set("serve.failed", m.failed as f64);
    if let Some(journal) = server.journal() {
        report.set("obs.journal_recorded", journal.recorded() as f64);
        report.set("obs.journal_dropped", journal.dropped() as f64);
    }
    report.set("obs.slo_eval.share", clients.slo_eval_s / clients.elapsed_s);
}

/// `serve-open`: independent clients at a fixed Poisson rate against the
/// default single-model gateway on f32 LeNet-5.
pub fn open(settings: &Settings) -> Result<Report> {
    let mut report = Report::new("serve-open", settings.trace);
    let model = Model::new(
        DEFAULT_MODEL,
        zoo::lenet5(10).map_err(ctx("lenet5"))?,
        Reference::COMPUTE,
        settings.seed,
        0,
    )?;
    let models = std::slice::from_ref(&model);
    let config = |trace: Option<TracePolicy>| {
        let b = ServeConfig::builder().queue_capacity(OPEN_QUEUE);
        match trace {
            Some(t) => b.trace(t),
            None => b,
        }
        .build()
        .map_err(ctx("config"))
    };
    let cap = settings.smoke.then_some(SMOKE_REQUESTS);
    let schedule = poisson(
        settings.seed,
        OPEN_RATE,
        settings.window(),
        cap,
        model.inputs.len(),
    );
    let server = deploy_all(models, config(None)?, settings, &mut report)?;

    if settings.trace {
        // Split by count; rebase the second half to start at once.
        let (a, b) = schedule.split_at(schedule.len() / 2);
        let offset = b.first().map_or(Duration::ZERO, |x| x.at);
        let b: Vec<Arrival> = b
            .iter()
            .map(|x| Arrival {
                at: x.at - offset,
                input: x.input,
            })
            .collect();
        let plain = open_loop(&server, &model, a, &mut report);
        server.shutdown();
        let ring = TracePolicy {
            capacity: b.len() + WARMUP_REQUESTS + models.len(),
        };
        let traced_server = start(models, &unpack_all(models)?, config(Some(ring))?)?;
        warm_up(&traced_server, models, settings, &mut report);
        let traced = open_loop(&traced_server, &model, &b, &mut report);
        serve_layers(&mut report, &traced_server, &traced);
        traced_server.shutdown();
        report.set(
            "trace.overhead_ratio",
            median(&traced.latencies()) / median(&plain.latencies()),
        );
    } else {
        let clients = open_loop(&server, &model, &schedule, &mut report);
        clients.report_end_to_end(&mut report, false);
        server.shutdown();
    }
    report.set("host.threads", crate::host_threads());
    Ok(report)
}

/// `serve-tenants`: two pools behind one gateway with tracing, the
/// flight recorder and the SLO engine on, driven by closed-loop callers.
pub fn tenants(settings: &Settings) -> Result<Report> {
    let mut report = Report::new("serve-tenants", settings.trace);
    let seed = settings.seed;
    let vision = Model::new(
        DEFAULT_MODEL,
        zoo::lenet5(10).map_err(ctx("lenet5"))?,
        Reference::COMPUTE,
        seed,
        1,
    )?;
    let gesture_graph =
        zoo::tiny_cnn("gesture", Shape::nchw(1, 1, 8, 8), &[4], 3).map_err(ctx("tiny_cnn"))?;
    let gesture = Model::new("gesture", gesture_graph, Reference::WAKE, seed, 2)?;
    let models = [vision, gesture];
    let config = |ring: TracePolicy| {
        ServeConfig::builder()
            .trace(ring)
            .journal(JournalPolicy::default())
            .slo(SloPolicy::default())
            .build()
            .map_err(ctx("config"))
    };
    let cap = settings.smoke.then_some(SMOKE_REQUESTS / CALLERS as usize);
    let server = deploy_all(
        &models,
        config(TracePolicy::default())?,
        settings,
        &mut report,
    )?;

    if settings.trace {
        let half = settings.window() / 2;
        let plain = closed_loop(&server, &models, seed, half, cap, &mut report);
        server.shutdown();
        let spans =
            (half.as_secs_f64() * TENANT_MAX_RATE) as usize + WARMUP_REQUESTS + models.len();
        let traced_server = start(
            &models,
            &unpack_all(&models)?,
            config(TracePolicy { capacity: spans })?,
        )?;
        warm_up(&traced_server, &models, settings, &mut report);
        let traced = closed_loop(
            &traced_server,
            &models,
            splitmix64(seed),
            half,
            cap,
            &mut report,
        );
        serve_layers(&mut report, &traced_server, &traced);
        traced_server.shutdown();
        report.set(
            "trace.overhead_ratio",
            median(&traced.latencies()) / median(&plain.latencies()),
        );
    } else {
        let clients = closed_loop(&server, &models, seed, settings.window(), cap, &mut report);
        clients.report_end_to_end(&mut report, true);
        server.shutdown();
    }
    report.set("host.threads", crate::host_threads());
    Ok(report)
}
