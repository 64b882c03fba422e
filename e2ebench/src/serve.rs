//! The serve workloads: a seeded closed-loop script from one client,
//! every line through `Server::handle_line` (the `pamr serve` daemon), on
//! a session preloaded with live communications.
//!
//! * `serve_churn` — 64×64 mesh, 2 000 live length-8 communications of
//!   weight U[100, 500]: bounded repair with many distinct endpoint pairs
//!   in the interner and no escalations. (Under U[100, 800] some seeds
//!   drift into an infeasible state that escalates every mutation to a
//!   full re-route of 2 000 communications.)
//! * `serve_saturated` — 32×32 mesh, 150 live length-6 communications of
//!   weight U[100, 1000], plus short bursts: every fourth mutation adds a
//!   heavy flow and the next removes it again. The bursts take turns
//!   between over capacity (heavier than the top link frequency: the
//!   session turns infeasible and escalates to a full XYI re-route, which
//!   stays infeasible) and just under it (a few leave bounded repair
//!   infeasible, and some of those the full re-route makes feasible again).
//!   About one mutation in seven escalates.
//!
//! A run drives [`ServeParams::scripts`] independent scripts, each on a
//! server of its own. The churn script mixes `add_comm` and `remove_comm`
//! at random, 50/50; the saturated script repeats burst add, burst remove,
//! background remove, background add. Both send a `power_report` every
//! [`ServeParams::report_every`] requests. One operation is one request.

use crate::common::{self, Ctx, Derived, InvPower};
use crate::report::Report;
use crate::trace::{LayerTotal, Tracer};
use pamr_mesh::{Mesh, Path};
use pamr_power::PowerModel;
use pamr_routing::{
    xy_routing, Comm, MeshPrecompute, RouteScratch, Routing, RoutingSession, SessionConfig,
    SessionStats, SlotId,
};
use pamr_sim::serve::Server;
use pamr_workload::length::sample_pair_at;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The shape of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeParams {
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Communications added before the script starts (the set-up).
    pub preload: usize,
    /// Manhattan length of every communication.
    pub len: usize,
    /// Smallest weight, Mb/s.
    pub w_min: f64,
    /// Largest weight, Mb/s.
    pub w_max: f64,
    /// Independent scripts per run, each on a server of its own. The
    /// escalations of one script cost about the same, but those of another
    /// may cost a fifth more, so a run averages over several scripts.
    pub scripts: usize,
    /// Requests per script.
    pub requests: usize,
    /// Every this many requests, one is a `power_report`.
    pub report_every: usize,
    /// Weight ranges of the bursts, taken in turn; empty for a script
    /// without bursts.
    pub bursts: &'static [(f64, f64)],
    /// Every this many checkpoints, the session is compared with a batch
    /// route of its live set (a batch XYI of 2 000 communications on 64×64
    /// takes about half a second).
    pub batch_every: u64,
}

/// The churn workload (see the [module docs](self)).
pub const CHURN: ServeParams = ServeParams {
    rows: 64,
    cols: 64,
    preload: 2000,
    len: 8,
    w_min: 100.0,
    w_max: 500.0,
    scripts: 1,
    requests: 1000,
    report_every: 50,
    bursts: &[],
    batch_every: 10,
};

/// The saturated workload (see the [module docs](self)).
pub const SATURATED: ServeParams = ServeParams {
    rows: 32,
    cols: 32,
    preload: 150,
    len: 6,
    w_min: 100.0,
    w_max: 1000.0,
    scripts: 4,
    requests: 1000,
    report_every: 50,
    bursts: &[(3600.0, 3700.0), (3200.0, 3450.0)],
    batch_every: 4,
};

/// Fewest replays per run (each request's latency is its minimum over
/// them).
const MIN_REPLAYS: usize = 3;

/// One scripted request.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// `add_comm` of a fresh id.
    Add {
        /// Wire id.
        id: String,
        /// The communication.
        comm: Comm,
    },
    /// `remove_comm` of a live id.
    Remove {
        /// Wire id.
        id: String,
    },
    /// `power_report`.
    Report,
}

impl Req {
    /// The request's wire line.
    pub fn line(&self) -> String {
        match self {
            Req::Add { id, comm } => format!(
                "{{\"op\":\"add_comm\",\"id\":\"{id}\",\"src\":{{\"u\":{},\"v\":{}}},\
                 \"snk\":{{\"u\":{},\"v\":{}}},\"weight\":{}}}",
                comm.src.u, comm.src.v, comm.snk.u, comm.snk.v, comm.weight
            ),
            Req::Remove { id } => format!("{{\"op\":\"remove_comm\",\"id\":\"{id}\"}}"),
            Req::Report => "{\"op\":\"power_report\"}".to_string(),
        }
    }
}

/// A workload's seeded inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// The preload, all `Add`.
    pub preload: Vec<Req>,
    /// The timed requests.
    pub requests: Vec<Req>,
}

impl Script {
    /// Draws the script of `p` from `seed`: the preload, then the
    /// mutations (see the [module docs](self)), every `report_every`-th
    /// request a `power_report`. Removals pick a uniformly random live
    /// background id.
    pub fn generate(p: &ServeParams, seed: u64) -> Script {
        let mut g = Generator {
            p,
            mesh: Mesh::new(p.rows, p.cols),
            rng: SmallRng::seed_from_u64(seed),
            next: 0,
            live: Vec::new(),
        };
        let preload = (0..p.preload).map(|_| g.add_background()).collect();
        let mut mutations = 0usize;
        let mut burst_id = None;
        let mut bursts = p.bursts.iter().cycle();
        let requests = (1..=p.requests)
            .map(|k| {
                if k % p.report_every == 0 {
                    return Req::Report;
                }
                mutations += 1;
                if p.bursts.is_empty() {
                    return if g.live.is_empty() || g.rng.gen_range(0..2u32) == 0 {
                        g.add_background()
                    } else {
                        g.remove_background()
                    };
                }
                match (mutations - 1) % 4 {
                    0 => {
                        let range = *bursts.next().expect("cycled non-empty list");
                        let (id, comm) = g.comm(range);
                        burst_id = Some(id.clone());
                        Req::Add { id, comm }
                    }
                    1 => Req::Remove {
                        id: burst_id.take().expect("a burst is live"),
                    },
                    2 => g.remove_background(),
                    _ => g.add_background(),
                }
            })
            .collect();
        Script { preload, requests }
    }

    fn count(&self, f: impl Fn(&Req) -> bool) -> u64 {
        self.requests.iter().filter(|r| f(r)).count() as u64
    }
}

/// Draws fresh communications and tracks the live background ids.
struct Generator<'a> {
    p: &'a ServeParams,
    mesh: Mesh,
    rng: SmallRng,
    next: usize,
    live: Vec<String>,
}

impl Generator<'_> {
    /// A fresh id and a communication of the workload's length with a
    /// weight drawn from `lo..=hi`.
    fn comm(&mut self, (lo, hi): (f64, f64)) -> (String, Comm) {
        let (src, snk) = sample_pair_at(&self.mesh, self.p.len, &mut self.rng);
        let weight = self.rng.gen_range(lo..=hi);
        let id = format!("c{}", self.next);
        self.next += 1;
        (id, Comm::new(src, snk, weight))
    }

    fn add_background(&mut self) -> Req {
        let (id, comm) = self.comm((self.p.w_min, self.p.w_max));
        self.live.push(id.clone());
        Req::Add { id, comm }
    }

    fn remove_background(&mut self) -> Req {
        let i = self.rng.gen_range(0..self.live.len());
        Req::Remove {
            id: self.live.swap_remove(i),
        }
    }
}

/// Output checks and quality figures gathered during the checked replay.
#[derive(Debug, Default)]
struct Quality {
    not_ok: u64,
    checkpoints: u64,
    feasible: u64,
    /// The session against a from-scratch batch XYI route of its live set.
    inv_batch: InvPower,
    /// The session against XY on its live set.
    inv_xy: InvPower,
    power_mismatches: u64,
    batch_compared: u64,
    batch: RouteScratch,
}

/// One replay through the wire: a fresh server, the preload (timed as
/// set-up) and the script (each request timed, or traced as
/// `serve.request`).
struct WireRun {
    setup_s: f64,
    lat_ms: Vec<f64>,
    script_ms: f64,
    digest: u64,
    server: Server,
}

/// Checks the session's power against `Routing::power` of its live
/// routing, and compares it with XY on the same live set and, at every
/// `batch_every`-th checkpoint, with a from-scratch batch route of it by
/// the session's heuristic.
fn checkpoint(session: &RoutingSession, model: &PowerModel, batch_every: u64, q: &mut Quality) {
    let (cs, routing) = session.live_routing();
    let own = session.power();
    let same = match (&own, &routing.power(&cs, model)) {
        (Ok(a), Ok(b)) => a == b,
        (Err(_), Err(_)) => true,
        _ => false,
    };
    q.power_mismatches += u64::from(!same);
    let total = |r: &Routing| r.power(&cs, model).ok().map(|b| b.total());
    let own = own.ok().map(|b| b.total());
    q.checkpoints += 1;
    q.feasible += u64::from(own.is_some());
    q.inv_xy.add(own, total(&xy_routing(&cs)));
    if q.checkpoints.is_multiple_of(batch_every) {
        let batch = session
            .config()
            .heuristic
            .route_with(&cs, model, &mut q.batch);
        q.inv_batch.add(own, total(&batch));
        q.batch_compared += 1;
    }
}

/// Is `reply` a JSON object with `"ok": true`?
fn reply_ok(reply: &str) -> bool {
    serde_json::from_str::<Value>(reply)
        .ok()
        .and_then(|v| v.get("ok").cloned())
        == Some(Value::Bool(true))
}

/// A fresh server with the preload's lines handled: the set-up.
fn preloaded(p: &ServeParams, preload: &[String], model: &PowerModel) -> Server {
    let mut server = Server::new(
        Mesh::new(p.rows, p.cols),
        model.clone(),
        SessionConfig::default(),
    );
    for line in preload {
        server.handle_line(line);
    }
    server
}

fn wire_run(
    p: &ServeParams,
    script: &Script,
    model: &PowerModel,
    tr: &mut Tracer,
    mut check: Option<&mut Quality>,
) -> WireRun {
    let preload: Vec<String> = script.preload.iter().map(Req::line).collect();
    let (mut server, setup_ms) = common::timed(|| preloaded(p, &preload, model));
    let lines: Vec<String> = script.requests.iter().map(Req::line).collect();
    let mut lat_ms = Vec::with_capacity(lines.len());
    let mut digest = common::FNV_START;
    let start = Instant::now();
    for (k, (line, req)) in lines.iter().zip(&script.requests).enumerate() {
        tr.set_op(k as u64);
        let (reply, t) = common::timed(|| tr.span("serve.request", |_| server.handle_line(line)));
        lat_ms.push(t);
        digest = common::fnv1a(digest, reply.as_bytes());
        if let Some(q) = check.as_deref_mut() {
            q.not_ok += u64::from(!reply_ok(&reply));
            if *req == Req::Report {
                checkpoint(server.session(), model, p.batch_every, q);
            }
        }
    }
    let script_ms = common::ms(start.elapsed());
    WireRun {
        setup_s: setup_ms / 1e3,
        lat_ms,
        script_ms,
        digest,
        server,
    }
}

/// Counters of a bare-session replay's script part.
#[derive(Debug, Default)]
struct BareCounts {
    mutations: u64,
    escalated: u64,
    /// Escalations whose full re-route left the session feasible.
    recovered: u64,
    repair_moves: u64,
}

/// The script replayed on a bare `RoutingSession` (no wire), each
/// mutation in a span named after the `SessionStats` delta it caused:
/// `session.bounded_op`, or for an escalation `session.recovered_op` when
/// the full re-route left the session feasible and `session.escalated_op`
/// when it did not.
fn bare_replay(
    p: &ServeParams,
    script: &Script,
    model: &PowerModel,
    tr: &mut Tracer,
) -> (RoutingSession, BareCounts) {
    let pre = Arc::new(MeshPrecompute::new(Mesh::new(p.rows, p.cols)));
    let mut session = RoutingSession::with_precompute(pre, model.clone(), SessionConfig::default());
    let mut ids: BTreeMap<String, SlotId> = BTreeMap::new();
    let mut counts = BareCounts::default();
    let mut apply = |session: &mut RoutingSession, req: &Req| match req {
        Req::Add { id, comm } => {
            ids.insert(id.clone(), session.add_comm(*comm));
        }
        Req::Remove { id } => {
            let slot = ids.remove(id).expect("scripts only remove live ids");
            session.remove_comm(slot);
        }
        Req::Report => {}
    };
    for r in &script.preload {
        apply(&mut session, r);
    }
    let moves_before = session.stats().repair_moves;
    for (k, req) in script.requests.iter().enumerate() {
        if *req == Req::Report {
            continue;
        }
        tr.set_op(k as u64);
        let before = session.stats().escalations;
        tr.span("session.bounded_op", |_| apply(&mut session, req));
        let escalated = session.stats().escalations > before;
        let recovered = escalated && session.power().is_ok();
        if escalated {
            tr.rename_last(if recovered {
                "session.recovered_op"
            } else {
                "session.escalated_op"
            });
        }
        counts.mutations += 1;
        counts.escalated += u64::from(escalated);
        counts.recovered += u64::from(recovered);
    }
    counts.repair_moves = session.stats().repair_moves - moves_before;
    (session, counts)
}

/// Live `(slot, communication, path)` triples in slot order.
fn live_state(s: &RoutingSession) -> Vec<(usize, Comm, Path)> {
    s.live()
        .map(|(slot, c, p)| (slot.index(), *c, p.clone()))
        .collect()
}

/// Gate: the bare-session replay ends on the served session's paths and
/// work counters.
fn gate_replays(rep: &mut Report, served: &RoutingSession, bare: &RoutingSession) {
    rep.gate(live_state(bare) == live_state(served), || {
        "bare-session replay ends on different paths than the served session".into()
    });
    rep.gate(bare.stats() == served.stats(), || {
        format!(
            "bare-session stats {:?} != served {:?}",
            bare.stats(),
            served.stats()
        )
    });
}

/// The workload's scripts: [`ServeParams::scripts`] independent ones, the
/// first drawn from `seed` itself and the others from odd-multiplier
/// hashes of it (seeds that differ only in their high bits gave scripts
/// whose escalations cost alike).
pub fn scripts(p: &ServeParams, seed: u64) -> Vec<Script> {
    (0..p.scripts as u64)
        .map(|j| {
            let sub = match j {
                0 => seed,
                _ => {
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ j.wrapping_mul(0xD1B5_4A32_D192_ED03)
                }
            };
            Script::generate(p, sub)
        })
        .collect()
}

/// What the checked replay of one script leaves for the later replays to
/// match.
struct Checked {
    digest: u64,
    stats: SessionStats,
}

/// Runs one serve workload.
pub fn run(ctx: &Ctx, p: &ServeParams, rep: &mut Report, tracer: &mut Tracer) {
    let model = pamr_sim::paper_model();
    let scripts = scripts(p, ctx.seed);
    let sum = |f: &dyn Fn(&Script) -> u64| scripts.iter().map(f).sum::<u64>();
    let n = sum(&|s| s.requests.len() as u64);
    rep.count("scripts", scripts.len() as u64);
    rep.count("preload", sum(&|s| s.preload.len() as u64));
    rep.count("requests", n);
    rep.count(
        "script.adds",
        sum(&|s| s.count(|r| matches!(r, Req::Add { .. }))),
    );
    rep.count(
        "script.removes",
        sum(&|s| s.count(|r| matches!(r, Req::Remove { .. }))),
    );
    rep.count("script.reports", sum(&|s| s.count(|r| *r == Req::Report)));

    // Gates, before any number counts: a checked wire replay and a bare
    // session replay of every script.
    let mut q = Quality::default();
    let mut checked = Vec::with_capacity(scripts.len());
    let mut setups = Vec::new();
    let mut first_lat = Vec::new();
    let mut total = SessionStats::default();
    let mut recovered = 0;
    let (mut hits, mut tables) = (0, 0);
    let mut digest = common::FNV_START;
    for script in &scripts {
        let first = wire_run(p, script, &model, &mut Tracer::disabled(), Some(&mut q));
        let session = first.server.session();
        checkpoint(session, &model, 1, &mut q);
        let (bare, bare_counts) = bare_replay(p, script, &model, &mut Tracer::disabled());
        gate_replays(rep, session, &bare);
        let stats = session.stats();
        total.adds += stats.adds;
        total.removes += stats.removes;
        total.repair_moves += stats.repair_moves;
        total.full_reroutes += stats.full_reroutes;
        total.escalations += stats.escalations;
        recovered += bare_counts.recovered;
        let cache = session.precompute().cache_stats();
        hits += cache.0;
        tables += cache.1;
        digest = common::fnv1a(digest, &first.digest.to_le_bytes());
        setups.push(first.setup_s);
        first_lat.extend(first.lat_ms);
        checked.push(Checked {
            digest: first.digest,
            stats,
        });
    }
    rep.attempted += n;
    rep.failed += q.not_ok;
    if q.not_ok > 0 {
        rep.gate_failures
            .push(format!("{} replies were not ok:true", q.not_ok));
    }
    rep.gate(q.power_mismatches == 0, || {
        format!(
            "{} checkpoints where RoutingSession::power differs from Routing::power",
            q.power_mismatches
        )
    });
    if !p.bursts.is_empty() {
        rep.gate(recovered > 0, || {
            "no escalation restored feasibility: the recovering re-route went unmeasured".into()
        });
    }
    rep.count("session.adds", total.adds);
    rep.count("session.removes", total.removes);
    rep.count("session.repair_moves", total.repair_moves);
    rep.count("session.full_reroutes", total.full_reroutes);
    rep.count("session.escalations", total.escalations);
    rep.count("session.recovered_escalations", recovered);
    rep.info("inv_power_vs_xy", Value::Float(q.inv_xy.ratio()));
    rep.count("precompute.hits", hits);
    rep.count("precompute.tables", tables);
    rep.count("checkpoints", q.checkpoints);
    rep.count("feasible_checkpoints", q.feasible);
    rep.count("batch_compared_checkpoints", q.batch_compared);
    rep.count("reply_digest", digest);

    if ctx.trace {
        run_traced(ctx, p, &scripts, &model, rep, tracer, &checked);
        return;
    }

    // Every replay sends the same requests; a request's latency is its
    // minimum over the replays (the checked one included). Only the
    // checked replay's requests count as attempted: later replays are
    // checked as a whole, two gates per script, against its replies and
    // session counters.
    let mut setup_per_replay = vec![setups.iter().sum::<f64>()];
    let mut per_replay = vec![first_lat];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds || per_replay.len() < MIN_REPLAYS {
        let replay = per_replay.len();
        let mut lat = Vec::with_capacity(n as usize);
        let mut setup_s = 0.0;
        for (script, c) in scripts.iter().zip(&checked) {
            let run = wire_run(p, script, &model, &mut Tracer::disabled(), None);
            rep.gate(run.digest == c.digest, || {
                format!("replay {replay}: replies differ from the checked replay")
            });
            rep.gate(run.server.session().stats() == c.stats, || {
                format!("replay {replay}: session stats differ from the checked replay")
            });
            setup_s += run.setup_s;
            lat.extend(run.lat_ms);
        }
        setup_per_replay.push(setup_s);
        per_replay.push(lat);
    }
    rep.info("replays", Value::UInt(per_replay.len() as u64));
    // The set-up of a replay is a fresh server and its preload for every
    // script. Its median over the replays spans the whole run, like the
    // request latencies, rather than one burst of set-ups.
    rep.metric("setup_s", crate::stats::median(&setup_per_replay), "s");
    let lat = crate::stats::per_op_min(&per_replay);
    rep.metric(
        "ops_per_s",
        lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    common::latency_metrics(rep, lat);
    rep.metric("peak_rss_mb", common::peak_rss_mb(), "MiB");
    rep.metric("inv_power_ratio", q.inv_batch.ratio(), "ratio");
    rep.metric(
        "feasible_share",
        q.feasible as f64 / q.checkpoints.max(1) as f64,
        "fraction",
    );
}

/// The traced pass: for every script an untraced and a traced wire replay
/// plus a traced bare-session replay, repeated until the budget is spent.
fn run_traced(
    ctx: &Ctx,
    p: &ServeParams,
    scripts: &[Script],
    model: &PowerModel,
    rep: &mut Report,
    tracer: &mut Tracer,
    checked: &[Checked],
) {
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut counts = BareCounts::default();
    let mut cache = (0, 0);
    let start = Instant::now();
    while traced_ms.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let (mut plain_ms, mut traced_sum_ms) = (0.0, 0.0);
        cache = (0, 0);
        for (script, c) in scripts.iter().zip(checked) {
            let plain = wire_run(p, script, model, &mut Tracer::disabled(), None);
            plain_ms += plain.script_ms;
            let traced = wire_run(p, script, model, tracer, None);
            traced_sum_ms += traced.script_ms;
            let (bare, b) = bare_replay(p, script, model, tracer);
            for d in [plain.digest, traced.digest] {
                rep.gate(d == c.digest, || {
                    "replay replies differ from the checked replay".into()
                });
            }
            gate_replays(rep, traced.server.session(), &bare);
            counts.mutations += b.mutations;
            counts.escalated += b.escalated;
            counts.repair_moves += b.repair_moves;
            let (hits, misses) = bare.precompute().cache_stats();
            cache = (cache.0 + hits, cache.1 + misses);
        }
        untraced_ms.push(plain_ms);
        traced_ms.push(traced_sum_ms);
    }
    let replays = traced_ms.len() as u64;
    let mut totals = tracer.totals();
    let request = totals.get("serve.request").copied().unwrap_or_default();
    let session_ns: u64 = [
        "session.bounded_op",
        "session.escalated_op",
        "session.recovered_op",
    ]
    .iter()
    .filter_map(|l| totals.get(l))
    .map(|t| t.self_ns)
    .sum();
    totals.insert(
        "serve.wire",
        LayerTotal {
            self_ns: request.self_ns.saturating_sub(session_ns),
            calls: request.calls,
        },
    );
    common::emit_layers(rep, &totals, request.self_ns, replays);
    let mutations = counts.mutations.max(1) as f64;
    Derived {
        escalation_share: counts.escalated as f64 / mutations,
        repair_moves_per_op: counts.repair_moves as f64 / mutations,
        hit_ratio: common::hit_ratio(cache),
        tables: cache.1 as f64,
        trace_overhead: crate::stats::median(&traced_ms) / crate::stats::median(&untraced_ms) - 1.0,
        ..Derived::default()
    }
    .emit(rep);
    rep.info("replays", Value::UInt(replays));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_reproduced_exactly_from_their_seed() {
        for p in [CHURN, SATURATED] {
            let all = scripts(&p, 11);
            assert_eq!(all.len(), p.scripts);
            assert_eq!(all, scripts(&p, 11));
            assert_eq!(all[0], Script::generate(&p, 11));
            assert!(all.iter().skip(1).all(|s| *s != all[0]), "independent");
            let a = Script::generate(&p, 11);
            assert_eq!(a, Script::generate(&p, 11));
            assert_ne!(a, Script::generate(&p, 12));
            assert_eq!(a.preload.len(), p.preload);
            assert_eq!(a.requests.len(), p.requests);
            let lines = |s: &Script| -> Vec<String> { s.requests.iter().map(Req::line).collect() };
            assert_eq!(lines(&a), lines(&Script::generate(&p, 11)));
        }
    }

    #[test]
    fn scripts_only_remove_live_ids_and_keep_the_shape() {
        for p in [CHURN, SATURATED] {
            let s = Script::generate(&p, 3);
            let mut live: std::collections::BTreeSet<String> = s
                .preload
                .iter()
                .map(|r| match r {
                    Req::Add { id, comm } => {
                        assert_eq!(comm.src.manhattan(comm.snk), p.len);
                        assert!((p.w_min..=p.w_max).contains(&comm.weight));
                        id.clone()
                    }
                    _ => panic!("preload holds only adds"),
                })
                .collect();
            for (k, r) in s.requests.iter().enumerate() {
                match r {
                    Req::Add { id, .. } => assert!(live.insert(id.clone()), "fresh id"),
                    Req::Remove { id } => assert!(live.remove(id), "{id} is live"),
                    Req::Report => assert_eq!((k + 1) % p.report_every, 0),
                }
            }
            let adds = s.count(|r| matches!(r, Req::Add { .. })) as f64;
            let removes = s.count(|r| matches!(r, Req::Remove { .. })) as f64;
            assert!((adds / (adds + removes) - 0.5).abs() < 0.1, "about 50/50");
        }
    }

    #[test]
    fn every_fourth_saturated_mutation_is_a_burst_every_other_one_over_capacity() {
        let s = Script::generate(&SATURATED, 4);
        let mutations: Vec<&Req> = s.requests.iter().filter(|r| **r != Req::Report).collect();
        for (m, r) in mutations.iter().enumerate() {
            let weight = match r {
                Req::Add { comm, .. } => comm.weight,
                _ => 0.0,
            };
            let (w_burst, w_over) = (weight >= 3200.0, weight >= 3600.0);
            assert_eq!(w_burst, m % 4 == 0, "mutation {m}: {r:?}");
            assert_eq!(w_over, m % 8 == 0, "mutation {m}: {r:?}");
        }
    }

    const TINY: ServeParams = ServeParams {
        rows: 6,
        cols: 6,
        preload: 12,
        len: 3,
        w_min: 100.0,
        w_max: 800.0,
        scripts: 1,
        requests: 40,
        report_every: 10,
        bursts: &[],
        batch_every: 1,
    };

    #[test]
    fn gates_fire_on_a_corrupted_replay_and_reply() {
        let model = pamr_sim::paper_model();
        let script = Script::generate(&TINY, 1);
        let mut q = Quality::default();
        let run = wire_run(
            &TINY,
            &script,
            &model,
            &mut Tracer::disabled(),
            Some(&mut q),
        );
        assert_eq!((q.not_ok, q.power_mismatches), (0, 0));
        let (bare, _) = bare_replay(&TINY, &script, &model, &mut Tracer::disabled());
        let mut rep = Report::default();
        gate_replays(&mut rep, run.server.session(), &bare);
        assert!(rep.correct(), "{:?}", rep.gate_failures);

        // A bare replay of a script with one extra request ends elsewhere.
        let mut corrupted = script.clone();
        corrupted.requests.push(Req::Add {
            id: "extra".into(),
            comm: Comm::new(
                pamr_mesh::Coord::new(0, 0),
                pamr_mesh::Coord::new(2, 1),
                300.0,
            ),
        });
        let (bare, _) = bare_replay(&TINY, &corrupted, &model, &mut Tracer::disabled());
        gate_replays(&mut rep, run.server.session(), &bare);
        assert!(!rep.correct());
        assert_eq!(rep.failed, 2, "paths and stats both differ");

        let mut server = run.server;
        let reply = server.handle_line(&Req::Remove { id: "nope".into() }.line());
        assert!(!reply_ok(&reply), "{reply}");
        assert!(!reply_ok("not json"));
        assert!(reply_ok(&server.handle_line(&Req::Report.line())));
    }

    #[test]
    fn wire_lines_parse_back_to_the_scripted_request() {
        let s = Script::generate(&SATURATED, 5);
        let Req::Add { comm, .. } = &s.preload[0] else {
            panic!("preload starts with an add")
        };
        let v: Value = serde_json::from_str(&s.preload[0].line()).unwrap();
        let Some(Value::Float(w)) = v.get("weight") else {
            panic!("weight is a float")
        };
        assert_eq!(w.to_bits(), comm.weight.to_bits());
    }
}
