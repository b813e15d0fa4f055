//! `fleet`: each request is one tick of the default single-threaded
//! driver (`Fleet::run_requests(1)`, `Schedule::Seeded`) over eight
//! self-driving network tenants. The only path through `Supervisor::run`
//! and the fleet driver. The seed sets the schedule; every tenant runs
//! the same guest, so its n-th served result is the same whichever
//! tenant serves it.

use mcfi_codegen::Policy;
use mcfi_fleet::{Fleet, FleetOptions, Schedule, TenantSpec};
use mcfi_netsim::{guest, tenant_spec};
use mcfi_runtime::stdlib;
use mcfi_supervisor::Supervisor;

use crate::reference;
use crate::trace::Tracer;
use crate::{boot, compile, probe_tables};
use crate::{for_seconds, Lap, Outcome, Params, Scale, Stopwatch};

/// Tenants per fleet.
const TENANTS: usize = 8;
/// Independently booted fleets the timed phase alternates between.
const FLEETS: usize = 2;
/// Timed requests between two further cold set-ups, which spread the
/// set-up samples over the run as the requests are.
const SETUP_EVERY: u64 = 128;
/// Served requests per tenant before timing: the guest binds its handlers
/// on its first request and hot-reloads them on its seventeenth.
const WARM_SERVED: u64 = 18;
/// Served counts whose tenant digest `expected.txt` records.
const REF_POINTS: [u64; 7] = [1, 2, 4, 16, 17, 18, 32];
/// In a traced run, the side tenant is probed after every this many
/// fleet requests.
const PROBE_EVERY: u64 = 4;

fn specs(n: usize) -> Vec<TenantSpec> {
    (0..n).map(|i| tenant_spec(&format!("t{i}"))).collect()
}

/// One fleet with the state the per-request check needs.
struct Pool {
    fleet: Fleet,
    requests: Vec<u64>,
}

/// `digests[k - 1]`: the digest of a tenant that has served `k` requests,
/// as first observed; every later tenant must agree.
#[derive(Default)]
struct Chain {
    digests: Vec<u64>,
}

impl Pool {
    /// Serves one request (in a `fleet.request` span if `timed`) and
    /// checks the picked tenant's digest. Returns whether the request
    /// passed and its latency.
    fn tick(
        &mut self,
        tr: &mut Tracer,
        out: &mut Outcome,
        chain: &mut Chain,
        timed: bool,
    ) -> (bool, Lap) {
        let t = Stopwatch::start();
        if timed {
            tr.span("fleet.request", || self.fleet.run_requests(1));
        } else {
            self.fleet.run_requests(1);
        }
        let latency = t.read();
        let stats = self.fleet.stats();
        let Some((i, ts)) = stats
            .per_tenant
            .iter()
            .enumerate()
            .find(|(i, ts)| ts.requests != self.requests[*i])
        else {
            out.request(false, || "no tenant was picked".to_string());
            return (false, latency);
        };
        self.requests[i] = ts.requests;
        let served = ts.served;
        let checked = if served != ts.requests {
            Err(format!(
                "{} shed {} of {} requests",
                ts.name,
                ts.requests - served,
                ts.requests
            ))
        } else if let Some(&want) = chain.digests.get(served as usize - 1) {
            if want == ts.digest {
                Ok(())
            } else {
                Err(format!(
                    "{} result {served}: digest {:016x}, peers {want:016x}",
                    ts.name, ts.digest
                ))
            }
        } else {
            chain.digests.push(ts.digest);
            Ok(())
        };
        let checked = checked.and_then(|()| {
            if REF_POINTS.contains(&served) {
                reference::matches(
                    "fleet",
                    &format!("served{served}"),
                    &format!("{:016x}", ts.digest),
                )
            } else {
                Ok(())
            }
        });
        let ok = checked.is_ok();
        out.request(ok, || checked.unwrap_err());
        (ok, latency)
    }
}

/// A side tenant built the way the fleet builds one, for the traced
/// run's `Supervisor::run`, `checkpoint_now` and `Process::run` probes.
fn side_tenant(tr: &mut Tracer, out: &mut Outcome) -> Supervisor {
    for (name, src) in [
        ("libms", stdlib::LIBMS_SRC.to_string()),
        ("start", stdlib::START_SRC.to_string()),
        ("nethandlers", guest::HANDLERS_V1_SRC.to_string()),
        ("netserver", guest::server_source(true)),
        (guest::RELOAD_LIBRARY, guest::HANDLERS_V2_SRC.to_string()),
    ] {
        compile(tr, out, name, &src, Policy::Mcfi);
    }
    let spec = tenant_spec("side");
    let mut p = boot(tr, spec.modules.clone());
    for (name, module) in &spec.libraries {
        p.register_library(name, module.clone());
    }
    let mut sup = Supervisor::new(p, spec.recovery);
    let updates0 = sup.process().tables().updates_since_reset();
    sup.run(&spec.entry).expect("side tenant serves");
    out.add(
        "first_request_updates",
        (sup.process().tables().updates_since_reset() - updates0) as f64,
    );
    out.add("first_requests", 1.0);
    for _ in 1..WARM_SERVED {
        sup.run(&spec.entry).expect("side tenant serves");
    }
    sup
}

fn probe_side(tr: &mut Tracer, out: &mut Outcome, sup: &mut Supervisor) {
    tr.span("supervisor.checkpoint", || {
        std::hint::black_box(sup.process_mut().checkpoint_now().digest());
    });
    tr.span("supervisor.run", || sup.run("__start"))
        .expect("side tenant serves");
    let r = tr
        .span("runtime.run", || sup.process_mut().run("__start"))
        .expect("side tenant serves");
    crate::count_run(tr, out, &r);
}

pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let full = p.scale == Scale::Full;
    let (tenants, fleets) = if full { (TENANTS, FLEETS) } else { (2, 1) };
    // A cold set-up builds every tenant spec (compiling its guest) and
    // boots the fleet.
    let setup = |tr: &mut Tracer, out: &mut Outcome, s: u64| {
        let t = Stopwatch::start();
        let specs = specs(tenants);
        let opts = FleetOptions {
            schedule: Schedule::Seeded(p.seed + s),
            ..FleetOptions::default()
        };
        let fleet = tr
            .span("fleet.new", || Fleet::new(specs, opts))
            .expect("fleet boots");
        out.setup(t.read());
        fleet
    };
    let mut pools: Vec<Pool> = (0..fleets as u64)
        .map(|s| Pool {
            fleet: setup(tr, &mut out, s),
            requests: vec![0; tenants],
        })
        .collect();
    let mut side = tr.enabled().then(|| side_tenant(tr, &mut out));
    if let Some(sup) = side.as_ref() {
        probe_tables(tr, &mut out, sup.process());
    }

    let mut chain = Chain::default();
    for pool in &mut pools {
        let mut ticks = 0;
        while pool.requests.iter().any(|&r| r < WARM_SERVED) && ticks < 100 * WARM_SERVED {
            ticks += 1;
            pool.tick(tr, &mut out, &mut chain, false);
        }
    }

    out.latencies_us = vec![Vec::new(); pools.len()];
    let mut request = 0u64;
    for_seconds(if full { p.seconds } else { 0.0 }, 1, |_| {
        // One request per fleet per round; a borrowed pass makes 16.
        for _ in 0..if full { 1 } else { 16 } {
            for (f, pool) in pools.iter_mut().enumerate() {
                request += 1;
                tr.set_request(request);
                let t = Stopwatch::start();
                let (ok, latency) = pool.tick(tr, &mut out, &mut chain, true);
                if ok {
                    out.timed(f, latency, t.read());
                }
                if let Some(sup) = side
                    .as_mut()
                    .filter(|_| request.is_multiple_of(PROBE_EVERY))
                {
                    probe_side(tr, &mut out, sup);
                }
                if full && request.is_multiple_of(SETUP_EVERY) {
                    drop(setup(tr, &mut out, request));
                }
            }
        }
    });

    if tr.enabled() {
        let (served, requests) = pools.iter().fold((0, 0), |(s, r), pool| {
            let st = pool.fleet.stats();
            (s + st.served, r + st.requests)
        });
        out.add("served_pct", 100.0 * served as f64 / requests.max(1) as f64);
    }
    out
}
