//! `net`: each request is one `NetServer::drive` of one segment, from
//! seeded `PacketGen` scripts with adversarial traffic on. A round boots
//! fresh servers, settles each with a warm-up script, then drives a fixed
//! pool of scripts; the seed sets which server gets which scripts and in
//! what order. Past its first script a server's flood-connection state is
//! the same after every script, so each script's settled stream — and the
//! request mix — is the same for every seed.

use mcfi_codegen::Policy;
use mcfi_netsim::{guest, NetConfig, NetServer, PacketGen, Segment, TrafficSpec};
use mcfi_runtime::{Outcome as Exit, Process};

use crate::reference;
use crate::stats::fnv64;
use crate::trace::Tracer;
use crate::{boot, compile, count_run, probe_checkpoint, probe_tables, standard_modules};
use crate::{for_seconds, Outcome, Params, Rng, Scale, Stopwatch};

/// `PacketGen` seed of the script that settles a fresh server.
const WARMUP_SCRIPT: u64 = 99;
/// Scripts in the timed pool. `PacketGen` forces its seed odd, so the
/// pool's seeds are the odd numbers from 101.
const POOL: usize = 32;
/// Independently booted servers per round.
const INSTANCES: usize = 4;
/// Passes each server makes over its share of the pool per round.
const PASSES: usize = 2;

fn script(seed: u64) -> Vec<Segment> {
    PacketGen::new(seed).script(&TrafficSpec {
        seed,
        conns: 6,
        adversarial: true,
    })
}

fn server(policy: Policy) -> NetServer {
    NetServer::boot(policy, NetConfig::default()).expect("net guest boots")
}

/// Drives one segment; fails if the drive errors or the client gives up.
fn drive(srv: &mut NetServer, seg: &Segment) -> Result<mcfi_netsim::NetOutcome, String> {
    let o = srv
        .drive(std::slice::from_ref(seg))
        .map_err(|e| e.to_string())?;
    if o.stats.give_ups > 0 {
        return Err(format!("client gave up on {seg:?}"));
    }
    Ok(o)
}

/// Settled-stream digest and simulated cycles of one script on a settled
/// server.
fn settle(srv: &mut NetServer, segs: &[Segment]) -> (u64, u64) {
    let mut stream = Vec::new();
    let mut cycles = 0;
    for seg in segs {
        let o = drive(srv, seg).expect("the reference leg never fails");
        stream.extend_from_slice(&o.stream);
        cycles += o.stats.cycles;
    }
    (fnv64(&stream), cycles)
}

/// A side instance of the MCFI server guest, booted by the benchmark from
/// the same modules `NetServer::boot` loads, so a traced run can time
/// `Process::run` on the exact bytes a server was driven with.
struct Side {
    proc: Process,
    rx: u64,
    tx: u64,
}

impl Side {
    fn boot(tr: &mut Tracer, out: &mut Outcome) -> Side {
        let (mut modules, start) = standard_modules(tr, out, Policy::Mcfi);
        modules.push(compile(
            tr,
            out,
            "nethandlers",
            guest::HANDLERS_V1_SRC,
            Policy::Mcfi,
        ));
        modules.push(compile(
            tr,
            out,
            "netserver",
            &guest::server_source(false),
            Policy::Mcfi,
        ));
        modules.push(start);
        let mut proc = boot(tr, modules);
        let v2 = compile(
            tr,
            out,
            guest::RELOAD_LIBRARY,
            guest::HANDLERS_V2_SRC,
            Policy::Mcfi,
        );
        proc.register_library(guest::RELOAD_LIBRARY, v2);
        let rx = proc.global("net_rx").expect("guest exports net_rx");
        let tx = proc.global("net_tx").expect("guest exports net_tx");
        Side { proc, rx, tx }
    }

    /// Delivers `seg` through the mailbox and runs one request; `timed`
    /// puts the run in a `runtime.run` span.
    fn deliver(
        &mut self,
        tr: &mut Tracer,
        out: &mut Outcome,
        seg: &Segment,
        timed: bool,
    ) -> Vec<u8> {
        let bytes = seg.encode();
        self.proc.poke(self.rx, &bytes).expect("mailbox is mapped");
        self.proc.poke_global_int("net_rx_len", bytes.len() as i64);
        let r = if timed {
            let r = tr.span("runtime.run", || self.proc.run("__start"));
            count_run(tr, out, r.as_ref().expect("__start is exported"));
            r
        } else {
            self.proc.run("__start")
        }
        .expect("__start is exported");
        if !matches!(r.outcome, Exit::Exit { .. }) {
            return format!("{:?}", r.outcome).into_bytes();
        }
        let len = self
            .proc
            .peek_global_int("net_tx_len")
            .unwrap_or(0)
            .clamp(0, 96) as usize;
        self.proc.peek(self.tx, len).expect("mailbox is mapped")
    }
}

pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let full = p.scale == Scale::Full;
    let (instances, pool_len, passes) = if full {
        (INSTANCES, POOL, PASSES)
    } else {
        (2, 4, 1)
    };
    let warmup = script(WARMUP_SCRIPT);
    let pool: Vec<(u64, Vec<Segment>)> = (0..pool_len as u64)
        .map(|k| 101 + 2 * k)
        .map(|s| (s, script(s)))
        .collect();

    // The NoCfi leg on the same scripts: the stream every MCFI server must
    // settle to, and the cycle base of the simulated overhead.
    let mut plain = server(Policy::NoCfi);
    settle(&mut plain, &warmup);
    let plain_ref: Vec<(u64, u64)> = pool.iter().map(|(_, s)| settle(&mut plain, s)).collect();
    let mut hardened_cycles = vec![0u64; pool.len()];

    let mut rng = Rng::new(p.seed);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    let share = pool.len() / instances;
    out.latencies_us = vec![Vec::new(); instances];
    let mut request = 0u64;

    for_seconds(if full { p.seconds } else { 0.0 }, 1, |round| {
        let mut side = (tr.enabled() && round == 0).then(|| Side::boot(tr, &mut out));
        // Set-up: boot, plus the first request, which binds the five
        // handlers through `dlsym` (five update transactions).
        let mut servers: Vec<NetServer> = (0..instances)
            .map(|i| {
                let t = Stopwatch::start();
                let mut srv = tr.span("netsim.boot", || server(Policy::Mcfi));
                let updates0 = srv.process().tables().updates_since_reset();
                let first = tr.span("netsim.first_drive", || drive(&mut srv, &warmup[0]));
                out.setup(t.read());
                out.request(first.is_ok(), || {
                    format!("first request: {:?}", first.err())
                });
                if tr.enabled() {
                    let updates = srv.process().tables().updates_since_reset() - updates0;
                    out.add("first_request_updates", updates as f64);
                    out.add("first_requests", 1.0);
                }
                for seg in &warmup[1..] {
                    let o = drive(&mut srv, seg);
                    out.request(o.is_ok(), || format!("warm-up: {:?}", o.err()));
                }
                if i == 0 {
                    if let Some(side) = side.as_mut() {
                        for seg in &warmup {
                            side.deliver(tr, &mut out, seg, false);
                        }
                    }
                }
                srv
            })
            .collect();
        if tr.enabled() {
            probe_tables(tr, &mut out, servers[0].process());
        }
        for _ in 0..passes {
            for j in 0..share {
                for (i, srv) in servers.iter_mut().enumerate() {
                    let k = order[i * share + j];
                    let (id, segs) = &pool[k];
                    let mut stream = Vec::new();
                    let mut cycles = 0;
                    let mut settled = true;
                    for seg in segs {
                        request += 1;
                        tr.set_request(request);
                        let t = Stopwatch::start();
                        let o = tr.span("netsim.drive", || drive(srv, seg));
                        let latency = t.read();
                        out.request(o.is_ok(), || format!("script {id}: {:?}", o.as_ref().err()));
                        let Ok(o) = o else {
                            settled = false;
                            continue;
                        };
                        stream.extend_from_slice(&o.stream);
                        cycles += o.stats.cycles;
                        out.timed(i, latency, t.read());
                        if tr.enabled() {
                            out.add("net_attempts", o.stats.attempts as f64);
                            out.add("net_segments", o.stats.segments as f64);
                            if let (0, Some(side)) = (i, side.as_mut()) {
                                out.add("mirrored_drive_us", latency.wall_s * 1e6);
                                out.add("mirrored_drives", 1.0);
                                if side.deliver(tr, &mut out, seg, true) != o.stream {
                                    out.fail(format!("script {id}: side instance disagrees"));
                                }
                            }
                        }
                    }
                    if !settled {
                        continue;
                    }
                    let digest = format!("{:016x}", fnv64(&stream));
                    let checked = reference::matches("net", &format!("script{id}"), &digest)
                        .and_then(|()| {
                            let want = format!("{:016x}", plain_ref[k].0);
                            if digest == want {
                                Ok(())
                            } else {
                                Err(format!(
                                    "script {id}: MCFI {digest} differs from NoCfi {want}"
                                ))
                            }
                        });
                    if let Err(e) = checked {
                        out.fail(e);
                    }
                    hardened_cycles[k] = cycles;
                }
            }
        }
        if let Some(side) = side.as_mut() {
            probe_checkpoint(tr, &mut side.proc);
        }
    });

    let hardened: u64 = hardened_cycles.iter().sum();
    let base: u64 = plain_ref.iter().map(|r| r.1).sum();
    out.sim_overhead_pct = Some(100.0 * (hardened as f64 / base as f64 - 1.0));
    out
}
