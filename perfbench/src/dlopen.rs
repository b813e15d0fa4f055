//! `dlopen`: each request admits one new seeded plugin image into a
//! long-lived host through the untrusted path (`Process::load_image`:
//! decode under admission budgets, verify, load, regenerate the CFG,
//! TxUpdate), then has the guest `dlsym` one of its functions and call it
//! through a pointer. The host is replaced after a fixed number of
//! plugins, so each host's life spans small and large module sets. Plugin
//! shapes are fixed by position in a host's life; the seed sets their
//! constants, the function called and its argument.

use mcfi_codegen::Policy;
use mcfi_module::Module;
use mcfi_runtime::{Outcome as Exit, Process};

use crate::trace::Tracer;
use crate::{boot, compile, count_run, probe_checkpoint, probe_tables, standard_modules};
use crate::{for_seconds, Outcome, Params, Rng, Scale, Stopwatch};

/// Plugins a host admits before it is replaced.
const HOST_PLUGINS: usize = 96;
/// Plugins of the untimed warm-up host.
const WARMUP_PLUGINS: usize = 16;

const HOST_SRC: &str = "\
void* dlsym(char* name);\n\
char plugin_sym[32];\n\
int plugin_arg = 0;\n\
int main(void) {\n\
  int (*f)(int) = (int(*)(int))dlsym(plugin_sym);\n\
  if (!f) { return -1; }\n\
  return f(plugin_arg);\n\
}\n";

/// One generated plugin: its untrusted image, the function the guest
/// calls, the argument, and the value the generator predicts.
struct Plugin {
    image: Vec<u8>,
    symbol: String,
    arg: i64,
    want: i64,
}

/// Plugin `k` of a host's life: `1 + k % 4` functions, each looping
/// `k % 5` times over `a = (a * m + x + i) % 65521` from its own `c`.
fn plugin(tr: &mut Tracer, out: &mut Outcome, rng: &mut Rng, k: usize) -> Plugin {
    let (funcs, loops) = (1 + k % 4, (k % 5) as i64);
    let consts: Vec<(i64, i64)> = (0..funcs)
        .map(|_| (rng.below(60_000) as i64, 2 + rng.below(90) as i64))
        .collect();
    let mut src = String::new();
    for (j, (c, m)) in consts.iter().enumerate() {
        src.push_str(&format!(
            "int p{k}_f{j}(int x) {{ int a = {c}; int i = 0; \
             while (i < {loops}) {{ a = (a * {m} + x + i) % 65521; i = i + 1; }} return a; }}\n"
        ));
    }
    let module: Module = compile(tr, out, &format!("plugin{k}"), &src, Policy::Mcfi);
    let j = rng.below(funcs as u64) as usize;
    let arg = rng.below(1000) as i64;
    let (c, m) = consts[j];
    let want = (0..loops).fold(c, |a, i| (a * m + arg + i) % 65521);
    Plugin {
        image: module.to_bytes().expect("modules serialize"),
        symbol: format!("p{k}_f{j}"),
        arg,
        want,
    }
}

/// Admits `pl` and calls its function; returns the call's result.
fn serve(
    tr: &mut Tracer,
    out: &mut Outcome,
    host: &mut Process,
    pl: &Plugin,
) -> Result<i64, String> {
    let image = pl.image.clone();
    tr.span("runtime.load_image", || host.load_image(image))
        .map_err(|e| e.to_string())?;
    let sym = host.global("plugin_sym").expect("host exports plugin_sym");
    let mut name = pl.symbol.clone().into_bytes();
    name.push(0);
    host.poke(sym, &name).map_err(|e| format!("{e:?}"))?;
    host.poke_global_int("plugin_arg", pl.arg);
    let r = tr
        .span("runtime.run", || host.run("__start"))
        .map_err(|e| e.to_string())?;
    count_run(tr, out, &r);
    match r.outcome {
        Exit::Exit { code } => Ok(code),
        other => Err(format!("{other:?}")),
    }
}

pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let full = p.scale == Scale::Full;
    let mut rng = Rng::new(p.seed);
    let plugins: Vec<Plugin> = (0..if full { HOST_PLUGINS } else { 8 })
        .map(|k| plugin(tr, &mut out, &mut rng, k))
        .collect();
    out.latencies_us.push(Vec::new());
    let mut request = 0u64;
    // Each host's life starts with a cold set-up: compile and boot it.
    let mut life = |out: &mut Outcome, tr: &mut Tracer, plugins: &[Plugin], timed: bool| {
        let t = Stopwatch::start();
        let (mut modules, start) = standard_modules(tr, out, Policy::Mcfi);
        modules.push(compile(tr, out, "host", HOST_SRC, Policy::Mcfi));
        modules.push(start);
        let mut host = boot(tr, modules);
        out.setup(t.read());
        for (k, pl) in plugins.iter().enumerate() {
            request += 1;
            tr.set_request(request);
            if tr.enabled() {
                let module = tr.span("module.decode_image", || {
                    Module::decode_image(&pl.image, &mcfi_module::DecodeLimits::admission())
                });
                match module {
                    Ok(m) => {
                        let report = tr.span("verifier.verify", || mcfi_verifier::verify(&m));
                        if !report.ok() {
                            out.fail(format!("plugin {k}: verifier rejects it"));
                        }
                    }
                    Err(e) => out.fail(format!("plugin {k}: {e}")),
                }
            }
            let updates0 = host.tables().updates_since_reset();
            let t = Stopwatch::start();
            let root = tr.begin("dlopen.request");
            let got = serve(tr, out, &mut host, pl);
            tr.end(root);
            let latency = t.read();
            let ok = got == Ok(pl.want);
            out.request(ok, || {
                format!("plugin {k} {}: {got:?}, predicted {}", pl.symbol, pl.want)
            });
            if timed {
                out.timed(0, latency, t.read());
            }
            if tr.enabled() && k == 0 {
                let updates = host.tables().updates_since_reset() - updates0;
                out.add("first_request_updates", updates as f64);
                out.add("first_requests", 1.0);
            }
        }
        if tr.enabled() {
            probe_tables(tr, out, &host);
            probe_checkpoint(tr, &mut host);
        }
    };

    if full {
        life(&mut out, tr, &plugins[..WARMUP_PLUGINS], false);
    }
    for_seconds(if full { p.seconds } else { 0.0 }, 1, |_| {
        life(&mut out, tr, &plugins, true);
    });
    out
}
