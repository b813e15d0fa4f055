//! One module has one byte string: `Module::to_bytes` depends on the
//! module alone, so a module compiled twice serializes the same, the
//! image it writes for any shipped module decodes and re-encodes to the
//! same bytes, and those bytes match the digest pinned for the module in
//! `module_bytes.txt`.
//!
//! The reference has one line per module, in `shipped_modules` order:
//! `<position> <name> <digest>`, the digest being FNV-1a 64 of
//! `to_bytes` in hex. FNV-1a is fixed by its definition, so the reference
//! holds across Rust releases and hosts. On a mismatch the test names the
//! first module whose digest moved and writes every digest it computed
//! to cargo's temporary directory for integration tests
//! (`target/tmp/module_bytes.txt`). A change that means to move a
//! module's bytes re-baselines by copying that file over
//! `tests/module_bytes.txt`, and says why.

use mcfi::{compile_module, Arch, BuildOptions, DecodeLimits, Module};
use mcfi_chaos::fnv64;
use mcfi_netsim::guest::{server_source, HANDLERS_V1_SRC, HANDLERS_V2_SRC};
use mcfi_workloads::{source, Variant, BENCHMARKS};

fn compile(name: &str, src: &str, arch: Arch) -> Module {
    let opts = BuildOptions { arch, ..BuildOptions::default() };
    compile_module(name, src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The PLT stub the loader places for `symbol`: a one-branch
/// pseudo-module, as `Process` builds it.
fn plt_stub(symbol: &str, got_slot: u64) -> Module {
    let stub = mcfi_linker::build_plt_stub(symbol, got_slot);
    let mut m = Module::new(format!("__plt_{symbol}"));
    m.code = stub.code;
    let mut branch = stub.branch;
    branch.local_slot = 0;
    m.aux.indirect_branches.push(branch);
    m
}

/// Every module the repository ships: the 12 workloads in both
/// architectures, the standard modules (syscall stubs, libms, start) in
/// both, the netsim guests and three PLT stubs.
fn shipped_modules() -> Vec<Module> {
    let mut modules = Vec::new();
    for arch in [Arch::X86_64, Arch::X86_32] {
        modules.extend(BENCHMARKS.map(|b| compile(b, &source(b, Variant::Fixed), arch)));
        let opts = BuildOptions { arch, ..BuildOptions::default() };
        modules.extend(mcfi::standard_modules(&opts).expect("the standard modules build"));
    }
    modules.extend([
        compile("nethandlers", HANDLERS_V1_SRC, Arch::X86_64),
        compile("nethandlers_v2", HANDLERS_V2_SRC, Arch::X86_64),
        compile("netserver", &server_source(false), Arch::X86_64),
        compile("netserver", &server_source(true), Arch::X86_64),
        plt_stub("qsort", 0x40_0000),
        plt_stub("never_defined_anywhere", 0x40_0008),
        plt_stub("nh2_syn", 0x40_0010),
    ]);
    modules
}

const REFERENCE: &str = include_str!("module_bytes.txt");

#[test]
fn every_shipped_module_serializes_to_its_pinned_digest() {
    let rendered: String = shipped_modules()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let bytes = m.to_bytes().unwrap_or_else(|e| panic!("{}: {e}", m.name));
            format!("{i:02} {} {:016x}\n", m.name, fnv64(&bytes))
        })
        .collect();
    if rendered == REFERENCE {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("module_bytes.txt");
    std::fs::write(&path, &rendered).expect("writes the rendered digests");
    let (expected, actual): (Vec<&str>, Vec<&str>) =
        (REFERENCE.lines().collect(), rendered.lines().collect());
    let first = (0..expected.len().max(actual.len()))
        .find(|&i| expected.get(i) != actual.get(i))
        .expect("the two differ somewhere");
    let line = actual.get(first).or(expected.get(first)).copied().unwrap_or_default();
    let name = line.split(' ').nth(1).unwrap_or(line);
    panic!(
        "the bytes of shipped module {} (position {first}) moved\n  reference: {:?}\n  \
         rendered:  {:?}\n({} reference lines, {} rendered; all rendered digests are in {})",
        name,
        expected.get(first),
        actual.get(first),
        expected.len(),
        actual.len(),
        path.display()
    );
}

#[test]
fn every_shipped_module_is_a_byte_fixpoint_of_decode_and_encode() {
    for m in shipped_modules() {
        let bytes = m.to_bytes().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        let decoded = Module::decode_image(&bytes, &DecodeLimits::admission())
            .unwrap_or_else(|e| panic!("{}: {e}", m.name));
        let again = decoded.to_bytes().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        assert!(again == bytes, "{}: decode then encode changed the bytes", m.name);
    }
}

/// Each compile builds a fresh type environment, so a map whose order
/// depended on per-instance hashing state would write its entries in a
/// different order from one compile to the next.
#[test]
fn a_module_compiled_eight_times_serializes_to_one_byte_string() {
    const SRC: &str = "\
typedef int count;\n\
typedef char* text;\n\
typedef count (*step)(count);\n\
struct point { count x; count y; };\n\
struct label { text name; struct point at; };\n\
struct op { step apply; count bias; };\n\
count twice(count v) { return v * 2; }\n\
int main(void) {\n\
  struct op o;\n\
  struct label l;\n\
  o.apply = twice;\n\
  o.bias = 1;\n\
  l.at.x = twice(20);\n\
  return l.at.x + o.bias;\n\
}\n";
    let bytes = |_| compile("types", SRC, Arch::X86_64).to_bytes().expect("serializes");
    let first = bytes(0);
    for i in 1..8 {
        assert!(bytes(i) == first, "compile {i} serialized to other bytes");
    }
}
