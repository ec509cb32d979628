//! Compiled-backend comparison: handwritten vs derived-interpreted vs
//! derived-on-VM checker throughput on the Figure 3 workloads.
//!
//! ```text
//! cargo run -p indrel-bench --release --bin vm
//! cargo run -p indrel-bench --release --bin vm -- --json [PATH]
//! ```
//!
//! `--json` writes the comparison as one machine-readable document
//! (schema `indrel.bench.vm/2`, default path `BENCH_vm.json`).
//!
//! Environment: `VM_BUDGET_MS` (wall-clock budget per throughput run,
//! default 1500).

use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if a == "--json" {
            let path = match it.peek() {
                Some(p) if !p.starts_with('-') => it.next().unwrap().clone(),
                _ => "BENCH_vm.json".to_string(),
            };
            json_path = Some(path);
        }
    }
    let budget = Duration::from_millis(
        std::env::var("VM_BUDGET_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1500),
    );
    if let Some(path) = json_path {
        let doc = indrel_bench::vm::vm_json(budget);
        std::fs::write(&path, format!("{doc}\n")).expect("write JSON output");
        println!("wrote {path}");
        return;
    }
    println!("Compiled backend: tests/second, checker workloads of Figure 3");
    println!("(ratios are vs handwritten; speedup is VM vs interpreter)");
    for r in indrel_bench::vm::checkers(budget) {
        println!("  {r}");
    }
}
