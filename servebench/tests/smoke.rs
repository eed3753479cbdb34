//! Tiny-scale smoke test: every workload end to end, untraced and
//! traced, with the oracle checks on. Each run must be correct, report
//! every metric `BENCHMARK.json` names for its mode, and mark itself as
//! not comparable. The runs write their records under `out/`.

use std::process::Command;

/// The `"name"` values of one list in `BENCHMARK.json`.
fn names(list: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let end = json[start..].find(']').map_or(json.len(), |i| start + i);
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn run(workload: &str, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = lines.next().expect("result line").to_string();
    let meta = lines.next().expect("meta line").to_string();
    (meta, result)
}

/// Every workload the benchmark runs; `BENCHMARK.json` gates a subset.
const WORKLOADS: [&str; 3] = ["bulk_ingest", "windowed_mixed", "cluster_k4"];

#[test]
fn every_workload_runs_checked_end_to_end() {
    for gated in names("workloads") {
        assert!(
            WORKLOADS.contains(&gated.as_str()),
            "unknown workload {gated}"
        );
    }
    for workload in WORKLOADS {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let (meta, result) = run(workload, trace);
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{result}"
            );
            assert!(result.contains("\"failed\": 0, \"metrics\": {"), "{result}");
            for name in names(list) {
                assert!(
                    result.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} lacks {name}"
                );
            }
            assert!(meta.contains("\"comparable\": false"), "{meta}");
            let record = format!(
                "{}/out/tiny-{workload}-seed3-trace{trace}.json",
                env!("CARGO_MANIFEST_DIR")
            );
            assert!(
                std::path::Path::new(&record).exists(),
                "{record} not written"
            );
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--scale",
            "tiny",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line for a refused run");
}
