//! `servebench` — the serving benchmark of the distinct-sampling stack.
//!
//! ```text
//! servebench --workload <bulk_ingest|windowed_mixed|cluster_k4> --seed <n>
//!            --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! Builds the workload's inputs from the seed, drives the stack through
//! its public API (`dds-server` `Client`, `dds-engine` `Engine`,
//! `dds-cluster` `LocalCluster`), checks every answer against an oracle
//! and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it is `{"meta": ...}`: nproc, toolchain, commit, build profile and
//! whether the numbers are comparable at all (a debug build or the tiny
//! scale never is). The same record, with sample counts and the ladder
//! table, goes to `out/` beside this package, and a traced run writes
//! its spans there as CSV. Exits 1 if any answer was wrong.

mod affinity;
mod clock;
mod gen;
mod ladder;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::Scale;
use report::{json_str, metric, result_json, Metric, Tally};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// The commit of the checkout, read from `.git` in the working
/// directory ("unknown" outside a git checkout).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn meta_json(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = env!("SERVEBENCH_PROFILE");
    let release = profile.starts_with("release") && !cfg!(debug_assertions);
    let comparable = release && args.scale == Scale::Full;
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": {}, \
         \"nproc\": {nproc}, \"rustc\": {}, \"commit\": {}, \"profile\": {}, \"comparable\": {comparable}, \
         \"verdict\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(if args.scale == Scale::Full { "full" } else { "tiny" }),
        json_str(env!("SERVEBENCH_RUSTC")),
        json_str(&commit()),
        json_str(profile),
        json_str(if comparable { "comparable" } else { "not comparable: debug build or tiny scale" }),
    )
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>, String), String> {
    let z = args.scale.sizes();
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    // Inputs first, then the workload, then (traced) the ladder over the
    // same inputs.
    match args.workload.as_str() {
        "bulk_ingest" => {
            let input = gen::bulk(seed, &z);
            let outcome = workloads::bulk(&input, seconds, traced)?;
            let ladder = ladder::Input {
                spec: input.spec,
                batches: input.batches.iter().map(|b| (None, &b[..])).collect(),
            };
            finish(args, &z, outcome, &ladder, true)
        }
        "windowed_mixed" => {
            let input = gen::windowed(seed, &z);
            let outcome = workloads::windowed(&input, &z, seconds, traced)?;
            let ladder = ladder::Input {
                spec: input.spec,
                batches: (0..input.pool.len() as u64)
                    .map(|i| {
                        let (slot, b) = input.run_batch(i);
                        (Some(slot), &b[..])
                    })
                    .collect(),
            };
            finish(args, &z, outcome, &ladder, true)
        }
        "cluster_k4" => {
            let input = gen::cluster(seed, &z);
            let outcome = affinity::on_one_cpu(|| workloads::cluster(&input, &z, seconds, traced))?;
            // One logical stream: a single tenant on the engine rungs.
            let batches: Vec<gen::Batch> = input.streams[0]
                .chunks(z.bulk_batch)
                .map(|c| c.iter().map(|&e| (dds_engine::TenantId(0), e)).collect())
                .collect();
            let ladder = ladder::Input {
                spec: input.specs[0],
                batches: batches.iter().map(|b| (None, &b[..])).collect(),
            };
            finish(args, &z, outcome, &ladder, false)
        }
        other => Err(format!(
            "unknown workload {other:?} (bulk_ingest, windowed_mixed, cluster_k4)"
        )),
    }
}

/// The untraced run's end-to-end metrics, or — traced — the ladder's
/// and the workload's layer metrics. `served` says whether the workload
/// itself ran the served engine (else the cluster).
fn finish(
    args: &Args,
    z: &gen::Sizes,
    outcome: workloads::Outcome,
    input: &ladder::Input<'_>,
    served: bool,
) -> Result<(Tally, Vec<Metric>, String), String> {
    let mut tally = outcome.tally;
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let series: Vec<String> = outcome
        .series
        .iter()
        .map(|(k, xs)| {
            let xs: Vec<String> = xs.iter().map(|&x| report::json_num(x)).collect();
            format!("{}: [{}]", json_str(k), xs.join(", "))
        })
        .collect();
    let mut detail = format!(
        "\"samples\": {{{}}}, \"series\": {{{}}}",
        samples.join(", "),
        series.join(", ")
    );
    // Read latency's p99 swings run to run far past any useful bound on
    // a shared 2-vCPU box, so it is a layer metric, not an end-to-end one.
    let (e2e, p99): (Vec<Metric>, Vec<Metric>) = outcome
        .e2e
        .into_iter()
        .partition(|m| m.name != "query_p99_us");
    if !args.trace {
        return Ok((tally, e2e, detail));
    }
    let reps = if args.scale == Scale::Full { 3 } else { 1 };
    trace::set_enabled(true);
    let (mut layers, rungs) = ladder::run(input, z, reps, served, &mut tally)?;
    trace::set_enabled(false);
    layers.extend(outcome.layers);
    layers.extend(p99);
    let plain = e2e
        .iter()
        .find(|m| m.name == "throughput_eps")
        .map_or(0.0, |m| m.value);
    let traced = outcome.traced_eps.unwrap_or(plain);
    layers.push(metric(
        "trace.overhead_pct",
        if plain > 0.0 {
            (plain - traced) / plain * 100.0
        } else {
            0.0
        },
        "%",
    ));
    layers.push(metric(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    ));
    // Self time: each rung minus the rungs it stands on. Two shards
    // stand on the samplers as one shard does; the served engine on two
    // shards plus the codec; the codec and the cluster stand alone.
    let ns_of = |name: &str| rungs.0.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
    let table: Vec<String> = rungs
        .0
        .iter()
        .map(|&(name, ns)| {
            let below: f64 = match name {
                "samplers" => ns_of("hash"),
                "engine x1" | "engine x2" => ns_of("samplers"),
                "server" => ns_of("engine x2") + ns_of("codec"),
                _ => 0.0,
            };
            let own = ns - below;
            eprintln!("servebench ladder: {name:<10} {ns:>12.1} ns/elem   self {own:>12.1}");
            format!(
                "{{\"rung\": {}, \"ns_per_elem\": {}, \"self_ns\": {}}}",
                json_str(name),
                report::json_num(ns),
                report::json_num(own)
            )
        })
        .collect();
    detail.push_str(&format!(", \"ladder\": [{}]", table.join(", ")));
    Ok((tally, layers, detail))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let (tally, metrics, detail) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(1);
        }
    };
    let meta = meta_json(&args);
    let result = result_json(tally, &metrics);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}{}-seed{}-trace{}",
        if args.scale == Scale::Tiny {
            "tiny-"
        } else {
            ""
        },
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!("{{\"meta\": {meta}, {detail}, \"result\": {result}}}\n");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record))
        .and_then(|()| {
            if args.trace {
                trace::write_csv(&dir.join(format!("{stem}-spans.csv")), &trace::spans())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("servebench: could not write the run record: {e}");
    }
    println!("{{\"meta\": {meta}}}");
    println!("{result}");
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
