//! `e2ebench --workload <kv-serve|page-hot|txn-tiered> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints run metadata, notes and every metric by name with its unit, then
//! as the last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits non-zero when a value check fails or the run cannot complete.

use std::process::ExitCode;

use spitfire_e2ebench::meta::{json_number, json_string, CpuTimes, Usage};
use spitfire_e2ebench::report::{END_TO_END, PER_LAYER};
use spitfire_e2ebench::{kv_serve, page_hot, txn_tiered, Args, Run};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <kv-serve|page-hot|txn-tiered> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let cpu0 = CpuTimes::now();
    let usage0 = Usage::now();
    let run = match args.workload.as_str() {
        "kv-serve" => kv_serve::run(&args),
        "page-hot" => page_hot::run(&args),
        _ => txn_tiered::run(&args),
    };
    let Run {
        report,
        mut meta,
        tally,
    } = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    meta.num("cpu_steal_ratio", CpuTimes::now().steal_ratio_since(&cpu0));
    meta.num(
        "involuntary_ctx_switches",
        (Usage::now().involuntary_switches - usage0.involuntary_switches) as f64,
    );
    println!("meta {}", meta.to_json());
    for note in &report.notes {
        println!("note {note}");
    }

    // Every measured metric is printed; the JSON holds the end-to-end set
    // (untraced run) or the per-layer set (traced run), each complete.
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = report.get(name) {
            println!("metric {name} = {} {unit}", json_number(v));
        }
    }
    let reported = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(reported.len());
    for &(name, unit) in reported {
        let value = match (report.get(name), report.why_absent(name)) {
            (Some(v), _) => v,
            (None, Some(why)) => {
                println!("absent {name} ({unit}): {why}; reported as 0");
                0.0
            }
            (None, None) => {
                eprintln!("e2ebench: {name} was neither measured nor explained");
                return ExitCode::FAILURE;
            }
        };
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(value),
            json_string(unit)
        ));
    }
    let correct = tally.incorrect == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
