//! `perfbench` — the repository benchmark: a loopback `wmsketch-serve`
//! node driven through the public client and protocol API on four named
//! workloads, with correctness gates against in-process twins.
//!
//! ```text
//! perfbench --workload <wm_ingest|awm_ingest|wm_mixed|fleet> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Standard output ends with two lines: a self-describing report (run
//! facts, gates, and every metric with unit and sample count), then the
//! result object `{"correct", "attempted", "failed", "metrics"}` whose
//! metrics are the end-to-end figures, or the per-layer ones with
//! `--trace 1`. The exit code is non-zero when any gate fails.
//! `perfbench/README.md` documents the workloads and metrics.

mod gate;
mod inputs;
mod ledger;
mod node;
mod report;
mod stats;
mod workloads;
mod yardstick;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{RunSpec, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <wm_ingest|awm_ingest|wm_mixed|fleet> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse(args: impl Iterator<Item = String>) -> Result<RunSpec, String> {
    let mut args = args.peekable();
    let (mut workload, mut seed, mut seconds, mut traced, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let run_dir =
        PathBuf::from(".perfbench_run").join(format!("{workload}-{}", std::process::id()));
    Ok(RunSpec {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        smoke,
        run_dir,
    })
}

fn main() -> ExitCode {
    let spec = match parse(std::env::args().skip(1)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&spec.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", spec.run_dir.display());
        return ExitCode::from(2);
    }
    let report = workloads::run(&spec);
    let _ = std::fs::remove_dir_all(&spec.run_dir);
    let _ = std::fs::remove_dir(".perfbench_run");
    for g in &report.gates {
        eprintln!(
            "gate {:<30} {} ({})",
            g.name,
            if g.passed { "pass" } else { "FAIL" },
            g.detail
        );
    }
    println!("{}", report.describe_line());
    println!("{}", report.result_line(spec.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    /// The metric names one section of `BENCHMARK.json` declares.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn smoke(workload: &str, traced: bool) -> report::Report {
        let spec = RunSpec {
            workload: workload.to_string(),
            seed: 5,
            seconds: 1.0,
            traced,
            smoke: true,
            run_dir: PathBuf::from(".perfbench_run")
                .join(format!("test-{workload}-{traced}-{}", std::process::id())),
        };
        std::fs::create_dir_all(&spec.run_dir).expect("run dir");
        let report = workloads::run(&spec);
        let _ = std::fs::remove_dir_all(&spec.run_dir);
        // Fails, harmlessly, while another test still has a run inside.
        let _ = std::fs::remove_dir(".perfbench_run");
        report
    }

    #[test]
    fn parses_the_command_line_flags() {
        let spec = parse(args("--workload fleet --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (spec.workload.as_str(), spec.seed, spec.traced),
            ("fleet", 7, true)
        );
        assert!(!spec.smoke);
        assert!(parse(args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(args("--workload fleet --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(args("--workload fleet --seed 1 --trace 0")).is_err());
    }

    #[test]
    fn every_workload_passes_its_gates_and_reports_the_declared_metrics() {
        let e2e = declared("end_to_end");
        let layers = declared("per_layer");
        for w in WORKLOADS {
            for traced in [false, true] {
                let r = smoke(w, traced);
                assert!(r.correct(), "{w} traced={traced}: {:?}", r.gates);
                let got: Vec<&str> = r.end_to_end.keys().copied().collect();
                assert_eq!(got.len(), e2e.len(), "{w}: {got:?} vs {e2e:?}");
                assert!(
                    e2e.iter().all(|m| r.end_to_end.contains_key(m.as_str())),
                    "{w}"
                );
                if traced {
                    assert_eq!(
                        r.per_layer.len(),
                        layers.len(),
                        "{w}: {:?}",
                        r.per_layer.keys()
                    );
                    assert!(
                        layers.iter().all(|m| r.per_layer.contains_key(m.as_str())),
                        "{w}"
                    );
                }
                let last = r.result_line(traced);
                assert!(last.starts_with("{\"correct\": true"), "{last}");
            }
        }
    }

    #[test]
    fn the_snapshot_gate_rejects_a_perturbed_model() {
        use wmsketch_core::{SnapshotCodec, WmSketch, WmSketchConfig};
        let template = WmSketch::new(WmSketchConfig::new(64, 3).seed(2)).to_snapshot_bytes();
        let inputs = inputs::Inputs::generate(3, 64, 8);
        let mut served = gate::Twin::new(&template);
        served.feed(&inputs.pool);
        let bytes = served.snapshot();
        let mut twin = gate::Twin::new(&template);
        twin.feed(&inputs.pool);
        assert!(gate::snapshot_gate("same", &bytes, &mut twin).passed);
        assert!(gate::perturbed_gate("perturbed", &bytes, &mut twin, &inputs.holdout[0]).passed);
        let mut short = gate::Twin::new(&template);
        short.feed(&inputs.pool[1..]);
        assert!(!gate::snapshot_gate("short", &bytes, &mut short).passed);
    }
}
