//! Repeat mode: runs the benchmark several times with consecutive seeds
//! and reports, per metric, the median and quartiles of the runs, flagging
//! every metric whose spread (interquartile range over median) exceeds
//! its bound in `BENCHMARK.json` (read from the working directory, the
//! repository root).

use std::process::Command;

use serde_json::Value;

use crate::stats::{median, quartiles};
use crate::Args;

/// Returns the process exit code: 0 when every run was correct and every
/// bounded spread is within its bound.
pub fn run(args: &Args, runs: usize) -> i32 {
    let bounds: Vec<(String, f64)> = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .and_then(|v: Value| match v.get("end_to_end") {
            Some(Value::Array(items)) => Some(
                items
                    .iter()
                    .filter_map(|m| {
                        Some((
                            m.get("name")?.as_str()?.to_owned(),
                            m.get("bound")?.as_f64()?,
                        ))
                    })
                    .collect(),
            ),
            _ => None,
        })
        .unwrap_or_default();
    let exe = std::env::current_exe().expect("own executable");
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut code = 0;
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let out = Command::new(&exe)
            .arg("--server")
            .arg(&args.server)
            .args([
                "--workload",
                &args.workload_name,
                "--seed",
                &seed.to_string(),
            ])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("run the benchmark");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last: Option<Value> = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str(l).ok());
        let Some(Value::Object(metrics)) = last.as_ref().and_then(|v| v.get("metrics")).cloned()
        else {
            eprintln!("run {i} (seed {seed}) printed no result");
            code = 1;
            continue;
        };
        if !out.status.success()
            || last.as_ref().and_then(|v| v.get("correct")?.as_bool()) != Some(true)
        {
            eprintln!("run {i} (seed {seed}) was not correct");
            code = 1;
        }
        for (name, m) in metrics {
            let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned();
            match values.iter_mut().find(|e| e.0 == name) {
                Some(e) => e.2.push(v),
                None => values.push((name, unit, vec![v])),
            }
        }
        eprintln!("run {}/{runs} done (seed {seed})", i + 1);
    }
    println!(
        "{:<32} {:>12} {:>12} {:>12} {:>8} {:>6}  unit",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (name, unit, v) in &values {
        let med = median(v);
        let (q1, q3) = quartiles(v);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let bound = bounds.iter().find(|b| &b.0 == name).map(|b| b.1);
        let flag = match bound {
            Some(b) if name != "setup_s" && spread > b => {
                code = code.max(3);
                "  SPREAD ABOVE BOUND"
            }
            _ => "",
        };
        let b = bound.map_or("-".to_owned(), |b| format!("{b:.3}"));
        println!("{name:<32} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {b:>6}  {unit} (n={}){flag}", v.len());
    }
    code
}
