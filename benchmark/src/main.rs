//! The `benchmark` command line. See `README.md` beside this crate.

#![deny(unsafe_code)]

use numfabric_benchmark::alloc::CountingAllocator;
use numfabric_benchmark::compare::compare;
use numfabric_benchmark::driver::{document, Session, Summary};
use numfabric_benchmark::json::Json;
use numfabric_benchmark::run::{describe, run_once};
use numfabric_benchmark::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

// Counts only while a traced run's simulate phase switches it on.
#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str = "\
usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1
      measure one workload for about S seconds; the last line of stdout is
      one JSON object: end-to-end metrics (--trace 0) or per-layer (--trace 1)
  benchmark run [--seed N] [--repeats R] [--quick] [--out FILE]
      all five workloads, R untraced repeats each (interleaved), then one
      traced pass, then the checks; prints one JSON document
  benchmark compare OLD.json NEW.json
      one row per workload and end-to-end metric; exit 1 on any worse row
  benchmark selfcheck [--seed N] [--repeats R] [--quick] [--dir DIR]
      two complete runs of this binary, compared; exit 1 unless they agree
workloads: stride-steady shuffle-ft8 churn-ws churn-ws-pfabric churn-ws-p2t2";

/// Where traces and self-check results go: beside the crate's sources, so
/// inside whichever checkout built this binary.
fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Traces and the children's result files.
fn out_dir() -> PathBuf {
    crate_dir().join("out")
}

/// `--flag value` pairs and bare `--switch`es, checked against what the
/// subcommand knows. Anything else is a usage error, never ignored.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if valued.contains(&arg.as_str()) {
                let value = args.next().ok_or(format!("{arg} needs a value"))?;
                flags.values.push((arg.clone(), value.clone()));
            } else if switches.contains(&arg.as_str()) {
                flags.switches.push(arg.clone());
            } else if arg.starts_with("--") {
                return Err(format!("unknown option {arg}"));
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.values.iter().rev().find(|(k, _)| k == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value `{v}` for {name}")),
        }
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.value(name)?.ok_or(format!("{name} is required"))
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.required("--workload")?;
        Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))
    }

    fn trace(&self) -> Result<bool, String> {
        match self.required::<u8>("--trace")? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("--trace takes 0 or 1, not {other}")),
        }
    }
}

/// One simulation in this process; one line of JSON out.
fn child(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--trace"], &["--quick"])?;
    let workload = flags.workload()?;
    let traced = flags.trace()?;
    let result = run_once(
        workload,
        flags.required("--seed")?,
        traced,
        flags.switch("--quick"),
    );
    if traced {
        let dir = out_dir();
        let path = dir.join(format!("trace-{}.json", workload.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, result.spans.render_pretty()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", result.to_json().render());
    Ok(ExitCode::SUCCESS)
}

/// The contract entry point: one workload, about `--seconds` of measuring.
fn measure(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace"],
        &["--quick"],
    )?;
    let workload = flags.workload()?;
    let traced = flags.trace()?;
    let seconds: f64 = flags.required("--seconds")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let quick = flags.switch("--quick");
    eprintln!("{}: {}", workload.name(), describe(&workload.params(quick)));
    let mut session = Session::new(flags.required("--seed")?, quick, out_dir());
    // The threaded workload must simulate exactly what its 1x1 twin does.
    let spent = match workload.reference() {
        Some(reference) => session.run_child(reference, false)?,
        None => Duration::ZERO,
    };
    if traced {
        session.repeat_for(seconds, 1, spent, |s| {
            Ok(s.run_child(workload, false)? + s.run_child(workload, true)?)
        })?;
    } else {
        session.repeat_for(seconds, 2, spent, |s| s.run_child(workload, false))?;
    }
    let summary = session.summarize(workload);
    eprint!("{}", summary.table());
    println!("{}", summary.contract_line(traced).render());
    Ok(ExitCode::SUCCESS)
}

/// Every workload: interleaved untraced repeats, a traced pass, the checks.
fn run_all(seed: u64, repeats: usize, quick: bool) -> Result<(Json, bool), String> {
    let mut session = Session::new(seed, quick, out_dir());
    // Round-robin across workloads, so a noisy minute lands on one repeat
    // of each instead of on every repeat of one.
    for round in 1..=repeats {
        for workload in Workload::ALL {
            eprintln!("repeat {round}/{repeats}: {}", workload.name());
            session.run_child(workload, false)?;
        }
    }
    for workload in Workload::ALL {
        eprintln!("traced: {}", workload.name());
        session.run_child(workload, true)?;
    }
    let summaries: Vec<Summary> = Workload::ALL
        .into_iter()
        .map(|w| session.summarize(w))
        .collect();
    for summary in &summaries {
        eprint!("{}", summary.table());
    }
    let correct = summaries.iter().all(Summary::correct);
    Ok((document(seed, quick, &summaries), correct))
}

fn run_flags(args: &[String], extra: &[&str]) -> Result<(Flags, u64, usize, bool), String> {
    let valued = [&["--seed", "--repeats"], extra].concat();
    let flags = Flags::parse(args, &valued, &["--quick"])?;
    let quick = flags.switch("--quick");
    let seed = flags.value("--seed")?.unwrap_or(1);
    let repeats = flags
        .value("--repeats")?
        .unwrap_or(if quick { 1 } else { 5 });
    if repeats == 0 {
        return Err("--repeats must be at least 1".to_string());
    }
    Ok((flags, seed, repeats, quick))
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (flags, seed, repeats, quick) = run_flags(args, &["--out"])?;
    let (doc, correct) = run_all(seed, repeats, quick)?;
    if let Some(out) = flags.value::<PathBuf>("--out")? {
        write(&out, &doc)?;
    }
    print!("{}", doc.render_pretty());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[], &[])?;
    let [old, new] = flags.positional.as_slice() else {
        return Err("compare takes OLD.json NEW.json".to_string());
    };
    let comparison = compare(&read(old)?, &read(new)?)?;
    print!("{}", comparison.render());
    Ok(if comparison.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn selfcheck(args: &[String]) -> Result<ExitCode, String> {
    let (flags, seed, repeats, quick) = run_flags(args, &["--dir"])?;
    let dir = flags
        .value::<PathBuf>("--dir")?
        .unwrap_or_else(|| crate_dir().join("baseline"));
    let mut docs = Vec::new();
    let mut all_correct = true;
    for name in ["selfcheck-a.json", "selfcheck-b.json"] {
        let (doc, correct) = run_all(seed, repeats, quick)?;
        write(&dir.join(name), &doc)?;
        all_correct &= correct;
        docs.push(doc);
    }
    let comparison = compare(&docs[0], &docs[1])?;
    print!("{}", comparison.render());
    let passed = all_correct && comparison.identical_within_bounds();
    println!(
        "selfcheck {}: two runs of the same binary {}",
        if passed { "passed" } else { "FAILED" },
        if passed {
            "agree within every bound, with identical exact counters and fingerprints"
        } else {
            "do not agree (or a correctness check failed)"
        }
    );
    Ok(if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("selfcheck") => selfcheck(&args[1..]),
        Some(first) if first.starts_with("--") && first != "--help" => measure(&args),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("error: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
