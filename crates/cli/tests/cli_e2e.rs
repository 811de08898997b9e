//! End-to-end tests of the `lvf2` binary: real process invocations through
//! the full scenario → fit → library → inspect pipeline.

use std::process::Command;

fn lvf2() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lvf2"))
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lvf2_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn help_lists_all_subcommands() {
    let out = lvf2().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "characterize",
        "library",
        "inspect",
        "fit",
        "select",
        "switch",
        "scenario",
        "yield",
        "sta",
        "ssta",
        "serve",
        "submit",
        "top",
        "trace",
    ] {
        assert!(text.contains(cmd), "help missing `{cmd}`");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = lvf2().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn scenario_fit_select_pipeline() {
    let dir = tempdir();
    let samples = dir.join("saddle.txt");
    let out = lvf2()
        .args(["scenario", "saddle", "--samples", "3000", "--seed", "5"])
        .output()
        .expect("scenario runs");
    assert!(out.status.success());
    std::fs::write(&samples, &out.stdout).expect("write samples");

    let fit = lvf2()
        .args([
            "fit",
            samples.to_str().expect("utf8"),
            "--model",
            "lvf2",
            "--fast",
        ])
        .output()
        .expect("fit runs");
    assert!(
        fit.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&fit.stderr)
    );
    let text = String::from_utf8_lossy(&fit.stdout);
    assert!(
        text.contains("LVF2:") && text.contains("λ="),
        "fit output: {text}"
    );

    let sel = lvf2()
        .args([
            "select",
            samples.to_str().expect("utf8"),
            "--max-order",
            "2",
            "--fast",
        ])
        .output()
        .expect("select runs");
    assert!(sel.status.success());
    assert!(String::from_utf8_lossy(&sel.stdout).contains("selection: K = 2"));
}

#[test]
fn characterize_then_inspect() {
    let dir = tempdir();
    let lib = dir.join("inv.lib");
    let ch = lvf2()
        .args([
            "characterize",
            "--cell",
            "INV",
            "--arc",
            "0",
            "--grid",
            "3x3",
            "--samples",
            "600",
            "--out",
            lib.to_str().expect("utf8"),
        ])
        .output()
        .expect("characterize runs");
    assert!(
        ch.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&ch.stderr)
    );
    assert!(lib.exists());

    let ins = lvf2()
        .args(["inspect", lib.to_str().expect("utf8")])
        .output()
        .expect("inspect runs");
    assert!(ins.status.success());
    let text = String::from_utf8_lossy(&ins.stdout);
    assert!(
        text.contains("INV_X1") && text.contains("cell_rise"),
        "inspect: {text}"
    );
}

#[test]
fn characterize_with_is_mode_prints_tail_report() {
    let dir = tempdir();
    let lib = dir.join("is_inv.lib");
    let run = |mode: &str| {
        lvf2()
            .args([
                "characterize",
                "--cell",
                "INV",
                "--arc",
                "0",
                "--grid",
                "3x3",
                "--samples",
                "400",
                "--mc-mode",
                mode,
                "--tail-samples",
                "1024",
                "--is-target-sigma",
                "3",
                "--out",
                lib.to_str().expect("utf8"),
            ])
            .output()
            .expect("characterize runs")
    };
    let out = run("is");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tail yield"), "stdout: {text}");
    assert!(text.contains("ESS"), "stdout: {text}");
    // 9 grid conditions → 9 data rows after the header.
    assert_eq!(
        text.lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit())
                && l.contains("e-"))
            .count(),
        9,
        "one tail estimate per condition: {text}"
    );

    // Default mode prints no tail table and still writes the same library.
    let lhs = run("lhs");
    assert!(lhs.status.success());
    assert!(!String::from_utf8_lossy(&lhs.stdout).contains("tail yield"));

    let bad = run("bogus");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown MC mode"));
}

#[test]
fn sta_runs_on_the_example_netlist() {
    // The example netlist lives at the workspace root.
    let netlist = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/netlists/full_adder.net"
    );
    let out = lvf2()
        .args(["sta", netlist, "--clock", "0.12", "--samples", "800"])
        .output()
        .expect("sta runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("SUM") && text.contains("COUT"),
        "sta output: {text}"
    );
}

#[test]
fn ssta_propagates_a_generated_netlist() {
    let out = lvf2()
        .args([
            "ssta",
            "--nodes",
            "500",
            "--depth",
            "8",
            "--family",
            "normal",
            "--threads",
            "2",
            "--seed",
            "7",
        ])
        .output()
        .expect("ssta runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("levels") && text.contains("sums"),
        "ssta output: {text}"
    );
    assert!(
        text.contains("sink"),
        "ssta output missing sink table: {text}"
    );
}

#[test]
fn ssta_imports_an_iscas_bench_circuit() {
    let bench = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/netlists/c17.bench"
    );
    let out = lvf2()
        .args(["ssta", "--bench", bench, "--family", "lvf"])
        .output()
        .expect("ssta runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // c17: 5 PIs + 6 NAND2 gates + virtual source = 12 nodes.
    assert!(text.contains("12 nodes"), "ssta output: {text}");
}

#[test]
fn observability_sinks_emit_valid_schemas() {
    let dir = tempdir();
    let lib = dir.join("obs_inv.lib");
    let metrics = dir.join("obs_metrics.json");
    let trace = dir.join("obs_trace.jsonl");
    let out = lvf2()
        .args([
            "characterize",
            "--cell",
            "INV",
            "--arc",
            "0",
            "--grid",
            "3x3",
            "--samples",
            "400",
            "--out",
            lib.to_str().expect("utf8"),
            "--metrics-json",
            metrics.to_str().expect("utf8"),
            "--trace-json",
            trace.to_str().expect("utf8"),
            "--progress",
            "-v",
        ])
        .output()
        .expect("characterize runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mtext = std::fs::read_to_string(&metrics).expect("metrics file written");
    let doc = lvf2::obs::json::parse(&mtext).expect("metrics file is JSON");
    lvf2::obs::schema::check_metrics(&doc).expect("metrics match lvf2-metrics-v1");
    assert!(mtext.contains("fit.em.runs"), "metrics: {mtext}");
    assert!(mtext.contains("mc.samples"), "metrics: {mtext}");

    let ttext = std::fs::read_to_string(&trace).expect("trace file written");
    let lines = lvf2::obs::schema::check_trace_text(&ttext).expect("trace lines validate");
    assert!(lines > 0, "trace is non-empty");
    assert!(ttext.contains("\"span\""), "trace records spans: {ttext}");

    // -v routes the characterization banner and convergence summary through
    // the stderr logger.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("characterizing"), "stderr: {err}");
    assert!(err.contains("converge"), "stderr: {err}");
}

#[test]
fn quiet_flag_suppresses_info_logging() {
    let dir = tempdir();
    let lib = dir.join("quiet_inv.lib");
    let out = lvf2()
        .args([
            "characterize",
            "--cell",
            "INV",
            "--arc",
            "0",
            "--grid",
            "3x3",
            "--samples",
            "400",
            "--out",
            lib.to_str().expect("utf8"),
            "-q",
        ])
        .output()
        .expect("characterize runs");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        !err.contains("characterizing"),
        "-q must silence info lines, got: {err}"
    );
}

#[test]
fn serve_and_submit_round_trip() {
    let dir = tempdir();
    let port_file = dir.join("serve.port");
    let metrics = dir.join("serve_metrics.json");
    let trace = dir.join("serve_trace.jsonl");
    let _ = std::fs::remove_file(&port_file);
    let mut daemon = lvf2()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--port-file",
            port_file.to_str().expect("utf8"),
            "--metrics-json",
            metrics.to_str().expect("utf8"),
            "--trace-json",
            trace.to_str().expect("utf8"),
        ])
        .spawn()
        .expect("daemon starts");

    // The daemon writes its (ephemeral) address once it is listening.
    let addr = {
        let mut waited = 0;
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    break text.trim().to_string();
                }
            }
            waited += 1;
            assert!(waited < 200, "daemon never wrote {}", port_file.display());
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    };

    let submit = |args: &[&str]| {
        lvf2()
            .args(["submit", "--addr", &addr])
            .args(args)
            .output()
            .expect("submit runs")
    };

    let ping = submit(&["ping"]);
    assert!(
        ping.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&ping.stderr)
    );
    assert!(String::from_utf8_lossy(&ping.stdout).contains("pong"));

    let job = dir.join("job.json");
    std::fs::write(
        &job,
        r#"{"type":"characterize","cells":["INV"],"options":{"samples":256,"grid":"3x3"}}"#,
    )
    .expect("write job");
    let out1 = dir.join("one.lib");
    let out2 = dir.join("two.lib");
    for out in [&out1, &out2] {
        let run = submit(&[
            "--job",
            job.to_str().expect("utf8"),
            "--out",
            out.to_str().expect("utf8"),
        ]);
        assert!(
            run.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    let lib1 = std::fs::read_to_string(&out1).expect("first library");
    assert!(lib1.contains("lu_table_template"), "library: {lib1}");
    assert_eq!(
        lib1,
        std::fs::read_to_string(&out2).expect("second library"),
        "warm repeat must be bit-identical"
    );

    // `lvf2 top --once --json` snapshots the live daemon: the two library
    // jobs above must show up with non-zero latency percentiles.
    let top = lvf2()
        .args(["top", "--addr", &addr, "--once", "--json"])
        .output()
        .expect("top runs");
    assert!(
        top.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&top.stderr)
    );
    let tdoc = lvf2::obs::json::parse(&String::from_utf8_lossy(&top.stdout))
        .expect("top --json emits JSON");
    let jobs_done = tdoc
        .get("jobs")
        .and_then(|j| j.get("done"))
        .and_then(lvf2::obs::json::Value::as_f64)
        .expect("jobs.done gauge");
    assert!(jobs_done >= 2.0, "top: {tdoc:?}");
    let lat = tdoc
        .get("latency")
        .and_then(|l| l.get("characterize"))
        .expect("characterize latency block");
    for q in ["p50_us", "p99_us"] {
        let v = lat
            .get(q)
            .and_then(lvf2::obs::json::Value::as_f64)
            .expect("latency quantile");
        assert!(v > 0.0, "{q} must be non-zero after two jobs: {tdoc:?}");
    }

    let m = submit(&["metrics"]);
    assert!(m.status.success());
    let mtext = String::from_utf8_lossy(&m.stdout);
    let doc = lvf2::obs::json::parse(&mtext).expect("metrics response is JSON");
    let cache = doc.get("cache").expect("cache block");
    let hits = cache
        .get("hits")
        .and_then(lvf2::obs::json::Value::as_f64)
        .expect("hit count");
    assert!(hits >= 1.0, "second job must hit the cache: {mtext}");

    let bye = submit(&["shutdown"]);
    assert!(bye.status.success());
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit: {status}");

    // The shared --metrics-json sink works for the daemon too.
    let mtext = std::fs::read_to_string(&metrics).expect("daemon metrics written");
    assert!(mtext.contains("serve.cache.hits"), "metrics: {mtext}");

    // The daemon's JSONL trace exports to a Chrome trace that its own
    // validator accepts, and to non-empty collapsed stacks.
    let chrome = dir.join("serve_trace_chrome.json");
    let export = lvf2()
        .args([
            "trace",
            "export",
            trace.to_str().expect("utf8"),
            "--format",
            "chrome",
            "--out",
            chrome.to_str().expect("utf8"),
        ])
        .output()
        .expect("trace export runs");
    assert!(
        export.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&export.stderr)
    );
    let check = lvf2()
        .args(["trace", "check", chrome.to_str().expect("utf8")])
        .output()
        .expect("trace check runs");
    assert!(
        check.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(String::from_utf8_lossy(&check.stdout).contains("ok"));

    let folded = lvf2()
        .args([
            "trace",
            "export",
            trace.to_str().expect("utf8"),
            "--format",
            "collapsed",
        ])
        .output()
        .expect("collapsed export runs");
    assert!(folded.status.success());
    let ftext = String::from_utf8_lossy(&folded.stdout);
    assert!(
        ftext
            .lines()
            .any(|l| l.starts_with("serve.request;serve.job.characterize")),
        "collapsed stacks: {ftext}"
    );
}

#[test]
fn fit_rejects_garbage_input() {
    let dir = tempdir();
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "not numbers at all").expect("write");
    let out = lvf2()
        .args(["fit", bad.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid sample"));
}

#[test]
fn fit_rejects_non_finite_samples_without_panicking() {
    let dir = tempdir();
    let bad = dir.join("nan.txt");
    std::fs::write(&bad, "1 2 3 4 5 6 7 8 9 nan\n").expect("write");
    for model in ["lvf2", "norm2"] {
        let out = lvf2()
            .args(["fit", bad.to_str().expect("utf8"), "--model", model])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{model}: fit accepted NaN");
        assert_ne!(out.status.code(), Some(101), "{model}: panicked: {stderr}");
        assert!(!stderr.contains("panicked"), "{model}: {stderr}");
        assert!(stderr.contains("must be finite"), "{model}: {stderr}");
    }
}

#[test]
fn yield_prints_the_fitted_models_exact_tail() {
    use lvf2::stats::Distribution;
    let dir = tempdir();
    let samples = dir.join("yield_two_peaks.txt");
    let out = lvf2()
        .args(["scenario", "two-peaks", "--samples", "2000", "--seed", "5"])
        .output()
        .expect("scenario runs");
    assert!(out.status.success());
    std::fs::write(&samples, &out.stdout).expect("write samples");
    let xs: Vec<f64> = String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .map(|t| t.parse().expect("sample"))
        .collect();
    let path = samples.to_str().expect("utf8");
    let target = 0.145;

    for (name, kind) in [
        ("lvf2", lvf2::ModelKind::Lvf2),
        ("lesn", lvf2::ModelKind::Lesn),
    ] {
        let run = lvf2()
            .args([
                "yield", path, "--target", "0.145", "--model", name, "--fast",
            ])
            .output()
            .expect("yield runs");
        let text = String::from_utf8_lossy(&run.stdout);
        assert!(
            run.status.success(),
            "{name}: stderr {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let printed = text
            .lines()
            .find_map(|l| l.strip_prefix("P(delay > target) = "))
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("{name}: no tail line in {text}"));
        let p: f64 = printed.parse().expect("tail probability");
        assert!(p > 0.0, "{name}: {text}");
        let fitted = lvf2::fit_model(kind, &xs, &lvf2::fit::FitConfig::fast()).expect("fit");
        assert_eq!(
            printed,
            format!("{:.6e}", fitted.model.sf(target)),
            "{name}"
        );
    }

    for retired in ["--draws", "--seed"] {
        let run = lvf2()
            .args(["yield", path, "--target", "0.145", retired, "10"])
            .output()
            .expect("yield runs");
        assert!(!run.status.success(), "{retired} accepted");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(retired), "{retired}: {stderr}");
    }
}

#[test]
fn characterize_rejects_tail_options_the_flow_rejects() {
    let dir = tempdir();
    let lib = dir.join("bad_tail.lib");
    for (flag, value, field) in [
        ("--is-target-sigma", "inf", "is_target_sigma"),
        ("--tail-samples", "0", "tail_samples"),
    ] {
        let out = lvf2()
            .args([
                "characterize",
                "--cell",
                "INV",
                "--grid",
                "3x3",
                "--samples",
                "100",
                "--mc-mode",
                "is",
                flag,
                value,
                "--out",
                lib.to_str().expect("utf8"),
            ])
            .output()
            .expect("characterize runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} {value} accepted");
        assert!(stderr.contains(field), "{flag} {value}: {stderr}");
    }
}
