//! Command implementations for the `lvf2` CLI.

use std::error::Error;
use std::io::Read as _;

use lvf2::binning::{score_model, GoldenReference};
use lvf2::cells::{
    characterize_arc_par, tail_yield_arc, CellType, ConditionTailYield, Scenario, SlewLoadGrid,
    TailYieldOptions, TimingArcSpec,
};
use lvf2::fit::select::{select_order, Criterion};
use lvf2::fit::{fit_lvf2_batch, FitConfig};
use lvf2::liberty::ast::{Cell, Pin, TimingGroup};
use lvf2::liberty::{
    parse_library, write_library, BaseKind, Library, LutTemplate, TimingModelGrid,
};
use lvf2::mc::{McMode, VariationSpace};
use lvf2::obs::{info, warn, Obs, ObsConfig};
use lvf2::parallel::{Parallelism, DEFAULT_CHUNK_SIZE};
use lvf2::stats::Distribution;
use lvf2::{fit_model, recommend_model, ModelKind};

use crate::opts::Opts;

type CliResult = Result<(), Box<dyn Error>>;

/// Top-level usage text.
pub const USAGE: &str = "\
lvf2 — LVF² statistical timing toolkit

USAGE:
  lvf2 characterize --cell NAME [--arc N] [--samples N] [--grid 8x8|3x3] [--seed N]
                    [--mc-mode lhs|is] [--is-target-sigma K] [--tail-samples N]
                    [--threads N] [--chunk-size N] --out FILE
  lvf2 library --cells NAME,NAME,… [--arcs N] [--samples N] [--grid 8x8|3x3]
               [--sigma-scale K] [--mc-mode lhs|is] [--is-target-sigma K]
               [--tail-samples N] [--threads N] [--chunk-size N] --out FILE
  lvf2 serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache-cap N]
             [--threads N] [--chunk-size N] [--port-file PATH] [--store DIR]
             [--deadline-ms N] [--io-timeout-ms N]
  lvf2 submit ping|metrics|shutdown [--addr HOST:PORT]
  lvf2 submit --job FILE|- [--addr HOST:PORT] [--out FILE]
              [--retries N] [--timeout-ms N] [--deadline-ms N]
  lvf2 top [--addr HOST:PORT] [--interval MS] [--once] [--json]
  lvf2 trace export FILE [--format chrome|collapsed] [--out FILE]
  lvf2 trace check FILE [--trace-id HEX]
  lvf2 inspect FILE [--cell NAME]
  lvf2 fit FILE|- [--model lvf|norm2|lesn|lvf2] [--fast]
  lvf2 select FILE|- [--max-order K] [--aic]
  lvf2 switch FILE|- --depth N [--threshold X]
  lvf2 yield FILE|- --target T [--model lvf|norm2|lesn|lvf2]
  lvf2 sta NETLIST --clock T [--samples N] [--slew S]
  lvf2 ssta [--nodes N] [--depth D] [--width W] [--fanin K] [--reconv P]
            [--seed N] [--family normal|lvf|lvf2] [--threads N] [--bench FILE]
  lvf2 scenario NAME [--samples N] [--seed N]
      NAME ∈ two-peaks | multi-peaks | saddle | minor-saddle | kurtosis

Observability (any command):
  -v, --verbose         debug logging (EM trajectories in traces)
  -q, --quiet           errors only
  --progress            coarse progress lines on stderr
  --trace-json PATH     JSONL span/event/log stream
  --metrics-json PATH   metrics snapshot on exit (lvf2-metrics-v1)

`--threads 0` (the default) auto-detects the core count; `--threads 1` forces
the serial path. Results are bit-identical at every thread count. The
LVF2_THREADS environment variable supplies a default when --threads is absent.

`lvf2 serve` runs the characterization daemon (length-prefixed JSON over TCP,
content-addressed arc cache); `lvf2 submit` sends it one job and prints the
result. `serve --store DIR` persists fitted models to a crash-safe append-only
log, so a restarted daemon serves repeat jobs without recomputing;
`--deadline-ms` sets a default per-job budget and `--io-timeout-ms` the socket
read/write timeout. `submit --retries N` retries retryable failures (timeouts,
overload) with exponential backoff, `--timeout-ms` bounds each socket wait,
and `--deadline-ms` attaches a job budget enforced by the server. See
docs/ROBUSTNESS.md for the failure model. `lvf2 top` polls a running daemon and renders queue depth, cache hit
rate, jobs in flight, and per-job-type latency percentiles (`--once --json`
for scripting). `lvf2 trace export` converts a --trace-json JSONL file to
Chrome trace_event JSON (Perfetto) or collapsed stacks (flamegraphs), and
`lvf2 trace check` validates an exported Chrome trace. See docs/SERVER.md
for the wire protocol and job schema.

`lvf2 ssta` runs graph-scale wavefront SSTA: it generates a random netlist
(`--nodes`, `--depth`, `--width`, `--fanin`, `--reconv`, `--seed`) or imports
an ISCAS-style circuit (`--bench FILE`), assigns seeded synthetic delays in
the chosen `--family`, propagates arrivals through the CSR engine (levelized,
parallel, bit-identical at any thread count) and prints the wavefront shape,
operator counts, throughput and the slowest endpoints. See docs/SSTA.md.

`--mc-mode is` adds a tail-yield stage: per-condition `P(delay > μ + Kσ)` by
mixture importance sampling (K from --is-target-sigma, default 3), printed with
ESS and evaluator-call diagnostics. `--mc-mode lhs` (the default) counts the
same tail from plain LHS draws. The Liberty output is identical either way.

Samples files are whitespace/newline-separated numbers; `-` reads stdin.";

fn read_samples(path: &str) -> Result<Vec<f64>, Box<dyn Error>> {
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s)?;
        s
    } else {
        std::fs::read_to_string(path)?
    };
    let mut out = Vec::new();
    for tok in text.split_whitespace() {
        out.push(
            tok.parse::<f64>()
                .map_err(|_| format!("invalid sample `{tok}`"))?,
        );
    }
    if out.is_empty() {
        return Err("no samples found".into());
    }
    Ok(out)
}

fn cell_by_name(name: &str) -> Result<CellType, Box<dyn Error>> {
    CellType::ALL
        .iter()
        .copied()
        .find(|c| c.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown cell `{name}` (try INV, NAND2, XOR3, FA, …)").into())
}

fn config(opts: &Opts) -> FitConfig {
    if opts.flag("fast") {
        FitConfig::fast()
    } else {
        FitConfig::default()
    }
}

/// `--threads`/`--chunk-size` → a [`Parallelism`]. `--threads 0` (the
/// default) defers to `LVF2_THREADS` and then to the detected core count.
fn parallelism(opts: &Opts) -> Result<Parallelism, String> {
    Ok(Parallelism::auto()
        .with_threads(opts.get_or("threads", 0usize)?)
        .with_chunk_size(opts.get_or("chunk-size", DEFAULT_CHUNK_SIZE)?))
}

/// `--mc-mode`/`--is-target-sigma`/`--tail-samples` → [`TailYieldOptions`].
fn tail_options(opts: &Opts) -> Result<TailYieldOptions, Box<dyn Error>> {
    let mode: McMode = opts
        .get("mc-mode")
        .map(str::parse)
        .transpose()?
        .unwrap_or_default();
    Ok(lvf2::flow::FlowOptions::builder()
        .mc_mode(mode)
        .is_target_sigma(opts.get_or("is-target-sigma", 3.0)?)
        .tail_samples(opts.get_or("tail-samples", 2000)?)
        .build()?
        .tail_options())
}

/// Prints the per-condition tail-yield table produced by the IS stage.
fn print_tail_report(conditions: &[ConditionTailYield]) {
    println!(
        "{:>4} {:>4} {:>12} {:>12} {:>10} {:>8} {:>7}",
        "i", "j", "threshold", "P(tail)", "std_err", "ESS", "calls"
    );
    for c in conditions {
        println!(
            "{:>4} {:>4} {:>12.6} {:>12.3e} {:>10.1e} {:>8.0} {:>7}{}",
            c.slew_index,
            c.load_index,
            c.threshold,
            c.tail_probability,
            c.std_error,
            c.ess,
            c.evaluator_calls,
            if c.floored { "  (floored)" } else { "" }
        );
    }
}

/// `lvf2 characterize`: Monte-Carlo characterize one arc, fit LVF² on every
/// grid condition, write a Liberty file carrying both LVF and LVF² tables.
pub fn characterize(args: &[String]) -> CliResult {
    let opts = Opts::parse(args);
    let cell = cell_by_name(opts.get("cell").ok_or("--cell is required")?)?;
    let arc_idx: usize = opts.get_or("arc", 0)?;
    let samples: usize = opts.get_or("samples", 4000)?;
    let out = opts.get("out").ok_or("--out is required")?;
    let grid = match opts.get("grid").unwrap_or("8x8") {
        "8x8" => SlewLoadGrid::paper_8x8(),
        "3x3" => SlewLoadGrid::small_3x3(),
        other => return Err(format!("unknown grid `{other}` (8x8 or 3x3)").into()),
    };
    if arc_idx >= cell.paper_arc_count() {
        return Err(format!("{cell} has {} arcs", cell.paper_arc_count()).into());
    }
    let spec = TimingArcSpec::of(cell, arc_idx);
    let par = parallelism(&opts)?;
    let topts = tail_options(&opts)?;
    let obs = Obs::current();
    info!(
        obs,
        "characterizing {spec} over {}x{} grid, {samples} samples/condition, {} thread(s)",
        grid.slews().len(),
        grid.loads().len(),
        par.effective_threads()
    );
    let ch = characterize_arc_par(&spec, &grid, samples, &par);

    let cfg = FitConfig::fast();
    let rows = grid.slews().len();
    let cols = grid.loads().len();
    let ch = &ch;
    let entries: Vec<&[f64]> = (0..rows)
        .flat_map(|i| (0..cols).map(move |j| ch.at(i, j).delays.as_slice()))
        .collect();
    let fitted = fit_lvf2_batch(&entries, &cfg, &par)?;
    let bad = fitted.iter().filter(|f| !f.report.converged).count();
    if bad > 0 {
        warn!(obs, "{bad}/{} grid fits failed to converge", fitted.len());
    } else {
        info!(obs, "all {} grid fits converged", fitted.len());
    }
    let mut fits = fitted.into_iter();
    let mut nominal = Vec::with_capacity(rows);
    let mut models = Vec::with_capacity(rows);
    for i in 0..rows {
        let mut nrow = Vec::with_capacity(cols);
        let mut mrow = Vec::with_capacity(cols);
        for j in 0..cols {
            nrow.push(lvf2::stats::sample_mean(&ch.at(i, j).delays));
            mrow.push(fits.next().expect("one fit per grid entry").model);
        }
        nominal.push(nrow);
        models.push(mrow);
    }
    let template = format!("delay_template_{rows}x{cols}");
    let model_grid = TimingModelGrid {
        base: BaseKind::CellRise,
        index_1: grid.slews().to_vec(),
        index_2: grid.loads().to_vec(),
        nominal,
        models,
    };
    let mut lib = Library::new("lvf2_cli");
    lib.templates.push(LutTemplate {
        name: template.clone(),
        index_1: grid.slews().to_vec(),
        index_2: grid.loads().to_vec(),
    });
    lib.cells.push(Cell {
        name: format!("{}_X{}", cell.name(), spec.drive),
        pins: vec![Pin {
            name: "Y".into(),
            direction: "output".into(),
            timings: vec![TimingGroup {
                related_pin: "A".into(),
                tables: model_grid.to_tables(&template),
                ..Default::default()
            }],
        }],
    });
    std::fs::write(out, write_library(&lib))?;
    println!("wrote {out}");

    if topts.mode == McMode::ImportanceSampling {
        info!(
            obs,
            "tail-yield stage: importance sampling at {}σ, {} samples/condition",
            opts.get_or("is-target-sigma", 3.0)?,
            topts.samples
        );
        let tails = tail_yield_arc(&spec, &grid, &topts, &par);
        println!("tail yield for {spec} (P(delay > μ + Kσ), importance-sampled):");
        print_tail_report(&tails);
    }
    Ok(())
}

/// `lvf2 library`: characterize several cells and write one Liberty file.
pub fn library(args: &[String]) -> CliResult {
    let opts = Opts::parse(args);
    let names = opts
        .get("cells")
        .ok_or("--cells is required (comma-separated)")?;
    let out = opts.get("out").ok_or("--out is required")?;
    let mut cells = Vec::new();
    for name in names.split(',') {
        cells.push(cell_by_name(name.trim())?);
    }
    let grid = match opts.get("grid").unwrap_or("8x8") {
        "8x8" => SlewLoadGrid::paper_8x8(),
        "3x3" => SlewLoadGrid::small_3x3(),
        other => return Err(format!("unknown grid `{other}` (8x8 or 3x3)").into()),
    };
    let par = parallelism(&opts)?;
    let topts = tail_options(&opts)?;
    // The CLI installs the process-wide obs session in main(); the flow's
    // own config stays off so `Obs::ensure` defers to it.
    let flow_opts = lvf2::flow::FlowOptions::builder()
        .samples(opts.get_or("samples", 2000)?)
        .arcs_per_cell(opts.get_or("arcs", 1)?)
        .grid(grid)
        .fit(FitConfig::fast())
        .variation(VariationSpace::tt_22nm().scaled(opts.get_or("sigma-scale", 1.0)?))
        .parallelism(par)
        .obs(ObsConfig::off())
        .mc_mode(topts.mode)
        .is_target_sigma(topts.is.target_sigma)
        .tail_samples(topts.samples)
        .build()?;
    info!(
        Obs::current(),
        "characterizing {} cell type(s) on {} thread(s)",
        cells.len(),
        par.effective_threads()
    );
    let lib = lvf2::flow::characterize_to_library(&cells, &flow_opts)?;
    std::fs::write(out, write_library(&lib))?;
    println!("wrote {out} ({} cell groups)", lib.cells.len());

    if topts.mode == McMode::ImportanceSampling {
        let req = lvf2::flow::TailYieldRequest::new(cells).with_options(flow_opts);
        for (spec, tails) in lvf2::flow::tail_yield_report(&req)? {
            println!("tail yield for {spec} (P(delay > μ + Kσ), importance-sampled):");
            print_tail_report(&tails);
        }
    }
    Ok(())
}

/// `lvf2 serve`: run the characterization daemon until a shutdown job
/// arrives (or the process is killed).
pub fn serve(args: &[String]) -> CliResult {
    let opts = Opts::parse(args);
    let par = parallelism(&opts)?;
    let mut cfg = lvf2_serve::ServerConfig::default()
        .with_addr(opts.get("addr").unwrap_or("127.0.0.1:7272"))
        .with_workers(opts.get_or("workers", 2)?)
        .with_queue_capacity(opts.get_or("queue", 16)?)
        .with_cache_capacity(opts.get_or("cache-cap", 4096)?)
        .with_io_timeout_ms(opts.get_or("io-timeout-ms", 300_000)?)
        .with_parallelism(par);
    if let Some(path) = opts.get("port-file") {
        cfg = cfg.with_port_file(path);
    }
    if let Some(dir) = opts.get("store") {
        cfg = cfg.with_store_dir(dir);
    }
    if opts.get("deadline-ms").is_some() {
        cfg = cfg.with_default_deadline_ms(opts.get_or("deadline-ms", 0)?);
    }
    let server = lvf2_serve::Server::spawn(cfg)?;
    println!("lvf2-serve listening on {}", server.addr());
    server.join();
    println!("lvf2-serve stopped");
    Ok(())
}

/// `lvf2 submit`: send one job to a running daemon and print the result.
pub fn submit(args: &[String]) -> CliResult {
    use lvf2::obs::json;
    let opts = Opts::parse(args);
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7272");
    let job_text = if let Some(path) = opts.get("job") {
        if path == "-" {
            let mut s = String::new();
            std::io::stdin().read_to_string(&mut s)?;
            s
        } else {
            std::fs::read_to_string(path)?
        }
    } else if let Some(kind) = opts.positional(0) {
        match kind {
            "ping" | "metrics" | "shutdown" => format!("{{\"type\":\"{kind}\"}}"),
            other => {
                return Err(format!(
                    "unknown shorthand `{other}` (ping, metrics, shutdown; or --job FILE|-)"
                )
                .into())
            }
        }
    } else {
        return Err("provide a job: `lvf2 submit ping|metrics|shutdown` or `--job FILE|-`".into());
    };
    let job = json::parse(&job_text).map_err(|e| format!("invalid job JSON: {e}"))?;
    let timeout_ms = opts.get_or("timeout-ms", lvf2_serve::client::DEFAULT_IO_TIMEOUT_MS)?;
    let mut client = lvf2_serve::Client::connect_with_timeout(addr, timeout_ms)
        .map_err(|e| format!("cannot reach daemon at {addr}: {e}"))?;
    if opts.get("deadline-ms").is_some() {
        client.set_deadline_ms(Some(opts.get_or("deadline-ms", 0)?));
    }
    let retries: u32 = opts.get_or("retries", 0)?;
    let resp = if retries > 0 {
        let policy = lvf2_serve::RetryPolicy {
            max_attempts: retries + 1,
            ..lvf2_serve::RetryPolicy::default()
        };
        client.call_with_retry(job, &policy)?
    } else {
        client.call(job)?
    };
    info!(Obs::current(), "job stats: {}", resp.stats.to_json());
    if let Some(out) = opts.get("out") {
        // Characterize responses carry Liberty text; unwrap it so the file
        // is directly consumable. Anything else is written as JSON.
        let payload = match resp.result.get("library").and_then(json::Value::as_str) {
            Some(lib) => lib.to_string(),
            None => resp.result.to_json(),
        };
        std::fs::write(out, payload)?;
        println!("wrote {out}");
    } else {
        println!("{}", resp.result.to_json());
    }
    Ok(())
}

/// The job types the daemon executes, in display order.
const TOP_JOB_TYPES: [&str; 4] = ["characterize", "tail_yield", "fit", "bin"];

/// Builds the `lvf2 top` status document from one `metrics` job response:
/// queue counters, job counts, the cache block, and per-job-type latency
/// percentiles pulled from the `time.serve.job.*.us` histograms.
fn top_doc(result: &lvf2::obs::json::Value) -> Result<lvf2::obs::json::Value, Box<dyn Error>> {
    use lvf2::obs::json::Value;
    let metrics = result
        .get("metrics")
        .ok_or("response has no metrics block")?;
    if metrics.get("counters").is_none() {
        return Err(
            "daemon has no metrics registry (start it via `lvf2 serve`, which enables metrics, \
             or pass --metrics)"
                .into(),
        );
    }
    let counter = |name: &str| -> f64 {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let enqueued = counter("serve.queue.enqueued");
    let dequeued = counter("serve.queue.dequeued");
    let done = counter("serve.jobs.done");
    let queue = Value::Obj(vec![
        ("depth".into(), Value::Num((enqueued - dequeued).max(0.0))),
        ("enqueued".into(), Value::Num(enqueued)),
        ("dequeued".into(), Value::Num(dequeued)),
        (
            "rejected".into(),
            Value::Num(counter("serve.queue.rejected")),
        ),
    ]);
    let by_type = Value::Obj(
        TOP_JOB_TYPES
            .iter()
            .map(|t| {
                (
                    t.to_string(),
                    Value::Num(counter(&format!("serve.jobs.{t}"))),
                )
            })
            .collect(),
    );
    let jobs = Value::Obj(vec![
        ("total".into(), Value::Num(counter("serve.jobs"))),
        ("inflight".into(), Value::Num((dequeued - done).max(0.0))),
        ("done".into(), Value::Num(done)),
        ("by_type".into(), by_type),
    ]);
    let cache = result.get("cache").cloned().unwrap_or(Value::Obj(vec![]));
    let latency = Value::Obj(
        TOP_JOB_TYPES
            .iter()
            .filter_map(|t| {
                let h = metrics
                    .get("histograms")?
                    .get(&format!("time.serve.job.{t}.us"))?;
                let num = |k: &str| h.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                Some((
                    t.to_string(),
                    Value::Obj(vec![
                        ("count".into(), Value::Num(num("count"))),
                        ("p50_us".into(), Value::Num(num("p50"))),
                        ("p95_us".into(), Value::Num(num("p95"))),
                        ("p99_us".into(), Value::Num(num("p99"))),
                    ]),
                ))
            })
            .collect(),
    );
    Ok(Value::Obj(vec![
        ("queue".into(), queue),
        ("jobs".into(), jobs),
        ("cache".into(), cache),
        ("latency".into(), latency),
    ]))
}

/// Renders the `lvf2 top` document as the human dashboard text.
fn render_top(addr: &str, doc: &lvf2::obs::json::Value) -> String {
    use lvf2::obs::json::Value;
    let num = |path: &[&str]| -> f64 {
        let mut v = doc;
        for key in path {
            match v.get(key) {
                Some(inner) => v = inner,
                None => return 0.0,
            }
        }
        v.as_f64().unwrap_or(0.0)
    };
    let hits = num(&["cache", "hits"]);
    let misses = num(&["cache", "misses"]);
    let lookups = hits + misses;
    let hit_rate = if lookups > 0.0 {
        100.0 * hits / lookups
    } else {
        0.0
    };
    let mut out = format!("lvf2 top — {addr}\n\n");
    out.push_str(&format!(
        "queue    depth {:<6} enqueued {:<8} dequeued {:<8} rejected {}\n",
        num(&["queue", "depth"]),
        num(&["queue", "enqueued"]),
        num(&["queue", "dequeued"]),
        num(&["queue", "rejected"]),
    ));
    out.push_str(&format!(
        "jobs     total {:<6} inflight {:<8} done {}\n",
        num(&["jobs", "total"]),
        num(&["jobs", "inflight"]),
        num(&["jobs", "done"]),
    ));
    out.push_str(&format!(
        "cache    hits {:<7} misses {:<10} hit-rate {hit_rate:.1}%  entries {}  evictions {}\n",
        hits,
        misses,
        num(&["cache", "entries"]),
        num(&["cache", "evictions"]),
    ));
    let latency = doc.get("latency").and_then(Value::as_obj).unwrap_or(&[]);
    if latency.is_empty() {
        out.push_str("\nlatency  (no jobs executed yet)\n");
    } else {
        out.push_str(&format!(
            "\nlatency (µs)      {:>8} {:>12} {:>12} {:>12}\n",
            "count", "p50", "p95", "p99"
        ));
        for (job, h) in latency {
            let q = |k: &str| h.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            out.push_str(&format!(
                "  {job:<15} {:>8} {:>12.0} {:>12.0} {:>12.0}\n",
                q("count"),
                q("p50_us"),
                q("p95_us"),
                q("p99_us"),
            ));
        }
    }
    out
}

/// `lvf2 top`: live dashboard over a running daemon's `metrics` job.
pub fn top(args: &[String]) -> CliResult {
    let opts = Opts::parse(args);
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7272");
    let once = opts.flag("once");
    let json = opts.flag("json");
    let interval = std::time::Duration::from_millis(opts.get_or("interval", 1000u64)?.max(100));
    let mut client = lvf2_serve::Client::connect(addr)
        .map_err(|e| format!("cannot reach daemon at {addr}: {e}"))?;
    loop {
        let resp = client.metrics()?;
        let doc = top_doc(&resp.result)?;
        if json {
            println!("{}", doc.to_json());
        } else {
            let body = render_top(addr, &doc);
            if once {
                print!("{body}");
            } else {
                // ANSI clear screen + home, like `top` itself.
                print!("\x1b[2J\x1b[H{body}");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// `lvf2 trace`: export a `--trace-json` JSONL file to standard profiling
/// formats, or validate an exported Chrome trace.
pub fn trace(args: &[String]) -> CliResult {
    use lvf2::obs::json;
    use lvf2::obs::trace_export as tx;
    const TRACE_USAGE: &str =
        "usage: lvf2 trace export FILE [--format chrome|collapsed] [--out FILE]\n\
         \x20      lvf2 trace check FILE [--trace-id HEX]";
    let opts = Opts::parse(args);
    let sub = opts.positional(0).ok_or(TRACE_USAGE)?;
    let path = opts.positional(1).ok_or(TRACE_USAGE)?;
    let text = std::fs::read_to_string(path)?;
    match sub {
        "export" => {
            let spans = tx::parse_spans(&text);
            if spans.is_empty() {
                return Err(format!("{path}: no span records found").into());
            }
            let format = opts.get("format").unwrap_or("chrome");
            let payload = match format {
                "chrome" => {
                    let mut doc = tx::to_chrome_trace(&spans).to_json();
                    doc.push('\n');
                    doc
                }
                "collapsed" => tx::to_collapsed(&spans),
                other => return Err(format!("unknown format `{other}` (chrome, collapsed)").into()),
            };
            match opts.get("out") {
                Some(out) => {
                    std::fs::write(out, payload)?;
                    println!("wrote {out} ({} spans, {format})", spans.len());
                }
                None => print!("{payload}"),
            }
            Ok(())
        }
        "check" => {
            let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            let n = tx::validate_chrome_trace(&doc, opts.get("trace-id"))
                .map_err(|e| format!("{path}: {e}"))?;
            match opts.get("trace-id") {
                Some(id) => println!("ok: {path} ({n} events, all on trace {id})"),
                None => println!("ok: {path} ({n} events)"),
            }
            Ok(())
        }
        other => Err(format!("unknown trace subcommand `{other}`\n{TRACE_USAGE}").into()),
    }
}

/// `lvf2 inspect`: parse a .lib and summarize its statistical content.
pub fn inspect(args: &[String]) -> CliResult {
    let opts = Opts::parse(args);
    let path = opts.positional(0).ok_or("usage: lvf2 inspect FILE")?;
    let lib = parse_library(&std::fs::read_to_string(path)?)?;
    println!(
        "library `{}`: {} template(s), {} cell(s)",
        lib.name,
        lib.templates.len(),
        lib.cells.len()
    );
    for cell in &lib.cells {
        if let Some(want) = opts.get("cell") {
            if !cell.name.eq_ignore_ascii_case(want) {
                continue;
            }
        }
        println!("cell {}", cell.name);
        for pin in &cell.pins {
            for (t, timing) in pin.timings.iter().enumerate() {
                let lvf2_tables = timing
                    .tables
                    .iter()
                    .filter(|t| t.kind.stat.is_lvf2_extension())
                    .count();
                println!(
                    "  pin {} timing[{t}] related_pin={} tables={} (lvf2 extension: {})",
                    pin.name,
                    timing.related_pin,
                    timing.tables.len(),
                    lvf2_tables
                );
                for base in BaseKind::ALL {
                    if let Ok(grid) = TimingModelGrid::from_timing(timing, base) {
                        let mut lambdas: Vec<f64> =
                            grid.models.iter().flatten().map(|m| m.lambda()).collect();
                        lambdas.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                        let active = lambdas.iter().filter(|&&l| l > 0.0).count();
                        println!(
                            "    {}: {}x{} grid, λ>0 at {active}/{} entries (max λ = {:.3})",
                            base.stem(),
                            grid.index_1.len(),
                            grid.index_2.len(),
                            lambdas.len(),
                            lambdas.last().copied().unwrap_or(0.0)
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// `lvf2 fit`: fit one model family to raw samples and score it.
pub fn fit(args: &[String]) -> CliResult {
    let opts = Opts::parse(args);
    let path = opts.positional(0).ok_or("usage: lvf2 fit FILE|-")?;
    let xs = read_samples(path)?;
    let kind: ModelKind = opts.get("model").unwrap_or("lvf2").parse()?;
    let fitted = fit_model(kind, &xs, &config(&opts))?;
    println!(
        "{kind}: mean={:.6} sigma={:.6} skew={:+.4} exkurt={:+.4}",
        fitted.model.mean(),
        fitted.model.std_dev(),
        fitted.model.skewness(),
        fitted.model.excess_kurtosis()
    );
    if let lvf2::ssta::TimingDist::Lvf2(m) = &fitted.model {
        println!(
            "  λ={:.4} θ1=(μ={:.6}, σ={:.6}, γ={:+.3}) θ2=(μ={:.6}, σ={:.6}, γ={:+.3})",
            m.lambda(),
            m.first().mean(),
            m.first().std_dev(),
            m.first().skewness(),
            m.second().mean(),
            m.second().std_dev(),
            m.second().skewness(),
        );
    }
    let golden = GoldenReference::from_samples(&xs)?;
    let s = score_model(&fitted.model, &golden);
    println!(
        "  vs samples: binning_err={:.6} yield3σ_err={:.6} cdf_rmse={:.6} (ll={:.1}, {} iters, converged={})",
        s.binning_error,
        s.yield_3sigma_error,
        s.cdf_rmse,
        fitted.report.log_likelihood,
        fitted.report.iterations,
        fitted.report.converged
    );
    Ok(())
}

/// `lvf2 select`: BIC/AIC mixture-order selection.
pub fn select(args: &[String]) -> CliResult {
    let opts = Opts::parse(args);
    let path = opts.positional(0).ok_or("usage: lvf2 select FILE|-")?;
    let xs = read_samples(path)?;
    let max_order: usize = opts.get_or("max-order", 3)?;
    let criterion = if opts.flag("aic") {
        Criterion::Aic
    } else {
        Criterion::Bic
    };
    let sel = select_order(&xs, max_order, criterion, &config(&opts))?;
    println!(
        "{:>6} {:>16} {:>16}",
        "order", "criterion", "log-likelihood"
    );
    for (k, crit, ll) in &sel.candidates {
        let mark = if *k == sel.best_order { " <= best" } else { "" };
        println!("{k:>6} {crit:>16.2} {ll:>16.2}{mark}");
    }
    println!(
        "selection: K = {} ({})",
        sel.best_order,
        if sel.prefers_lvf() {
            "plain LVF suffices"
        } else {
            "store the mixture"
        }
    );
    Ok(())
}

/// `lvf2 switch`: the §3.4 depth-aware LVF vs LVF² recommendation.
pub fn switch(args: &[String]) -> CliResult {
    let opts = Opts::parse(args);
    let path = opts
        .positional(0)
        .ok_or("usage: lvf2 switch FILE|- --depth N")?;
    let xs = read_samples(path)?;
    let depth: usize = opts.get_or("depth", 1)?;
    let threshold: f64 = opts.get_or("threshold", lvf2::switch::DEFAULT_THRESHOLD)?;
    let rep = recommend_model(&xs, depth, threshold, &config(&opts))?;
    println!(
        "stage-level LVF2 error reduction: {:.2}x; projected at depth {}: {:.2}x (threshold {threshold})",
        rep.stage_reduction, rep.depth, rep.depth_reduction
    );
    println!("recommendation: {}", rep.recommendation);
    Ok(())
}

/// `lvf2 yield`: fit a model and print its tail `P(delay > target)`, exact
/// to the model ([`Distribution::sf`]), next to the share of raw samples past
/// the target.
pub fn yield_cmd(args: &[String]) -> CliResult {
    let opts = Opts::parse(args);
    for retired in ["draws", "seed"] {
        if opts.get(retired).is_some() || opts.flag(retired) {
            return Err(format!(
                "--{retired} is no longer accepted: the tail is now exact (the fitted model's sf), not sampled"
            )
            .into());
        }
    }
    let path = opts
        .positional(0)
        .ok_or("usage: lvf2 yield FILE|- --target T")?;
    let xs = read_samples(path)?;
    let target: f64 = opts
        .get("target")
        .ok_or("--target is required")?
        .parse()
        .map_err(|_| "invalid --target")?;
    let kind: ModelKind = opts.get("model").unwrap_or("lvf2").parse()?;
    let fitted = fit_model(kind, &xs, &config(&opts))?;
    let p = fitted.model.sf(target);
    let raw_fail = xs.iter().filter(|&&x| x > target).count() as f64 / xs.len() as f64;
    println!("model: {kind}; target: {target}");
    println!("P(delay > target) = {p:.6e} (exact model tail)");
    println!("yield = {:.6}%", 100.0 * (1.0 - p));
    println!(
        "raw-sample estimate: {raw_fail:.3e} ({} samples{})",
        xs.len(),
        if raw_fail == 0.0 {
            "; none past the target"
        } else {
            ""
        }
    );
    Ok(())
}

/// `lvf2 sta`: run block-based SSTA on a gate-level netlist with both LVF
/// and LVF² models, reporting per-output arrival moments and violation
/// probabilities against a golden Monte-Carlo reference.
pub fn sta(args: &[String]) -> CliResult {
    use lvf2::ssta::{parse_netlist, run_sta, StaOptions};
    let opts = Opts::parse(args);
    let path = opts
        .positional(0)
        .ok_or("usage: lvf2 sta NETLIST --clock T")?;
    let text = std::fs::read_to_string(path)?;
    let netlist = parse_netlist(&text)?;
    let sta_opts = StaOptions {
        samples: opts.get_or("samples", 2000)?,
        slew: opts.get_or("slew", 0.03)?,
        clock: opts.get_or("clock", 0.5)?,
        seed: opts.get_or("seed", 1u64)?,
        ..StaOptions::default()
    };
    info!(
        Obs::current(),
        "{} gates, {} primary outputs; clock {} ns, {} MC samples/arc",
        netlist.topology.gates.len(),
        netlist.topology.outputs.len(),
        sta_opts.clock,
        sta_opts.samples
    );
    let report = run_sta(&netlist, &sta_opts)?;
    println!(
        "{:<10} {:>10} {:>10} | {:>12} {:>12} {:>12}",
        "output", "mean (ns)", "σ (ns)", "P_viol LVF", "P_viol LVF2", "P_viol golden"
    );
    for ((lvf, lvf2), (net, golden)) in report
        .lvf
        .iter()
        .zip(&report.lvf2)
        .zip(&report.golden_violation)
    {
        println!(
            "{:<10} {:>10.5} {:>10.5} | {:>12.5} {:>12.5} {:>12.5}",
            net,
            lvf2.arrival.mean(),
            lvf2.arrival.std_dev(),
            lvf.violation_probability,
            lvf2.violation_probability,
            golden
        );
    }
    Ok(())
}

/// `lvf2 ssta`: graph-scale wavefront propagation over a generated random
/// netlist or an imported ISCAS-style `.bench` circuit.
pub fn ssta(args: &[String]) -> CliResult {
    use lvf2::ssta::{parse_bench, CsrGraph, DelayFamily, NetlistGen, SyntheticDelays};
    let opts = Opts::parse(args);
    let seed: u64 = opts.get_or("seed", 42u64)?;
    let family: DelayFamily = match opts.get("family") {
        Some(s) => s.parse()?,
        None => DelayFamily::Lvf2,
    };
    let topo = if let Some(path) = opts.get("bench") {
        parse_bench(&std::fs::read_to_string(path)?)?
    } else {
        let nodes: usize = opts.get_or("nodes", 10_000)?;
        let depth: usize = opts.get_or("depth", 0)?;
        // Auto depth √N/4: both the level count and the level width grow
        // with N (same default as ssta_bench).
        let depth = if depth > 0 {
            depth
        } else {
            ((nodes as f64).sqrt() / 4.0).round().clamp(8.0, 64.0) as usize
        };
        let mut gen = NetlistGen::with_nodes(nodes, depth);
        if let Some(w) = opts.get("width") {
            gen.width = w.parse::<usize>().map_err(|e| format!("--width: {e}"))?;
        }
        gen.max_fanin = opts.get_or("fanin", gen.max_fanin)?;
        gen.reconvergence = opts.get_or("reconv", gen.reconvergence)?;
        gen.seed = seed;
        gen.generate()
    };
    let threads: usize = opts.get_or("threads", 0usize)?;
    let par = Parallelism::auto().with_threads(threads);

    let t0 = std::time::Instant::now();
    let loaded = topo.timing_graph(&SyntheticDelays::new(family, seed))?;
    let source = loaded.source;
    let sinks = loaded.sinks;
    let csr = CsrGraph::try_from(loaded.graph)?;
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    info!(
        Obs::current(),
        "{} nodes, {} edges, {} levels (peak width {}); {family:?} delays, seed {seed}",
        csr.node_count(),
        csr.edge_count(),
        csr.level_count(),
        csr.peak_level_width()
    );

    let t1 = std::time::Instant::now();
    let prop = csr.propagate(source, &par)?;
    let wall_ms = t1.elapsed().as_secs_f64() * 1e3;

    println!(
        "graph: {} nodes, {} edges, {} levels, peak level width {}",
        csr.node_count(),
        csr.edge_count(),
        csr.level_count(),
        csr.peak_level_width()
    );
    println!(
        "propagation: {} sums, {} maxes; build {:.1} ms, propagate {:.1} ms \
         ({:.0} nodes/s, {} threads)",
        prop.sums,
        prop.maxes,
        build_ms,
        wall_ms,
        csr.node_count() as f64 / (wall_ms / 1e3),
        par.effective_threads()
    );

    // The slowest endpoints — the timing-critical sinks.
    let mut arrived: Vec<(usize, f64, f64)> = sinks
        .iter()
        .filter_map(|&s| {
            prop.arrivals[s]
                .as_ref()
                .map(|a| (s, a.mean(), a.std_dev()))
        })
        .collect();
    arrived.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("{:<10} {:>12} {:>12}", "sink", "mean (ns)", "\u{3c3} (ns)");
    for &(s, mean, sd) in arrived.iter().take(10) {
        println!("{:<10} {:>12.5} {:>12.5}", s, mean, sd);
    }
    if arrived.len() < sinks.len() {
        println!(
            "({} sinks unreachable from the source)",
            sinks.len() - arrived.len()
        );
    }
    Ok(())
}

/// `lvf2 scenario`: print samples of a Figure 3 scenario to stdout.
pub fn scenario(args: &[String]) -> CliResult {
    let opts = Opts::parse(args);
    let name = opts.positional(0).ok_or("usage: lvf2 scenario NAME")?;
    let samples: usize = opts.get_or("samples", 50_000)?;
    let seed: u64 = opts.get_or("seed", 2024)?;
    let scenario = match name.to_ascii_lowercase().as_str() {
        "two-peaks" | "2-peaks" => Scenario::TwoPeaks,
        "multi-peaks" => Scenario::MultiPeaks,
        "saddle" => Scenario::Saddle,
        "minor-saddle" => Scenario::MinorSaddle,
        "kurtosis" => Scenario::Kurtosis,
        other => return Err(format!("unknown scenario `{other}`").into()),
    };
    let mut out = String::with_capacity(samples * 10);
    for x in scenario.sample(samples, seed) {
        out.push_str(&format!("{x}\n"));
    }
    print!("{out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_lookup_is_case_insensitive() {
        assert_eq!(cell_by_name("nand2").unwrap(), CellType::Nand2);
        assert_eq!(cell_by_name("FA").unwrap(), CellType::FullAdder);
        assert!(cell_by_name("NAND9").is_err());
    }

    #[test]
    fn sample_parsing_rejects_garbage() {
        let dir = std::env::temp_dir().join("lvf2_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.txt");
        std::fs::write(&good, "1.0 2.0\n3.5").unwrap();
        assert_eq!(
            read_samples(good.to_str().unwrap()).unwrap(),
            vec![1.0, 2.0, 3.5]
        );
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "1.0 oops").unwrap();
        assert!(read_samples(bad.to_str().unwrap()).is_err());
        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "").unwrap();
        assert!(read_samples(empty.to_str().unwrap()).is_err());
    }
}
