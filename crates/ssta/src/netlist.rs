//! Gate-level netlists as integer-indexed [`Topology`]s, the one loader
//! that elaborates a topology into a [`TimingGraph`], and the LVF-vs-LVF²
//! comparison ([`run_sta`]) on *your* circuit rather than the built-in
//! benchmarks.
//!
//! Three producers build a [`Topology`]: [`parse_netlist`] (the `.net`
//! format below), [`parse_bench`] (ISCAS-85/89 `.bench`) and the random
//! generator [`NetlistGen`]. Two [`DelaySource`]s feed the loader
//! ([`Topology::timing_graph`]): the seeded [`SyntheticDelays`], and the
//! per-pin Monte-Carlo characterization [`run_sta`] performs.
//!
//! # Netlist format
//!
//! Line-based, `#` comments:
//!
//! ```text
//! input  A B CIN
//! output SUM COUT
//! gate   u1 XOR2  A  B   t1
//! gate   u2 XOR2  t1 CIN SUM
//! gate   u3 NAND2 A  B   t2
//! gate   u4 NAND2 t1 CIN t3
//! gate   u5 NAND2 t2 t3  COUT
//! ```
//!
//! Each `gate` line is `instance cell_type input_nets… output_net`; a net
//! may be used before the line that drives it. Primary inputs take node
//! ids `0..n` and gate `g` (file order) drives node `n + g`, as in
//! [`parse_bench`].

use std::collections::HashMap;

use lvf2_cells::{CellLibrary, CellType, TimingArcSpec};
use lvf2_fit::{fit_lvf, fit_lvf2, FitConfig};
use lvf2_mc::{McEngine, VariationSpace};
use lvf2_parallel::{chunk_seed, Parallelism};

use crate::csr::CsrGraph;
use crate::dist::TimingDist;
use crate::error::SstaError;
use crate::golden::propagate_samples;
use crate::graph::TimingGraph;
use crate::slack::slack_analysis;

fn parse_err(line: usize, message: impl Into<String>) -> SstaError {
    SstaError::Netlist {
        line,
        message: message.into(),
    }
}

/// Name → node-id resolution shared by the text front-ends. Every signal is
/// defined before any is resolved, so files may use a signal before the
/// line that defines it.
#[derive(Default)]
struct Resolver<'a> {
    ids: HashMap<&'a str, u32>,
}

impl<'a> Resolver<'a> {
    /// Binds signal `name`, defined on `line`, to node `id`.
    fn define(&mut self, line: usize, name: &'a str, id: usize) -> Result<(), SstaError> {
        if self.ids.insert(name, id as u32).is_some() {
            return Err(parse_err(line, format!("signal `{name}` defined twice")));
        }
        Ok(())
    }

    /// Node id of signal `name`, read on `line`.
    fn id(&self, line: usize, name: &str) -> Result<u32, SstaError> {
        let undefined = || parse_err(line, format!("undefined signal `{name}`"));
        self.ids.get(name).copied().ok_or_else(undefined)
    }

    /// Node ids of the `(line, name)` signals.
    fn ids(&self, names: &[(usize, &str)]) -> Result<Vec<u32>, SstaError> {
        names
            .iter()
            .map(|&(line, name)| self.id(line, name))
            .collect()
    }
}

/// Rejects a gate `what` whose fan-in count differs from its cell's arity.
fn check_arity(
    line: usize,
    what: impl std::fmt::Display,
    cell: CellType,
    got: usize,
) -> Result<(), SstaError> {
    if got == cell.input_count() {
        return Ok(());
    }
    Err(parse_err(
        line,
        format!(
            "{what}: {} takes {} inputs, got {got}",
            cell.name(),
            cell.input_count()
        ),
    ))
}

/// A [`Topology`] parsed from a `.net` file, with the net name of each
/// primary output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedTopology {
    /// The gate-level topology.
    pub topology: Topology,
    /// `output_names[i]` names the net of `topology.outputs[i]`.
    pub output_names: Vec<String>,
}

/// Parses the netlist format described in the module docs.
///
/// # Errors
///
/// [`SstaError::Netlist`] with a line number for unknown directives or
/// cells, arity mismatches, signals defined twice, and references to
/// undriven nets.
pub fn parse_netlist(text: &str) -> Result<NamedTopology, SstaError> {
    struct GateLine<'a> {
        line: usize,
        cell: CellType,
        inputs: Vec<&'a str>,
        output: &'a str,
    }
    let mut inputs: Vec<(usize, &str)> = Vec::new();
    let mut outputs: Vec<(usize, &str)> = Vec::new();
    let mut gates: Vec<GateLine<'_>> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let mut toks = raw.split('#').next().unwrap_or("").split_whitespace();
        match toks.next() {
            None => continue,
            Some("input") => inputs.extend(toks.map(|t| (line_no, t))),
            Some("output") => outputs.extend(toks.map(|t| (line_no, t))),
            Some("gate") => {
                let name = toks
                    .next()
                    .ok_or_else(|| parse_err(line_no, "gate needs an instance name"))?;
                let cell_name = toks
                    .next()
                    .ok_or_else(|| parse_err(line_no, "gate needs a cell type"))?;
                let cell = CellType::ALL
                    .iter()
                    .copied()
                    .find(|c| c.name().eq_ignore_ascii_case(cell_name))
                    .ok_or_else(|| parse_err(line_no, format!("unknown cell `{cell_name}`")))?;
                let mut inputs: Vec<&str> = toks.collect();
                let output = inputs
                    .pop()
                    .ok_or_else(|| parse_err(line_no, "gate needs nets"))?;
                check_arity(line_no, name, cell, inputs.len())?;
                gates.push(GateLine {
                    line: line_no,
                    cell,
                    inputs,
                    output,
                });
            }
            Some(other) => return Err(parse_err(line_no, format!("unknown directive `{other}`"))),
        }
    }

    let n_inputs = inputs.len();
    let mut names = Resolver::default();
    for (i, &(line, name)) in inputs.iter().enumerate() {
        names.define(line, name, i)?;
    }
    for (g, gate) in gates.iter().enumerate() {
        names.define(gate.line, gate.output, n_inputs + g)?;
    }
    let topo_gates = gates
        .iter()
        .map(|g| {
            Ok(TopoGate {
                cell: g.cell,
                fanin: g
                    .inputs
                    .iter()
                    .map(|n| names.id(g.line, n))
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect::<Result<_, SstaError>>()?;
    Ok(NamedTopology {
        topology: Topology {
            n_inputs,
            gates: topo_gates,
            outputs: names.ids(&outputs)?,
        },
        output_names: outputs.iter().map(|&(_, name)| name.to_string()).collect(),
    })
}

/// Options for [`run_sta`].
#[derive(Debug, Clone, PartialEq)]
pub struct StaOptions {
    /// Monte-Carlo samples per gate arc.
    pub samples: usize,
    /// Input slew assumed at every gate (ns).
    pub slew: f64,
    /// Clock target for slack/violation analysis (ns).
    pub clock: f64,
    /// Fit configuration.
    pub fit: FitConfig,
    /// Monte-Carlo seed.
    pub seed: u64,
}

impl Default for StaOptions {
    fn default() -> Self {
        StaOptions {
            samples: 2000,
            slew: 0.03,
            clock: 0.5,
            fit: FitConfig::fast(),
            seed: 1,
        }
    }
}

/// Per-output results of one model family.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputTiming {
    /// Output net name.
    pub net: String,
    /// Arrival distribution at the net.
    pub arrival: TimingDist,
    /// `P(arrival > clock)`.
    pub violation_probability: f64,
}

/// The full STA comparison report.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    /// LVF (single skew-normal) results per primary output.
    pub lvf: Vec<OutputTiming>,
    /// LVF² results per primary output.
    pub lvf2: Vec<OutputTiming>,
    /// Golden Monte-Carlo violation probability per primary output
    /// (sample-level propagation with the same per-gate samples).
    pub golden_violation: Vec<(String, f64)>,
}

/// One characterized gate pin: its Monte-Carlo delay samples and both fits.
struct PinArc {
    samples: Vec<f64>,
    lvf: TimingDist,
    lvf2: TimingDist,
}

/// The [`DelaySource`] of [`run_sta`]: characterized pins, indexed
/// `[gate][pin]`, in one model family.
struct Characterized<'a> {
    family: DelayFamily,
    pins: &'a [Vec<PinArc>],
}

impl DelaySource for Characterized<'_> {
    fn source_delay(&self) -> Result<TimingDist, SstaError> {
        zero_delay(self.family)
    }

    fn gate_delay(&self, gate: usize, pin: usize, _: CellType) -> Result<TimingDist, SstaError> {
        let arc = &self.pins[gate][pin];
        Ok(match self.family {
            DelayFamily::Lvf2 => arc.lvf2.clone(),
            _ => arc.lvf.clone(),
        })
    }
}

/// Runs block-based SSTA on a netlist with both LVF and LVF² gate models,
/// plus a sample-level golden propagation for reference.
///
/// Each gate pin is characterized once: its rise arc is Monte-Carlo
/// simulated at the output's load (fanout count × input capacitance) and
/// fitted with both families. Both graphs load through
/// [`Topology::timing_graph`] and propagate on the [`CsrGraph`] engine.
///
/// # Errors
///
/// Propagates netlist/graph/fit errors; [`SstaError::GraphCycle`] for a
/// combinational loop.
pub fn run_sta(netlist: &NamedTopology, opts: &StaOptions) -> Result<StaReport, SstaError> {
    let obs = lvf2_obs::Obs::current();
    let _span = obs.span("ssta.run_sta");
    let topo = &netlist.topology;
    obs.inc("ssta.gates", topo.gates.len() as u64);
    let lib = CellLibrary::tsmc22_like();

    // Fanout per node: gate pins it drives, plus one if it is a primary
    // output (however often listed). Out-of-range ids are left for the
    // loader to report.
    let mut outputs = topo.outputs.clone();
    outputs.sort_unstable();
    outputs.dedup();
    let mut fanout = vec![0usize; topo.node_count()];
    for &n in topo.gates.iter().flat_map(|g| &g.fanin).chain(&outputs) {
        if let Some(count) = fanout.get_mut(n as usize) {
            *count += 1;
        }
    }

    let pins = topo
        .gates
        .iter()
        .enumerate()
        .map(|(g, gate)| {
            let load = fanout[topo.n_inputs + g].max(1) as f64 * lib.input_cap(gate.cell, 1);
            (0..gate.fanin.len())
                .map(|pin| {
                    // Rise arc of this pin (arc index 2·pin), seeded per
                    // instance so identical cells differ like real layout.
                    let spec =
                        TimingArcSpec::of(gate.cell, (2 * pin) % gate.cell.paper_arc_count());
                    let seed = opts.seed ^ spec.mc_seed() ^ ((g as u64) << 17) ^ (pin as u64);
                    let samples = McEngine::new(VariationSpace::tt_22nm(), opts.samples, seed)
                        .simulate(&spec.synthesize(), opts.slew, load)
                        .delays;
                    Ok(PinArc {
                        lvf: TimingDist::Lvf(fit_lvf(&samples, &opts.fit)?.model),
                        lvf2: TimingDist::Lvf2(fit_lvf2(&samples, &opts.fit)?.model),
                        samples,
                    })
                })
                .collect::<Result<Vec<_>, SstaError>>()
        })
        .collect::<Result<Vec<_>, SstaError>>()?;

    let analyse = |family| -> Result<(CsrGraph, Vec<usize>, Vec<OutputTiming>), SstaError> {
        let loaded = topo.timing_graph(&Characterized {
            family,
            pins: &pins,
        })?;
        let csr = CsrGraph::try_from(loaded.graph)?;
        let arrivals = csr
            .propagate(loaded.source, &Parallelism::serial())?
            .arrivals;
        let slacks = slack_analysis(&csr, &arrivals, opts.clock)?;
        let outputs = loaded
            .sinks
            .iter()
            .zip(&netlist.output_names)
            .map(|(&node, net)| {
                let arrival = arrivals[node]
                    .clone()
                    .ok_or_else(|| parse_err(0, format!("output `{net}` unreachable")))?;
                Ok(OutputTiming {
                    net: net.clone(),
                    arrival,
                    violation_probability: slacks[node].violation_probability,
                })
            })
            .collect::<Result<_, SstaError>>()?;
        Ok((csr, loaded.sinks, outputs))
    };
    let (csr, sinks, lvf) = analyse(DelayFamily::Lvf)?;
    let (_, _, lvf2) = analyse(DelayFamily::Lvf2)?;

    // Golden: the same per-pin samples on the same edges, in loader order
    // (virtual-source edges first, then gate by gate, pin by pin).
    let zeros = vec![0.0; opts.samples];
    let edge_samples: Vec<&[f64]> = std::iter::repeat_n(zeros.as_slice(), topo.n_inputs)
        .chain(pins.iter().flatten().map(|p| p.samples.as_slice()))
        .collect();
    let golden = propagate_samples(&csr, 0, &edge_samples);
    let golden_violation = sinks
        .iter()
        .zip(&netlist.output_names)
        .map(|(&node, net)| {
            let samples = golden[node].as_ref().expect("outputs are reachable");
            let p =
                samples.iter().filter(|&&t| t > opts.clock).count() as f64 / samples.len() as f64;
            (net.clone(), p)
        })
        .collect();

    Ok(StaReport {
        lvf,
        lvf2,
        golden_violation,
    })
}

// ---------------------------------------------------------------------------
// Graph-scale topologies: random-netlist generator + ISCAS-style importer,
// sharing one Topology → TimingGraph loader with synthetic delay models.
// ---------------------------------------------------------------------------

/// One gate of a [`Topology`]: a library cell plus its fan-in node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoGate {
    /// Library cell type (arity matches `fanin.len()`).
    pub cell: CellType,
    /// Fan-in node ids, in pin order (`0..n_inputs` are primary inputs,
    /// `n_inputs + g` is gate `g`'s output).
    pub fanin: Vec<u32>,
}

/// An integer-indexed gate-level topology — the common product of the
/// `.net` parser ([`parse_netlist`]), the ISCAS-style `.bench` importer
/// ([`parse_bench`]) and the random-netlist generator ([`NetlistGen`]),
/// consumed by the one shared loader ([`Topology::timing_graph`]).
///
/// Node numbering: primary inputs are `0..n_inputs`; gate `g` drives node
/// `n_inputs + g`. No strings, no hash maps — at 10⁶ gates a name-based
/// representation would cost hundreds of MB before the first edge is
/// propagated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Number of primary inputs.
    pub n_inputs: usize,
    /// Gate instances; gate `g` drives node `n_inputs + g`.
    pub gates: Vec<TopoGate>,
    /// Primary-output node ids (timing endpoints).
    pub outputs: Vec<u32>,
}

impl Topology {
    /// Total nodes (primary inputs + gate outputs), excluding the virtual
    /// source the loader adds.
    pub fn node_count(&self) -> usize {
        self.n_inputs + self.gates.len()
    }

    /// Total timing edges the loader will create (gate fan-ins plus one
    /// virtual-source edge per primary input).
    pub fn edge_count(&self) -> usize {
        self.n_inputs + self.gates.iter().map(|g| g.fanin.len()).sum::<usize>()
    }

    /// Builds the timing graph with per-edge delays from `delays` — the one
    /// loader every topology producer feeds.
    ///
    /// Node `0` is a virtual source; topology node `k` becomes graph node
    /// `k + 1`. Each primary input hangs off the source with a numerically
    /// zero delay (in-family, so the statistical operators apply), and each
    /// gate fan-in pin becomes one delay edge.
    ///
    /// # Errors
    ///
    /// [`SstaError::Netlist`] when a gate references a node id outside the
    /// topology or a gate's fan-in count differs from its cell's arity;
    /// any error of the delay source.
    pub fn timing_graph(&self, delays: &impl DelaySource) -> Result<LoadedGraph, SstaError> {
        let n_nodes = self.node_count();
        let mut graph = TimingGraph::new(n_nodes + 1);
        for pi in 0..self.n_inputs {
            graph.add_edge(0, pi + 1, delays.source_delay()?)?;
        }
        for (g, gate) in self.gates.iter().enumerate() {
            check_arity(0, format_args!("gate {g}"), gate.cell, gate.fanin.len())?;
            let out = self.n_inputs + g + 1;
            for (pin, &src) in gate.fanin.iter().enumerate() {
                if src as usize >= n_nodes {
                    return Err(parse_err(
                        0,
                        format!("gate {g} pin {pin} references unknown node {src}"),
                    ));
                }
                graph.add_edge(src as usize + 1, out, delays.gate_delay(g, pin, gate.cell)?)?;
            }
        }
        let sinks = self.outputs.iter().map(|&o| o as usize + 1).collect();
        Ok(LoadedGraph {
            graph,
            source: 0,
            sinks,
        })
    }
}

/// A [`Topology`] elaborated into a propagation-ready [`TimingGraph`].
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The timing graph (virtual source + one node per topology node).
    pub graph: TimingGraph,
    /// The virtual source node (always 0).
    pub source: usize,
    /// Graph node ids of the primary outputs.
    pub sinks: Vec<usize>,
}

/// Which model family the synthetic delay generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayFamily {
    /// Plain Gaussians — the cheapest operators, for raw graph throughput.
    Normal,
    /// Single skew-normals (the LVF industry standard).
    Lvf,
    /// The paper's two-skew-normal mixture — the heaviest, most realistic
    /// workload (mixture sums/maxes + 4→2 reduction at every merge).
    #[default]
    Lvf2,
}

impl std::str::FromStr for DelayFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "normal" => Ok(DelayFamily::Normal),
            "lvf" => Ok(DelayFamily::Lvf),
            "lvf2" => Ok(DelayFamily::Lvf2),
            other => Err(format!(
                "unknown delay family `{other}` (normal, lvf, lvf2)"
            )),
        }
    }
}

/// Per-edge delays for [`Topology::timing_graph`]; an error from either
/// method aborts the load.
pub trait DelaySource {
    /// The delay of the virtual-source edge into every primary input.
    fn source_delay(&self) -> Result<TimingDist, SstaError>;

    /// The delay of gate `gate`'s input pin `pin` (cell `cell`).
    fn gate_delay(&self, gate: usize, pin: usize, cell: CellType) -> Result<TimingDist, SstaError>;
}

/// The numerically-zero virtual-source delay of `family` (in-family, so the
/// statistical operators apply).
fn zero_delay(family: DelayFamily) -> Result<TimingDist, SstaError> {
    let sn = lvf2_stats::SkewNormal::new(1e-9, 1e-12, 0.0)?;
    Ok(match family {
        DelayFamily::Normal => TimingDist::Normal(lvf2_stats::Normal::new(1e-9, 1e-12)?),
        DelayFamily::Lvf => TimingDist::Lvf(sn),
        DelayFamily::Lvf2 => TimingDist::Lvf2(lvf2_stats::Lvf2::from_lvf(sn)),
    })
}

/// Seeded synthetic per-edge delay models for graph-scale propagation.
///
/// Every delay is a pure function of `(seed, gate, pin)` via SplitMix64
/// mixing — no sequential RNG stream, so delay assignment is independent of
/// construction order (and could itself be parallelized). Means scale with
/// the cell's arity; each instance gets a ±10% "layout" jitter, an ~8%
/// sigma, and family-specific shape (skew for LVF, a bimodal split for
/// LVF²).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticDelays {
    /// Model family of every generated delay.
    pub family: DelayFamily,
    /// Base seed; different seeds give a different "layout".
    pub seed: u64,
}

impl SyntheticDelays {
    /// A delay model with the given family and seed.
    pub fn new(family: DelayFamily, seed: u64) -> Self {
        SyntheticDelays { family, seed }
    }

    /// A uniform in `[0, 1)` derived from this model's seed and `key`.
    fn uniform(&self, key: u64, salt: u64) -> f64 {
        let h = chunk_seed(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15), key);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl DelaySource for SyntheticDelays {
    fn source_delay(&self) -> Result<TimingDist, SstaError> {
        zero_delay(self.family)
    }

    fn gate_delay(&self, gate: usize, pin: usize, cell: CellType) -> Result<TimingDist, SstaError> {
        let key = (gate as u64) << 3 | pin as u64;
        let jitter = 0.90 + 0.20 * self.uniform(key, 1);
        let mean = (0.020 + 0.008 * cell.input_count() as f64) * jitter;
        let sd = 0.08 * mean;
        Ok(match self.family {
            DelayFamily::Normal => TimingDist::Normal(lvf2_stats::Normal::new(mean, sd)?),
            DelayFamily::Lvf => {
                let skew = 0.15 + 0.45 * self.uniform(key, 2);
                TimingDist::Lvf(lvf2_stats::SkewNormal::from_moments(
                    lvf2_stats::Moments::new(mean, sd, skew),
                )?)
            }
            DelayFamily::Lvf2 => {
                // Two process regimes: a fast mode and a slow mode ±4%
                // around the nominal, mixed 35–65%.
                let lambda = 0.35 + 0.30 * self.uniform(key, 3);
                let split = 0.04 * mean;
                let skew_a = 0.10 + 0.30 * self.uniform(key, 4);
                let skew_b = -0.10 - 0.30 * self.uniform(key, 5);
                let a = lvf2_stats::SkewNormal::from_moments(lvf2_stats::Moments::new(
                    mean - split,
                    sd,
                    skew_a,
                ))?;
                let b = lvf2_stats::SkewNormal::from_moments(lvf2_stats::Moments::new(
                    mean + split,
                    sd,
                    skew_b,
                ))?;
                TimingDist::Lvf2(lvf2_stats::Lvf2::new(lambda, a, b)?)
            }
        })
    }
}

/// Parameterized random-netlist generator for graph-scale SSTA.
///
/// Produces a layered DAG: `width` primary inputs feeding `depth` ranks of
/// `width` gates. Every gate keeps a "spine" edge to the same column of the
/// previous rank (so the longest path really is `depth` levels), draws its
/// remaining fan-in uniformly from the previous rank (local reconvergence),
/// and with probability `reconvergence` adds one long-range edge from a
/// uniformly chosen earlier rank (deep reconvergence — the structure that
/// stresses the statistical max).
///
/// All structure is a pure function of `(seed, rank, column)` — the same
/// SplitMix64 mixing as the delay models — so generation is deterministic
/// and order-free.
///
/// # Example
///
/// ```
/// use lvf2_ssta::{DelayFamily, NetlistGen, SyntheticDelays};
///
/// let topo = NetlistGen::with_nodes(500, 10).generate();
/// assert!(topo.node_count() >= 500);
/// let loaded = topo
///     .timing_graph(&SyntheticDelays::new(DelayFamily::Normal, 7))
///     .unwrap();
/// let arrivals = loaded.graph.arrival_times(loaded.source).unwrap();
/// assert!(loaded.sinks.iter().all(|&s| arrivals[s].is_some()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetlistGen {
    /// Gate ranks (logic depth).
    pub depth: usize,
    /// Gates per rank (and primary inputs).
    pub width: usize,
    /// Maximum fan-in per gate, clamped to `1..=4` (the library's widest
    /// cell); actual per-gate fan-in varies in `1..=max_fanin`.
    pub max_fanin: usize,
    /// Probability of one extra long-range fan-in from an earlier rank.
    pub reconvergence: f64,
    /// Structure seed.
    pub seed: u64,
}

impl Default for NetlistGen {
    fn default() -> Self {
        NetlistGen {
            depth: 16,
            width: 64,
            max_fanin: 3,
            reconvergence: 0.15,
            seed: 42,
        }
    }
}

impl NetlistGen {
    /// A generator sized to roughly `nodes` total nodes at the given logic
    /// depth (`width = ceil(nodes / (depth + 1))`, one rank of PIs plus
    /// `depth` gate ranks).
    pub fn with_nodes(nodes: usize, depth: usize) -> Self {
        let depth = depth.max(1);
        NetlistGen {
            depth,
            width: nodes.div_ceil(depth + 1).max(1),
            ..NetlistGen::default()
        }
    }

    fn uniform(&self, rank: usize, col: usize, salt: u64) -> f64 {
        let key = ((rank as u64) << 32 | col as u64).wrapping_add(salt << 56);
        let h = chunk_seed(self.seed ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9), key);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn pick(&self, rank: usize, col: usize, salt: u64, n: usize) -> usize {
        (self.uniform(rank, col, salt) * n as f64) as usize % n.max(1)
    }

    /// Generates the topology.
    pub fn generate(&self) -> Topology {
        let width = self.width.max(1);
        let depth = self.depth.max(1);
        let max_fanin = self.max_fanin.clamp(1, 4);
        // Cells by arity; the pick below indexes these with a hash.
        const BY_ARITY: [&[CellType]; 4] = [
            &[CellType::Inv, CellType::Buff],
            &[
                CellType::Nand2,
                CellType::Nor2,
                CellType::And2,
                CellType::Or2,
                CellType::Xor2,
                CellType::Xnor2,
            ],
            &[
                CellType::Nand3,
                CellType::Nor3,
                CellType::And3,
                CellType::Or3,
                CellType::Xor3,
                CellType::Xnor3,
            ],
            &[
                CellType::Nand4,
                CellType::Nor4,
                CellType::And4,
                CellType::Or4,
                CellType::Xor4,
                CellType::Xnor4,
            ],
        ];
        // rank -1 = primary inputs; gate rank r, column c = (r + 1)·width + c.
        let node_of = |rank: isize, col: usize| -> u32 {
            ((rank + 1) * width as isize + col as isize) as u32
        };
        let mut gates = Vec::with_capacity(depth * width);
        for r in 0..depth {
            for c in 0..width {
                let spine = node_of(r as isize - 1, c);
                let mut fanin = vec![spine];
                let extra = self.pick(r, c, 11, max_fanin); // 0..max_fanin-1 extras
                for k in 0..extra {
                    let j = self.pick(r, c, 13 + k as u64, width);
                    fanin.push(node_of(r as isize - 1, j));
                }
                if fanin.len() < 4 && self.uniform(r, c, 29) < self.reconvergence {
                    // Long-range edge from a uniformly chosen earlier rank
                    // (possibly the PIs).
                    let back = self.pick(r, c, 31, r + 1); // 0..=r earlier ranks
                    let j = self.pick(r, c, 37, width);
                    fanin.push(node_of(r as isize - 1 - back as isize, j));
                }
                let cell_set = BY_ARITY[fanin.len() - 1];
                let cell = cell_set[self.pick(r, c, 41, cell_set.len())];
                gates.push(TopoGate { cell, fanin });
            }
        }
        let outputs = (0..width).map(|c| node_of(depth as isize - 1, c)).collect();
        Topology {
            n_inputs: width,
            gates,
            outputs,
        }
    }
}

/// Parses an ISCAS-style `.bench` netlist into a [`Topology`].
///
/// The classic format of the ISCAS-85/89 benchmark suites:
///
/// ```text
/// # c17
/// INPUT(G1)
/// OUTPUT(G22)
/// G10 = NAND(G1, G3)
/// G22 = NAND(G10, G16)
/// ```
///
/// Supported gate functions: `NAND`, `AND`, `NOR`, `OR`, `XOR`, `XNOR`
/// (arity 2–4 map straight onto the library; wider gates are decomposed
/// into a chain of 2-input reductions plus one final gate of the original
/// type), `NOT`/`INV`, `BUF`/`BUFF`, and `DFF`: flip-flops break timing
/// paths the standard way — the DFF output becomes a pseudo primary input
/// and its data pin a timing endpoint, so sequential ISCAS-89 circuits
/// import as their combinational core.
///
/// # Errors
///
/// [`SstaError::Netlist`] with a line number for malformed lines, unknown
/// gate functions, signals defined twice, or references to undefined
/// signals.
pub fn parse_bench(text: &str) -> Result<Topology, SstaError> {
    struct Assign<'a> {
        line: usize,
        out: &'a str,
        func: &'a str,
        args: Vec<&'a str>,
    }
    let mut inputs: Vec<(usize, &str)> = Vec::new();
    let mut outputs: Vec<(usize, &str)> = Vec::new();
    let mut assigns: Vec<Assign<'_>> = Vec::new();
    let mut dff_sinks: Vec<(usize, &str)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some((out, rhs)) = line.split_once('=') {
            let out = out.trim();
            let (func, args) = parse_call(rhs.trim())
                .ok_or_else(|| parse_err(line_no, format!("malformed gate `{line}`")))?;
            if args.is_empty() {
                return Err(parse_err(line_no, format!("`{out}` has no inputs")));
            }
            if func.eq_ignore_ascii_case("DFF") {
                // Timing break: Q is a launch point, D a capture point.
                inputs.push((line_no, out));
                dff_sinks.push((line_no, args[0]));
            } else {
                assigns.push(Assign {
                    line: line_no,
                    out,
                    func,
                    args,
                });
            }
        } else if let Some((kw, args)) = parse_call(line) {
            let name = *args
                .first()
                .ok_or_else(|| parse_err(line_no, format!("`{kw}` needs a signal")))?;
            if kw.eq_ignore_ascii_case("INPUT") {
                inputs.push((line_no, name));
            } else if kw.eq_ignore_ascii_case("OUTPUT") {
                outputs.push((line_no, name));
            } else {
                return Err(parse_err(line_no, format!("unknown directive `{kw}`")));
            }
        } else {
            return Err(parse_err(line_no, format!("unparseable line `{line}`")));
        }
    }

    // Gate count per assignment is deterministic (a gate wider than 4
    // inputs decomposes into arity − 4 two-input reductions plus the final
    // gate), so every signal's node id can be assigned before any gate is
    // built — `.bench` files reference signals defined later in the file.
    let n_inputs = inputs.len();
    let mut names = Resolver::default();
    for (i, &(line, name)) in inputs.iter().enumerate() {
        names.define(line, name, i)?;
    }
    let mut next_gate = 0usize;
    for a in &assigns {
        next_gate += a.args.len().saturating_sub(4); // reductions for arity > 4
        names.define(a.line, a.out, n_inputs + next_gate)?;
        next_gate += 1;
    }

    let mut gates: Vec<TopoGate> = Vec::with_capacity(next_gate);
    for a in &assigns {
        let mut fanin: Vec<u32> = a
            .args
            .iter()
            .map(|n| names.id(a.line, n))
            .collect::<Result<_, _>>()?;
        let f = a.func.to_ascii_uppercase();
        // Reduce wide gates with the base associative op until ≤ 4 inputs
        // remain, then close with one gate of the original type.
        if fanin.len() > 4 {
            let base = match f.as_str() {
                "NAND" | "AND" => CellType::And2,
                "NOR" | "OR" => CellType::Or2,
                "XNOR" | "XOR" => CellType::Xor2,
                _ => {
                    return Err(parse_err(
                        a.line,
                        format!("`{}` cannot take {} inputs", a.func, fanin.len()),
                    ))
                }
            };
            while fanin.len() > 4 {
                let x = fanin.remove(0);
                let y = fanin.remove(0);
                let id = (n_inputs + gates.len()) as u32;
                gates.push(TopoGate {
                    cell: base,
                    fanin: vec![x, y],
                });
                fanin.insert(0, id);
            }
        }
        let cell = cell_for(&f, fanin.len())
            .ok_or_else(|| parse_err(a.line, format!("unknown gate function `{}`", a.func)))?;
        debug_assert_eq!(names.ids[a.out], (n_inputs + gates.len()) as u32);
        gates.push(TopoGate { cell, fanin });
    }

    outputs.extend(dff_sinks);
    Ok(Topology {
        n_inputs,
        gates,
        outputs: names.ids(&outputs)?,
    })
}

/// Splits `NAND(a, b)` into `("NAND", ["a", "b"])`; `None` unless a `(`
/// precedes the last `)`.
fn parse_call(s: &str) -> Option<(&str, Vec<&str>)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    let func = s[..open].trim();
    let args = s
        .get(open + 1..close)?
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .collect();
    Some((func, args))
}

/// Library cell for a `.bench` gate function at a given arity, if any.
fn cell_for(func: &str, arity: usize) -> Option<CellType> {
    Some(match (func, arity) {
        ("NOT" | "INV", 1) => CellType::Inv,
        ("BUF" | "BUFF", 1) => CellType::Buff,
        // Single-input reductions degenerate to a buffer (NAND(x) = NOT(x)).
        ("NAND" | "NOR" | "XNOR", 1) => CellType::Inv,
        ("AND" | "OR" | "XOR", 1) => CellType::Buff,
        ("NAND", 2) => CellType::Nand2,
        ("NAND", 3) => CellType::Nand3,
        ("NAND", 4) => CellType::Nand4,
        ("AND", 2) => CellType::And2,
        ("AND", 3) => CellType::And3,
        ("AND", 4) => CellType::And4,
        ("NOR", 2) => CellType::Nor2,
        ("NOR", 3) => CellType::Nor3,
        ("NOR", 4) => CellType::Nor4,
        ("OR", 2) => CellType::Or2,
        ("OR", 3) => CellType::Or3,
        ("OR", 4) => CellType::Or4,
        ("XOR", 2) => CellType::Xor2,
        ("XOR", 3) => CellType::Xor3,
        ("XOR", 4) => CellType::Xor4,
        ("XNOR", 2) => CellType::Xnor2,
        ("XNOR", 3) => CellType::Xnor3,
        ("XNOR", 4) => CellType::Xnor4,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvf2_stats::Distribution;

    const FULL_ADDER: &str = include_str!("../../../examples/netlists/full_adder.net");

    fn full_adder() -> NamedTopology {
        parse_netlist(FULL_ADDER).expect("example netlist is valid")
    }

    #[test]
    fn parses_the_full_adder() {
        let nl = full_adder();
        let topo = &nl.topology;
        assert_eq!(topo.n_inputs, 3);
        assert_eq!(nl.output_names, vec!["SUM", "COUT"]);
        assert_eq!(topo.outputs, vec![4, 7]); // u2 and u5 drive them
        assert_eq!(topo.gates.len(), 5);
        assert_eq!(topo.gates[0].cell, CellType::Xor2);
        let fanout = |n: u32| {
            topo.gates
                .iter()
                .flat_map(|g| &g.fanin)
                .filter(|&&f| f == n)
                .count()
        };
        assert_eq!(fanout(3), 2); // t1 feeds u2 and u4
        assert_eq!(fanout(4), 0); // SUM is a primary output only
    }

    #[test]
    fn net_and_bench_spellings_parse_to_the_same_topology() {
        let bench = parse_bench(
            "INPUT(A)\nINPUT(B)\nINPUT(CIN)\nOUTPUT(SUM)\nOUTPUT(COUT)\n\
             t1 = XOR(A, B)\n\
             SUM = XOR(t1, CIN)\n\
             t2 = NAND(A, B)\n\
             t3 = NAND(t1, CIN)\n\
             COUT = NAND(t2, t3)\n",
        )
        .unwrap();
        assert_eq!(full_adder().topology, bench);
    }

    #[test]
    fn rejects_malformed_netlists() {
        assert!(matches!(
            parse_netlist("gate u1 FROB A B y"),
            Err(SstaError::Netlist { line: 1, .. })
        ));
        assert!(parse_netlist("input A\ngate u1 NAND2 A y").is_err()); // arity
        assert!(parse_netlist("input A B\ngate u1 NAND2 A B y\ngate u2 NAND2 A B y").is_err()); // two drivers
        assert!(parse_netlist("input A\noutput z").is_err()); // undriven PO
        assert!(parse_netlist("input A\ngate u1 INV ghost y").is_err()); // undriven input
        assert!(parse_netlist("wibble").is_err());
    }

    #[test]
    fn duplicate_primary_input_is_a_typed_error() {
        match parse_netlist("input A A\noutput y\ngate u1 NAND2 A A y") {
            Err(SstaError::Netlist { line: 1, message }) => {
                assert_eq!(message, "signal `A` defined twice");
            }
            other => panic!("expected a line-1 netlist error, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let nl =
            parse_netlist("# top\n\ninput A B # pins\noutput y\ngate u1 NAND2 A B y\n").unwrap();
        assert_eq!(nl.topology.gates.len(), 1);
    }

    #[test]
    fn out_of_order_gates_are_handled() {
        // u2 consumes t1 before u1 defines it, textually.
        let nl =
            parse_netlist("input A B\noutput y\ngate u2 INV t1 y\ngate u1 NAND2 A B t1\n").unwrap();
        // File order: u2 drives node 2 (y), u1 drives node 3 (t1).
        assert_eq!(nl.topology.gates[0].fanin, vec![3]);
        assert_eq!(nl.topology.gates[1].fanin, vec![0, 1]);
        let loaded = nl
            .topology
            .timing_graph(&SyntheticDelays::new(DelayFamily::Normal, 1))
            .unwrap();
        let csr = CsrGraph::try_from(loaded.graph).unwrap();
        // Source, inputs, t1, then y last (graph node = topology node + 1).
        assert_eq!(csr.level_count(), 4);
        assert_eq!(csr.level(2), &[4]);
        assert_eq!(csr.level(3), &[3]);
    }

    #[test]
    fn combinational_loops_are_graph_cycles() {
        let nl =
            parse_netlist("input A\noutput y\ngate u1 NAND2 A z y\ngate u2 INV y z\n").unwrap();
        let opts = StaOptions {
            samples: 200,
            ..Default::default()
        };
        assert!(matches!(run_sta(&nl, &opts), Err(SstaError::GraphCycle)));
    }

    #[test]
    fn sta_report_is_consistent_with_golden() {
        let nl = full_adder();
        // A clock around the COUT mean keeps violation probability in the
        // informative mid-range.
        let probe = run_sta(
            &nl,
            &StaOptions {
                samples: 1500,
                ..Default::default()
            },
        )
        .unwrap();
        let cout_mean = probe.lvf2[1].arrival.mean();
        let opts = StaOptions {
            samples: 1500,
            clock: cout_mean,
            ..Default::default()
        };
        let report = run_sta(&nl, &opts).unwrap();
        assert_eq!(report.lvf.len(), 2);
        assert_eq!(report.lvf2.len(), 2);
        for (model_out, (net, golden_p)) in report.lvf2.iter().zip(&report.golden_violation) {
            assert_eq!(&model_out.net, net);
            assert!(
                (model_out.violation_probability - golden_p).abs() < 0.12,
                "{net}: LVF2 {} vs golden {golden_p}",
                model_out.violation_probability
            );
        }
        // COUT (3 gate levels) arrives later than SUM (2 levels of XOR2
        // which are slower cells — so just check both are positive and
        // ordered sanely).
        assert!(report.lvf2[0].arrival.mean() > 0.0);
        assert!(report.lvf2[1].arrival.mean() > 0.0);
    }

    #[test]
    fn sta_is_deterministic() {
        let nl = full_adder();
        let opts = StaOptions {
            samples: 400,
            ..Default::default()
        };
        let a = run_sta(&nl, &opts).unwrap();
        let b = run_sta(&nl, &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sta_report_on_the_full_adder_is_pinned() {
        // Reference bit patterns per output: LVF and LVF² (mean, σ, P_viol),
        // then the golden P_viol. Characterization, loading, propagation,
        // slack and the golden fold all feed these.
        type Pins = [(&'static str, [u64; 3], [u64; 3], u64); 2];
        // `BEFORE` bounds every re-recording of `PINNED`: each value must
        // stay within 5e-9 relative of it. LVF's row holds its bits under
        // the 48-panel max, LVF²'s its bits once the moments M-step ran on
        // pair means of the sorted samples. The LVF² bits moved at that
        // change by up to 4% (SUM's P_viol, 6.16e-5 → 6.41e-5; COUT's
        // 0.13214 → 0.13163), and by up to 36% when EM began returning its
        // best scored iterate; no drift bound covers either. An 800-sample
        // golden cannot rank those models: its P_viol has a standard error
        // of about 0.012 for COUT and is 0 for SUM.
        // COUT's LVF² P_viol moved by one ulp (…0d54 → …0d55) when the
        // skew-normal CDF moved to the vendored `exp` in Owen's T and Φ.
        const BEFORE: Pins = [
            (
                "SUM",
                [0x3fb2a7d8be9dc56e, 0x3f89593a823ed810, 0x3f38259204379e6e],
                [0x3fb2af07db53aa14, 0x3f89541a05a1d7e2, 0x3f10d03cd5797b40],
                0x0000000000000000,
            ),
            (
                "COUT",
                [0x3fbac2533a3c3543, 0x3f8bb99b3ef8f872, 0x3fc06865c99e9a83],
                [0x3fbac953271331de, 0x3f8bb086fe631cb3, 0x3fc0d92393c50d54],
                0x3fc0a3d70a3d70a4,
            ),
        ];
        const PINNED: Pins = [
            (
                "SUM",
                [0x3fb2a7d8be9dc57e, 0x3f89593a823ed5e6, 0x3f38259204382cc8],
                [0x3fb2af07db53aa14, 0x3f89541a05a1d7e2, 0x3f10d03cd5797b40],
                0x0000000000000000,
            ),
            (
                "COUT",
                [0x3fbac2533a3c3554, 0x3f8bb99b3ef8f49c, 0x3fc06865c99e9a79],
                [0x3fbac953271331de, 0x3f8bb086fe631cb3, 0x3fc0d92393c50d55],
                0x3fc0a3d70a3d70a4,
            ),
        ];
        let opts = StaOptions {
            samples: 800,
            clock: 0.12,
            ..Default::default()
        };
        let report = run_sta(&full_adder(), &opts).unwrap();
        let bits = |o: &OutputTiming| {
            [
                o.arrival.mean().to_bits(),
                o.arrival.std_dev().to_bits(),
                o.violation_probability.to_bits(),
            ]
        };
        let near = |got: [u64; 3], want: [u64; 3]| {
            got.iter().zip(want).all(|(&g, w)| {
                let (g, w) = (f64::from_bits(g), f64::from_bits(w));
                (g - w).abs() <= 5e-9 * w.abs()
            })
        };
        assert_eq!(report.lvf.len(), PINNED.len());
        for (i, ((net, lvf, lvf2, golden), before)) in PINNED.into_iter().zip(BEFORE).enumerate() {
            assert_eq!(report.lvf[i].net, net);
            assert_eq!(report.lvf2[i].net, net);
            assert!(near(bits(&report.lvf[i]), before.1), "{net} LVF moved");
            assert!(near(bits(&report.lvf2[i]), before.2), "{net} LVF2 moved");
            assert_eq!(bits(&report.lvf[i]), lvf, "{net} LVF");
            assert_eq!(bits(&report.lvf2[i]), lvf2, "{net} LVF2");
            assert_eq!(report.golden_violation[i].0, net);
            assert_eq!(
                report.golden_violation[i].1.to_bits(),
                golden,
                "{net} golden"
            );
        }
    }

    #[test]
    fn generator_hits_requested_shape() {
        let gen = NetlistGen {
            depth: 12,
            width: 20,
            max_fanin: 3,
            reconvergence: 0.3,
            seed: 9,
        };
        let topo = gen.generate();
        assert_eq!(topo.n_inputs, 20);
        assert_eq!(topo.gates.len(), 12 * 20);
        assert_eq!(topo.outputs.len(), 20);
        // Fan-in bounds hold (reconvergence may add one beyond max_fanin,
        // capped at the library's widest cell).
        for g in &topo.gates {
            assert!(!g.fanin.is_empty() && g.fanin.len() <= 4);
            assert_eq!(g.fanin.len(), g.cell.input_count());
        }
        // Deterministic and seed-sensitive.
        assert_eq!(gen.generate(), topo);
        assert_ne!(NetlistGen { seed: 10, ..gen }.generate(), topo);
    }

    #[test]
    fn generated_topology_levelizes_to_its_depth() {
        let topo = NetlistGen {
            depth: 9,
            width: 8,
            max_fanin: 3,
            reconvergence: 0.4,
            seed: 3,
        }
        .generate();
        let loaded = topo
            .timing_graph(&SyntheticDelays::new(DelayFamily::Lvf2, 3))
            .unwrap();
        let csr = CsrGraph::from_graph(&loaded.graph).unwrap();
        // Virtual source + PI rank + 9 gate ranks: the spine edges force
        // exactly depth+2 levels.
        assert_eq!(csr.level_count(), 11);
        let arrivals = loaded.graph.arrival_times(loaded.source).unwrap();
        for &s in &loaded.sinks {
            let a = arrivals[s].as_ref().expect("sink unreachable");
            // 9 gate stages at ≥ ~20 ps each.
            assert!(a.mean() > 0.15, "sink mean {}", a.mean());
        }
    }

    #[test]
    fn with_nodes_sizes_the_generator() {
        let gen = NetlistGen::with_nodes(10_000, 24);
        let topo = gen.generate();
        assert!(topo.node_count() >= 10_000);
        assert!(topo.node_count() < 11_000);
    }

    #[test]
    fn bench_importer_handles_c17() {
        let topo = parse_bench(
            "# ISCAS-85 c17\n\
             INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nINPUT(G6)\nINPUT(G7)\n\
             OUTPUT(G22)\nOUTPUT(G23)\n\
             G10 = NAND(G1, G3)\n\
             G11 = NAND(G3, G6)\n\
             G16 = NAND(G2, G11)\n\
             G19 = NAND(G11, G7)\n\
             G22 = NAND(G10, G16)\n\
             G23 = NAND(G16, G19)\n",
        )
        .unwrap();
        assert_eq!(topo.n_inputs, 5);
        assert_eq!(topo.gates.len(), 6);
        assert_eq!(topo.outputs.len(), 2);
        let loaded = topo
            .timing_graph(&SyntheticDelays::new(DelayFamily::Lvf, 1))
            .unwrap();
        let arrivals = loaded.graph.arrival_times(loaded.source).unwrap();
        for &s in &loaded.sinks {
            assert!(arrivals[s].is_some());
        }
    }

    #[test]
    fn bench_importer_breaks_paths_at_dffs() {
        // q = DFF(d): q becomes a pseudo-PI, d a timing endpoint.
        let topo = parse_bench(
            "INPUT(a)\nOUTPUT(y)\n\
             q = DFF(d)\n\
             d = AND(a, q)\n\
             y = NOT(q)\n",
        )
        .unwrap();
        assert_eq!(topo.n_inputs, 2); // a + pseudo-input q
        assert_eq!(topo.gates.len(), 2);
        // Endpoints: y plus the DFF data pin d.
        assert_eq!(topo.outputs.len(), 2);
        let loaded = topo
            .timing_graph(&SyntheticDelays::new(DelayFamily::Normal, 1))
            .unwrap();
        // The q → d → q "loop" must be broken: graph is acyclic.
        assert!(CsrGraph::try_from(loaded.graph).is_ok());
    }

    #[test]
    fn bench_importer_decomposes_wide_gates() {
        let topo = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\n\
             OUTPUT(y)\n\
             y = NAND(a, b, c, d, e, f)\n",
        )
        .unwrap();
        // 6-input NAND → 2 AND2 reductions + final NAND4.
        assert_eq!(topo.gates.len(), 3);
        assert_eq!(topo.gates[0].cell, CellType::And2);
        assert_eq!(topo.gates[1].cell, CellType::And2);
        assert_eq!(topo.gates[2].cell, CellType::Nand4);
        let y = topo.outputs[0] as usize - topo.n_inputs;
        assert_eq!(y, 2, "OUTPUT(y) must map to the final gate");
    }

    #[test]
    fn bench_importer_rejects_garbage() {
        assert!(parse_bench("G1 = FROB(G2)\nINPUT(G2)").is_err());
        assert!(parse_bench("INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)").is_err());
        assert!(parse_bench("wat").is_err());
        assert!(parse_bench("INPUT(a)\nINPUT(a)").is_err()); // defined twice
        assert!(parse_bench("INPUT(a)\nOUTPUT(z)").is_err()); // undriven output
    }

    #[test]
    fn bench_importer_rejects_inverted_parentheses() {
        for (text, line) in [("INPUT(a)\ny = )NAND(a", 2), ("OUTPUT)(y", 1)] {
            assert!(
                matches!(parse_bench(text), Err(SstaError::Netlist { line: l, .. }) if l == line),
                "{text:?}"
            );
        }
    }

    #[test]
    fn delay_families_parse_and_differ() {
        use std::str::FromStr;
        assert_eq!(DelayFamily::from_str("LVF2").unwrap(), DelayFamily::Lvf2);
        assert!(DelayFamily::from_str("cauchy").is_err());
        let d = SyntheticDelays::new(DelayFamily::Lvf2, 5);
        let a = d.gate_delay(0, 0, CellType::Nand2).unwrap();
        let b = d.gate_delay(0, 1, CellType::Nand2).unwrap();
        assert_ne!(a, b, "per-pin delays must differ");
        assert_eq!(a, d.gate_delay(0, 0, CellType::Nand2).unwrap());
        assert!(matches!(a, TimingDist::Lvf2(_)));
    }
}
