//! Seeded input generators for the three workloads, plus the digests that
//! pin them.
//!
//! Every input is a pure function of the workload seed: the program under
//! test only ever sees the generated arcs, netlists and job streams. The
//! digest of an input set is FNV-1a over a canonical text rendering (Rust's
//! `{:?}` for `f64` is round-trip exact), so equal digests mean
//! byte-identical inputs.

use lvf2::cells::{CellType, TimingArcSpec};
use lvf2::flow::FlowOptions;
use lvf2::ssta::{CsrGraph, DelayFamily, NetlistGen, SyntheticDelays};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The input stream keyed on `(seed, salt)`. The salt is spread over the
/// high bits so that no two small `(seed, salt)` pairs share a stream.
pub fn stream(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// MC samples per grid condition in serve jobs: the paper flow's own
/// default (`FlowOptions::default()`, which is also the `lvf2 library
/// --samples` default and the one `libchar` runs with).
pub fn flow_samples() -> usize {
    FlowOptions::default().samples
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A variation scale in `[0.9, 1.1]` on a 1e-4 lattice. Dividing exact
/// integers gives the same `f64` the daemon parses from the JSON text.
fn draw_scale(m: &mut StdRng) -> f64 {
    (9000 + m.gen_range(0..2001u32)) as f64 / 10_000.0
}

// ---------------------------------------------------------------------------
// libchar
// ---------------------------------------------------------------------------

/// Cells of the characterization workload: one unimodal (INV) and two
/// whose arcs are bimodal or saddle-shaped (NAND2, XOR2).
pub const LIBCHAR_CELLS: [CellType; 3] = [CellType::Inv, CellType::Nand2, CellType::Xor2];

/// One arc to characterize, in a seeded variation space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArcInput {
    pub spec: TimingArcSpec,
    /// σ scale applied to the `tt_22nm` variation space.
    pub scale: f64,
}

/// Leading arcs of every libchar list that are the same for every seed;
/// the quality metrics are scored on them. Fit error varies several-fold
/// between arcs, so seeded quality arcs would make the metrics measure the
/// draw rather than the fitter.
pub const LIBCHAR_REFERENCE_ARCS: usize = 12;
const LIBCHAR_REFERENCE_SEED: u64 = 0x11b;

/// `n` arcs cycling through [`LIBCHAR_CELLS`], with drawn arc indices and
/// variation scales: the first [`LIBCHAR_REFERENCE_ARCS`] from a fixed
/// stream, the rest from the seed's.
pub fn libchar_arcs(seed: u64, n: usize) -> Vec<ArcInput> {
    let mut reference = stream(LIBCHAR_REFERENCE_SEED, 1);
    let mut seeded = stream(seed, 1);
    (0..n)
        .map(|i| {
            let m = if i < LIBCHAR_REFERENCE_ARCS {
                &mut reference
            } else {
                &mut seeded
            };
            let cell = LIBCHAR_CELLS[i % LIBCHAR_CELLS.len()];
            let index = m.gen_range(0..cell.paper_arc_count());
            ArcInput {
                spec: TimingArcSpec::of(cell, index),
                scale: draw_scale(m),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// ssta_graph
// ---------------------------------------------------------------------------

/// One generated netlist: structure generator plus delay model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphInput {
    pub gen: NetlistGen,
    pub delays: SyntheticDelays,
}

impl GraphInput {
    fn new(seed: u64, salt: u64, nodes: usize, depth: usize) -> GraphInput {
        let mut m = stream(seed, salt);
        GraphInput {
            gen: NetlistGen {
                seed: m.next_u64(),
                ..NetlistGen::with_nodes(nodes, depth)
            },
            delays: SyntheticDelays::new(DelayFamily::Lvf2, m.next_u64()),
        }
    }

    /// Elaborates the netlist into a levelized CSR graph; returns it with
    /// the virtual source and the sink node ids.
    pub fn build(&self) -> Result<(CsrGraph, usize, Vec<usize>), String> {
        let loaded = self
            .gen
            .generate()
            .timing_graph(&self.delays)
            .map_err(|e| format!("timing graph: {e}"))?;
        let csr = CsrGraph::try_from(loaded.graph).map_err(|e| format!("CSR: {e}"))?;
        Ok((csr, loaded.source, loaded.sinks))
    }
}

/// The timed netlists: count, nodes and logic depth of each. Propagation
/// cost varies with a netlist's structure and delays; several netlists per
/// run average that out of the throughput. At depth 8 a rank is 34 gates
/// wide, enough for the engine to run levels in parallel.
pub const SSTA_GRAPHS: usize = 12;
pub const SSTA_NODES: usize = 300;
pub const SSTA_DEPTH: usize = 8;

/// The timed netlists: reconvergent generated DAGs with LVF² delays.
pub fn ssta_inputs(seed: u64) -> Vec<GraphInput> {
    (0..SSTA_GRAPHS as u64)
        .map(|k| GraphInput::new(seed, 2 + k, SSTA_NODES, SSTA_DEPTH))
        .collect()
}

/// The netlist whose sinks are checked against golden MC. It is the same
/// for every workload seed: accuracy varies several-fold between generated
/// netlists, so a seeded one would make the quality metrics measure the
/// draw rather than the operators.
pub fn ssta_reference() -> GraphInput {
    GraphInput::new(REFERENCE_SEED, 2, REFERENCE_NODES, REFERENCE_DEPTH)
}

const REFERENCE_SEED: u64 = 0x55_7a;
const REFERENCE_NODES: usize = 300;
const REFERENCE_DEPTH: usize = 10;

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// Cells the serve workload requests; the hot set holds one job per cell.
pub const SERVE_CELLS: [CellType; 6] = [
    CellType::Inv,
    CellType::Nand2,
    CellType::Nor2,
    CellType::Xor2,
    CellType::Mux2,
    CellType::And2,
];

/// One `characterize` job: a single cell (one arc) on the 3×3 grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeJob {
    pub cell: CellType,
    pub scale: f64,
    /// EM seed; part of the cache key, so a fresh one forces a miss.
    pub fit_seed: u64,
}

impl ServeJob {
    /// The wire form of the job, with the flow's default sample count.
    pub fn to_json(self) -> String {
        format!(
            r#"{{"type":"characterize","cells":["{}"],"options":{{"samples":{},"grid":"3x3","variation":{{"scale":{}}},"fit":{{"seed":{}}}}}}}"#,
            self.cell.name(),
            flow_samples(),
            self.scale,
            self.fit_seed
        )
    }
}

/// One request of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamItem {
    /// Repeat of hot job `i` (pre-warmed: a cache read).
    Hit(usize),
    /// A job with a fresh key (MC + EM + store append).
    Miss(ServeJob),
}

/// Jobs per block of a client stream; each block holds exactly one miss.
/// No in-repo source fixes a hit/miss mix; one miss in five keeps misses
/// above the slowest tenth of jobs, so `latency_p90_ms` measures MC + EM
/// under contention while hits set the median.
pub const MISS_BLOCK: usize = 5;
const SERVE_REFERENCE_SEED: u64 = 0x5e7;

fn fresh_fit_seed(m: &mut StdRng) -> u64 {
    // 52 bits: the wire decodes numbers through f64.
    m.next_u64() >> 12
}

/// The hot set, one job per cell. It is the same for every workload seed:
/// the quality metrics are scored on it, and with seeded hot sets their
/// interquartile spread across ten seeds reached a fifth of the median.
/// The seed drives each client's stream.
pub fn serve_hot_set() -> Vec<ServeJob> {
    let mut m = stream(SERVE_REFERENCE_SEED, 3);
    SERVE_CELLS
        .iter()
        .map(|&cell| ServeJob {
            cell,
            scale: draw_scale(&mut m),
            fit_seed: fresh_fit_seed(&mut m),
        })
        .collect()
}

/// Item `k` of client `client`'s stream — a pure function of
/// `(seed, pass, client, k)`. `pass` separates the untraced and traced
/// passes of a traced run, so their misses never share a key.
pub fn serve_item(seed: u64, pass: u64, client: usize, k: usize, hot: usize) -> StreamItem {
    let block = (k / MISS_BLOCK) as u64;
    let salt = (pass << 56) ^ ((client as u64) << 40) ^ block;
    let miss_at = stream(seed ^ 0x5e7e, salt).gen_range(0..MISS_BLOCK);
    let mut m = stream(
        seed,
        salt.wrapping_mul(31)
            .wrapping_add((k % MISS_BLOCK) as u64 + 7),
    );
    if k % MISS_BLOCK != miss_at {
        return StreamItem::Hit(m.gen_range(0..hot));
    }
    let cell = SERVE_CELLS[m.gen_range(0..SERVE_CELLS.len())];
    let fit_seed = fresh_fit_seed(&mut m);
    // Half the misses also move the variation scale; all carry a fresh
    // EM seed, so no two misses share a cache key.
    let scale = if m.gen_bool(0.5) {
        1.0
    } else {
        draw_scale(&mut m)
    };
    StreamItem::Miss(ServeJob {
        cell,
        scale,
        fit_seed,
    })
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// Clients and stream prefix the serve digest covers.
const DIGEST_CLIENTS: usize = 2;
const DIGEST_STREAM: usize = 1000;
/// Arcs the libchar digest covers (more than a run reaches).
pub const LIBCHAR_ARCS: usize = 256;

/// The canonical text of a workload's generated inputs.
pub fn render(workload: &str, seed: u64) -> Result<String, String> {
    let mut out = String::new();
    match workload {
        "libchar" => {
            for a in libchar_arcs(seed, LIBCHAR_ARCS) {
                out.push_str(&format!("{:?} {:?}\n", a.spec, a.scale));
            }
        }
        "ssta_graph" => {
            for g in ssta_inputs(seed) {
                out.push_str(&format!("{:?}\n", g.gen.generate()));
                let (csr, _, _) = g.build()?;
                for e in 0..csr.edge_count() {
                    out.push_str(&format!("{:?} {:?}\n", csr.edge(e), csr.delay(e)));
                }
            }
        }
        "serve_mix" => {
            let hot = serve_hot_set();
            for j in &hot {
                out.push_str(&j.to_json());
                out.push('\n');
            }
            for c in 0..DIGEST_CLIENTS {
                for k in 0..DIGEST_STREAM {
                    out.push_str(&format!(
                        "{c} {k} {:?}\n",
                        serve_item(seed, 0, c, k, hot.len())
                    ));
                }
            }
        }
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(out)
}

/// Digest of a workload's generated inputs.
pub fn digest(workload: &str, seed: u64) -> Result<u64, String> {
    render(workload, seed).map(|text| fnv1a(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_stream_has_one_miss_per_block() {
        for k0 in (0..200).step_by(MISS_BLOCK) {
            let misses = (k0..k0 + MISS_BLOCK)
                .filter(|&k| matches!(serve_item(9, 0, 1, k, 6), StreamItem::Miss(_)))
                .count();
            assert_eq!(misses, 1, "block at {k0}");
        }
    }

    #[test]
    fn libchar_prefix_covers_every_cell() {
        let arcs = libchar_arcs(5, 3);
        let cells: Vec<_> = arcs.iter().map(|a| a.spec.id.cell).collect();
        assert_eq!(cells, LIBCHAR_CELLS.to_vec());
    }

    #[test]
    fn scales_survive_the_wire() {
        for j in serve_hot_set() {
            let text = j.to_json();
            let v = lvf2::obs::json::parse(&text).expect("job json parses");
            let s = v
                .get("options")
                .and_then(|o| o.get("variation"))
                .and_then(|o| o.get("scale"))
                .and_then(|x| x.as_f64())
                .expect("scale present");
            assert_eq!(s.to_bits(), j.scale.to_bits());
        }
    }
}
