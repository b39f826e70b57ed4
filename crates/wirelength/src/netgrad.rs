//! Whole-netlist wirelength evaluation: sums a [`NetModel`] over every net
//! (both axes) and accumulates pin gradients onto cells.
//!
//! This is the `Σ_e W_e(x, y)` term of the global placement objective
//! (Eq. (1)). Evaluation runs on the persistent [`EvalEngine`] in two
//! passes, each over parts that own disjoint slices of the output:
//!
//! 1. **Nets.** The netlist is partitioned once into pin-count-balanced
//!    contiguous net ranges (CSR prefix sums, so a part with a few huge
//!    nets gets fewer of them). Each part owns a workspace arena (cloned
//!    model, gather table, scratch) that lives across iterations, and
//!    writes its per-net values and per-pin gradients straight into its
//!    own slices of shared buffers. Under the Moreau model a part's nets
//!    of degree 2–8 are grouped by degree into `LANES`-wide lane groups
//!    and evaluated by the lane kernel (`moreau_lanes.rs`); every other
//!    net, and every net under the other models, takes the scalar loop.
//! 2. **Cells.** Pin-count-balanced cell ranges each sum their cells' pin
//!    gradients into the output.
//!
//! # Pin slots
//!
//! Pin gradients are kept in *slot* order, not pin order. Within a part
//! the lane groups come first, lane-major (pin `j` of lane `l` of a group
//! starting at slot `s` sits at `s + j·LANES + l`), then the pins of the
//! scalar nets in CSR order. The gather table follows the same order, and
//! each cell keeps the slots of its pins in its CSR order for the scatter.
//! A group that is not full repeats its first net in the empty lanes;
//! those slots are computed but never read.
//!
//! # Determinism
//!
//! Evaluation is **bit-identical at any thread count** (including the
//! serial path):
//!
//! * each net's value and per-pin gradients depend only on that net's
//!   coordinates, never on which part, lane or thread computed them (the
//!   lane kernel performs the scalar kernel's operations in every lane);
//! * net values are summed in global net order on the calling thread;
//! * each cell sums its pins' gradients in its CSR order, whatever the
//!   partition.

use crate::engine::{EvalEngine, Stage, MAX_OWNED_PARTS};
use crate::model::{AnyModel, NetModel};
use crate::moreau_lanes::{eval_lanes, Lanes, LANES, MAX_LANE_DEGREE};
use mep_netlist::{NetId, Netlist, PinId, Placement};
use std::ops::Range;
use std::sync::Arc;

/// Result of one whole-netlist wirelength evaluation.
#[derive(Debug, Clone, Default)]
pub struct WirelengthGrad {
    /// Model wirelength summed over nets and both axes.
    pub value: f64,
    /// `∂/∂x_c` per cell (lower-left = center derivative; offsets are constant).
    pub grad_x: Vec<f64>,
    /// `∂/∂y_c` per cell.
    pub grad_y: Vec<f64>,
}

impl WirelengthGrad {
    /// Zero-initialized buffers for `num_cells`.
    pub fn zeros(num_cells: usize) -> Self {
        Self {
            value: 0.0,
            grad_x: vec![0.0; num_cells],
            grad_y: vec![0.0; num_cells],
        }
    }

    /// Sizes the buffers for `num_cells` without clearing them: the
    /// scatter pass writes every cell.
    fn resize(&mut self, num_cells: usize) {
        self.value = 0.0;
        self.grad_x.resize(num_cells, 0.0);
        self.grad_y.resize(num_cells, 0.0);
    }
}

/// Up to [`LANES`] nets of one degree in `2..=MAX_LANE_DEGREE`, evaluated
/// together by the lane kernel.
#[derive(Debug)]
struct LaneGroup {
    deg: usize,
    /// Part-local slot of pin 0 of lane 0.
    slot: usize,
    /// Filled lanes; the others repeat lane 0 and are never read.
    len: usize,
    /// Part-local net index of each lane.
    net: [usize; LANES],
    weight: Lanes,
}

/// A net of degree below 2 or above [`MAX_LANE_DEGREE`]: evaluated alone,
/// its pins in consecutive slots.
#[derive(Debug)]
struct ScalarNet {
    /// Part-local net index.
    net: usize,
    /// Part-local slot of pin 0.
    slot: usize,
    deg: usize,
    weight: f64,
}

/// Per-slot gather table: owning cell, and offset from the cell's
/// lower-left corner to the pin (half-extent + pin offset), so a gather is
/// one add per axis.
#[derive(Debug)]
struct Gather {
    cell: Vec<u32>,
    bias_x: Vec<f64>,
    bias_y: Vec<f64>,
}

impl Gather {
    fn with_capacity(slots: usize) -> Self {
        Self {
            cell: Vec::with_capacity(slots),
            bias_x: Vec::with_capacity(slots),
            bias_y: Vec::with_capacity(slots),
        }
    }

    /// Appends the entry of `pin` as the next slot and returns that slot.
    fn append_pin(&mut self, netlist: &Netlist, pin: usize) -> usize {
        let pin = PinId::from_usize(pin);
        let cell = netlist.pin_cell(pin);
        self.cell.push(cell.index() as u32);
        self.bias_x
            .push(0.5 * netlist.cell_width(cell) + netlist.pin_offset_x(pin));
        self.bias_y
            .push(0.5 * netlist.cell_height(cell) + netlist.pin_offset_y(pin));
        self.cell.len() - 1
    }

    #[inline(always)]
    fn xy(&self, placement: &Placement, slot: usize) -> (f64, f64) {
        let cell = self.cell[slot] as usize;
        (
            placement.x[cell] + self.bias_x[slot],
            placement.y[cell] + self.bias_y[slot],
        )
    }
}

/// The scalar loop: a clone of the model, and scratch for the coordinates
/// and axis gradients of one net.
#[derive(Debug)]
struct ScalarKernel {
    model: AnyModel,
    xs: Vec<f64>,
    ys: Vec<f64>,
    gx: Vec<f64>,
    gy: Vec<f64>,
}

impl ScalarKernel {
    fn new(model: &AnyModel, max_deg: usize) -> Self {
        let [xs, ys, gx, gy] = std::array::from_fn(|_| vec![0.0; max_deg]);
        Self {
            model: model.clone(),
            xs,
            ys,
            gx,
            gy,
        }
    }

    /// Evaluates one net with the model's own kernel; pin `j` of the net
    /// sits at slot `net.slot + j·stride`.
    fn eval(
        &mut self,
        gather: &Gather,
        placement: &Placement,
        net: &ScalarNet,
        stride: usize,
        value: &mut [f64],
        grad: Option<&mut [[f64; 2]]>,
    ) {
        let deg = net.deg;
        let slots = (0..deg).map(|j| net.slot + j * stride);
        if deg < 2 {
            value[net.net] = 0.0;
            if let Some(grad) = grad {
                for s in slots {
                    grad[s] = [0.0, 0.0];
                }
            }
            return;
        }
        let ScalarKernel {
            model,
            xs,
            ys,
            gx,
            gy,
        } = self;
        for ((xo, yo), s) in xs[..deg].iter_mut().zip(&mut ys[..deg]).zip(slots.clone()) {
            (*xo, *yo) = gather.xy(placement, s);
        }
        let w = net.weight;
        match grad {
            Some(grad) => {
                let vx = model.eval_axis(&xs[..deg], &mut gx[..deg]);
                let vy = model.eval_axis(&ys[..deg], &mut gy[..deg]);
                value[net.net] = w * (vx + vy);
                for ((&g, &h), s) in gx[..deg].iter().zip(&gy[..deg]).zip(slots) {
                    grad[s] = [w * g, w * h];
                }
            }
            None => {
                value[net.net] = w * (model.value_axis(&xs[..deg]) + model.value_axis(&ys[..deg]));
            }
        }
    }
}

/// Per-part workspace arena: everything one part needs to evaluate its net
/// range without touching shared state.
#[derive(Debug)]
struct PartArena {
    groups: Vec<LaneGroup>,
    scalar: Vec<ScalarNet>,
    gather: Gather,
    kernel: ScalarKernel,
}

impl PartArena {
    /// Lays out the nets `nets`: the degree-2–8 nets grouped by degree (in
    /// ascending net order), then the rest. Records the global slot of
    /// every pin in `pin_slot` (`slot_lo` is the part's first slot).
    fn build(
        netlist: &Netlist,
        model: &AnyModel,
        nets: Range<usize>,
        slot_lo: usize,
        pin_slot: &mut [u32],
    ) -> Self {
        let net_lo = nets.start;
        let degree = |n: usize| netlist.net_degree(NetId::from_usize(n));
        let weight = |n: usize| netlist.net_weight(NetId::from_usize(n));
        let first_pin = |n: usize| netlist.net_pin_range(NetId::from_usize(n)).start;
        let in_lanes = |n: &usize| (2..=MAX_LANE_DEGREE).contains(&degree(*n));
        // lane nets by degree, ascending net order within a degree (the
        // sort is stable)
        let mut lane_nets: Vec<usize> = nets.clone().filter(in_lanes).collect();
        lane_nets.sort_by_key(|&n| degree(n));
        let same_degree = |a: &usize, b: &usize| degree(*a) == degree(*b);
        let slots = lane_nets
            .chunk_by(same_degree)
            .map(|same| same.len().div_ceil(LANES) * LANES * degree(same[0]))
            .sum::<usize>()
            + nets
                .clone()
                .filter(|n| !in_lanes(n))
                .map(degree)
                .sum::<usize>();
        let mut gather = Gather::with_capacity(slots);
        let groups = lane_nets
            .chunk_by(same_degree)
            .flat_map(|same| same.chunks(LANES))
            .map(|chunk| {
                let deg = degree(chunk[0]);
                let slot = gather.cell.len();
                // empty lanes repeat lane 0 (its pins, weight 0)
                let lane = |l: usize| chunk.get(l).copied().unwrap_or(chunk[0]);
                for j in 0..deg {
                    for l in 0..LANES {
                        let pin = first_pin(lane(l)) + j;
                        let s = gather.append_pin(netlist, pin);
                        if l < chunk.len() {
                            pin_slot[pin] = (slot_lo + s) as u32;
                        }
                    }
                }
                LaneGroup {
                    deg,
                    slot,
                    len: chunk.len(),
                    net: std::array::from_fn(|l| lane(l) - net_lo),
                    weight: std::array::from_fn(|l| {
                        if l < chunk.len() {
                            weight(lane(l))
                        } else {
                            0.0
                        }
                    }),
                }
            })
            .collect();
        let scalar = nets
            .filter(|n| !in_lanes(n))
            .map(|n| {
                let slot = gather.cell.len();
                for pin in first_pin(n)..first_pin(n) + degree(n) {
                    pin_slot[pin] = (slot_lo + gather.append_pin(netlist, pin)) as u32;
                }
                ScalarNet {
                    net: n - net_lo,
                    slot,
                    deg: degree(n),
                    weight: weight(n),
                }
            })
            .collect::<Vec<_>>();
        // the scalar loop also serves lane-group nets under other models
        let max_deg = scalar
            .iter()
            .map(|s| s.deg)
            .fold(MAX_LANE_DEGREE, usize::max);
        debug_assert_eq!(gather.cell.len(), slots);
        PartArena {
            groups,
            scalar,
            gather,
            kernel: ScalarKernel::new(model, max_deg),
        }
    }
}

/// One part's share of an evaluation: its arena and the disjoint output
/// slices it writes (its nets' values, its slots' gradients).
struct PartOut<'a> {
    arena: &'a mut PartArena,
    value: &'a mut [f64],
    grad: &'a mut [[f64; 2]],
}

impl PartOut<'_> {
    /// Evaluates the part: per-net weighted values, and (when `with_grad`)
    /// per-slot weighted gradients. Output depends only on the part's
    /// nets, never on the thread.
    fn eval(self, placement: &Placement, with_grad: bool) {
        let PartOut { arena, value, grad } = self;
        let PartArena {
            groups,
            scalar,
            gather,
            kernel,
        } = arena;
        let mut grad = with_grad.then_some(grad);
        if let AnyModel::Moreau(m) = &kernel.model {
            let t = m.smoothing();
            for g in groups.iter() {
                let grad = grad.as_deref_mut();
                match g.deg {
                    2 => lane_group::<2>(g, gather, placement, t, value, grad),
                    3 => lane_group::<3>(g, gather, placement, t, value, grad),
                    4 => lane_group::<4>(g, gather, placement, t, value, grad),
                    5 => lane_group::<5>(g, gather, placement, t, value, grad),
                    6 => lane_group::<6>(g, gather, placement, t, value, grad),
                    7 => lane_group::<7>(g, gather, placement, t, value, grad),
                    // groups are built with degrees 2..=MAX_LANE_DEGREE only
                    _ => lane_group::<MAX_LANE_DEGREE>(g, gather, placement, t, value, grad),
                }
            }
        } else {
            for g in groups.iter() {
                for l in 0..g.len {
                    let net = ScalarNet {
                        net: g.net[l],
                        slot: g.slot + l,
                        deg: g.deg,
                        weight: g.weight[l],
                    };
                    let grad = grad.as_deref_mut();
                    kernel.eval(gather, placement, &net, LANES, value, grad);
                }
            }
        }
        for net in scalar.iter() {
            let grad = grad.as_deref_mut();
            kernel.eval(gather, placement, net, 1, value, grad);
        }
    }
}

/// Evaluates one lane group of degree `D` with the lane kernel.
#[inline(always)]
fn lane_group<const D: usize>(
    g: &LaneGroup,
    gather: &Gather,
    placement: &Placement,
    t: f64,
    value: &mut [f64],
    grad: Option<&mut [[f64; 2]]>,
) {
    let slots = g.slot..g.slot + D * LANES;
    let cells = &gather.cell[slots.clone()];
    let bias_x = &gather.bias_x[slots.clone()];
    let bias_y = &gather.bias_y[slots];
    let mut x = [[0.0; LANES]; D];
    let mut y = [[0.0; LANES]; D];
    for j in 0..D {
        for l in 0..LANES {
            let s = j * LANES + l;
            let cell = cells[s] as usize;
            x[j][l] = placement.x[cell] + bias_x[s];
            y[j][l] = placement.y[cell] + bias_y[s];
        }
    }
    let (ex, ey) = match grad {
        Some(grad) => {
            let mut gx = [[0.0; LANES]; D];
            let mut gy = [[0.0; LANES]; D];
            let ex = eval_lanes::<D>(&x, t, Some(&mut gx));
            let ey = eval_lanes::<D>(&y, t, Some(&mut gy));
            let out = &mut grad[g.slot..g.slot + D * LANES];
            for j in 0..D {
                for l in 0..LANES {
                    out[j * LANES + l] = [g.weight[l] * gx[j][l], g.weight[l] * gy[j][l]];
                }
            }
            (ex, ey)
        }
        None => (eval_lanes::<D>(&x, t, None), eval_lanes::<D>(&y, t, None)),
    };
    for l in 0..g.len {
        // the model value is `W_e^t + t` per axis, as in `Moreau::eval_axis`
        value[g.net[l]] = g.weight[l] * ((ex[l] + t) + (ey[l] + t));
    }
}

/// Cuts `buf` at the ascending offsets `starts` (first 0, last
/// `buf.len()`) into one piece per part.
fn split<'a, T>(buf: &'a mut [T], starts: &'a [u32]) -> impl Iterator<Item = &'a mut [T]> + 'a {
    let mut rest = buf;
    starts.windows(2).map(move |w| {
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut((w[1] - w[0]) as usize);
        rest = tail;
        piece
    })
}

/// Boundaries of `parts` contiguous ranges over `items` balanced by the
/// CSR prefix `prefix` (`prefix(items)` is the total): part `k` starts at
/// the first item whose prefix reaches `k/parts` of the total.
fn balanced_starts(items: usize, parts: usize, prefix: impl Fn(usize) -> usize) -> Vec<u32> {
    let total = prefix(items);
    let mut lo = 0usize;
    let mut starts: Vec<u32> = (0..=parts)
        .map(|k| {
            let target = (total as u128 * k as u128 / parts as u128) as usize;
            let mut hi = items;
            while lo < hi {
                let mid = (lo + hi) / 2;
                if prefix(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo as u32
        })
        .collect();
    starts[parts] = items as u32;
    starts
}

/// Topology-derived state, cached per netlist instance.
#[derive(Debug)]
struct Workspace {
    netlist_instance: u64,
    parts: usize,
    /// Pin-count-balanced partition: part `p` owns nets
    /// `part_net_start[p]..part_net_start[p+1]` (contiguous, ascending)
    /// and slots `part_slot_start[p]..part_slot_start[p+1]`.
    part_net_start: Vec<u32>,
    part_slot_start: Vec<u32>,
    /// Scatter partition: part `p` owns cells
    /// `part_cell_start[p]..part_cell_start[p+1]`.
    part_cell_start: Vec<u32>,
    /// Slots of each cell's pins in its CSR order: cell `c`'s are
    /// `cell_slot[cell_slot_start[c]..cell_slot_start[c+1]]`.
    cell_slot_start: Vec<u32>,
    cell_slot: Vec<u32>,
    /// Weighted value per net, in net order.
    net_value: Vec<f64>,
    /// Weighted `[x, y]` gradient per slot (one cache line per pin read
    /// in the scatter).
    slot_grad: Vec<[f64; 2]>,
    arenas: Vec<PartArena>,
}

impl Workspace {
    fn build(netlist: &Netlist, model: &AnyModel, parts: usize) -> Self {
        let nets = netlist.num_nets();
        let pins = netlist.num_pins();
        let part_net_start = balanced_starts(nets, parts, |net| {
            if net == nets {
                pins
            } else {
                netlist.net_pin_range(NetId::from_usize(net)).start
            }
        });

        let mut pin_slot = vec![0u32; pins];
        let mut part_slot_start = vec![0u32];
        let arenas = part_net_start
            .windows(2)
            .map(|w| {
                let nets = w[0] as usize..w[1] as usize;
                let slot_lo = part_slot_start[part_slot_start.len() - 1] as usize;
                let arena = PartArena::build(netlist, model, nets, slot_lo, &mut pin_slot);
                part_slot_start.push((slot_lo + arena.gather.cell.len()) as u32);
                arena
            })
            .collect();
        let slots = part_slot_start[parts] as usize;

        let cell_slot_start: Vec<u32> = std::iter::once(0)
            .chain(netlist.cells().scan(0, |acc, cell| {
                *acc += netlist.cell_pins(cell).len() as u32;
                Some(*acc)
            }))
            .collect();
        let mut cell_slot = Vec::with_capacity(pins);
        cell_slot.extend(
            netlist
                .cells()
                .flat_map(|cell| netlist.cell_pins(cell))
                .map(|pin| pin_slot[pin.index()]),
        );
        let part_cell_start =
            balanced_starts(netlist.num_cells(), parts, |c| cell_slot_start[c] as usize);

        Self {
            netlist_instance: netlist.instance_id(),
            parts,
            part_net_start,
            part_slot_start,
            part_cell_start,
            cell_slot_start,
            cell_slot,
            net_value: vec![0.0; nets],
            slot_grad: vec![[0.0; 2]; slots],
            arenas,
        }
    }

    /// The net pass: every part evaluates its nets into its slices of
    /// `net_value` (and, when `with_grad`, of the slot gradients).
    fn eval_nets(
        &mut self,
        engine: &EvalEngine,
        items: usize,
        placement: &Placement,
        with_grad: bool,
    ) {
        let parts = self
            .arenas
            .iter_mut()
            .zip(split(&mut self.net_value, &self.part_net_start))
            .zip(split(&mut self.slot_grad, &self.part_slot_start))
            .map(|((arena, value), grad)| PartOut { arena, value, grad });
        engine.run_owned(items, parts, &|part| part.eval(placement, with_grad));
    }

    /// Net values summed in global net order.
    fn total(&self) -> f64 {
        let mut total = 0.0;
        for v in &self.net_value {
            total += v;
        }
        total
    }

    /// The cell pass: every cell range sums its cells' slot gradients (in
    /// cell-CSR order) into its slices of `grad_x`/`grad_y`.
    fn scatter(&self, engine: &EvalEngine, items: usize, grad_x: &mut [f64], grad_y: &mut [f64]) {
        let starts = &self.part_cell_start;
        let parts = starts
            .iter()
            .zip(split(grad_x, starts))
            .zip(split(grad_y, starts));
        engine.run_owned(items, parts, &|((&cell_lo, out_x), out_y)| {
            let cells = cell_lo as usize..cell_lo as usize + out_x.len();
            let bounds = &self.cell_slot_start[cells.start..=cells.end];
            for ((ox, oy), b) in out_x
                .iter_mut()
                .zip(out_y.iter_mut())
                .zip(bounds.windows(2))
            {
                let (mut ax, mut ay) = (0.0, 0.0);
                for &s in &self.cell_slot[b[0] as usize..b[1] as usize] {
                    let [gx, gy] = self.slot_grad[s as usize];
                    ax += gx;
                    ay += gy;
                }
                *ox = ax;
                *oy = ay;
            }
        });
    }
}

/// Reusable whole-netlist evaluator for one wirelength model, backed by a
/// persistent [`EvalEngine`].
#[derive(Debug)]
pub struct NetlistEvaluator {
    model: AnyModel,
    engine: Arc<EvalEngine>,
    ws: Option<Workspace>,
}

impl NetlistEvaluator {
    /// Creates an evaluator dispatching through `engine`.
    pub fn new(model: AnyModel, engine: Arc<EvalEngine>) -> Self {
        Self {
            model,
            engine,
            ws: None,
        }
    }

    /// Strictly serial evaluator (private engine with one thread); handy
    /// for tests and small tools.
    pub fn serial(model: AnyModel) -> Self {
        Self::new(model, Arc::new(EvalEngine::new(1)))
    }

    /// The engine this evaluator dispatches through.
    pub fn engine(&self) -> &Arc<EvalEngine> {
        &self.engine
    }

    /// The wrapped model (e.g. to change its smoothing parameter).
    pub fn model_mut(&mut self) -> &mut AnyModel {
        &mut self.model
    }

    /// The wrapped model.
    pub fn model(&self) -> &AnyModel {
        &self.model
    }

    /// Replaces the wirelength model in place (the placer's degradation
    /// ladder: Moreau → WA → LSE). The workspace topology is kept — only
    /// the per-part model clones are swapped, so no workspace reallocation
    /// is recorded and the next evaluation is bit-identical to a fresh
    /// evaluator built on the new model.
    pub fn set_model(&mut self, model: AnyModel) {
        self.model = model;
        if let Some(ws) = &mut self.ws {
            for arena in &mut ws.arenas {
                arena.kernel.model = self.model.clone();
            }
        }
    }

    /// Ensures the workspace matches this netlist's topology and the
    /// engine's part count, then syncs the per-part model smoothing.
    fn prepare(&mut self, netlist: &Netlist) -> &mut Workspace {
        let parts = self.engine.threads().min(MAX_OWNED_PARTS);
        let stale = match &self.ws {
            Some(ws) => ws.netlist_instance != netlist.instance_id() || ws.parts != parts,
            None => true,
        };
        if stale {
            self.ws = None;
            self.engine.note_workspace_alloc();
        }
        let model = &self.model;
        let ws = self
            .ws
            .get_or_insert_with(|| Workspace::build(netlist, model, parts));
        let smoothing = model.smoothing();
        for arena in &mut ws.arenas {
            arena.kernel.model.set_smoothing(smoothing);
        }
        ws
    }

    /// Evaluates value + cell gradients into `out` (buffers are reused).
    ///
    /// Bit-identical across engine thread counts; see the module docs.
    pub fn evaluate(&mut self, netlist: &Netlist, placement: &Placement, out: &mut WirelengthGrad) {
        out.resize(netlist.num_cells());
        let items = netlist.num_nets();
        if items == 0 {
            out.grad_x.fill(0.0);
            out.grad_y.fill(0.0);
            return;
        }
        let engine = Arc::clone(&self.engine);
        let ws = self.prepare(netlist);
        engine.time_stage(Stage::WlGrad, || {
            ws.eval_nets(&engine, items, placement, true);
            out.value = ws.total();
            ws.scatter(&engine, items, &mut out.grad_x, &mut out.grad_y);
        });
    }

    /// Value only (no gradient buffers touched). Runs on the engine like
    /// [`NetlistEvaluator::evaluate`] and is equally deterministic.
    pub fn value(&mut self, netlist: &Netlist, placement: &Placement) -> f64 {
        let items = netlist.num_nets();
        if items == 0 {
            return 0.0;
        }
        let engine = Arc::clone(&self.engine);
        let ws = self.prepare(netlist);
        engine.time_stage(Stage::WlValue, || {
            ws.eval_nets(&engine, items, placement, false);
            ws.total()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use mep_netlist::synth;
    use mep_netlist::total_hpwl;

    fn parallel_eval(model: AnyModel, threads: usize) -> NetlistEvaluator {
        // threshold 1 forces the parallel path on the tiny smoke circuit
        NetlistEvaluator::new(
            model,
            Arc::new(EvalEngine::new(threads).with_parallel_threshold(1)),
        )
    }

    #[test]
    fn matches_exact_hpwl_with_hpwl_model() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut eval = NetlistEvaluator::serial(ModelKind::Hpwl.instantiate(0.0));
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(nl, &c.placement, &mut out);
        let exact = total_hpwl(nl, &c.placement);
        assert!((out.value - exact).abs() < 1e-6 * exact.max(1.0));
    }

    /// Asserts `got` equals `want` bit for bit: value and every gradient.
    fn assert_bitwise(got: &WirelengthGrad, want: &WirelengthGrad, what: &str) {
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "{what}: value");
        assert_eq!(got.grad_x.len(), want.grad_x.len(), "{what}");
        for (i, (g, w)) in got.grad_x.iter().zip(&want.grad_x).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: gx[{i}]");
        }
        for (i, (g, w)) in got.grad_y.iter().zip(&want.grad_y).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: gy[{i}]");
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        for kind in ModelKind::contestants() {
            let model = kind.instantiate(2.0);
            let mut serial = NetlistEvaluator::serial(model.clone());
            let mut a = WirelengthGrad::zeros(nl.num_cells());
            serial.evaluate(nl, &c.placement, &mut a);
            for threads in [1, 2, 8] {
                let mut par = parallel_eval(model.clone(), threads);
                let mut b = WirelengthGrad::zeros(nl.num_cells());
                par.evaluate(nl, &c.placement, &mut b);
                if threads > 1 {
                    assert!(
                        par.engine().stats().parallel_runs > 0,
                        "{kind}: parallel path not exercised"
                    );
                }
                assert_bitwise(&b, &a, &format!("{kind} at {threads} threads"));
            }
        }
    }

    /// A netlist with nets of every degree 1..=12: each degree has a full
    /// lane group and a partly filled one, pins carry offsets, nets carry
    /// weights, and some cells are shared by many nets.
    fn every_degree_netlist() -> (Netlist, Placement) {
        let mut b = mep_netlist::NetlistBuilder::new();
        let cells: Vec<_> = (0..40)
            .map(|i| {
                b.add_cell(format!("c{i}"), 1.0 + (i % 3) as f64, 1.0, true)
                    .unwrap()
            })
            .collect();
        let mut k = 0usize;
        for deg in 1..=12usize {
            for n in 0..LANES + 3 + deg % 3 {
                let pins = (0..deg).map(|j| {
                    k += 1;
                    let off = (k % 5) as f64 * 0.25 - 0.5;
                    (cells[(k * 7 + j * 3) % cells.len()], off, -off)
                });
                let net = b.add_net(format!("n{deg}_{n}"), pins.collect::<Vec<_>>());
                b.set_net_weight(net, 0.5 + (n % 4) as f64);
            }
        }
        let nl = b.build();
        let mut pl = Placement::zeros(nl.num_cells());
        for i in 0..nl.num_cells() {
            pl.x[i] = ((i * 37) % 23) as f64 * 1.5;
            // a few cells share a row, so some nets have tied coordinates
            pl.y[i] = ((i * 11) % 7) as f64 * 2.0;
        }
        (nl, pl)
    }

    /// The plain reference: each net through `moreau::reference::eval`,
    /// values summed in net order, pin gradients summed per cell in its
    /// CSR order.
    fn reference_moreau(nl: &Netlist, pl: &Placement, t: f64) -> WirelengthGrad {
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        let mut pin_g = vec![[0.0; 2]; nl.num_pins()];
        let mut scratch = Vec::new();
        for net in nl.nets() {
            let range = nl.net_pin_range(net);
            if range.len() < 2 {
                // a one-pin net's value slot holds +0.0
                out.value += 0.0;
                continue;
            }
            let coord = |pin: usize, axis: usize| {
                let pin = PinId::from_usize(pin);
                let cell = nl.pin_cell(pin);
                if axis == 0 {
                    pl.x[cell.index()] + (0.5 * nl.cell_width(cell) + nl.pin_offset_x(pin))
                } else {
                    pl.y[cell.index()] + (0.5 * nl.cell_height(cell) + nl.pin_offset_y(pin))
                }
            };
            let w = nl.net_weight(net);
            let mut v = [0.0; 2];
            for axis in 0..2 {
                let x: Vec<f64> = range.clone().map(|p| coord(p, axis)).collect();
                let mut g = vec![0.0; x.len()];
                let e = crate::moreau::reference::eval(&x, t, Some(&mut g), None, &mut scratch);
                v[axis] = e.envelope + t;
                for (p, gi) in range.clone().zip(&g) {
                    pin_g[p][axis] = w * gi;
                }
            }
            out.value += w * (v[0] + v[1]);
        }
        for cell in nl.cells() {
            let (mut ax, mut ay) = (0.0, 0.0);
            for &pin in nl.cell_pins(cell) {
                ax += pin_g[pin.index()][0];
                ay += pin_g[pin.index()][1];
            }
            out.grad_x[cell.index()] = ax;
            out.grad_y[cell.index()] = ay;
        }
        out
    }

    #[test]
    fn lane_groups_match_the_scalar_reference_bitwise() {
        let (nl, pl) = every_degree_netlist();
        // from no collapse to every net collapsed
        for t in [0.05, 1.0, 6.0, 1e4] {
            let want = reference_moreau(&nl, &pl, t);
            for threads in [1, 2, 8] {
                let mut eval = parallel_eval(ModelKind::Moreau.instantiate(t), threads);
                let mut got = WirelengthGrad::zeros(nl.num_cells());
                eval.evaluate(&nl, &pl, &mut got);
                assert_bitwise(&got, &want, &format!("t={t} at {threads} threads"));
                assert_eq!(
                    eval.value(&nl, &pl).to_bits(),
                    want.value.to_bits(),
                    "value-only t={t}"
                );
            }
        }
    }

    #[test]
    fn reused_output_buffers_are_fully_overwritten() {
        let (nl, pl) = every_degree_netlist();
        let mut eval = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(1.0));
        let mut fresh = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(&nl, &pl, &mut fresh);
        let mut stale = WirelengthGrad {
            value: f64::NAN,
            grad_x: vec![f64::NAN; nl.num_cells() + 5],
            grad_y: vec![123.0; nl.num_cells() - 3],
        };
        eval.evaluate(&nl, &pl, &mut stale);
        assert_bitwise(&stale, &fresh, "stale buffers");
    }

    #[test]
    fn whole_netlist_gradient_finite_difference() {
        // spot-check dO/dx of a few cells through the full accumulation
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut eval = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(1.5));
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(nl, &c.placement, &mut out);
        let h = 1e-5;
        for cell in [0usize, 7, 42, 137] {
            let mut plus = c.placement.clone();
            plus.x[cell] += h;
            let mut minus = c.placement.clone();
            minus.x[cell] -= h;
            let fd = (eval.value(nl, &plus) - eval.value(nl, &minus)) / (2.0 * h);
            assert!(
                (fd - out.grad_x[cell]).abs() < 1e-4 * fd.abs().max(1.0),
                "cell {cell}: fd {fd} vs {}",
                out.grad_x[cell]
            );
        }
    }

    #[test]
    fn gradients_sum_to_zero_over_cells() {
        // Corollaries 2–3 aggregate: total gradient over all pins is zero
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        for kind in ModelKind::contestants() {
            let mut eval = NetlistEvaluator::serial(kind.instantiate(1.0));
            let mut out = WirelengthGrad::zeros(nl.num_cells());
            eval.evaluate(nl, &c.placement, &mut out);
            let sx: f64 = out.grad_x.iter().sum();
            let sy: f64 = out.grad_y.iter().sum();
            assert!(sx.abs() < 1e-6, "{kind}: Σgx = {sx}");
            assert!(sy.abs() < 1e-6, "{kind}: Σgy = {sy}");
        }
    }

    #[test]
    fn value_matches_evaluate() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut eval = NetlistEvaluator::serial(ModelKind::Wa.instantiate(3.0));
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(nl, &c.placement, &mut out);
        let v = eval.value(nl, &c.placement);
        assert!((out.value - v).abs() < 1e-9 * v.abs().max(1.0));
    }

    #[test]
    fn net_weights_scale_value_and_gradient() {
        let mut b = mep_netlist::NetlistBuilder::new();
        let a = b.add_cell("a", 0.0, 0.0, true).unwrap();
        let c = b.add_cell("b", 0.0, 0.0, true).unwrap();
        let net = b.add_net("n", vec![(a, 0.0, 0.0), (c, 0.0, 0.0)]);
        b.set_net_weight(net, 4.0);
        let nl = b.build();
        let mut pl = Placement::zeros(2);
        pl.x[1] = 10.0;
        let mut eval = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(0.5));
        let mut out = WirelengthGrad::zeros(2);
        eval.evaluate(&nl, &pl, &mut out);
        // unweighted value would be (envelope + t) ≈ 10 for x plus ~t for y
        let unweighted = {
            let mut b = mep_netlist::NetlistBuilder::new();
            let a = b.add_cell("a", 0.0, 0.0, true).unwrap();
            let c = b.add_cell("b", 0.0, 0.0, true).unwrap();
            b.add_net("n", vec![(a, 0.0, 0.0), (c, 0.0, 0.0)]);
            let nl1 = b.build();
            let mut o = WirelengthGrad::zeros(2);
            eval.evaluate(&nl1, &pl, &mut o);
            (o.value, o.grad_x[0])
        };
        assert!((out.value - 4.0 * unweighted.0).abs() < 1e-9);
        assert!((out.grad_x[0] - 4.0 * unweighted.1).abs() < 1e-9);
    }

    #[test]
    fn workspace_rebuilds_only_on_topology_change() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut eval = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(1.0));
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        for _ in 0..5 {
            eval.evaluate(nl, &c.placement, &mut out);
        }
        assert_eq!(
            eval.engine().stats().workspace_allocs,
            1,
            "workspace must be built exactly once for a fixed netlist"
        );
    }

    #[test]
    fn smoothing_changes_propagate_to_part_models() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut eval = parallel_eval(ModelKind::Moreau.instantiate(4.0), 2);
        let mut warm = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(nl, &c.placement, &mut warm);
        eval.model_mut().set_smoothing(0.25);
        let mut tightened = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(nl, &c.placement, &mut tightened);
        // a fresh evaluator at the new smoothing must agree exactly
        let mut fresh = NetlistEvaluator::serial(ModelKind::Moreau.instantiate(0.25));
        let mut expect = WirelengthGrad::zeros(nl.num_cells());
        fresh.evaluate(nl, &c.placement, &mut expect);
        assert_bitwise(&tightened, &expect, "tightened smoothing");
    }

    #[test]
    fn set_model_swaps_part_models_without_workspace_rebuild() {
        let c = synth::generate(&synth::smoke_spec());
        let nl = &c.design.netlist;
        let mut eval = parallel_eval(ModelKind::Moreau.instantiate(2.0), 2);
        let mut out = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(nl, &c.placement, &mut out);
        eval.set_model(ModelKind::Wa.instantiate(2.0));
        let mut degraded = WirelengthGrad::zeros(nl.num_cells());
        eval.evaluate(nl, &c.placement, &mut degraded);
        assert_eq!(eval.model().kind(), ModelKind::Wa);
        assert_eq!(
            eval.engine().stats().workspace_allocs,
            1,
            "model swap must not rebuild the workspace"
        );
        // must agree bitwise with a fresh evaluator on the new model
        let mut fresh = NetlistEvaluator::serial(ModelKind::Wa.instantiate(2.0));
        let mut expect = WirelengthGrad::zeros(nl.num_cells());
        fresh.evaluate(nl, &c.placement, &mut expect);
        assert_bitwise(&degraded, &expect, "degraded model");
    }

    #[test]
    fn empty_netlist() {
        let nl = mep_netlist::NetlistBuilder::new().build();
        let pl = Placement::zeros(0);
        let mut eval = NetlistEvaluator::new(
            ModelKind::Moreau.instantiate(1.0),
            Arc::new(EvalEngine::new(2)),
        );
        let mut out = WirelengthGrad::zeros(0);
        eval.evaluate(&nl, &pl, &mut out);
        assert_eq!(out.value, 0.0);
        assert_eq!(eval.value(&nl, &pl), 0.0);
    }
}
