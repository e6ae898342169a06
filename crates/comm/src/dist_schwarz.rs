//! The distributed multiplicative Schwarz preconditioner.
//!
//! Per rank: sweep the *globally* two-colored domain grid; after each
//! half-sweep, exchange only the boundary data owned by the just-updated
//! color (half of each face). Over one full Schwarz iteration this moves
//! exactly one face worth of half-spinors — versus one exchange per
//! operator application for a non-DD solver, i.e. the communication
//! reduction by roughly `Idomain` block iterations that Sec. II-D argues
//! for.
//!
//! The sweep itself — rounds, Fig. 4 stages, workers, barriers — is the one
//! engine in `qdd_core::schwarz` ([`Sweep::run`]); this type is the rank
//! boundary that engine talks to: the color-masked face lists, the send
//! wave posted after a stage, and the lazy drain of the receives a later
//! half-sweep depends on. It changes only when data moves, never any
//! arithmetic: results stay bitwise identical to the serial preconditioner
//! for every worker count and overlap setting.
//!
//! Domain colors must be *global*: with an odd number of domains per rank
//! the checkerboard phase alternates from rank to rank, and using local
//! colors would put adjacent domains in the same half-sweep.

use crate::runtime::{CommError, FacePart, HaloScalar, RankCtx};
use qdd_core::block_update::BlockKernels;
use qdd_core::pool::{resolve_workers, WorkerPool};
use qdd_core::schwarz::{
    assert_two_colorable, FaceHalf, RankBoundary, SchwarzConfig, SendSlot, Sweep,
};
use qdd_dirac::boundary::{pack_sites_for_backward_hop_with, pack_sites_for_forward_hop_with};
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_field::halo::{face_index, HaloData};
use qdd_field::spinor::{HalfSpinor, HalfSpinorF16, Spinor};
use qdd_lattice::{Dir, DomainColor, DomainGrid, SiteIndexer};
use qdd_util::stats::{Component, SolveStats};
use std::cell::{Cell, RefCell};

/// The wire header a [`FaceHalf`] travels under: halves declare themselves
/// part 0 or 1 of 2, full faces part 0 of 1. Receivers assert the header
/// against the part they expect, so a schedule bug surfaces as a panic at
/// the receive, never as silently misplaced boundary data.
fn part_of(half: FaceHalf) -> FacePart {
    match half {
        FaceHalf::Full => FacePart::FULL,
        FaceHalf::First => FacePart { index: 0, of: 2 },
        FaceHalf::Second => FacePart { index: 1, of: 2 },
    }
}

/// One deferred receive: a face part some peer sent eagerly during its own
/// compute, drained right before the half-sweep that reads it.
struct RecvSlot {
    dir: Dir,
    forward: bool,
    half: FaceHalf,
    /// The color whose boundary the peer sent (ours to merge at the
    /// positions where *our* face color is `color.flip()`).
    color: DomainColor,
}

/// Leader-only exchange state of the sweep in flight.
#[derive(Default)]
struct Exchange {
    /// Receives deferred from the previous half-sweep.
    pending: Vec<RecvSlot>,
    /// This round's hiccup decision: send one skip marker per channel
    /// instead of faces (peers keep their stale halo entries for us).
    hiccup: bool,
    skip_sent: [[bool; 2]; 4],
    /// Payload bytes sent / delivered. Counted independently: a hiccuping
    /// rank skips its sends but still receives and merges its peers' faces.
    sent: f64,
    received: f64,
}

/// One rank's Schwarz preconditioner.
pub struct DistSchwarz<'a, T: HaloScalar> {
    ctx: &'a RankCtx<'a>,
    op: &'a WilsonClover<T>,
    /// Per-domain block-solve constants (fused `FusedSchur` tiles wherever
    /// the block's xy cross-section fills a register).
    kernels: BlockKernels<T>,
    grid: DomainGrid,
    cfg: SchwarzConfig,
    /// Local domain indices per *global* color.
    colors: [Vec<usize>; 2],
    /// `face_sites[d][o][c]`: local site indices on our face `o`
    /// (0 = backward, coord 0; 1 = forward, coord L-1) of direction `d`
    /// owned by global-color-`c` domains, in ascending face-position
    /// order. Senders pack exactly these sites — no full-face staging
    /// buffer, no post-pack filtering.
    face_sites: [[[Vec<usize>; 2]; 2]; 4],
    /// `face_positions[d][o][c]`: the matching face-buffer positions, same
    /// order. Receivers merge an incoming color-`c'` part at
    /// `face_positions[d][o][c'.flip()]` — the checkerboard flips across
    /// the rank boundary, so both sides derive identical lists.
    face_positions: [[[Vec<usize>; 2]; 2]; 4],
    /// Worker team for the sweep (size from `QDD_WORKERS`, default 1).
    pool: WorkerPool,
    exchange: RefCell<Exchange>,
    /// First communication fault, if any: a malformed partial-face
    /// exchange leaves the previous (stale) halo entries in place and is
    /// recorded here instead of aborting the rank thread.
    fault: Cell<Option<CommError>>,
}

impl<'a, T: HaloScalar> DistSchwarz<'a, T> {
    pub fn new(ctx: &'a RankCtx<'a>, op: &'a WilsonClover<T>, cfg: SchwarzConfig) -> Option<Self> {
        let local = *op.dims();
        assert_eq!(&local, ctx.grid().local(), "operator must be rank-local");
        let grid = DomainGrid::new(local, cfg.block);
        assert!(!cfg.additive, "the distributed path implements the multiplicative method");

        // Global color parity offset of this rank.
        let rc = ctx.grid().rank_coord(ctx.rank());
        let mut offset = 0usize;
        for d in Dir::ALL {
            let doms_per_rank = local[d] / cfg.block[d];
            // The checkerboard must close around the *global* torus.
            assert_two_colorable(d, ctx.grid().grid()[d] * doms_per_rank);
            offset += rc[d] * doms_per_rank;
        }
        let flip = offset % 2 == 1;
        let global_color = |local_color: DomainColor| {
            if flip {
                local_color.flip()
            } else {
                local_color
            }
        };

        let mut colors = [Vec::new(), Vec::new()];
        for dom in grid.domains() {
            colors[global_color(dom.color) as usize].push(dom.index);
        }

        // Color-masked face lists: for every face, the sites (for packing)
        // and face positions (for merging) of each color, ascending in
        // face position so sender and receiver agree on the half split.
        let idx = SiteIndexer::new(local);
        let mut face_sites: [[[Vec<usize>; 2]; 2]; 4] =
            std::array::from_fn(|_| std::array::from_fn(|_| std::array::from_fn(|_| Vec::new())));
        let mut face_positions = face_sites.clone();
        for dir in Dir::ALL {
            for o in 0..2 {
                let fixed = if o == 1 { local[dir] - 1 } else { 0 };
                let mut entries: Vec<(usize, usize, DomainColor)> = idx
                    .iter()
                    .filter(|c| c[dir] == fixed)
                    .map(|c| {
                        let (dom_idx, _) = grid.locate(&c);
                        (
                            face_index(&local, dir, &c),
                            idx.index(&c),
                            global_color(grid.domain(dom_idx).color),
                        )
                    })
                    .collect();
                entries.sort_unstable_by_key(|e| e.0);
                for (k, s, col) in entries {
                    face_positions[dir.index()][o][col as usize].push(k);
                    face_sites[dir.index()][o][col as usize].push(s);
                }
            }
        }

        let kernels = BlockKernels::new(op, &grid)?;
        Some(Self {
            ctx,
            op,
            kernels,
            grid,
            cfg,
            colors,
            face_sites,
            face_positions,
            pool: WorkerPool::new(resolve_workers(1)),
            exchange: RefCell::default(),
            fault: Cell::new(None),
        })
    }

    /// The first communication fault seen by this rank's preconditioner,
    /// if any. A solve whose preconditioner reports a fault must be
    /// treated as unreliable (the serve layer maps it to `Degraded`).
    pub fn comm_error(&self) -> Option<CommError> {
        self.fault.get()
    }

    #[inline]
    pub fn config(&self) -> &SchwarzConfig {
        &self.cfg
    }

    /// Apply the preconditioner: `u ~= A^-1 f` on this rank's sub-volume,
    /// collaborating with all other ranks — the shared sweep engine with
    /// this rank's boundary plugged in.
    pub fn apply(&self, f: &SpinorField<T>, stats: &mut SolveStats) -> SpinorField<T> {
        let sweep = Sweep {
            op: self.op,
            kernels: &self.kernels,
            grid: &self.grid,
            cfg: &self.cfg,
            colors: &self.colors,
        };
        let u = sweep.run(self, &self.pool, f, stats);
        let done = self.exchange.take();
        debug_assert!(done.pending.is_empty(), "the last half-sweep sends nothing");
        stats.add_comm_bytes(Component::PreconditionerM, done.sent);
        stats.add_comm_recv_bytes(Component::PreconditionerM, done.received);
        u
    }
}

impl<T: HaloScalar> RankBoundary<T> for DistSchwarz<'_, T> {
    fn split(&self) -> [bool; 4] {
        self.ctx.split_dirs()
    }

    /// Faulted parts and peer skips leave the stale halo entries in place.
    fn drain(&self, halo: &mut HaloData<T>) {
        let ex = &mut *self.exchange.borrow_mut();
        if ex.pending.is_empty() {
            return;
        }
        let trace = self.ctx.trace();
        trace.begin(qdd_trace::Phase::HaloUnpack);
        // A peer that hiccuped this round sent one skip marker on the
        // channel instead of its parts; once seen, expect nothing further
        // from that channel this round.
        let mut peer_skipped = [[false; 2]; 4];
        for slot in ex.pending.drain(..) {
            let o = slot.forward as usize;
            if peer_skipped[slot.dir.index()][o] {
                continue;
            }
            let (part, attempts) = (part_of(slot.half), self.ctx.retry_policy().max_attempts);
            // f16 envelopes are up-converted at the merge; either way the
            // halo holds compute-precision half-spinors and the received
            // ledger counts the wire bytes of the format that traveled.
            let received = if self.cfg.f16_faces {
                self.ctx.recv_face_part_retrying_f16(slot.dir, slot.forward, part, attempts).map(
                    |opt| {
                        opt.map(|packed| {
                            let bytes = packed.len() * HalfSpinorF16::WIRE_BYTES;
                            (packed.iter().map(HalfSpinorF16::decompress).collect(), bytes)
                        })
                    },
                )
            } else {
                self.ctx.recv_face_part_retrying::<T>(slot.dir, slot.forward, part, attempts).map(
                    |opt| {
                        opt.map(|data: Vec<HalfSpinor<T>>| {
                            let bytes =
                                data.len() * HalfSpinor::<T>::REALS * std::mem::size_of::<T>();
                            (data, bytes)
                        })
                    },
                )
            };
            match received {
                Ok(Some((data, bytes))) => {
                    // halo.face(dir, true) entries mirror the *forward*
                    // neighbor's backward face; its site colors are the
                    // flip of our same-face colors at the same positions.
                    let positions =
                        &self.face_positions[slot.dir.index()][o][slot.color.flip() as usize];
                    let range = slot.half.range(positions.len());
                    assert_eq!(
                        data.len(),
                        range.len(),
                        "partial-face exchange misaligned ({}, fwd={})",
                        slot.dir,
                        slot.forward
                    );
                    ex.received += bytes as f64;
                    let buf = halo.face_mut(slot.dir, slot.forward);
                    for (h, &k) in data.into_iter().zip(&positions[range]) {
                        buf.data[k] = h;
                    }
                }
                // Peer hiccup: it skipped this exchange. Benign under a
                // flexible outer solver, so no fault is recorded.
                Ok(None) => peer_skipped[slot.dir.index()][o] = true,
                Err(e) => {
                    // Retry budget exhausted: record the fault and keep
                    // draining the remaining parts so channels stay aligned.
                    if self.fault.get().is_none() {
                        self.fault.set(Some(e));
                    }
                }
            }
        }
        trace.end(qdd_trace::Phase::HaloUnpack);
    }

    fn begin_round(&self) {
        let ex = &mut *self.exchange.borrow_mut();
        ex.hiccup = self.ctx.take_hiccup();
        ex.skip_sent = [[false; 2]; 4];
    }

    /// Both orientations of every slot's direction, packed color-masked
    /// straight from the iterate; the matching receives are queued for the
    /// next [`drain`](RankBoundary::drain).
    fn post_wave<F: Fn(usize) -> Spinor<T>>(&self, wave: &[SendSlot], color: DomainColor, u: &F) {
        let ex = &mut *self.exchange.borrow_mut();
        let trace = self.ctx.trace();
        for slot in wave {
            let dir = slot.dir;
            debug_assert!(self.ctx.is_split(dir), "schedule planned a send in an unsplit dir");
            for forward in [true, false] {
                ex.pending.push(RecvSlot { dir, forward, half: slot.half, color });
            }
            for o in 0..2 {
                if ex.hiccup {
                    if !ex.skip_sent[dir.index()][o] {
                        self.ctx.send_skip(dir, o == 1);
                        ex.skip_sent[dir.index()][o] = true;
                    }
                    continue;
                }
                // The backward face is packed for the forward hops of our
                // backward neighbor's sites, and vice versa.
                let at_edge = if o == 0 {
                    self.ctx.at_global_backward_edge(dir)
                } else {
                    self.ctx.at_global_forward_edge(dir)
                };
                let sign = if at_edge { self.op.phases().of(dir) } else { 1.0 };
                let sites = &self.face_sites[dir.index()][o][color as usize];
                let sites = &sites[slot.half.range(sites.len())];
                trace.begin(qdd_trace::Phase::HaloPack);
                let data = if o == 0 {
                    pack_sites_for_forward_hop_with(self.op, u, dir, sign, sites)
                } else {
                    pack_sites_for_backward_hop_with(self.op, u, dir, sign, sites)
                };
                trace.end(qdd_trace::Phase::HaloPack);
                if self.cfg.f16_faces {
                    // f16 envelope: round the packed boundary half-spinors
                    // to f16 and ship 24 bytes per site instead of the
                    // full-width 12 reals (half the f32 halo traffic).
                    let packed: Vec<HalfSpinorF16> =
                        data.iter().map(HalfSpinorF16::compress).collect();
                    ex.sent += (packed.len() * HalfSpinorF16::WIRE_BYTES) as f64;
                    self.ctx.send_face_part_f16(dir, o == 1, part_of(slot.half), packed);
                } else {
                    ex.sent +=
                        (data.len() * HalfSpinor::<T>::REALS * std::mem::size_of::<T>()) as f64;
                    self.ctx.send_face_part(dir, o == 1, part_of(slot.half), data);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_spmd, CommWorld};
    use crate::scatter::{gather_field, scatter_clover, scatter_field, scatter_gauge};
    use qdd_core::mr::MrConfig;
    use qdd_core::schwarz::SchwarzPreconditioner;
    use qdd_dirac::clover::build_clover_field;
    use qdd_dirac::gamma::GammaBasis;
    use qdd_dirac::wilson::BoundaryPhases;
    use qdd_field::fields::GaugeField;
    use qdd_lattice::{Dims, RankGrid};
    use qdd_util::rng::Rng64;

    fn schwarz_cfg(block: Dims, sweeps: usize) -> SchwarzConfig {
        SchwarzConfig {
            block,
            i_schwarz: sweeps,
            mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
            ..Default::default()
        }
    }

    /// Distributed Schwarz must reproduce the single-rank preconditioner
    /// bitwise (all block arithmetic is identical; only data movement
    /// differs).
    fn check_dist_schwarz(rank_dims: Dims, block: Dims, sweeps: usize) {
        let global_dims = Dims::new(8, 8, 8, 8);
        let grid = RankGrid::new(global_dims, rank_dims);
        let mut rng = Rng64::new(31);
        let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.6);
        let basis = GammaBasis::degrand_rossi();
        let clover = build_clover_field(&gauge, 1.5, &basis);
        let phases = BoundaryPhases::antiperiodic_t();
        let f = SpinorField::<f64>::random(global_dims, &mut rng);

        // Serial reference.
        let pre = SchwarzPreconditioner::new(
            WilsonClover::new(gauge.clone(), clover.clone(), 0.2, phases),
            schwarz_cfg(block, sweeps),
        )
        .unwrap();
        let mut st = SolveStats::new();
        let expect = pre.apply(&f, &mut st);

        // Distributed.
        let local_gauge = scatter_gauge(&gauge, &grid);
        let local_clover = scatter_clover(&clover, &grid);
        let f_local = scatter_field(&f, &grid);
        let world = CommWorld::new(grid.clone());
        let results = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op =
                WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), 0.2, phases);
            let pre = DistSchwarz::new(ctx, &op, schwarz_cfg(block, sweeps)).unwrap();
            let mut stats = SolveStats::new();
            let u = pre.apply(&f_local[r], &mut stats);
            (
                u,
                stats.comm_bytes(Component::PreconditionerM),
                stats.comm_recv_bytes(Component::PreconditionerM),
            )
        });
        let locals: Vec<SpinorField<f64>> = results.iter().map(|r| r.0.clone()).collect();
        let got = gather_field(&locals, &grid);
        assert_eq!(
            got.as_slice(),
            expect.as_slice(),
            "distributed Schwarz diverged from serial (ranks {rank_dims})"
        );
        // Per-rank send/recv can be asymmetric (e.g. one domain per rank:
        // a Black rank sends in Black rounds but receives only in White
        // rounds) — but every byte sent is received by some rank.
        let total_sent: f64 = results.iter().map(|r| r.1).sum();
        let total_received: f64 = results.iter().map(|r| r.2).sum();
        for (_, sent, _) in &results {
            assert!(*sent > 0.0, "no preconditioner traffic counted");
        }
        assert_eq!(total_sent, total_received, "sent and received world totals must balance");
    }

    #[test]
    fn matches_serial_2ranks_even_domains() {
        // 2 ranks in t; 8x8x8x4 local; 4^4 blocks: 2 domains per dir.
        check_dist_schwarz(Dims::new(1, 1, 1, 2), Dims::new(4, 4, 4, 4), 2);
    }

    #[test]
    fn matches_serial_4ranks_xy() {
        check_dist_schwarz(Dims::new(2, 2, 1, 1), Dims::new(4, 4, 4, 4), 3);
    }

    #[test]
    fn matches_serial_odd_domains_per_rank() {
        // 2 ranks in x, 4x8x8x8 local with 4^4 blocks: ONE domain per rank
        // in x — the global-coloring correction is exercised here.
        check_dist_schwarz(Dims::new(2, 1, 1, 1), Dims::new(4, 4, 4, 4), 2);
    }

    #[test]
    fn matches_serial_16ranks() {
        check_dist_schwarz(Dims::new(2, 2, 2, 2), Dims::new(4, 4, 4, 4), 2);
    }

    #[test]
    fn singular_clover_site_is_refused() {
        use qdd_field::clover::CloverSite;
        use qdd_field::fields::CloverField;
        let global_dims = Dims::new(8, 8, 8, 8);
        let grid = RankGrid::new(global_dims, Dims::new(1, 1, 1, 2));
        let mut rng = Rng64::new(36);
        let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.5);
        let good = build_clover_field(&gauge, 1.4, &GammaBasis::degrand_rossi());
        // Cancel the (4 + m) shift on one site of rank 1.
        let last = global_dims.volume() - 1;
        let clover = CloverField::from_fn(global_dims, |s| {
            if s == last {
                CloverSite::default().add_diag(-4.2)
            } else {
                *good.site(s)
            }
        });
        let local_gauge = scatter_gauge(&gauge, &grid);
        let local_clover = scatter_clover(&clover, &grid);
        let world = CommWorld::new(grid.clone());
        let built = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op = WilsonClover::new(
                local_gauge[r].clone(),
                local_clover[r].clone(),
                0.2,
                BoundaryPhases::antiperiodic_t(),
            );
            DistSchwarz::new(ctx, &op, schwarz_cfg(Dims::new(4, 4, 4, 4), 1)).is_some()
        });
        assert_eq!(built, vec![true, false]);
    }

    #[test]
    fn f16_faces_halve_traffic_and_stay_within_rounding() {
        // The f16 halo envelope (24 bytes/site vs f32's 48) must halve
        // both sides of the traffic ledger exactly, while the result stays
        // a small f16-rounding perturbation of the f32-face run.
        let global_dims = Dims::new(8, 8, 8, 8);
        let grid = RankGrid::new(global_dims, Dims::new(2, 1, 1, 1));
        let mut rng = Rng64::new(35);
        let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.5);
        let basis = GammaBasis::degrand_rossi();
        let clover = build_clover_field(&gauge, 1.4, &basis);
        let phases = BoundaryPhases::antiperiodic_t();
        let f = SpinorField::<f64>::random(global_dims, &mut rng);
        let local_gauge = scatter_gauge(&gauge, &grid);
        let local_clover = scatter_clover(&clover, &grid);
        let f_local = scatter_field(&f, &grid);

        let run = |f16_faces: bool| {
            let mut cfg = schwarz_cfg(Dims::new(4, 4, 4, 4), 3);
            cfg.f16_faces = f16_faces;
            let world = CommWorld::new(grid.clone());
            run_spmd(&world, |ctx| {
                let r = ctx.rank();
                let op = WilsonClover::new(
                    local_gauge[r].cast::<f32>(),
                    local_clover[r].cast::<f32>(),
                    0.2f32,
                    phases,
                );
                let pre = DistSchwarz::new(ctx, &op, cfg).unwrap();
                let mut stats = SolveStats::new();
                let u = pre.apply(&f_local[r].cast(), &mut stats);
                (
                    u,
                    stats.comm_bytes(Component::PreconditionerM),
                    stats.comm_recv_bytes(Component::PreconditionerM),
                    ctx.counters.bytes_sent.get(),
                )
            })
        };
        let wide = run(false);
        let packed = run(true);
        for (a, b) in wide.iter().zip(&packed) {
            assert!(a.1 > 0.0, "no preconditioner traffic counted");
            assert_eq!(b.1, a.1 / 2.0, "f16 faces must halve the sent ledger");
            assert_eq!(b.2, a.2 / 2.0, "f16 faces must halve the received ledger");
            assert_eq!(b.3, a.3 / 2.0, "f16 faces must halve the wire counters");
            let mut diff = a.0.clone();
            diff.sub_assign(&b.0);
            let rel = diff.norm() / a.0.norm();
            assert!(rel > 0.0, "f16 faces must actually round something");
            assert!(rel < 1e-2, "f16-face result drifted too far: rel {rel}");
        }
    }

    #[test]
    fn schwarz_traffic_less_than_operator_equivalent() {
        // One Schwarz iteration moves one face worth of data; Idomain MR
        // iterations inside would have cost Idomain exchanges in a non-DD
        // scheme. Check the per-iteration traffic equals one full halo.
        let global_dims = Dims::new(8, 8, 8, 8);
        let grid = RankGrid::new(global_dims, Dims::new(2, 1, 1, 1));
        let mut rng = Rng64::new(32);
        let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.5);
        let basis = GammaBasis::degrand_rossi();
        let clover = build_clover_field(&gauge, 1.2, &basis);
        let phases = BoundaryPhases::periodic();
        let f = SpinorField::<f64>::random(global_dims, &mut rng);
        let local_gauge = scatter_gauge(&gauge, &grid);
        let local_clover = scatter_clover(&clover, &grid);
        let f_local = scatter_field(&f, &grid);
        let world = CommWorld::new(grid.clone());
        let sweeps = 4;
        let results = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op =
                WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), 0.2, phases);
            let pre =
                DistSchwarz::new(ctx, &op, schwarz_cfg(Dims::new(4, 4, 4, 4), sweeps)).unwrap();
            let mut stats = SolveStats::new();
            let _ = pre.apply(&f_local[r], &mut stats);
            (
                stats.comm_bytes(Component::PreconditionerM),
                ctx.counters.bytes_sent.get(),
                ctx.counters.bytes_received.get(),
            )
        });
        // Full halo of the split (x) direction: 2 faces x 8*8*8 sites x
        // 96 bytes; per full iteration one such exchange; the final
        // half-exchange is skipped.
        let full_halo = 2.0 * 512.0 * 96.0;
        let expect = full_halo * sweeps as f64 - full_halo / 2.0;
        for (bytes, wire_sent, wire_received) in results {
            assert!((bytes - expect).abs() < 1e-9, "bytes {bytes} vs expected {expect}");
            // The ledger agrees with the physical channel counters, and
            // every sent byte arrived somewhere.
            assert_eq!(wire_sent, expect, "wire bytes disagree with the ledger");
            assert_eq!(wire_received, expect, "received bytes disagree with sent bytes");
        }
    }

    #[test]
    fn overlap_off_is_bitwise_identical_and_counts_the_same_traffic() {
        // `--no-overlap` escape hatch: the degenerate one-stage schedule
        // (bulk exchange after each half-sweep) must produce the same
        // bits and the same byte totals — overlap changes only when data
        // moves.
        let global_dims = Dims::new(8, 8, 8, 8);
        let rank_dims = Dims::new(2, 1, 1, 2);
        let grid = RankGrid::new(global_dims, rank_dims);
        let mut rng = Rng64::new(33);
        let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.6);
        let basis = GammaBasis::degrand_rossi();
        let clover = build_clover_field(&gauge, 1.5, &basis);
        let phases = BoundaryPhases::antiperiodic_t();
        let f = SpinorField::<f64>::random(global_dims, &mut rng);
        let local_gauge = scatter_gauge(&gauge, &grid);
        let local_clover = scatter_clover(&clover, &grid);
        let f_local = scatter_field(&f, &grid);

        let run = |overlap: bool| {
            let mut cfg = schwarz_cfg(Dims::new(4, 4, 4, 4), 3);
            cfg.overlap = overlap;
            let world = CommWorld::new(grid.clone());
            run_spmd(&world, |ctx| {
                let r = ctx.rank();
                let op =
                    WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), 0.2, phases);
                let pre = DistSchwarz::new(ctx, &op, cfg).unwrap();
                let mut stats = SolveStats::new();
                let u = pre.apply(&f_local[r], &mut stats);
                (
                    u,
                    stats.comm_bytes(Component::PreconditionerM),
                    stats.comm_recv_bytes(Component::PreconditionerM),
                )
            })
        };
        let with = run(true);
        let without = run(false);
        for (a, b) in with.iter().zip(&without) {
            assert_eq!(a.0.as_slice(), b.0.as_slice(), "overlap changed the result");
            assert_eq!(a.1, b.1, "overlap changed sent-byte accounting");
            assert_eq!(a.2, b.2, "overlap changed received-byte accounting");
        }
    }

    #[test]
    fn hiccup_skips_sends_but_still_counts_received_traffic() {
        // A rank hiccup makes the rank sit out one exchange round: its
        // sends are skip markers (zero bytes) but it still receives and
        // merges its peers' faces — send and receive traffic must be
        // counted independently, not skipped together.
        use qdd_faults::{FaultClass, FaultPlan};
        let global_dims = Dims::new(8, 8, 8, 8);
        let rank_dims = Dims::new(2, 1, 1, 1);
        let grid = RankGrid::new(global_dims, rank_dims);
        let mut rng = Rng64::new(34);
        let gauge = GaugeField::<f64>::random(global_dims, &mut rng, 0.5);
        let basis = GammaBasis::degrand_rossi();
        let clover = build_clover_field(&gauge, 1.3, &basis);
        let phases = BoundaryPhases::periodic();
        let f = SpinorField::<f64>::random(global_dims, &mut rng);
        let local_gauge = scatter_gauge(&gauge, &grid);
        let local_clover = scatter_clover(&clover, &grid);
        let f_local = scatter_field(&f, &grid);

        let sweeps = 2; // 3 exchange rounds
        let run = |plan: FaultPlan| {
            let world = CommWorld::with_faults(grid.clone(), plan);
            run_spmd(&world, |ctx| {
                let r = ctx.rank();
                let op =
                    WilsonClover::new(local_gauge[r].clone(), local_clover[r].clone(), 0.2, phases);
                let pre =
                    DistSchwarz::new(ctx, &op, schwarz_cfg(Dims::new(4, 4, 4, 4), sweeps)).unwrap();
                let mut stats = SolveStats::new();
                let _ = pre.apply(&f_local[r], &mut stats);
                (
                    stats.comm_bytes(Component::PreconditionerM),
                    stats.comm_recv_bytes(Component::PreconditionerM),
                    ctx.counters.faults.hiccups.get(),
                )
            })
        };
        let clean = run(FaultPlan::none());
        // Rank 0 hiccups on its first exchange round (hiccup decisions
        // are consumed once per round, in round order).
        let plan = FaultPlan::none().with_event(qdd_faults::FaultEvent {
            rank: 0,
            class: FaultClass::Hiccup,
            dir: None,
            forward: None,
            at_seq: 0,
            attempts: 1,
        });
        let faulted = run(plan);

        let (clean_sent, clean_recv, _) = clean[0];
        assert_eq!(clean_sent, clean_recv, "clean symmetric run must balance");
        // Rank 0: sat out one of three rounds — sent one round less, but
        // received everything its (non-hiccuping) peer sent.
        let (sent0, recv0, hiccups0) = faulted[0];
        assert_eq!(hiccups0, 1, "the injected hiccup must fire exactly once");
        assert_eq!(recv0, clean_recv, "received traffic must be counted despite the hiccup");
        assert_eq!(sent0, clean_sent * 2.0 / 3.0, "one of three rounds sent nothing");
        // Rank 1: sent everything, received one round less (the skip).
        let (sent1, recv1, hiccups1) = faulted[1];
        assert_eq!(hiccups1, 0);
        assert_eq!(sent1, clean_sent);
        assert_eq!(recv1, clean_recv * 2.0 / 3.0);
    }
}
