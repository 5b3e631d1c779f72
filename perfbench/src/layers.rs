//! Per-layer measurements of the traced run that need no running
//! collective: codec and fold kernels on the workload's own blocks and
//! data, wire framing, a threaded ping-pong, the simulator's own
//! overhead on a free network, and the cost model's prediction.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use c_coll::wire::{frame_blobs_pooled, unframe_blobs_into};
use c_coll::{Algorithm, CCollSession, PlanOptions, ReduceOp};
use ccoll_comm::{
    ClusterNet, Comm, CostModel, HierNet, Kernel, NetModel, PayloadPool, SchedParams, Schedule,
    SimConfig, SimWorld, ThreadWorld,
};
use ccoll_compress::{dispatch, ReduceKind};

use crate::stats::{cpu_ticks, median};
use crate::trace::Tracer;
use crate::workload::{sim_cluster, Inputs, Workload, SPEC};

/// Timing repetitions per layer measurement (the median is reported).
const REPS: usize = 5;
/// Minimum wall time of one repetition.
const REP_TIME: Duration = Duration::from_millis(40);

/// Run `pass` until one repetition lasts at least [`REP_TIME`]; return
/// the median over [`REPS`] repetitions of seconds per pass.
fn time_pass(tr: &mut Tracer, name: &'static str, mut pass: impl FnMut()) -> f64 {
    pass(); // warm caches and lazily grown buffers
    let mut per_pass = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let span = tr.begin(name, 0, rep as u32);
        let t0 = Instant::now();
        let mut n = 0u32;
        while n == 0 || t0.elapsed() < REP_TIME {
            pass();
            n += 1;
        }
        per_pass.push(t0.elapsed().as_secs_f64() / f64::from(n));
        tr.end(span, false);
    }
    median(&per_pass)
}

/// Throughputs of the codec and fold kernels, in GB/s of raw input.
#[derive(Debug, Clone, Copy)]
pub struct KernelRates {
    pub encode: f64,
    pub decode: f64,
    pub fused: f64,
    pub fold: f64,
    /// Raw bytes over compressed bytes on the same blocks.
    pub ratio: f64,
}

/// Time `compress_into`, `decompress_into`, `decompress_reduce_into`
/// and `fold_slice` over `data` cut into the workload's blocks.
pub fn kernel_rates(w: Workload, inputs: &Inputs, tr: &mut Tracer) -> KernelRates {
    let codec = SPEC.build().expect("SZx builds a codec");
    let (reduce_block, bcast_block) = w.kernel_blocks();
    let mut blocks: Vec<&[f32]> = inputs.reduce_input(0, 0).chunks(reduce_block).collect();
    if bcast_block > 0 {
        blocks.extend(inputs.bcast_input(0).chunks(bcast_block));
    }
    let raw: usize = blocks.iter().map(|b| b.len() * 4).sum();
    let max_block = blocks.iter().map(|b| b.len()).max().unwrap_or(0);
    let streams: Vec<Vec<u8>> = blocks
        .iter()
        .map(|b| {
            let mut s = Vec::new();
            codec
                .compress_into(b, &mut s)
                .expect("Hurricane data compresses");
            s
        })
        .collect();
    let wire: usize = streams.iter().map(Vec::len).sum();
    let mut enc = Vec::with_capacity(codec.max_compressed_bytes(max_block));
    let mut dec: Vec<f32> = Vec::with_capacity(max_block);
    let mut acc = vec![0.0f32; max_block];
    let gbps = |secs: f64| raw as f64 / secs / 1e9;

    let encode = time_pass(tr, "compress.encode", || {
        for b in &blocks {
            codec.compress_into(black_box(b), &mut enc).expect("encode");
        }
        black_box(&enc);
    });
    let decode = time_pass(tr, "compress.decode", || {
        for s in &streams {
            codec
                .decompress_into(black_box(s), &mut dec)
                .expect("decode");
        }
        black_box(&dec);
    });
    let fused = time_pass(tr, "compress.fused_reduce", || {
        for (s, b) in streams.iter().zip(&blocks) {
            let dst = &mut acc[..b.len()];
            codec
                .decompress_reduce_into(black_box(s), ReduceKind::Sum, dst, &mut dec)
                .expect("fused decode");
        }
        black_box(&acc);
    });
    let kernels = dispatch::active();
    let fold = time_pass(tr, "reduce.fold", || {
        for b in &blocks {
            kernels.fold_slice(ReduceKind::Sum, &mut acc[..b.len()], black_box(b));
        }
        black_box(&acc);
    });
    KernelRates {
        encode: gbps(encode),
        decode: gbps(decode),
        fused: gbps(fused),
        fold: gbps(fold),
        ratio: raw as f64 / wire as f64,
    }
}

/// Nanoseconds per `frame_blobs_pooled` and per `unframe_blobs_into`
/// call on `count` blobs of `size` bytes.
pub fn wire_ns(count: usize, size: usize, tr: &mut Tracer) -> (f64, f64) {
    let blobs: Vec<Bytes> = (0..count)
        .map(|i| Bytes::from(vec![i as u8; size]))
        .collect();
    let mut pool = PayloadPool::warmed(4, 4 + 4 * count + count * size);
    let frame = time_pass(tr, "wire.frame", || {
        black_box(frame_blobs_pooled(&mut pool, black_box(&blobs)));
    });
    let container = frame_blobs_pooled(&mut pool, &blobs);
    let mut out = Vec::with_capacity(count);
    let unframe = time_pass(tr, "wire.unframe", || {
        unframe_blobs_into(black_box(&container), &mut out).expect("well-formed container");
        black_box(&out);
    });
    (frame * 1e9, unframe * 1e9)
}

/// One-way message time in µs between two threads exchanging `size`
/// bytes (half the median round trip).
pub fn ping_pong_us(size: usize) -> f64 {
    const ROUNDS: usize = 500;
    let out = ThreadWorld::new(2).run(move |c| {
        let payload = Bytes::from(vec![7u8; size.max(1)]);
        let peer = 1 - c.rank();
        let mut rtts = Vec::with_capacity(REPS);
        for rep in 0..=REPS {
            c.barrier();
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                if c.rank() == 0 {
                    c.send(peer, 1, payload.clone());
                    black_box(c.recv(peer, 2));
                } else {
                    black_box(c.recv(peer, 1));
                    c.send(peer, 2, payload.clone());
                }
            }
            // Repetition 0 warms the mailboxes.
            if rep > 0 {
                rtts.push(t0.elapsed().as_secs_f64() / ROUNDS as f64);
            }
        }
        median(&rtts)
    });
    out.results[0] / 2.0 * 1e6
}

/// The simulator's own cost: wall µs per simulated message and the
/// system-CPU share, from `ops` ops of the `ar-auto-sim` shape on a
/// network and kernels that cost no virtual time.
pub fn sim_overhead(inputs: &Arc<Inputs>, ops: usize) -> (f64, f64) {
    let w = Workload::ArAutoSim;
    let (topo, hier) = sim_cluster();
    let free = NetModel {
        latency: Duration::ZERO,
        bandwidth: f64::INFINITY,
    };
    let mut cfg = SimConfig::new(w.ranks()).with_cluster(ClusterNet::new(
        topo.clone(),
        HierNet {
            intra: free,
            inter: free,
        },
    ));
    cfg.cost = CostModel::free();
    let inputs = Arc::clone(inputs);
    let out = SimWorld::new(cfg).run(move |c| {
        let session = CCollSession::new(SPEC, w.ranks()).with_topology(topo.clone(), hier);
        let mut plan =
            session.plan_allreduce_with(w.reduce_len(), ReduceOp::Sum, PlanOptions::new());
        let input = inputs.reduce_input(c.rank(), 0);
        let mut out = vec![0.0f32; input.len()];
        plan.execute_into(c, input, &mut out);
        c.barrier();
        let m0 = c.profiler().traffic().messages_sent;
        let (t0, cpu0) = (Instant::now(), cpu_ticks());
        for _ in 0..ops {
            plan.execute_into(c, input, &mut out);
        }
        c.barrier();
        let (wall, cpu1) = (t0.elapsed().as_secs_f64(), cpu_ticks());
        (c.profiler().traffic().messages_sent - m0, wall, cpu0, cpu1)
    });
    let msgs: u64 = out.results.iter().map(|r| r.0).sum();
    let (_, wall, (u0, s0), (u1, s1)) = out.results[0];
    let cpu = (u1 + s1).saturating_sub(u0 + s0).max(1);
    (
        wall * 1e6 / msgs.max(1) as f64,
        s1.saturating_sub(s0) as f64 / cpu as f64,
    )
}

fn schedule_of(a: Algorithm) -> Schedule {
    match a {
        Algorithm::RecursiveDoubling => Schedule::RecursiveDoublingAllreduce,
        Algorithm::Rabenseifner => Schedule::RabenseifnerAllreduce,
        Algorithm::Hierarchical => Schedule::HierarchicalAllreduce,
        _ => Schedule::RingAllreduce,
    }
}

/// The cost model's prediction of one op of `w` whose allreduce plans
/// resolved to `algorithm`, with the kernel throughputs measured in this
/// run in place of the defaults.
pub fn predicted_op(w: Workload, algorithm: Algorithm, k: &KernelRates) -> Duration {
    let mut model = CostModel::default();
    model.set(Kernel::SzxCompress, k.encode * 1e9);
    model.set(Kernel::SzxDecompress, k.decode * 1e9);
    model.set(Kernel::Reduce, k.fold * 1e9);
    let params = |values: usize| SchedParams {
        world: w.ranks(),
        payload_bytes: values * 4,
        compress_tput: k.encode * 1e9,
        decompress_tput: k.decode * 1e9,
        ratio: k.ratio,
        pipelined: true,
    };
    let (len, count) = w.buckets();
    let schedule = schedule_of(algorithm);
    let reduce = if w.simulated() {
        let (topo, hier) = sim_cluster();
        model.estimate_hier(schedule, &ClusterNet::new(topo, hier), &params(len))
    } else {
        model.estimate(schedule, &NetModel::default(), &params(len))
    };
    let bcast = if w.bcast_len() > 0 {
        model.estimate(
            Schedule::BinomialTreeBcast,
            &NetModel::default(),
            &params(w.bcast_len()),
        )
    } else {
        Duration::ZERO
    };
    reduce * count as u32 + bcast
}
