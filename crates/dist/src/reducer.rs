//! The socket-backed [`Reducer`]: rank-0 master, N−1 workers, one
//! bitwise-identical tree.
//!
//! Each rank owns the contiguous batch shard `shard_range(b, rank,
//! world)` and executes exactly the adds of the global stride-doubling
//! tree whose operand span fits its shard
//! ([`alf_dp::allreduce::local_adds`]). Workers ship the surviving
//! subtree roots to the master, which executes the remaining
//! boundary-crossing adds in global stride order
//! ([`alf_dp::allreduce::cross_adds`]) and broadcasts the reduced
//! gradient (plus the slot-order loss fold, as `f64` bits) back. Every
//! add of `tree_reduce_into_first` thus happens exactly once, on
//! identical operand bits, in a dependency-respecting order — so any
//! rank count reproduces the single-process `DpTrainer` bitwise, which
//! `tests/dist.rs` gates.
//!
//! Only gradients cross the wire: every rank replays the identical
//! batch-mean scale, clip, optimizer step and autoencoder move from the
//! broadcast, keeping full trainer state in lockstep.

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use alf_core::CnnModel;
use alf_data::plan::shard_range;
use alf_dp::allreduce::{cross_adds, local_adds, local_roots};
use alf_dp::{ReduceError, ReducedStep, Reducer, StepContext};
use alf_obs::MetricsRegistry;
use alf_tensor::ops::ActiveRows;
use bytes::BytesMut;

use crate::codec::{decode_grad, encode_grad, GradLayout};
use crate::error::{DistError, Result};
use crate::frame::{FrameStream, WireMetrics};
use crate::net::{accept_with_deadline, configure_stream, connect_with_backoff};
use crate::protocol::PROTOCOL_VERSION;
use crate::protocol::{model_fingerprint, Hello, Message, Partials, Reduced, Welcome};

/// Shape of one collective: who this process is and how patient its
/// sockets are.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Total rank count (rank 0 is the master).
    pub world: usize,
    /// This process's rank, `0..world`.
    pub rank: usize,
    /// The master's listen/connect address.
    pub addr: std::net::SocketAddr,
    /// Per-frame read (and write) deadline; an expired deadline is a
    /// typed [`DistError::RankLost`].
    pub read_timeout: Duration,
    /// Total budget for the connect/accept handshake, covering worker
    /// process startup skew (connect retries with backoff inside it).
    pub connect_timeout: Duration,
}

impl DistConfig {
    /// Configuration with default deadlines (60 s frame reads, 30 s
    /// handshake).
    pub fn new(world: usize, rank: usize, addr: std::net::SocketAddr) -> Self {
        Self {
            world,
            rank,
            addr,
            read_timeout: Duration::from_secs(60),
            connect_timeout: Duration::from_secs(30),
        }
    }
}

enum Role {
    /// Rank 0: holds one framed stream per worker, indexed `rank - 1`.
    Master { conns: Vec<FrameStream> },
    /// Ranks 1..world: one framed stream to the master.
    Worker { conn: FrameStream },
}

/// Socket-backed gradient reduction for [`alf_dp::DpTrainer`], plugged
/// in through [`DpTrainer::advance_step_with`].
///
/// [`DpTrainer::advance_step_with`]: alf_dp::DpTrainer::advance_step_with
pub struct DistReducer {
    cfg: DistConfig,
    role: Role,
    layout: GradLayout,
    metrics: WireMetrics,
}

impl DistReducer {
    /// Rank-0 constructor: accepts and handshakes `world - 1` workers
    /// on `listener` (bound by the caller, so tests can use an
    /// ephemeral port). Registers `dist.*` metrics in `registry` when
    /// given.
    ///
    /// # Errors
    ///
    /// Accept timeouts, and any handshake violation as a typed
    /// [`DistError::ProtocolMismatch`].
    pub fn master(
        cfg: DistConfig,
        model: &CnnModel,
        listener: &TcpListener,
        registry: Option<&MetricsRegistry>,
    ) -> Result<Self> {
        assert_eq!(cfg.rank, 0, "master must be rank 0");
        let metrics = match registry {
            Some(reg) => WireMetrics::register(reg),
            None => WireMetrics::standalone(),
        };
        let fingerprint = model_fingerprint(model, cfg.world as u32);
        let mut pending: Vec<Option<FrameStream>> = (1..cfg.world).map(|_| None).collect();
        for _ in 1..cfg.world {
            let stream = accept_with_deadline(listener, cfg.connect_timeout)?;
            configure_stream(&stream, cfg.read_timeout)?;
            let mut conn = FrameStream::new(stream, u32::MAX, metrics.clone());
            conn.expect_magic()?;
            let hello = match Message::decode(&conn.read_frame()?)? {
                Message::Hello(h) => h,
                other => {
                    return Err(DistError::ProtocolMismatch {
                        detail: format!("expected HELLO, got {}", other.kind()),
                    })
                }
            };
            if hello.version != PROTOCOL_VERSION {
                return Err(DistError::ProtocolMismatch {
                    detail: format!(
                        "protocol version {} from rank {}, master speaks {PROTOCOL_VERSION}",
                        hello.version, hello.rank
                    ),
                });
            }
            if hello.world != cfg.world as u32 || hello.fingerprint != fingerprint {
                return Err(DistError::ProtocolMismatch {
                    detail: format!(
                        "rank {} joined a different run (world {} fp {:#018x}, master world {} fp {:#018x})",
                        hello.rank, hello.world, hello.fingerprint, cfg.world, fingerprint
                    ),
                });
            }
            let slot = (hello.rank as usize)
                .checked_sub(1)
                .filter(|s| *s < pending.len())
                .ok_or_else(|| DistError::ProtocolMismatch {
                    detail: format!("rank {} outside 1..{}", hello.rank, cfg.world),
                })?;
            if pending[slot].is_some() {
                return Err(DistError::ProtocolMismatch {
                    detail: format!("rank {} connected twice", hello.rank),
                });
            }
            conn.set_peer_rank(hello.rank);
            conn.send_magic()?;
            conn.write_frame(
                &Message::Welcome(Welcome {
                    version: PROTOCOL_VERSION,
                    world: cfg.world as u32,
                    fingerprint,
                })
                .encode(),
            )?;
            pending[slot] = Some(conn);
        }
        let conns = pending.into_iter().flatten().collect();
        Ok(Self {
            layout: GradLayout::of_model(model),
            cfg,
            role: Role::Master { conns },
            metrics,
        })
    }

    /// Worker constructor: connects to the master with retry/backoff
    /// and completes the `HELLO`/`WELCOME` handshake.
    ///
    /// # Errors
    ///
    /// Connect failures after the backoff budget, and handshake
    /// violations as typed [`DistError::ProtocolMismatch`].
    pub fn worker(
        cfg: DistConfig,
        model: &CnnModel,
        registry: Option<&MetricsRegistry>,
    ) -> Result<Self> {
        assert!(
            cfg.rank >= 1 && cfg.rank < cfg.world,
            "worker rank must be 1..world"
        );
        let metrics = match registry {
            Some(reg) => WireMetrics::register(reg),
            None => WireMetrics::standalone(),
        };
        let fingerprint = model_fingerprint(model, cfg.world as u32);
        let stream: TcpStream = connect_with_backoff(cfg.addr, cfg.connect_timeout)?;
        configure_stream(&stream, cfg.read_timeout)?;
        let mut conn = FrameStream::new(stream, 0, metrics.clone());
        conn.send_magic()?;
        conn.write_frame(
            &Message::Hello(Hello {
                version: PROTOCOL_VERSION,
                world: cfg.world as u32,
                rank: cfg.rank as u32,
                fingerprint,
            })
            .encode(),
        )?;
        conn.expect_magic()?;
        let welcome = match Message::decode(&conn.read_frame()?)? {
            Message::Welcome(w) => w,
            Message::Fault(f) => return Err(DistError::Fault { detail: f.detail }),
            other => {
                return Err(DistError::ProtocolMismatch {
                    detail: format!("expected WELCOME, got {}", other.kind()),
                })
            }
        };
        if welcome.version != PROTOCOL_VERSION
            || welcome.world != cfg.world as u32
            || welcome.fingerprint != fingerprint
        {
            return Err(DistError::ProtocolMismatch {
                detail: format!(
                    "master runs a different collective (version {} world {} fp {:#018x})",
                    welcome.version, welcome.world, welcome.fingerprint
                ),
            });
        }
        Ok(Self {
            layout: GradLayout::of_model(model),
            cfg,
            role: Role::Worker { conn },
            metrics,
        })
    }

    /// Total rank count.
    pub fn world(&self) -> usize {
        self.cfg.world
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.cfg.rank
    }

    /// Live handles to the `dist.*` wire instruments.
    pub fn metrics(&self) -> &WireMetrics {
        &self.metrics
    }

    /// Encodes one flat gradient vector with the sparse/dense cutover,
    /// bumping the wire counters.
    fn encode(&self, grad: &[f32], sparse: &[Option<ActiveRows>]) -> Vec<u8> {
        let mut out = BytesMut::new();
        let stats = encode_grad(grad, &self.layout, sparse, &mut out);
        self.metrics.tensors_sparse.add(stats.sparse_tensors as u64);
        self.metrics.tensors_dense.add(stats.dense_tensors as u64);
        let bytes = out.freeze().to_vec();
        self.metrics.grad_bytes_tx.add(bytes.len() as u64);
        bytes
    }

    fn reduce_impl(
        &mut self,
        leaves: &mut [Vec<f32>],
        losses: &[f32],
        corrects: &[u8],
        ctx: &StepContext<'_>,
    ) -> Result<ReducedStep> {
        let b = ctx.batch;
        let world = self.cfg.world;
        let shard = shard_range(b, self.cfg.rank, world);
        if leaves.len() != shard.len() {
            return Err(DistError::Train(alf_tensor::ShapeError::new(
                "dist_reduce",
                format!("{} leaves for a shard of {}", leaves.len(), shard.len()),
            )));
        }
        // Execute this rank's span-contained slice of the global tree.
        for (dst, src) in local_adds(b, &shard) {
            let (d, s) = (dst - shard.start, src - shard.start);
            let (head, tail) = leaves.split_at_mut(s);
            for (a, v) in head[d].iter_mut().zip(tail[0].iter()) {
                *a += *v;
            }
        }
        let roots = local_roots(b, &shard);
        let sparse = ctx.model.param_active_rows();
        let own_correct: u32 = corrects.iter().map(|&c| u32::from(c)).sum();
        match &mut self.role {
            Role::Worker { .. } => {
                let mut encoded_roots = Vec::with_capacity(roots.len());
                for &r in &roots {
                    encoded_roots.push((r as u32, self.encode(&leaves[r - shard.start], &sparse)));
                }
                let Role::Worker { conn } = &mut self.role else {
                    unreachable!("role checked above")
                };
                conn.write_frame(
                    &Message::Partials(Partials {
                        epoch: ctx.epoch,
                        step: ctx.step,
                        roots: encoded_roots,
                        losses: losses.to_vec(),
                        correct: own_correct,
                    })
                    .encode(),
                )?;
                let reduced = match Message::decode(&conn.read_frame()?)? {
                    Message::Reduced(r) => r,
                    Message::Fault(f) => return Err(DistError::Fault { detail: f.detail }),
                    other => {
                        return Err(DistError::ProtocolMismatch {
                            detail: format!("expected REDUCED, got {}", other.kind()),
                        })
                    }
                };
                if reduced.epoch != ctx.epoch || reduced.step != ctx.step {
                    return Err(DistError::ProtocolMismatch {
                        detail: format!(
                            "REDUCED for ({}, {}), this rank is at ({}, {})",
                            reduced.epoch, reduced.step, ctx.epoch, ctx.step
                        ),
                    });
                }
                let grad = decode_grad(&reduced.grad, &self.layout)?;
                Ok(ReducedStep {
                    grad,
                    loss_sum: f64::from_bits(reduced.loss_sum_bits),
                    correct: reduced.correct as usize,
                })
            }
            Role::Master { .. } => {
                // Park this rank's roots, then fill in every peer's.
                let mut slots: Vec<Option<Vec<f32>>> = vec![None; b];
                for &r in &roots {
                    slots[r] = Some(std::mem::take(&mut leaves[r - shard.start]));
                }
                let mut rank_losses: Vec<Vec<f32>> = Vec::with_capacity(world);
                rank_losses.push(losses.to_vec());
                let mut correct_total = own_correct as u64;
                let Role::Master { conns } = &mut self.role else {
                    unreachable!("role checked above")
                };
                for conn in conns.iter_mut() {
                    let peer = conn.peer_rank() as usize;
                    let partials = match Message::decode(&conn.read_frame()?)? {
                        Message::Partials(p) => p,
                        other => {
                            return Err(DistError::ProtocolMismatch {
                                detail: format!(
                                    "expected PARTIALS from rank {peer}, got {}",
                                    other.kind()
                                ),
                            })
                        }
                    };
                    if partials.epoch != ctx.epoch || partials.step != ctx.step {
                        return Err(DistError::ProtocolMismatch {
                            detail: format!(
                                "rank {peer} is at step ({}, {}), master at ({}, {})",
                                partials.epoch, partials.step, ctx.epoch, ctx.step
                            ),
                        });
                    }
                    let peer_shard = shard_range(b, peer, world);
                    let expected_roots = local_roots(b, &peer_shard);
                    let got: Vec<usize> = partials.roots.iter().map(|(i, _)| *i as usize).collect();
                    if got != expected_roots {
                        return Err(DistError::ProtocolMismatch {
                            detail: format!(
                                "rank {peer} shipped roots {got:?}, plan expects {expected_roots:?}"
                            ),
                        });
                    }
                    if partials.losses.len() != peer_shard.len() {
                        return Err(DistError::ProtocolMismatch {
                            detail: format!(
                                "rank {peer} shipped {} losses for a shard of {}",
                                partials.losses.len(),
                                peer_shard.len()
                            ),
                        });
                    }
                    for (idx, bytes) in &partials.roots {
                        slots[*idx as usize] = Some(decode_grad(bytes, &self.layout)?);
                    }
                    rank_losses.push(partials.losses);
                    correct_total += u64::from(partials.correct);
                }
                // Finish the tree: the boundary-crossing adds, in the
                // global stride order.
                for (dst, src) in cross_adds(b, world) {
                    let s = slots[src].take().ok_or_else(|| plan_desync(src))?;
                    let d = slots[dst].as_mut().ok_or_else(|| plan_desync(dst))?;
                    for (a, v) in d.iter_mut().zip(s.iter()) {
                        *a += *v;
                    }
                }
                let grad = slots[0].take().ok_or_else(|| plan_desync(0))?;
                // Slot-order loss fold: contiguous ascending shards make
                // rank order the batch-slot order.
                let mut loss_sum = 0.0f64;
                for rl in &rank_losses {
                    for &l in rl {
                        loss_sum += f64::from(l);
                    }
                }
                let encoded = self.encode(&grad, &sparse);
                let reply = Message::Reduced(Reduced {
                    epoch: ctx.epoch,
                    step: ctx.step,
                    grad: encoded,
                    loss_sum_bits: loss_sum.to_bits(),
                    correct: correct_total,
                })
                .encode();
                let Role::Master { conns } = &mut self.role else {
                    unreachable!("role checked above")
                };
                for conn in conns.iter_mut() {
                    conn.write_frame(&reply)?;
                }
                Ok(ReducedStep {
                    grad,
                    loss_sum,
                    correct: correct_total as usize,
                })
            }
        }
    }

    /// Best-effort relay of a master-side failure so surviving workers
    /// fail with the root cause instead of a bare deadline.
    fn broadcast_fault(&mut self, detail: &str) {
        if let Role::Master { conns } = &mut self.role {
            let frame = Message::Fault(crate::protocol::Fault {
                detail: detail.to_string(),
            })
            .encode();
            for conn in conns.iter_mut() {
                let _ = conn.write_frame(&frame);
            }
        }
    }
}

fn plan_desync(slot: usize) -> DistError {
    DistError::ProtocolMismatch {
        detail: format!("reduction plan desync: leaf slot {slot} not live"),
    }
}

impl Reducer for DistReducer {
    fn partition(&self, batch: usize) -> std::ops::Range<usize> {
        shard_range(batch, self.cfg.rank, self.cfg.world)
    }

    fn reduce(
        &mut self,
        leaves: &mut [Vec<f32>],
        losses: &[f32],
        corrects: &[u8],
        ctx: &StepContext<'_>,
    ) -> std::result::Result<ReducedStep, ReduceError> {
        let start = Instant::now();
        match self.reduce_impl(leaves, losses, corrects, ctx) {
            Ok(step) => {
                self.metrics
                    .reduce_ns
                    .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                Ok(step)
            }
            Err(e) => {
                self.broadcast_fault(&e.to_string());
                Err(e.into())
            }
        }
    }
}
