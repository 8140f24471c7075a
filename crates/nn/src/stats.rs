//! Slot-ordered exchange of batch-statistics partial sums.
//!
//! Batch normalisation over a batch that is split across several
//! participants (data-parallel workers, each holding a contiguous run of
//! the batch's samples) is bitwise equal to normalisation over the whole
//! batch on one participant when every statistic is accumulated the same
//! way: one partial sum **per sample**, folded left to right in **global
//! slot order**. The crate-private `fold_slots` is that fold;
//! [`StatExchange`] is the rendezvous that collects every participant's
//! per-sample partials so the fold sees all of them, and [`StatLink`] is
//! what a participant's [`RunCtx`](crate::RunCtx) carries to find its slots.
//!
//! A participant that fails before a rendezvous would leave its peers
//! waiting forever; [`StatExchange::participate`] poisons the exchange on
//! error or unwind so they return a typed error instead.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use alf_tensor::ShapeError;

use crate::Result;

/// Folds per-slot partial sums (`partials[slot * width + i]`) into one sum
/// per column `i`, adding the slots in index order starting from `0.0` —
/// the accumulation order of a single whole-batch pass, whatever the
/// partition of slots over participants was.
pub(crate) fn fold_slots(partials: &[f32], width: usize) -> Vec<f32> {
    let mut out = vec![0.0; width];
    for slot in partials.chunks_exact(width.max(1)) {
        for (acc, &p) in out.iter_mut().zip(slot) {
            *acc += p;
        }
    }
    out
}

fn peer_failed() -> ShapeError {
    ShapeError::new(
        "stat_exchange",
        "a participant failed before the rendezvous",
    )
}

/// Rendezvous over the `slots` samples of one batch.
///
/// Every round, each participant publishes `width` partial sums for each of
/// its samples with [`StatExchange::fold`] and receives the slot-order fold
/// over all `slots` samples. All participants must run the same sequence of
/// rounds (the same model over their shards). No participant count is
/// configured: a round completes when every slot has been published.
#[derive(Debug)]
pub struct StatExchange {
    slots: usize,
    state: Mutex<State>,
    round_done: Condvar,
}

#[derive(Debug, Default)]
struct State {
    /// Columns per slot in the round being collected.
    width: usize,
    /// Slots published so far in the round being collected.
    filled: usize,
    /// Completed rounds; waiters sleep until it moves.
    generation: u64,
    poisoned: bool,
    partials: Vec<f32>,
    folded: Vec<f32>,
}

impl StatExchange {
    /// An exchange over a batch of `slots` samples.
    pub fn new(slots: usize) -> Self {
        Self {
            slots,
            state: Mutex::new(State::default()),
            round_done: Condvar::new(),
        }
    }

    /// Total samples of the batch, across all participants.
    pub fn slots(&self) -> usize {
        self.slots
    }

    fn lock(&self) -> Result<MutexGuard<'_, State>> {
        self.state
            .lock()
            .map_err(|_| ShapeError::new("stat_exchange", "a participant panicked mid-round"))
    }

    fn poison(&self) {
        // Setting a flag leaves the state valid whatever a panicking
        // holder was doing, and this runs in a drop guard: never panic.
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.poisoned = true;
        self.round_done.notify_all();
    }

    /// Publishes this participant's partials — `width` values for each of
    /// its consecutive samples, the first of which is global slot
    /// `first_slot` — then blocks until every slot of the round is in and
    /// returns the `fold_slots` result over all of them.
    ///
    /// # Errors
    ///
    /// A typed error when the partials do not fit the exchange (which also
    /// releases the peers), or when a peer failed before publishing.
    pub fn fold(&self, first_slot: usize, partials: &[f32], width: usize) -> Result<Vec<f32>> {
        let mut guard = self.lock()?;
        let st = &mut *guard;
        if st.poisoned {
            return Err(peer_failed());
        }
        let samples = partials.len() / width.max(1);
        let fits = width > 0
            && samples * width == partials.len()
            && first_slot
                .checked_add(samples)
                .is_some_and(|end| end <= self.slots)
            && (st.filled == 0 || st.width == width);
        if !fits {
            st.poisoned = true;
            self.round_done.notify_all();
            return Err(ShapeError::new(
                "stat_exchange",
                format!(
                    "{} partials of width {width} at slot {first_slot} do not fit a round of {} \
                     slots, width {}",
                    partials.len(),
                    self.slots,
                    st.width
                ),
            ));
        }
        if st.filled == 0 {
            st.width = width;
            st.partials.resize(self.slots * width, 0.0);
        }
        st.partials[first_slot * width..][..partials.len()].copy_from_slice(partials);
        st.filled += samples;
        if st.filled == self.slots {
            st.folded = fold_slots(&st.partials, width);
            st.filled = 0;
            st.generation += 1;
            self.round_done.notify_all();
        } else {
            let round = st.generation;
            while guard.generation == round && !guard.poisoned {
                guard = self.round_done.wait(guard).map_err(|_| peer_failed())?;
            }
            if guard.generation == round {
                return Err(peer_failed());
            }
        }
        // The next round cannot complete (and overwrite `folded`) before
        // this participant publishes into it.
        Ok(guard.folded.clone())
    }

    /// Runs one participant's share of the pass. If `f` fails or unwinds,
    /// the exchange is poisoned so that peers blocked in — or later
    /// arriving at — a rendezvous return an error instead of waiting for
    /// partials that will never come.
    ///
    /// # Errors
    ///
    /// Whatever `f` fails with.
    pub fn participate<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        struct PoisonOnDrop<'a> {
            exchange: &'a StatExchange,
            armed: bool,
        }
        impl Drop for PoisonOnDrop<'_> {
            fn drop(&mut self) {
                if self.armed {
                    self.exchange.poison();
                }
            }
        }
        let mut guard = PoisonOnDrop {
            exchange: self,
            armed: true,
        };
        let out = f();
        guard.armed = out.is_err();
        out
    }
}

/// A participant's handle on a [`StatExchange`]: the exchange plus the
/// global slot of the participant's first sample. Installed on a
/// [`RunCtx`](crate::RunCtx) for the duration of a [`Mode::Stats`]
/// forward.
///
/// [`Mode::Stats`]: crate::Mode::Stats
#[derive(Debug, Clone)]
pub struct StatLink {
    exchange: Arc<StatExchange>,
    first_slot: usize,
}

impl StatLink {
    /// Links a participant whose samples start at global slot `first_slot`.
    pub fn new(exchange: Arc<StatExchange>, first_slot: usize) -> Self {
        Self {
            exchange,
            first_slot,
        }
    }

    /// Total samples of the batch, across all participants.
    pub fn slots(&self) -> usize {
        self.exchange.slots()
    }

    /// [`StatExchange::fold`] at this participant's slot offset.
    ///
    /// # Errors
    ///
    /// See [`StatExchange::fold`].
    pub fn fold(&self, partials: &[f32], width: usize) -> Result<Vec<f32>> {
        self.exchange.fold(self.first_slot, partials, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn fold_slots_adds_in_slot_order() {
        // (1e8 + 1) - 1e8 differs from 1 + (1e8 - 1e8) in f32: order matters.
        assert_eq!(
            fold_slots(&[1e8f32, 1.0, -1e8], 1),
            vec![(1e8f32 + 1.0) - 1e8]
        );
        assert_eq!(fold_slots(&[1.0, 10.0, 2.0, 20.0], 2), vec![3.0, 30.0]);
    }

    #[test]
    fn participants_receive_the_whole_batch_fold_round_after_round() {
        let exchange = StatExchange::new(3);
        let rounds: Vec<[f32; 3]> = vec![[1e8, 1.0, -1e8], [0.5, 0.25, 0.125]];
        std::thread::scope(|scope| {
            // Participant A owns slot 0, B owns slots 1..3.
            let a = scope.spawn(|| {
                rounds
                    .iter()
                    .map(|r| exchange.fold(0, &r[..1], 1).unwrap())
                    .collect::<Vec<_>>()
            });
            let b = scope.spawn(|| {
                rounds
                    .iter()
                    .map(|r| exchange.fold(1, &r[1..], 1).unwrap())
                    .collect::<Vec<_>>()
            });
            let want: Vec<Vec<f32>> = rounds.iter().map(|r| vec![(r[0] + r[1]) + r[2]]).collect();
            assert_eq!(a.join().unwrap(), want);
            assert_eq!(b.join().unwrap(), want);
        });
    }

    #[test]
    fn a_failing_or_panicking_participant_releases_its_peer() {
        for panics in [false, true] {
            let exchange = Arc::new(StatExchange::new(2));
            let (tx, rx) = mpsc::channel();
            let waiter = {
                let exchange = Arc::clone(&exchange);
                std::thread::spawn(move || {
                    let out = exchange.participate(|| exchange.fold(0, &[1.0], 1));
                    tx.send(out.is_err()).unwrap();
                })
            };
            let failer = {
                let exchange = Arc::clone(&exchange);
                std::thread::spawn(move || {
                    exchange.participate(|| -> Result<()> {
                        if panics {
                            panic!("shard blew up");
                        }
                        Err(ShapeError::new("test", "shard failed"))
                    })
                })
            };
            let peer_errored = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("peer still waiting on a dead participant");
            assert!(peer_errored);
            waiter.join().unwrap();
            assert_eq!(failer.join().is_err(), panics);
            // Late arrivals fail fast too.
            assert!(exchange.fold(1, &[1.0], 1).is_err());
        }
    }

    #[test]
    fn misfit_partials_are_a_typed_error() {
        let exchange = StatExchange::new(2);
        assert!(exchange.fold(1, &[1.0, 2.0], 1).is_err()); // slot 2 of 2
        let exchange = StatExchange::new(2);
        assert!(exchange.fold(0, &[1.0, 2.0, 3.0], 2).is_err()); // ragged
        let exchange = StatExchange::new(2);
        assert!(exchange.fold(0, &[], 0).is_err());
    }
}
