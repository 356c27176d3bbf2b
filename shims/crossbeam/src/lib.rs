//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no network access to a crates registry, so
//! the workspace patches `crossbeam` to this local shim. Only the
//! [`channel`] module is provided, and only what the actor runtime uses:
//! [`channel::bounded`] MPMC channels with rendezvous semantics at
//! capacity 0, deadlines, and disconnect detection. The implementation is
//! a `VecDeque` under a `Mutex` with two `Condvar`s — not lock-free like
//! the real crate, but semantically equivalent for the channel sizes the
//! actor runtime creates (the paper's pipelines move a handful of large
//! messages, not millions of small ones).
//!
//! # Beyond the crossbeam API: the wake generation
//!
//! The actor runtime keeps liveness state of its own next to each channel
//! (connection counts and a poison flag), outside this channel's mutex,
//! and needs a blocked peer to notice a change to it at once. Each channel
//! therefore carries a *wake generation*, kept under its lock — the
//! eventcount pattern:
//!
//! 1. the waiter reads [`channel::Receiver::generation`] (or the sender's),
//! 2. checks its own liveness state, and
//! 3. blocks in [`channel::Receiver::recv_unless_woken`] /
//!    [`channel::Sender::send_unless_woken`] with that generation, which
//!    park only while the generation is unchanged;
//!
//! while the notifier changes the liveness state first and then calls
//! [`channel::Sender::wake`], which bumps the generation and notifies both
//! condvars under the lock. A change that lands after step 2 either bumps
//! the generation before step 3 takes the lock (the wait returns
//! [`channel::WaitError::Woken`] without parking) or notifies the parked
//! waiter; no wakeup is lost. Real crossbeam has no such hook, so the
//! runtime cannot swap back to it without replacing this mechanism.

pub mod channel {
    //! Multi-producer multi-consumer channels (`crossbeam::channel` subset
    //! plus the wake generation described in the crate docs).

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::Instant;

    /// Why [`Receiver::recv_unless_woken`] or [`Sender::send_unless_woken`]
    /// returned without completing. Not part of the crossbeam API.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WaitError {
        /// The caller's deadline passed first.
        Timeout,
        /// The other side of the channel is gone.
        Disconnected,
        /// [`Sender::wake`] moved the wake generation past the one the
        /// caller observed.
        Woken,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers currently parked in `recv_unless_woken` — the signal a
        /// rendezvous (capacity 0) sender waits for.
        recv_waiting: usize,
        /// Bumped by [`Sender::wake`]; waits that observed an older value
        /// return [`WaitError::Woken`] instead of parking.
        generation: u64,
    }

    struct Chan<T> {
        cap: usize,
        state: Mutex<State<T>>,
        /// Signalled when space frees up, a receiver starts waiting, the
        /// receiver side disconnects, or the generation moves.
        send_cv: Condvar,
        /// Signalled when a message arrives, the sender side disconnects,
        /// or the generation moves.
        recv_cv: Condvar,
    }

    /// The sending half of a channel. Cloneable; the channel disconnects
    /// for receivers when the last clone is dropped.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a channel. Cloneable; the channel disconnects
    /// for senders when the last clone is dropped.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Create a bounded MPMC channel. Capacity 0 makes a rendezvous
    /// channel: a send completes only once a receiver is actively waiting.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            cap,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_waiting: 0,
                generation: 0,
            }),
            send_cv: Condvar::new(),
            recv_cv: Condvar::new(),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Chan<T> {
        /// Lock the state. A thread that panicked while holding the lock
        /// cannot have left it inconsistent — every critical section
        /// makes single-step updates — so poisoning is ignored, which
        /// also keeps the `Drop` impls from panicking.
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn generation(&self) -> u64 {
            self.lock().generation
        }
    }

    impl<T> Sender<T> {
        /// Block until the channel accepts the message, every receiver has
        /// disconnected, or the wake generation differs from `seen` (read
        /// earlier with [`Sender::generation`]). On failure the unsent
        /// message comes back with the reason, which is never
        /// [`WaitError::Timeout`]. Not part of the crossbeam API.
        pub fn send_unless_woken(&self, value: T, seen: u64) -> Result<(), (T, WaitError)> {
            let mut st = self.chan.lock();
            loop {
                if st.receivers == 0 {
                    return Err((value, WaitError::Disconnected));
                }
                // Rendezvous channels admit a message only once a receiver
                // is parked waiting for it; buffered channels admit up to
                // `cap` messages.
                let admit = if self.chan.cap == 0 {
                    st.queue.len() < st.recv_waiting
                } else {
                    st.queue.len() < self.chan.cap
                };
                if admit {
                    st.queue.push_back(value);
                    self.chan.recv_cv.notify_one();
                    return Ok(());
                }
                if st.generation != seen {
                    return Err((value, WaitError::Woken));
                }
                st = self
                    .chan
                    .send_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// The channel's current wake generation. Not part of the
        /// crossbeam API.
        pub fn generation(&self) -> u64 {
            self.chan.generation()
        }

        /// Bump the wake generation and wake every blocked sender and
        /// receiver: each wait that observed an older generation returns
        /// [`WaitError::Woken`]. Call it *after* changing the state the
        /// waiters check. Not part of the crossbeam API.
        pub fn wake(&self) {
            let mut st = self.chan.lock();
            st.generation = st.generation.wrapping_add(1);
            self.chan.recv_cv.notify_all();
            self.chan.send_cv.notify_all();
        }

        /// Whether `other` sends into the same underlying channel.
        pub fn same_channel(&self, other: &Sender<T>) -> bool {
            Arc::ptr_eq(&self.chan, &other.chan)
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives, every sender has disconnected,
        /// `deadline` passes (`None` never does), or the wake generation
        /// differs from `seen` (read earlier with [`Receiver::generation`]).
        /// A queued message wins over every other outcome. Not part of the
        /// crossbeam API.
        pub fn recv_unless_woken(
            &self,
            seen: u64,
            deadline: Option<Instant>,
        ) -> Result<T, WaitError> {
            let mut st = self.chan.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    // A slot freed (buffered) or the handoff completed
                    // (rendezvous): wake one blocked sender.
                    self.chan.send_cv.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(WaitError::Disconnected);
                }
                if st.generation != seen {
                    return Err(WaitError::Woken);
                }
                let timeout = match deadline {
                    None => None,
                    Some(d) => match d.checked_duration_since(Instant::now()) {
                        Some(left) if !left.is_zero() => Some(left),
                        _ => return Err(WaitError::Timeout),
                    },
                };
                st.recv_waiting += 1;
                // A receiver is now parked: rendezvous senders may proceed.
                self.chan.send_cv.notify_all();
                st = match timeout {
                    None => self
                        .chan
                        .recv_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner),
                    Some(left) => {
                        self.chan
                            .recv_cv
                            .wait_timeout(st, left)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
                st.recv_waiting -= 1;
            }
        }

        /// The channel's current wake generation. Not part of the
        /// crossbeam API.
        pub fn generation(&self) -> u64 {
            self.chan.generation()
        }

        /// Take a message if one is already queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.lock();
            match st.queue.pop_front() {
                Some(v) => {
                    self.chan.send_cv.notify_one();
                    Ok(v)
                }
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan.lock().senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.chan.lock().receivers += 1;
            Receiver {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.senders -= 1;
            if st.senders == 0 {
                self.chan.recv_cv.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                self.chan.send_cv.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;
        use std::time::Duration;

        fn send<T>(tx: &Sender<T>, value: T) -> Result<(), WaitError> {
            tx.send_unless_woken(value, tx.generation())
                .map_err(|(_, e)| e)
        }

        fn recv<T>(rx: &Receiver<T>) -> Result<T, WaitError> {
            rx.recv_unless_woken(rx.generation(), None)
        }

        #[test]
        fn buffered_fifo() {
            let (tx, rx) = bounded(8);
            for i in 0..8 {
                send(&tx, i).unwrap();
            }
            for i in 0..8 {
                assert_eq!(rx.try_recv(), Ok(i));
            }
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_is_observed() {
            let (tx, rx) = bounded(1);
            send(&tx, 5i32).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(5));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(recv(&rx), Err(WaitError::Disconnected));
            let (tx2, rx2) = bounded::<i32>(1);
            drop(rx2);
            assert_eq!(send(&tx2, 1), Err(WaitError::Disconnected));
        }

        #[test]
        fn rendezvous_blocks_sender_until_receiver_waits() {
            let (tx, rx) = bounded(0);
            let start = Instant::now();
            let h = thread::spawn(move || {
                send(&tx, 7u32).unwrap();
                start.elapsed()
            });
            thread::sleep(Duration::from_millis(50));
            assert_eq!(recv(&rx), Ok(7));
            let sent_after = h.join().unwrap();
            assert!(sent_after >= Duration::from_millis(45), "{sent_after:?}");
        }

        #[test]
        fn recv_deadline_times_out() {
            let (_tx, rx) = bounded::<u32>(1);
            let deadline = Instant::now() + Duration::from_millis(5);
            assert_eq!(
                rx.recv_unless_woken(rx.generation(), Some(deadline)),
                Err(WaitError::Timeout)
            );
            assert!(Instant::now() >= deadline);
        }

        #[test]
        fn queued_message_wins_over_a_stale_generation() {
            let (tx, rx) = bounded(1);
            let seen = rx.generation();
            send(&tx, 3u8).unwrap();
            tx.wake();
            assert_eq!(rx.recv_unless_woken(seen, None), Ok(3));
            assert_eq!(rx.recv_unless_woken(seen, None), Err(WaitError::Woken));
        }

        #[test]
        fn wake_between_generation_read_and_park_is_not_lost() {
            // The eventcount window: the wake lands after the waiter read
            // the generation but before it took the lock to park.
            let (tx, rx) = bounded::<u8>(0);
            let seen = rx.generation();
            tx.wake();
            assert_eq!(rx.recv_unless_woken(seen, None), Err(WaitError::Woken));
            let seen = tx.generation();
            tx.wake();
            assert_eq!(tx.send_unless_woken(1, seen), Err((1, WaitError::Woken)));
        }

        #[test]
        fn wake_releases_parked_receiver() {
            let (tx, rx) = bounded::<u8>(1);
            let seen = rx.generation();
            let h = thread::spawn(move || rx.recv_unless_woken(seen, None));
            thread::sleep(Duration::from_millis(20));
            tx.wake();
            assert_eq!(h.join().unwrap(), Err(WaitError::Woken));
        }

        #[test]
        fn wake_releases_parked_rendezvous_sender() {
            let (tx, _rx) = bounded::<u8>(0);
            let parked = tx.clone();
            let seen = tx.generation();
            let h = thread::spawn(move || parked.send_unless_woken(1, seen));
            thread::sleep(Duration::from_millis(20));
            tx.wake();
            assert_eq!(h.join().unwrap(), Err((1, WaitError::Woken)));
        }
    }
}
