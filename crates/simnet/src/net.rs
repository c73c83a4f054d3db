//! The communicator abstraction and process groups (sub-communicators).
//!
//! Every collective in this workspace is written against the [`Net`] trait, so the
//! same algorithm runs on the whole cluster ([`crate::Comm`]) or on a subset of
//! ranks ([`GroupComm`]) — the MPI communicator/sub-communicator split. Groups are
//! what hybrid data + pipeline parallelism needs: each pipeline stage's replicas
//! form a data-parallel group that allreduces its own gradient shard while other
//! groups do the same concurrently.

use crate::comm::{Comm, Tag};
use crate::cost::WireSize;
use crate::loan::Loans;
use std::borrow::Cow;
use std::sync::Arc;

/// The communicator interface all collectives are generic over.
///
/// Semantics match [`Comm`]'s inherent methods; see those docs. Implementations:
/// [`Comm`] (the whole cluster) and [`GroupComm`] (a subset with renumbered ranks).
pub trait Net {
    /// This endpoint's rank within the communicator, `0..size`.
    fn rank(&self) -> usize;
    /// Number of ranks in the communicator.
    fn size(&self) -> usize;
    /// Non-blocking typed send to `dst` (communicator-local rank).
    fn send<T: WireSize + Send + 'static>(&mut self, dst: usize, tag: Tag, value: T);
    /// Blocking typed receive from `src` (communicator-local rank).
    fn recv<T: Send + 'static>(&mut self, src: usize, tag: Tag) -> T;
    /// Advance the virtual clock by `seconds` of local computation.
    fn compute(&mut self, seconds: f64);
    /// Current virtual time of this rank.
    fn now(&self) -> f64;
    /// Label subsequent traffic in the ledger. Accepts `&'static str` and
    /// owned `String`s alike; labels are interned, so dynamically built
    /// per-bucket/per-layer labels cost one allocation per distinct name.
    fn set_phase(&mut self, phase: impl Into<Cow<'static, str>>);
    /// Toggle zero-cost instrumentation mode.
    fn set_free_mode(&mut self, on: bool);
    /// Synchronize all ranks *of this communicator*.
    fn barrier(&mut self);

    /// Combined send-then-receive (ring / recursive-doubling idiom).
    fn sendrecv<S, R>(
        &mut self,
        dst: usize,
        send_tag: Tag,
        value: S,
        src: usize,
        recv_tag: Tag,
    ) -> R
    where
        S: WireSize + Send + 'static,
        R: Send + 'static,
    {
        self.send(dst, send_tag, value);
        self.recv(src, recv_tag)
    }

    /// Send a reference-counted payload (fan-out senders clone the `Arc`, not
    /// the buffer); pair with [`recv_shared`](Net::recv_shared).
    fn send_shared<T: WireSize + Send + Sync + 'static>(
        &mut self,
        dst: usize,
        tag: Tag,
        value: Arc<T>,
    );

    /// Receive a payload sent with [`send_shared`](Net::send_shared); timing
    /// semantics identical to `recv`.
    fn recv_shared<T: Send + Sync + 'static>(&mut self, src: usize, tag: Tag) -> Arc<T>;

    /// Take a cleared `f32` buffer with capacity ≥ `cap`, reusing this
    /// rank's spare when it fits (see [`Comm::take_f32`]).
    fn take_f32(&mut self, cap: usize) -> Vec<f32> {
        Vec::with_capacity(cap)
    }

    /// Return an `f32` buffer; this rank may keep it as its spare.
    fn recycle_f32(&mut self, _buf: Vec<f32>) {}

    /// Run `body` as a lending scope: inside it, [`lend`](Net::lend) sends a
    /// slice borrowed for `'a` without copying it. Returns only once every
    /// slice lent through `loans` has been read, so lent memory stays
    /// read-only and alive while a reader may read it (see [`Loans`]).
    fn lending<'a, R>(&mut self, body: impl FnOnce(&mut Self, &Loans<'a>) -> R) -> R {
        let loans = Loans::new();
        let out = body(self, &loans);
        loans.settle(self.now());
        out
    }

    /// Lend `data` to `dst` (see [`Comm::lend`]). This default copies it
    /// into a sent `Vec<f32>`, which [`recv_lent`](Net::recv_lent) reads
    /// alike; [`Comm`] and [`GroupComm`] lend.
    fn lend<'a>(&mut self, _loans: &Loans<'a>, dst: usize, tag: Tag, data: &'a [f32]) {
        self.send(dst, tag, data.to_vec());
    }

    /// Receive a slice sent with [`lend`](Net::lend) (or a `Vec<f32>`) and
    /// run `read` on it (see [`Comm::recv_lent`]).
    fn recv_lent<R>(&mut self, src: usize, tag: Tag, read: impl FnOnce(&[f32]) -> R) -> R {
        read(&self.recv::<Vec<f32>>(src, tag))
    }
}

impl Net for Comm {
    fn rank(&self) -> usize {
        Comm::rank(self)
    }

    fn size(&self) -> usize {
        Comm::size(self)
    }

    fn send<T: WireSize + Send + 'static>(&mut self, dst: usize, tag: Tag, value: T) {
        Comm::send(self, dst, tag, value)
    }

    fn recv<T: Send + 'static>(&mut self, src: usize, tag: Tag) -> T {
        Comm::recv(self, src, tag)
    }

    fn compute(&mut self, seconds: f64) {
        Comm::compute(self, seconds)
    }

    fn now(&self) -> f64 {
        Comm::now(self)
    }

    fn set_phase(&mut self, phase: impl Into<Cow<'static, str>>) {
        Comm::set_phase(self, phase)
    }

    fn set_free_mode(&mut self, on: bool) {
        Comm::set_free_mode(self, on)
    }

    fn barrier(&mut self) {
        Comm::barrier(self)
    }

    fn send_shared<T: WireSize + Send + Sync + 'static>(
        &mut self,
        dst: usize,
        tag: Tag,
        value: Arc<T>,
    ) {
        Comm::send_shared(self, dst, tag, value)
    }

    fn recv_shared<T: Send + Sync + 'static>(&mut self, src: usize, tag: Tag) -> Arc<T> {
        Comm::recv_shared(self, src, tag)
    }

    fn take_f32(&mut self, cap: usize) -> Vec<f32> {
        Comm::take_f32(self, cap)
    }

    fn recycle_f32(&mut self, buf: Vec<f32>) {
        Comm::recycle_f32(self, buf)
    }

    fn lend<'a>(&mut self, loans: &Loans<'a>, dst: usize, tag: Tag, data: &'a [f32]) {
        Comm::lend(self, loans, dst, tag, data)
    }

    fn recv_lent<R>(&mut self, src: usize, tag: Tag, read: impl FnOnce(&[f32]) -> R) -> R {
        Comm::recv_lent(self, src, tag, read)
    }
}

/// A sub-communicator: a subset of the cluster's ranks, renumbered `0..group_size`.
///
/// Tags are salted with a caller-chosen `group_id` (high 16 bits) so traffic of
/// different concurrent groups — and any direct global traffic — cannot collide.
/// The group [`barrier`](Net::barrier) is a dissemination barrier over the group's
/// members only (`⌈log2 g⌉` rounds of empty messages), so its clock semantics
/// follow from ordinary message dependencies.
///
/// Generic over the parent communicator, so groups nest (a group of a group
/// renumbers and salts twice) and algorithms written against [`Net`] can form
/// sub-groups of whatever communicator they were handed — the hierarchical
/// collectives rely on this. `C` defaults to [`Comm`], the common case.
pub struct GroupComm<'a, C: Net = Comm> {
    comm: &'a mut C,
    /// Parent-communicator ranks of the members, in group-rank order.
    members: Vec<usize>,
    /// This endpoint's group-local rank.
    my_index: usize,
    salt: Tag,
}

impl<'a, C: Net> GroupComm<'a, C> {
    /// Wrap `comm` as a member of the group `members` (parent ranks; must contain
    /// the caller). All members must construct the group with the same `members`
    /// order and `group_id`.
    pub fn new(comm: &'a mut C, members: Vec<usize>, group_id: u16) -> Self {
        let me = comm.rank();
        let my_index = members
            .iter()
            .position(|&r| r == me)
            .expect("calling rank must be a member of its own group");
        assert!(members.iter().all(|&r| r < comm.size()), "group member out of cluster range");
        Self { comm, members, my_index, salt: (group_id as Tag) << 48 }
    }

    /// Borrow the underlying parent communicator (e.g. for cross-group traffic).
    pub fn global(&mut self) -> &mut C {
        self.comm
    }
}

impl<C: Net> Net for GroupComm<'_, C> {
    fn rank(&self) -> usize {
        self.my_index
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn send<T: WireSize + Send + 'static>(&mut self, dst: usize, tag: Tag, value: T) {
        let global_dst = self.members[dst];
        self.comm.send(global_dst, tag | self.salt, value);
    }

    fn recv<T: Send + 'static>(&mut self, src: usize, tag: Tag) -> T {
        let global_src = self.members[src];
        self.comm.recv(global_src, tag | self.salt)
    }

    fn compute(&mut self, seconds: f64) {
        self.comm.compute(seconds)
    }

    fn now(&self) -> f64 {
        self.comm.now()
    }

    fn set_phase(&mut self, phase: impl Into<Cow<'static, str>>) {
        self.comm.set_phase(phase)
    }

    fn set_free_mode(&mut self, on: bool) {
        self.comm.set_free_mode(on)
    }

    fn send_shared<T: WireSize + Send + Sync + 'static>(
        &mut self,
        dst: usize,
        tag: Tag,
        value: Arc<T>,
    ) {
        let global_dst = self.members[dst];
        self.comm.send_shared(global_dst, tag | self.salt, value)
    }

    fn recv_shared<T: Send + Sync + 'static>(&mut self, src: usize, tag: Tag) -> Arc<T> {
        let global_src = self.members[src];
        self.comm.recv_shared(global_src, tag | self.salt)
    }

    fn take_f32(&mut self, cap: usize) -> Vec<f32> {
        self.comm.take_f32(cap)
    }

    fn recycle_f32(&mut self, buf: Vec<f32>) {
        self.comm.recycle_f32(buf)
    }

    fn lend<'a>(&mut self, loans: &Loans<'a>, dst: usize, tag: Tag, data: &'a [f32]) {
        let global_dst = self.members[dst];
        self.comm.lend(loans, global_dst, tag | self.salt, data)
    }

    fn recv_lent<R>(&mut self, src: usize, tag: Tag, read: impl FnOnce(&[f32]) -> R) -> R {
        let global_src = self.members[src];
        self.comm.recv_lent(global_src, tag | self.salt, read)
    }

    fn barrier(&mut self) {
        // Dissemination barrier within the group: at round r, group rank i sends a
        // token to (i + 2^r) mod g and receives from (i − 2^r) mod g.
        let g = self.members.len();
        if g <= 1 {
            return;
        }
        const TAG_GROUP_BARRIER: Tag = 0xB0;
        let mut dist = 1;
        let mut round: Tag = 0;
        while dist < g {
            let to = (self.my_index + dist) % g;
            let from = (self.my_index + g - dist) % g;
            let tag = TAG_GROUP_BARRIER + (round << 8);
            self.send(to, tag, ());
            let () = self.recv(from, tag);
            dist *= 2;
            round += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, CostModel};

    #[test]
    fn group_ranks_are_renumbered() {
        // Global ranks {1, 3, 5} form a group; inside it they are 0, 1, 2.
        let report = Cluster::new(6, CostModel::free()).run(|comm| {
            let me = Comm::rank(comm);
            if [1usize, 3, 5].contains(&me) {
                let mut g = GroupComm::new(comm, vec![1, 3, 5], 7);
                let gr = Net::rank(&g);
                // Ring shift inside the group.
                let right = (gr + 1) % Net::size(&g);
                let left = (gr + Net::size(&g) - 1) % Net::size(&g);
                Net::send(&mut g, right, 1, vec![gr as u32]);
                let got: Vec<u32> = Net::recv(&mut g, left, 1);
                Some((gr, got[0], me))
            } else {
                None
            }
        });
        assert_eq!(report.results[1], Some((0, 2, 1)));
        assert_eq!(report.results[3], Some((1, 0, 3)));
        assert_eq!(report.results[5], Some((2, 1, 5)));
        assert_eq!(report.results[0], None);
    }

    #[test]
    fn concurrent_groups_do_not_interfere() {
        // Two disjoint groups exchange simultaneously with the same tags.
        let report = Cluster::new(4, CostModel::aries()).run(|comm| {
            let me = Comm::rank(comm);
            let (members, gid) = if me < 2 { (vec![0, 1], 1u16) } else { (vec![2, 3], 2u16) };
            let mut g = GroupComm::new(comm, members, gid);
            let peer = 1 - Net::rank(&g);
            let payload = vec![(gid as u32) * 100 + Net::rank(&g) as u32];
            Net::send(&mut g, peer, 9, payload);
            let got: Vec<u32> = Net::recv(&mut g, peer, 9);
            got[0]
        });
        assert_eq!(report.results, vec![101, 100, 201, 200]);
    }

    #[test]
    fn group_barrier_syncs_members_only() {
        let report = Cluster::new(4, CostModel::free()).run(|comm| {
            let me = Comm::rank(comm);
            if me < 3 {
                comm.compute(me as f64); // members finish at 0, 1, 2
                let mut g = GroupComm::new(comm, vec![0, 1, 2], 3);
                Net::barrier(&mut g);
                Comm::now(comm)
            } else {
                comm.compute(100.0); // outsider unaffected
                Comm::now(comm)
            }
        });
        // All members advance to ≥ the slowest member (2.0); the outsider stays 100.
        for r in 0..3 {
            assert!(report.results[r] >= 2.0, "rank {r}: {}", report.results[r]);
        }
        assert_eq!(report.results[3], 100.0);
    }

    #[test]
    fn collectives_run_inside_groups() {
        // Dense allreduce within each half of the cluster (via the Net trait).
        // Uses the generic ring path (group size 2 is a power of two though, so
        // rabenseifner); correctness is what matters here.
        let report = Cluster::new(4, CostModel::aries()).run(|comm| {
            let me = Comm::rank(comm);
            let (members, gid) = if me < 2 { (vec![0, 1], 1u16) } else { (vec![2, 3], 2u16) };
            let mut g = GroupComm::new(comm, members, gid);
            // Each rank contributes [global_rank; 4]; the group sum differs per group.
            let mut data = vec![me as f32; 4];
            crate::net::test_support::group_allreduce_probe(&mut g, &mut data);
            data
        });
        assert_eq!(report.results[0], vec![1.0; 4]); // 0 + 1
        assert_eq!(report.results[1], vec![1.0; 4]);
        assert_eq!(report.results[2], vec![5.0; 4]); // 2 + 3
        assert_eq!(report.results[3], vec![5.0; 4]);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A minimal group allreduce used by net.rs tests (the real collectives live in
    //! the `collectives` crate, which depends on this one).

    use super::Net;

    pub fn group_allreduce_probe<C: Net>(net: &mut C, data: &mut [f32]) {
        let p = net.size();
        let r = net.rank();
        let mut dist = 1;
        while dist < p {
            let partner = r ^ dist;
            if partner < p {
                let got: Vec<f32> = net.sendrecv(partner, 77, data.to_vec(), partner, 77);
                for (d, g) in data.iter_mut().zip(&got) {
                    *d += g;
                }
            }
            dist *= 2;
        }
    }
}
