//! Shadow-schedule transactions over a [`Calendar`].
//!
//! The online scheduling loop needs to *probe* candidate placements
//! against the live calendar — run a full forward or backward scheduling
//! pass, inspect the outcome, and then either keep the resulting
//! reservations (admit the application) or discard them (reject it) —
//! without ever exposing a half-applied schedule to concurrent queries
//! and without cloning the whole breakpoint vector per probe.
//!
//! [`ShadowTxn`] implements the probe → commit/rollback shape (the
//! `AdvanceReservationRms` pattern from the reservation-server
//! literature) as an **eager-apply + inverse-op-log** transaction:
//! mutations are applied to the base calendar immediately, so probes see
//! exactly the state a commit would produce, and every mutation pushes
//! its inverse onto an undo log. `commit` forgets the log; `rollback`
//! (or dropping the transaction) replays the log backwards. Because the
//! calendar keeps its step function in canonical minimal form, replaying
//! the inverses restores the pre-transaction state **byte-identically**
//! (serde bytes and `PartialEq`), a property the mutation fuzz tests pin.
//!
//! Cost: O(log B) per pure-bump mutation, zero allocation beyond the op
//! log, no snapshotting. A rolled-back transaction of `k` ops costs
//! `O(k log B)` — independent of calendar size.

use crate::calendar::Calendar;
use crate::reservation::{Reservation, ReservationError};

/// One applied operation, stored so it can be undone.
#[derive(Debug, Clone, Copy)]
enum TxnOp {
    /// A reservation was added; undo by removing it.
    Added(Reservation),
    /// A reservation was removed; undo by re-adding it.
    Removed(Reservation),
}

/// An open transaction over a base [`Calendar`].
///
/// Created by [`Calendar::transaction`]. All reads through
/// [`ShadowTxn::calendar`] observe the pending mutations. Dropping the
/// transaction without calling [`ShadowTxn::commit`] rolls it back.
#[derive(Debug)]
pub struct ShadowTxn<'a> {
    cal: &'a mut Calendar,
    log: Vec<TxnOp>,
    committed: bool,
}

impl Calendar {
    /// Open a shadow transaction: mutations apply immediately (probes see
    /// them) but are undone unless [`ShadowTxn::commit`] is called.
    pub fn transaction(&mut self) -> ShadowTxn<'_> {
        ShadowTxn {
            cal: self,
            log: Vec::new(),
            committed: false,
        }
    }
}

impl ShadowTxn<'_> {
    /// The calendar as it would look if this transaction committed now.
    pub fn calendar(&self) -> &Calendar {
        self.cal
    }

    /// Transactional [`Calendar::try_add`].
    pub fn try_add(&mut self, r: Reservation) -> Result<(), ReservationError> {
        self.cal.try_add(r)?;
        self.log.push(TxnOp::Added(r));
        Ok(())
    }

    /// Transactional [`Calendar::try_remove`].
    pub fn try_remove(&mut self, r: Reservation) -> Result<(), ReservationError> {
        self.cal.try_remove(r)?;
        self.log.push(TxnOp::Removed(r));
        Ok(())
    }

    /// Transactional [`Calendar::try_resize`]: replace `old` with `new`,
    /// atomically within the calendar call and undoably within this
    /// transaction.
    pub fn try_resize(
        &mut self,
        old: Reservation,
        new: Reservation,
    ) -> Result<(), ReservationError> {
        self.cal.try_resize(old, new)?;
        self.log.push(TxnOp::Removed(old));
        self.log.push(TxnOp::Added(new));
        Ok(())
    }

    /// Keep every applied operation; returns how many were committed.
    pub fn commit(mut self) -> usize {
        self.committed = true;
        self.log.len()
    }

    /// Undo every applied operation, restoring the calendar to its exact
    /// pre-transaction state; returns how many were rolled back.
    /// (Dropping the transaction does the same.)
    pub fn rollback(mut self) -> usize {
        let n = self.log.len();
        self.undo();
        self.committed = true; // nothing left for Drop to do
        n
    }

    /// Replay the op log backwards. Each inverse is infallible given the
    /// forward op succeeded: removing what was added and re-adding what
    /// was removed always fits.
    fn undo(&mut self) {
        while let Some(op) = self.log.pop() {
            match op {
                TxnOp::Added(r) => {
                    // `Drop` runs this, so the non-panicking removal.
                    let undone = self.cal.release(r);
                    debug_assert!(undone.is_ok(), "undoing an applied add: {undone:?}");
                }
                TxnOp::Removed(r) => self.cal.add_unchecked(r),
            }
        }
    }
}

impl Drop for ShadowTxn<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.undo();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn t(s: i64) -> Time {
        Time::seconds(s)
    }
    fn r(s: i64, e: i64, p: u32) -> Reservation {
        Reservation::new(t(s), t(e), p)
    }

    fn snapshot(cal: &Calendar) -> Vec<u8> {
        serde_json::to_string(cal).unwrap().into_bytes()
    }

    #[test]
    fn rollback_restores_byte_identical_state() {
        let mut cal = Calendar::new(8);
        cal.try_add(r(0, 100, 3)).unwrap();
        cal.try_add(r(20, 60, 2)).unwrap();
        let before_bytes = snapshot(&cal);
        let before = cal.clone();

        let mut txn = cal.transaction();
        txn.try_add(r(10, 30, 3)).unwrap();
        txn.try_remove(r(20, 60, 2)).unwrap();
        txn.try_resize(r(0, 100, 3), r(0, 50, 3)).unwrap();
        let n = txn.rollback();
        assert_eq!(n, 4);

        assert_eq!(cal, before);
        assert_eq!(snapshot(&cal), before_bytes);
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        let mut cal = Calendar::new(4);
        cal.try_add(r(0, 10, 2)).unwrap();
        let before = cal.clone();
        {
            let mut txn = cal.transaction();
            txn.try_add(r(5, 15, 2)).unwrap();
            assert_eq!(txn.calendar().used_at(t(7)), 4);
            // dropped here, uncommitted
        }
        assert_eq!(cal, before);
    }

    #[test]
    fn commit_equals_rebuild_from_scratch() {
        let mut cal = Calendar::new(8);
        cal.try_add(r(0, 100, 3)).unwrap();
        cal.try_add(r(20, 60, 2)).unwrap();

        let mut txn = cal.transaction();
        txn.try_remove(r(20, 60, 2)).unwrap();
        txn.try_add(r(40, 80, 5)).unwrap();
        txn.commit();

        let rebuilt = Calendar::with_reservations(8, [r(0, 100, 3), r(40, 80, 5)]).unwrap();
        assert_eq!(cal, rebuilt);
        assert_eq!(snapshot(&cal), snapshot(&rebuilt));
    }

    #[test]
    fn probes_see_pending_ops() {
        let mut cal = Calendar::new(4);
        let mut txn = cal.transaction();
        txn.try_add(r(0, 10, 4)).unwrap();
        // The pending reservation blocks the overlapping candidate.
        assert!(!txn.calendar().fits(&r(5, 15, 1)));
        assert!(txn.calendar().fits(&r(10, 20, 4)));
        txn.rollback();
        assert!(cal.fits(&r(5, 15, 1)));
    }

    #[test]
    fn failed_op_leaves_transaction_consistent() {
        let mut cal = Calendar::new(4);
        cal.try_add(r(0, 10, 4)).unwrap();
        let before = cal.clone();
        let mut txn = cal.transaction();
        assert!(txn.try_add(r(5, 15, 1)).is_err());
        assert!(txn.try_remove(r(0, 10, 5)).is_err());
        assert!(txn.try_resize(r(0, 10, 4), r(0, 10, 5)).is_err());
        assert_eq!(txn.commit(), 0);
        assert_eq!(cal, before);
    }
}
