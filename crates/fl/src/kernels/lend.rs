//! Disjoint element ranges of one `f32` vector, lent to claims that may run
//! on any thread and outlive every borrow of the lender.
//!
//! A split station fold ([`crate::sharded`]) hands each range of its
//! accumulator to a claim on the process's worker set. Those claims are
//! `'static` (a worker may still hold the level after the caller read its
//! last outcome), so a borrowed `&mut [f32]` cannot cross to them. [`Lent`]
//! takes the vector over instead, cuts it into [`RangeLease`]s that each own
//! one disjoint range, and gives the vector back, unmoved and uncopied, once
//! every lease has been dropped — by a claim that finished, or by the unwind
//! of one that panicked.

use std::mem::ManuallyDrop;
use std::sync::Arc;

/// The lent vector's allocation. Freed when the last handle on it drops,
/// unless [`Lent::reclaim`] rebuilt the vector first.
struct Loan {
    /// The vector's own pointer (`Vec::as_mut_ptr`), valid for its whole
    /// allocation.
    ptr: *mut f32,
    len: usize,
    capacity: usize,
}

// SAFETY: a `Loan` only ever frees its allocation; elements are read and
// written through the leases, each of which owns a range no other lease
// covers, so sharing the handle across threads shares no element.
unsafe impl Send for Loan {}
// SAFETY: as for `Send`: `&Loan` reads no element.
unsafe impl Sync for Loan {}

impl Drop for Loan {
    fn drop(&mut self) {
        // SAFETY: `ptr`, `len` and `capacity` are the parts of the `Vec<f32>`
        // `Lent::lend` took over without freeing it, and no other code frees
        // that allocation: `Lent::reclaim` rebuilds the vector only from a
        // `Loan` it then forgets.
        drop(unsafe { Vec::from_raw_parts(self.ptr, self.len, self.capacity) });
    }
}

/// The lender's handle on a vector cut into [`RangeLease`]s: it gives the
/// vector back once every lease is returned ([`Lent::reclaim`]).
pub struct Lent {
    loan: Arc<Loan>,
}

/// One lent range of the vector: `len` elements from `start` on, which no
/// other lease covers. Dropping it returns the range.
pub struct RangeLease {
    loan: Arc<Loan>,
    start: usize,
    len: usize,
}

impl Lent {
    /// Takes `vec` over and cuts it at `cuts` into consecutive ranges,
    /// `[0, cuts[0])`, `[cuts[0], cuts[1])`, …, `[cuts[last], vec.len())`,
    /// returned as leases in that order. A cut past the end is read as the
    /// end and a cut below the one before it as that one, so the ranges
    /// always tile the vector (an empty range is a lease of nothing).
    pub fn lend(vec: Vec<f32>, cuts: &[usize]) -> (Lent, Vec<RangeLease>) {
        let mut vec = ManuallyDrop::new(vec);
        let (len, capacity) = (vec.len(), vec.capacity());
        let loan = Arc::new(Loan {
            ptr: vec.as_mut_ptr(),
            len,
            capacity,
        });
        let mut leases = Vec::with_capacity(cuts.len() + 1);
        let mut start = 0;
        for &cut in cuts.iter().chain([&len]) {
            let end = cut.clamp(start, len);
            leases.push(RangeLease {
                loan: Arc::clone(&loan),
                start,
                len: end - start,
            });
            start = end;
        }
        (Lent { loan }, leases)
    }

    /// The vector back, every element as the leases left it, once every
    /// lease has been dropped; the handle again while one is still out.
    ///
    /// # Errors
    /// Returns `self` when some lease is still alive.
    pub fn reclaim(self) -> Result<Vec<f32>, Lent> {
        match Arc::try_unwrap(self.loan) {
            Ok(loan) => {
                let loan = ManuallyDrop::new(loan);
                // SAFETY: the parts are those of the vector `lend` took over;
                // this was the last handle on them, and `ManuallyDrop` keeps
                // the `Loan` from freeing what the rebuilt vector now owns.
                Ok(unsafe { Vec::from_raw_parts(loan.ptr, loan.len, loan.capacity) })
            }
            Err(loan) => Err(Lent { loan }),
        }
    }
}

impl RangeLease {
    /// The index of the range's first element in the lent vector.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The range's elements.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: `start + len <= loan.len` (`lend` clamps every cut), the
        // allocation lives while `self.loan` does, no other lease covers
        // these elements and a lease cannot be cloned, so this `&mut self`
        // is the only path to them.
        unsafe { std::slice::from_raw_parts_mut(self.loan.ptr.add(self.start), self.len) }
    }
}

impl std::fmt::Debug for Lent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lent")
            .field("len", &self.loan.len)
            .field("outstanding", &(Arc::strong_count(&self.loan) - 1))
            .finish()
    }
}

impl std::fmt::Debug for RangeLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangeLease")
            .field("start", &self.start)
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn leases_tile_the_vector_and_it_comes_back_unmoved() {
        let mut vec: Vec<f32> = Vec::with_capacity(40);
        vec.resize(37, -1.0);
        let (address, capacity) = (vec.as_ptr(), vec.capacity());
        // Out-of-order and past-the-end cuts are read as the tiling they
        // can mean: [0, 1), [1, 16), [16, 16), [16, 30), [30, 37), [37, 37).
        let (lent, leases) = Lent::lend(vec, &[1, 16, 9, 30, 99]);
        let spans: Vec<(usize, usize)> = leases.iter().map(|l| (l.start, l.len)).collect();
        assert_eq!(
            spans,
            [(0, 1), (1, 15), (16, 0), (16, 14), (30, 7), (37, 0)]
        );
        for (k, mut lease) in leases.into_iter().enumerate() {
            let start = lease.start();
            for (i, v) in lease.as_mut_slice().iter_mut().enumerate() {
                *v = (k * 1000 + start + i) as f32;
            }
        }
        let back = lent.reclaim().expect("every lease dropped");
        assert_eq!(
            (back.as_ptr(), back.capacity(), back.len()),
            (address, capacity, 37)
        );
        let owner = |i: usize| {
            spans
                .iter()
                .position(|&(s, l)| i >= s && i < s + l)
                .unwrap()
        };
        for (i, v) in back.iter().enumerate() {
            assert_eq!(*v, (owner(i) * 1000 + i) as f32, "element {i}");
        }
    }

    #[test]
    fn disjoint_ranges_are_written_from_threads_at_once() {
        let (lent, leases) = Lent::lend(vec![0.0; 10_000], &[2_500, 5_001, 7_777]);
        let handles: Vec<_> = leases
            .into_iter()
            .enumerate()
            .map(|(k, mut lease)| {
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        for v in lease.as_mut_slice() {
                            *v += (k + 1) as f32;
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let back = lent.reclaim().unwrap();
        let expect = |i: usize| match i {
            0..2_500 => 50.0,
            2_500..5_001 => 100.0,
            5_001..7_777 => 150.0,
            _ => 200.0,
        };
        assert!(back.iter().enumerate().all(|(i, v)| *v == expect(i)));
    }

    #[test]
    fn the_vector_stays_lent_while_a_lease_is_out() {
        let (lent, mut leases) = Lent::lend(vec![1.0; 8], &[3]);
        let kept = leases.pop().unwrap();
        drop(leases);
        let lent = lent.reclaim().expect_err("one lease is out");
        drop(kept);
        assert_eq!(lent.reclaim().unwrap(), vec![1.0; 8]);
    }

    #[test]
    fn a_claim_that_panics_returns_its_range() {
        let (lent, leases) = Lent::lend(vec![0.0; 64], &[16, 32, 48]);
        for (k, mut lease) in leases.into_iter().enumerate() {
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                lease.as_mut_slice()[0] = k as f32 + 1.0;
                if k == 2 {
                    panic!("claim {k} blew up");
                }
            }));
            assert_eq!(outcome.is_err(), k == 2);
        }
        let back = lent.reclaim().expect("the panicking claim's lease unwound");
        assert_eq!(
            [back[0], back[16], back[32], back[48]],
            [1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn a_lent_vector_nobody_reclaims_is_freed_once() {
        // Dropping the handle and the leases in either order frees the
        // allocation exactly once (a double free or a leak would show under
        // a sanitizer or Miri; here it must at least not crash).
        let (lent, leases) = Lent::lend(vec![2.0; 1024], &[512]);
        drop(lent);
        drop(leases);
        let (lent, leases) = Lent::lend(Vec::new(), &[]);
        drop(leases);
        assert_eq!(lent.reclaim().unwrap(), Vec::<f32>::new());
    }
}
