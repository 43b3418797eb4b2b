//! Spreading timed passes evenly over the CPUs the process may use.
//!
//! On shared virtual machines one vCPU can run markedly slower than
//! another (a busy sibling on the host core), and a single-threaded
//! benchmark stays on whichever CPU the scheduler picked first — so two
//! runs of the same code can differ by that ratio. The analyze workloads
//! therefore time one pass per allowed CPU, pinned, and report per-item
//! means over all passes. On targets other than Linux pinning is a no-op.

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` is 1024 bits in glibc and musl.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<[u64; WORDS]> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &[u64; WORDS]) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }

    pub fn cpus(mask: &[u64; WORDS]) -> Vec<usize> {
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    pub fn only(cpu: usize) -> [u64; WORDS] {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        mask
    }
}

/// The calling thread's CPU set when the pinner was created, restored on
/// drop.
pub struct Pinner {
    #[cfg(target_os = "linux")]
    original: Option<[u64; 16]>,
}

impl Pinner {
    /// Records the calling thread's allowed CPUs.
    pub fn new() -> Pinner {
        Pinner {
            #[cfg(target_os = "linux")]
            original: sys::get(),
        }
    }

    /// The CPUs passes are spread over: the allowed set, or one unpinned
    /// slot when it cannot be read.
    pub fn slots(&self) -> Vec<Option<usize>> {
        #[cfg(target_os = "linux")]
        if let Some(mask) = &self.original {
            let cpus = sys::cpus(mask);
            if !cpus.is_empty() {
                return cpus.into_iter().map(Some).collect();
            }
        }
        vec![None]
    }

    /// Pins the calling thread to `slot` (`None` leaves it unpinned).
    pub fn pin(&self, slot: Option<usize>) {
        #[cfg(target_os = "linux")]
        if let Some(cpu) = slot {
            sys::set(&sys::only(cpu));
        }
        let _ = slot;
    }
}

impl Default for Pinner {
    fn default() -> Self {
        Pinner::new()
    }
}

impl Drop for Pinner {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(mask) = &self.original {
            sys::set(mask);
        }
    }
}
