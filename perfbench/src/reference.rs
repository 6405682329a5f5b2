//! The reference kernel: fixed host work, owned by the benchmark, timed
//! between the measured cells or phases. A cell's time over the
//! reference's time around it is its cost in reference units.
//!
//! On a shared host the time of this simulator code swings by a quarter
//! or more over minutes, as co-tenants load the physical core it runs on.
//! Code with much instruction-level parallelism slows the most. The
//! reference therefore does what the simulator does most: branchy integer
//! work on several independent streams, and an LRU cache model on
//! megabytes of tag and clock arrays. Its code never changes with the
//! program's, so a faster program shows as a lower ratio.

use std::time::Instant;

/// Independent xorshift streams of the integer part.
const STREAMS: usize = 8;
/// Rounds of the integer part; each advances every stream once.
const ROUNDS: u32 = 1_000_000;
/// Lookup-table entries of the integer part (32 KiB, L1-resident).
const TABLE: usize = 4096;
/// Geometry of the cache model: 8192 sets × 16 ways, 2 MiB of tags and
/// clocks.
const SETS: usize = 8192;
const WAYS: usize = 16;
/// Accesses of the cache model per call.
const ACCESSES: u32 = 300_000;

#[inline(always)]
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference kernel and the host seconds of its latest call.
pub struct Reference {
    table: Vec<u64>,
    tags: Vec<u64>,
    clocks: Vec<u64>,
    last: f64,
}

impl Reference {
    /// Allocates the kernel's arrays and times it twice: the first call
    /// touches every page.
    pub fn new() -> Reference {
        let mut r = Reference {
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            tags: vec![0; SETS * WAYS],
            clocks: vec![0; SETS * WAYS],
            last: 0.0,
        };
        r.time();
        r.last = r.time();
        r
    }

    /// Host seconds of one call of the kernel. Every call does the same
    /// work from the same state.
    fn time(&mut self) -> f64 {
        self.tags.fill(u64::MAX);
        self.clocks.fill(0);
        let t = Instant::now();

        let mut state: [u64; STREAMS] = std::array::from_fn(|k| k as u64 + 1);
        let mut acc = [0u64; STREAMS];
        for _ in 0..ROUNDS {
            for k in 0..STREAMS {
                let v = xorshift(&mut state[k]);
                let w = self.table[(v as usize) & (TABLE - 1)];
                if w & 1 == 0 {
                    acc[k] = acc[k].wrapping_add(w);
                } else {
                    acc[k] ^= v;
                }
            }
        }

        let mut x = 0x1234_5678u64;
        let mut hits = 0u64;
        for now in 1..=u64::from(ACCESSES) {
            let r = xorshift(&mut x);
            // Three accesses in four go to a hot 1 MiB of lines, the rest
            // over 256 MiB.
            let line = (r >> 8) % if r & 3 != 0 { 1 << 14 } else { 1 << 22 };
            let base = (line as usize & (SETS - 1)) * WAYS;
            let tag = line / SETS as u64;
            let ways = base..base + WAYS;
            match ways.clone().find(|&w| self.tags[w] == tag) {
                Some(w) => {
                    hits += 1;
                    self.clocks[w] = now;
                }
                None => {
                    let victim = ways.min_by_key(|&w| self.clocks[w]).expect("ways");
                    self.tags[victim] = tag;
                    self.clocks[victim] = now;
                }
            }
        }

        std::hint::black_box((acc, hits));
        t.elapsed().as_secs_f64()
    }

    /// Times the kernel again after work that took `secs` host seconds,
    /// and returns `secs` over the mean of this call and the one before
    /// the work.
    pub fn ratio_after(&mut self, secs: f64) -> f64 {
        let before = self.last;
        self.last = self.time();
        secs / ((before + self.last) / 2.0)
    }

    /// Host seconds of the latest call.
    pub fn last(&self) -> f64 {
        self.last
    }
}
