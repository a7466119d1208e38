//! Seeded input-data generation.
//!
//! Uses a hand-rolled splitmix64/xorshift generator rather than `rand`'s
//! default ChaCha: the real arrays left (CSR structures, index arrays of up
//! to 4 M elements) must stay cheap to generate even in debug builds;
//! cryptographic quality is irrelevant for synthetic inputs. Large matrices
//! whose values never reach an address are virtual instead (see
//! `sim::Buffer::Virtual`).

/// A minimal, fast, seedable PRNG (xorshift64* seeded via splitmix64).
#[derive(Debug, Clone)]
pub struct FastRng {
    state: u64,
}

impl FastRng {
    pub fn new(seed: u64) -> Self {
        // splitmix64 scramble so nearby seeds diverge immediately.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        FastRng { state: (z ^ (z >> 31)) | 1 }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform f32 in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// Deterministic vector of `n` floats in `[0, 1)`.
pub fn random_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = FastRng::new(seed);
    (0..n).map(|_| rng.next_f32()).collect()
}

/// Deterministic vector of `n` ints in `[0, bound)`, the same sequence as
/// `n` calls of [`FastRng::next_below`]. A power-of-two `bound` masks
/// instead of dividing, which gives the same values.
pub fn random_i32(n: usize, bound: i32, seed: u64) -> Vec<i32> {
    assert!(bound > 0);
    let mut rng = FastRng::new(seed);
    let bound = bound as u64;
    if bound.is_power_of_two() {
        let mask = bound - 1;
        (0..n).map(|_| (rng.next_u64() & mask) as i32).collect()
    } else {
        (0..n).map(|_| rng.next_below(bound) as i32).collect()
    }
}

/// A CSR sparse-matrix structure (values omitted where only the pattern
/// matters).
#[derive(Debug, Clone)]
pub struct Csr {
    /// `rows + 1` offsets.
    pub row_ptr: Vec<i32>,
    /// Column index of each stored element.
    pub col_idx: Vec<i32>,
    /// Stored values.
    pub values: Vec<f32>,
}

impl Csr {
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }
}

/// Generate a CSR matrix with `rows` rows and a mean of `mean_nnz` stored
/// elements per row. Row lengths follow a skewed (bounded power-law-like)
/// distribution so adjacent rows differ — the irregularity that makes SpMV
/// and PageRank CPU-affine in the paper. Column indices are uniform.
pub fn random_csr(rows: usize, mean_nnz: usize, seed: u64) -> Csr {
    assert!(rows > 0 && mean_nnz > 0);
    let mut rng = FastRng::new(seed);
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0i32);
    let mut lengths = Vec::with_capacity(rows);
    // Skewed lengths: most rows short, a few long, mean ≈ mean_nnz.
    for _ in 0..rows {
        let u: f64 = rng.next_f64().max(1e-9);
        // Pareto-ish with alpha ~ 1.5, clamped to keep totals bounded.
        let len = (mean_nnz as f64 * 0.4 / u.powf(0.6)).round() as usize;
        lengths.push(len.clamp(1, mean_nnz * 16));
    }
    // Rescale to hit the requested mean exactly (integer rounding aside).
    let total: usize = lengths.iter().sum();
    let want = rows * mean_nnz;
    let scale = want as f64 / total as f64;
    let mut acc = 0i64;
    for len in &mut lengths {
        *len = ((*len as f64) * scale).round().max(1.0) as usize;
        acc += *len as i64;
        row_ptr.push(acc as i32);
    }
    let nnz = acc as usize;
    let col_idx = (0..nnz).map(|_| rng.next_below(rows as u64) as i32).collect();
    let values = (0..nnz).map(|_| rng.next_f32()).collect();
    Csr { row_ptr, col_idx, values }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_f32(16, 3), random_f32(16, 3));
        assert_ne!(random_f32(16, 3), random_f32(16, 4));
        assert_eq!(random_i32(16, 100, 5), random_i32(16, 100, 5));
    }

    #[test]
    fn random_i32_matches_next_below_for_every_bound() {
        for bound in [1, 2, 1 << 20, 1 << 22, 1000] {
            let mut rng = FastRng::new(99);
            let expected: Vec<i32> =
                (0..4096).map(|_| rng.next_below(bound as u64) as i32).collect();
            assert_eq!(random_i32(4096, bound, 99), expected, "bound {}", bound);
        }
    }

    #[test]
    fn fast_rng_ranges() {
        let mut rng = FastRng::new(7);
        for _ in 0..1000 {
            let f = rng.next_f32();
            assert!((0.0..1.0).contains(&f));
            let d = rng.next_f64();
            assert!((0.0..1.0).contains(&d));
            assert!(rng.next_below(10) < 10);
        }
    }

    #[test]
    fn fast_rng_is_roughly_uniform() {
        let mut rng = FastRng::new(11);
        let mut buckets = [0usize; 10];
        for _ in 0..10_000 {
            buckets[rng.next_below(10) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "{:?}", buckets);
        }
    }

    #[test]
    fn csr_structure_is_consistent() {
        let m = random_csr(1000, 16, 7);
        assert_eq!(m.rows(), 1000);
        assert_eq!(m.row_ptr.len(), 1001);
        assert_eq!(*m.row_ptr.last().unwrap() as usize, m.nnz());
        assert_eq!(m.col_idx.len(), m.values.len());
        // Monotone offsets, each row non-empty.
        for w in m.row_ptr.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Columns in range.
        assert!(m.col_idx.iter().all(|&c| c >= 0 && (c as usize) < 1000));
    }

    #[test]
    fn csr_mean_density_close_to_requested() {
        let m = random_csr(4096, 16, 11);
        let mean = m.nnz() as f64 / m.rows() as f64;
        assert!((mean - 16.0).abs() < 1.5, "mean = {}", mean);
    }

    #[test]
    fn csr_rows_are_irregular() {
        let m = random_csr(4096, 16, 13);
        let lens: Vec<i32> = m.row_ptr.windows(2).map(|w| w[1] - w[0]).collect();
        let max = *lens.iter().max().unwrap();
        let min = *lens.iter().min().unwrap();
        assert!(max > 4 * min.max(1), "max {} min {}", max, min);
    }
}
