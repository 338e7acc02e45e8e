//! The benchmark's own seeded input generator.
//!
//! Everything the engine receives is a [`PageOp`] built here from the
//! run's `--seed`, through a self-contained SplitMix64 stream and a
//! table-driven Zipf sampler. Nothing depends on the engine crates'
//! random sources, so a change to the engine can never change the
//! benchmark's inputs: the same seed yields the identical op stream on
//! every commit.

use redo_workload::pages::{Cell, PageId, PageOp, PageOpKind, SlotId};

/// SplitMix64: a tiny, well-mixed, fully specified 64-bit generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded from `seed` and a `stream` label, so independent
    /// consumers of one run seed (clients, cleaners, victim pickers)
    /// draw uncorrelated sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The seed of set-up `cycle` in a run seeded `seed`: every set-up of a
/// run builds from different inputs, and the sequence repeats exactly
/// for the same run seed.
pub fn cycle_seed(seed: u64, cycle: u64) -> u64 {
    Rng::new(seed ^ 0x5eed_5eed, cycle).next_u64()
}

/// Zipf over `0..n` with exponent `s` (rank 0 hottest), sampled by
/// binary search over the cumulative weights.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty range");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The shape mix of generated operations; what is left after the three
/// fractions is physiological (read and write one page).
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Generalized ops: write one page, also read another page.
    pub generalized: f64,
    /// Multi-page ops: write two pages as one atomic group.
    pub multi_page: f64,
    /// Blind single-cell writes.
    pub blind: f64,
}

/// A page range with its own skew: one tenant of a multi-tenant stream.
#[derive(Clone, Copy, Debug)]
pub struct Tenant {
    /// First page of the range.
    pub base: u32,
    /// Pages in the range.
    pub pages: u32,
    /// Zipf exponent over the range.
    pub skew: f64,
}

/// Everything that determines one op stream.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    /// Tenants, drawn uniformly per op.
    pub tenants: Vec<Tenant>,
    /// Slots per page (must match the engine's geometry).
    pub slots: u16,
    /// The op-shape mix.
    pub mix: Mix,
}

/// Generates `n` ops from `rng`, numbering them `first_id`,
/// `first_id + id_step`, … so concurrent clients get disjoint ids.
pub fn stream(
    spec: &StreamSpec,
    rng: &mut Rng,
    n: usize,
    first_id: u32,
    id_step: u32,
) -> Vec<PageOp> {
    let zipfs: Vec<Zipf> = spec
        .tenants
        .iter()
        .map(|t| Zipf::new(t.pages as usize, t.skew))
        .collect();
    (0..n)
        .map(|i| {
            let id = first_id + id_step * u32::try_from(i).expect("op count fits u32");
            let t = rng.below(spec.tenants.len() as u64) as usize;
            op(spec, &spec.tenants[t], &zipfs[t], rng, id)
        })
        .collect()
}

fn op(spec: &StreamSpec, tenant: &Tenant, zipf: &Zipf, rng: &mut Rng, id: u32) -> PageOp {
    let page = |rng: &mut Rng| PageId(tenant.base + zipf.sample(rng) as u32);
    let cell = |rng: &mut Rng, page: PageId| Cell {
        page,
        slot: SlotId(rng.below(u64::from(spec.slots)) as u16),
    };
    // A second page of the same tenant, distinct from `p`.
    let other = |rng: &mut Rng, p: PageId| {
        let q = page(rng);
        if q != p || tenant.pages < 2 {
            q
        } else {
            PageId(tenant.base + (p.0 - tenant.base + 1) % tenant.pages)
        }
    };
    let p = page(rng);
    let draw = rng.unit();
    let m = spec.mix;
    let (kind, reads, writes) = if draw < m.generalized && tenant.pages > 1 {
        let q = other(rng, p);
        let reads = vec![cell(rng, q), cell(rng, p)];
        (PageOpKind::Generalized, reads, vec![cell(rng, p)])
    } else if draw < m.generalized + m.multi_page && tenant.pages > 1 {
        let q = other(rng, p);
        let mut writes = vec![cell(rng, p), cell(rng, q)];
        writes.sort_unstable();
        (PageOpKind::MultiPage, vec![cell(rng, p)], writes)
    } else if draw < m.generalized + m.multi_page + m.blind {
        (PageOpKind::Blind, Vec::new(), vec![cell(rng, p)])
    } else {
        let c = cell(rng, p);
        (PageOpKind::Physiological, vec![c], vec![c])
    };
    PageOp {
        id,
        kind,
        reads,
        writes,
        f_seed: rng.next_u64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> StreamSpec {
        StreamSpec {
            tenants: vec![
                Tenant {
                    base: 0,
                    pages: 16,
                    skew: 1.0,
                },
                Tenant {
                    base: 100,
                    pages: 4,
                    skew: 0.2,
                },
            ],
            slots: 8,
            mix: Mix {
                generalized: 0.2,
                multi_page: 0.1,
                blind: 0.1,
            },
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let a = stream(&spec(), &mut Rng::new(7, 1), 2_000, 0, 1);
        let b = stream(&spec(), &mut Rng::new(7, 1), 2_000, 0, 1);
        assert_eq!(a, b);
        let c = stream(&spec(), &mut Rng::new(8, 1), 2_000, 0, 1);
        assert_ne!(a, c, "another seed gives another stream");
        let d = stream(&spec(), &mut Rng::new(7, 2), 2_000, 0, 1);
        assert_ne!(a, d, "another stream label gives another stream");
    }

    #[test]
    fn ops_stay_in_their_tenant_and_have_the_promised_shapes() {
        let ops = stream(&spec(), &mut Rng::new(3, 0), 5_000, 1, 2);
        let mut kinds = [0usize; 4];
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.id, 1 + 2 * i as u32);
            let pages: Vec<u32> = op
                .reads
                .iter()
                .chain(&op.writes)
                .map(|c| c.page.0)
                .collect();
            let home = pages[0] / 100;
            assert!(pages.iter().all(|p| p / 100 == home), "{op:?}");
            assert!(op.writes.iter().all(|c| c.slot.0 < 8));
            match op.kind {
                PageOpKind::Physiological => {
                    kinds[0] += 1;
                    assert_eq!(op.reads, op.writes);
                }
                PageOpKind::Generalized => {
                    kinds[1] += 1;
                    assert_eq!(op.written_pages().len(), 1);
                    assert_eq!(op.read_pages().len(), 2);
                }
                PageOpKind::MultiPage => {
                    kinds[2] += 1;
                    assert_eq!(op.written_pages().len(), 2);
                }
                PageOpKind::Blind => {
                    kinds[3] += 1;
                    assert!(op.reads.is_empty());
                }
            }
        }
        assert!(
            kinds.iter().all(|&k| k > 200),
            "every shape occurs: {kinds:?}"
        );
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(64, 1.1);
        let mut rng = Rng::new(1, 0);
        let mut hist = [0usize; 64];
        for _ in 0..20_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        assert!(hist[0] > hist[8] && hist[8] > hist[63]);
    }
}
