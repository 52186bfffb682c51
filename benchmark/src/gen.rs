//! Seeded input generators. Every input a workload feeds the system is
//! made here from `--seed`; the system never sees the seed itself. The
//! random source is the benchmark's own (SplitMix64), so a change to any
//! crate's RNG cannot change the inputs.
//!
//! A seed varies only what leaves the cost of a run unchanged — names,
//! orders and payload values — so runs with different seeds measure the
//! same amount of work.

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Derives an independent stream for one purpose from the run's seed.
fn stream(seed: u64, purpose: u64) -> Rng {
    let mut r = Rng::new(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f));
    r.next_u64();
    r
}

/// Puts a compile pass's programs in the order the pass visits them.
pub fn pass_order<T>(seed: u64, programs: &mut [T]) {
    stream(seed, 1).shuffle(programs);
}

/// Await-chain shapes `(m, n)`: two loops awaiting one event `m` and `n`
/// times, an lcm(m, n)-state DFA (the shapes of `dfa_scaling.rs`).
const DFA_CHAINS: &[(usize, usize)] =
    &[(2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (15, 16), (16, 17)];
/// Coprime timer periods (ms); `k` parallel timer loops give a DFA over
/// the product of their phases, the exponential frontier of §2.6.
const DFA_PERIODS: [u64; 3] = [7, 11, 13];
/// Timer-product sizes `k`. Not 4: one such program compiles in over 10 ms,
/// too long a unit to escape a busy host (see `workloads::OP_Q`), where
/// every other program here takes under 1 ms.
const DFA_TIMER_KS: &[usize] = &[2, 3];

/// The DFA-heavy generated set, as `(name, source)`. The shapes are
/// fixed; the seed picks identifiers, arm order, period order and the
/// order of the set. Every program is deterministic and bounded, so the
/// checked compiler must accept it.
pub fn dfa_programs(seed: u64) -> Vec<(String, String)> {
    let mut rng = stream(seed, 2);
    let mut out = Vec::new();
    for &(m, n) in DFA_CHAINS {
        let tag = rng.next_u64() as u16;
        let (a, b) = if rng.below(2) == 0 { (m, n) } else { (n, m) };
        let arm = |k: usize, var: &str| {
            format!(
                " loop do\n{}  {var}_{tag:x} = 1;\n end\n",
                format!("  await A_{tag:x};\n").repeat(k)
            )
        };
        out.push((
            format!("chain_{m}x{n}"),
            format!(
                "input void A_{tag:x};\nint v_{tag:x}, w_{tag:x};\npar do\n{}with\n{}end\n",
                arm(a, "v"),
                arm(b, "w")
            ),
        ));
    }
    for &k in DFA_TIMER_KS {
        let mut periods = DFA_PERIODS[..k].to_vec();
        rng.shuffle(&mut periods);
        let mut src = format!("int x_{:x};\npar do\n", rng.next_u64() as u16);
        for p in periods {
            src.push_str(&format!(" loop do\n  await {p}ms;\n end\nwith\n"));
        }
        src.push_str(" await forever;\nend\n");
        out.push((format!("timers_{k}"), src));
    }
    rng.shuffle(&mut out);
    out
}

/// `E(v)` payloads for the expression workload, in `-1000..=1000`.
pub fn expr_values(seed: u64, n: usize) -> Vec<i64> {
    let mut rng = stream(seed, 3);
    (0..n).map(|_| rng.below(2001) as i64 - 1000).collect()
}

/// Tenant program of each of `n` sessions (`0..3`), in equal shares.
pub fn serve_tenants(seed: u64, n: usize) -> Vec<u8> {
    let mut t: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
    stream(seed, 4).shuffle(&mut t);
    t
}

/// The order of sessions within one send round: round `r` visits
/// position `p` at session `(a·p + b) mod n`, a permutation because `a`
/// is coprime to `n`. O(1) per event, so the generator never pauses to
/// shuffle.
pub fn round_order(seed: u64, round: u64, n: u64) -> (u64, u64) {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut rng = stream(seed ^ round.wrapping_mul(0x2545_f491_4f6c_dd1d), 5);
    let a = loop {
        let a = 1 + rng.below(n.max(2) - 1);
        if gcd(a, n) == 1 {
            break a;
        }
    };
    (a, rng.below(n))
}

/// Payloads of the summing tenant's `Go(v)` events, in `0..100`.
pub fn go_values(seed: u64) -> Rng {
    stream(seed, 6)
}

/// Loss-RNG seed of the world's radio.
pub fn radio_seed(seed: u64) -> u64 {
    stream(seed, 7).next_u64()
}
