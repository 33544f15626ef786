//! Instruction-stream generation.
//!
//! Code is modeled as a set of fixed-length functions laid out
//! consecutively in a code region. Execution runs straight-line through a
//! function's lines and then jumps to another function drawn from a Zipf
//! popularity distribution — a compact model that yields the two
//! properties the paper's workload exhibits: sequential fetch within basic
//! blocks (spatial locality inside a line/page) and a large overall hot
//! text footprint that overwhelms a 64 KB L1I.

use crate::layout::{AddressMap, Region};
use crate::zipf::ZipfTable;
use csim_trace::{Addr, SimRng};

/// A code segment: `n_funcs` functions of `func_lines` lines each.
#[derive(Clone, Debug)]
pub struct CodeRegion {
    region: Region,
    func_lines: u64,
    instrs_per_line: u64,
    popularity: ZipfTable,
}

impl CodeRegion {
    /// Builds a code region covering `total_lines` of text, split into
    /// functions of `func_lines` lines, with Zipf(`zipf_s`) function
    /// popularity.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        region: Region,
        total_lines: u64,
        func_lines: u64,
        instrs_per_line: u64,
        zipf_s: f64,
    ) -> Self {
        assert!(total_lines > 0 && func_lines > 0 && instrs_per_line > 0);
        let n_funcs = (total_lines / func_lines).max(1);
        CodeRegion {
            region,
            func_lines,
            instrs_per_line,
            popularity: ZipfTable::new(n_funcs, zipf_s),
        }
    }

    /// Number of functions.
    pub fn n_funcs(&self) -> u64 {
        self.popularity.len()
    }

    /// Total text lines covered.
    pub fn total_lines(&self) -> u64 {
        self.n_funcs() * self.func_lines
    }

    /// Starts execution at a popularity-sampled function.
    #[inline]
    pub fn entry(&self, rng: &mut SimRng) -> CodeCursor {
        // Scramble the sampled popularity rank so that hot functions are
        // spread across the region rather than packed at its start —
        // otherwise the hot text would occupy one contiguous prefix and
        // dodge direct-mapped conflicts unrealistically. The sample is
        // drawn through the integer path: `next_u64() >> 11` is exactly
        // the draw `gen_f64` would consume, so the RNG stream and the
        // selected rank are bit-identical to the float sampler.
        let rank = self.popularity.sample_u53(rng.next_u64() >> 11);
        let func = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1) % self.n_funcs();
        CodeCursor { func, line: 0, instr: 0, base: 0 }
    }

    /// Advances the cursor by one instruction and returns that
    /// instruction's address. Jumps to a new function after the last
    /// instruction of the current one.
    #[inline]
    pub fn step(&self, cursor: &mut CodeCursor, rng: &mut SimRng, map: &AddressMap) -> Addr {
        // The line's base address is invariant for `instrs_per_line`
        // consecutive steps, so it is cached in the cursor instead of
        // re-deriving the address-map hash on every instruction. The
        // addresses produced are identical to recomputing each step.
        if cursor.instr == 0 {
            let line_idx = cursor.func * self.func_lines + cursor.line;
            cursor.base = map.line_addr(self.region, line_idx);
        }
        let addr = cursor.base + cursor.instr * 4;
        cursor.instr += 1;
        if cursor.instr == self.instrs_per_line {
            cursor.instr = 0;
            cursor.line += 1;
            if cursor.line == self.func_lines {
                *cursor = self.entry(rng);
            }
        }
        addr
    }
}

/// Execution position within a [`CodeRegion`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodeCursor {
    func: u64,
    line: u64,
    instr: u64,
    /// Cached base address of the current line; recomputed whenever
    /// `instr` wraps to 0 (new line or new function).
    base: Addr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use csim_trace::SimRng;

    fn region() -> CodeRegion {
        CodeRegion::new(Region::DbCode, 1024, 8, 16, 0.8)
    }

    #[test]
    fn geometry_is_derived() {
        let r = region();
        assert_eq!(r.n_funcs(), 128);
        assert_eq!(r.total_lines(), 1024);
    }

    #[test]
    fn fetch_is_sequential_within_a_function() {
        let r = region();
        let map = AddressMap::new(1);
        let mut rng = SimRng::seed_from_u64(5);
        let mut cur = r.entry(&mut rng);
        let first = r.step(&mut cur, &mut rng, &map);
        let second = r.step(&mut cur, &mut rng, &map);
        assert_eq!(second, first + 4, "consecutive instructions are 4 bytes apart");
        // A full line of instructions stays within one line address.
        let mut cur2 = CodeCursor::default();
        let base = r.step(&mut cur2, &mut rng, &map);
        for i in 1..16 {
            let a = r.step(&mut cur2, &mut rng, &map);
            assert_eq!(a, base + 4 * i);
        }
    }

    #[test]
    fn execution_jumps_at_function_end() {
        let r = region();
        let map = AddressMap::new(1);
        let mut rng = SimRng::seed_from_u64(5);
        let mut cur = CodeCursor::default(); // function 0, start
                                             // Execute exactly one function: 8 lines * 16 instructions.
        for _ in 0..(8 * 16) {
            r.step(&mut cur, &mut rng, &map);
        }
        // The cursor has jumped somewhere fresh (line/instr reset).
        assert_eq!((cur.line, cur.instr), (0, 0));
    }

    #[test]
    fn popularity_makes_some_functions_hot() {
        let r = region();
        let mut rng = SimRng::seed_from_u64(5);
        let mut counts = vec![0u32; r.n_funcs() as usize];
        for _ in 0..20_000 {
            let c = r.entry(&mut rng);
            counts[c.func as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(max > 400, "hottest function should dominate, got {max}");
        assert!(nonzero > 64, "tail functions must still execute, got {nonzero}");
    }

    #[test]
    fn deterministic_given_seed() {
        let r = region();
        let map = AddressMap::new(1);
        let run = || {
            let mut rng = SimRng::seed_from_u64(9);
            let mut cur = r.entry(&mut rng);
            (0..1000).map(|_| r.step(&mut cur, &mut rng, &map)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
