//! Model-based property tests: the set-associative cache must behave
//! exactly like a naive reference model (a vector of MRU-ordered lines
//! per set) under arbitrary operation sequences. Cases are generated by
//! the workspace's deterministic [`SimRng`] (no external crates), so any
//! failure reproduces exactly from the fixed seed.

use csim_cache::{Cache, Outcome};
use csim_config::CacheGeometry;
use csim_trace::SimRng;

/// One resident line of the model: its address, its dirty bit and its
/// owned bit (every write sets both; `clean` clears both; `disown`
/// clears only the owned bit).
#[derive(Clone, Copy)]
struct Line {
    line: u64,
    dirty: bool,
    owned: bool,
}

/// A deliberately naive reference implementation of a set-associative
/// write-back LRU cache.
struct ModelCache {
    sets: Vec<Vec<Line>>, // MRU-first
    assoc: usize,
    dirty_evictions: u64,
}

impl ModelCache {
    fn new(n_sets: usize, assoc: usize) -> Self {
        ModelCache { sets: vec![Vec::new(); n_sets], assoc, dirty_evictions: 0 }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    /// Probes `line`; on a hit moves it to MRU, applies a write, and
    /// returns the line's state from before the access.
    fn access(&mut self, line: u64, write: bool) -> Option<Line> {
        let set = self.set_of(line);
        let pos = self.sets[set].iter().position(|l| l.line == line)?;
        let before = self.sets[set].remove(pos);
        let after = Line { line, dirty: before.dirty || write, owned: before.owned || write };
        self.sets[set].insert(0, after);
        Some(before)
    }

    fn insert(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let set = self.set_of(line);
        let victim = if self.sets[set].len() == self.assoc { self.sets[set].pop() } else { None };
        self.sets[set].insert(0, Line { line, dirty, owned: dirty });
        self.dirty_evictions += u64::from(victim.is_some_and(|v| v.dirty));
        victim.map(|v| (v.line, v.dirty))
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        let pos = self.sets[set].iter().position(|l| l.line == line)?;
        Some(self.sets[set].remove(pos).dirty)
    }

    /// Applies `f` to a resident line; `false` when absent.
    fn update(&mut self, line: u64, f: impl FnOnce(&mut Line)) -> bool {
        let set = self.set_of(line);
        self.sets[set].iter_mut().find(|l| l.line == line).map(f).is_some()
    }

    fn contains(&self, line: u64) -> bool {
        self.sets[self.set_of(line)].iter().any(|l| l.line == line)
    }

    fn is_dirty(&self, line: u64) -> bool {
        self.sets[self.set_of(line)].iter().any(|l| l.line == line && l.dirty)
    }
}

#[derive(Clone, Debug)]
enum Op {
    Access { line: u64, write: bool },
    /// `access_store_was_dirty` (`owned: false`) or
    /// `access_store_was_owned` (`owned: true`).
    StoreWas { line: u64, owned: bool },
    Invalidate { line: u64 },
    Clean { line: u64 },
    Disown { line: u64 },
}

/// Weighted op draw: 4:2:1:1:1 access/fused-store/invalidate/clean/
/// disown over a small line space.
fn random_op(rng: &mut SimRng, line_space: u64) -> Op {
    let line = rng.gen_range(0..line_space);
    match rng.gen_range(0..9) {
        0..=3 => Op::Access { line, write: rng.gen_bool(0.5) },
        4..=5 => Op::StoreWas { line, owned: rng.gen_bool(0.5) },
        6 => Op::Invalidate { line },
        7 => Op::Clean { line },
        _ => Op::Disown { line },
    }
}

/// Fills after a miss (write-allocate, as the simulator does) on both
/// sides and checks they evict the same victim.
fn fill(cache: &mut Cache, model: &mut ModelCache, line: u64, write: bool, case: usize) {
    let victim = cache.insert(line, write);
    let model_victim = model.insert(line, write);
    assert_eq!(
        victim.map(|v| (v.line, v.dirty)),
        model_victim,
        "case {case}: insert({line}) evicted different victims"
    );
}

#[test]
fn cache_matches_reference_model() {
    let mut rng = SimRng::seed_from_u64(0x1B0);
    for case in 0..64 {
        let assoc = rng.gen_range(1..9) as u32;
        let n_ops = rng.gen_range_usize(1..400);
        // 16 sets regardless of associativity.
        let geometry = CacheGeometry::new(u64::from(assoc) * 16 * 64, assoc, 64).unwrap();
        let mut cache = Cache::new(geometry);
        let mut model = ModelCache::new(16, assoc as usize);

        for _ in 0..n_ops {
            match random_op(&mut rng, 96) {
                Op::Access { line, write } => {
                    let hit = cache.access(line, write) == Outcome::Hit;
                    let model_hit = model.access(line, write).is_some();
                    assert_eq!(hit, model_hit, "case {case}: access({line}, {write}) diverged");
                    if !hit {
                        fill(&mut cache, &mut model, line, write, case);
                    }
                }
                Op::StoreWas { line, owned } => {
                    let dirty_before = cache.is_dirty(line);
                    let (outcome, was) = if owned {
                        cache.access_store_was_owned(line)
                    } else {
                        cache.access_store_was_dirty(line)
                    };
                    let before = model.access(line, true);
                    let hit = outcome == Outcome::Hit;
                    assert_eq!(hit, before.is_some(), "case {case}: store({line}) diverged");
                    let expect = before.is_some_and(|l| if owned { l.owned } else { l.dirty });
                    assert_eq!(was, expect, "case {case}: store({line}) read the wrong bit");
                    assert!(!was || dirty_before, "case {case}: line {line} owned but not dirty");
                    if !hit {
                        fill(&mut cache, &mut model, line, true, case);
                    }
                    assert!(cache.is_dirty(line), "case {case}: a store leaves its line dirty");
                }
                Op::Invalidate { line } => {
                    assert_eq!(cache.invalidate(line), model.invalidate(line));
                }
                Op::Clean { line } => {
                    let had = model.update(line, |l| {
                        l.dirty = false;
                        l.owned = false;
                    });
                    assert_eq!(cache.clean(line), had);
                }
                Op::Disown { line } => {
                    let dirty_before = cache.is_dirty(line);
                    let had = model.update(line, |l| l.owned = false);
                    assert_eq!(cache.disown(line), had);
                    assert_eq!(
                        cache.is_dirty(line),
                        dirty_before,
                        "case {case}: disown({line}) moved the dirty bit"
                    );
                }
            }
        }

        // Final state agreement over the whole line space.
        for line in 0..96 {
            assert_eq!(cache.contains(line), model.contains(line), "contains({line})");
            assert_eq!(cache.is_dirty(line), model.is_dirty(line), "is_dirty({line})");
        }
        assert_eq!(cache.occupancy(), model.sets.iter().map(Vec::len).sum::<usize>());
        assert_eq!(
            cache.stats().dirty_evictions,
            model.dirty_evictions,
            "case {case}: dirty evictions diverged"
        );
        // The owned bits agree too: a fused store reads each one out
        // (after the dirty bits were compared above).
        for line in 0..96 {
            let owned = model.access(line, true).is_some_and(|l| l.owned);
            assert_eq!(cache.access_store_was_owned(line).1, owned, "owned({line})");
        }
    }
}

#[test]
fn occupancy_never_exceeds_capacity() {
    let mut rng = SimRng::seed_from_u64(0x0CC);
    let geometry = CacheGeometry::new(8 * 1024, 4, 64).unwrap();
    for _ in 0..32 {
        let mut cache = Cache::new(geometry);
        let n = rng.gen_range_usize(1..600);
        for _ in 0..n {
            let line = rng.gen_range(0..10_000);
            if cache.access(line, false) == Outcome::Miss {
                cache.insert(line, false);
            }
            assert!(cache.occupancy() as u64 <= geometry.lines());
        }
    }
}
