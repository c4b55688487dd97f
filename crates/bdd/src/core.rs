//! The serial node substrate, in the classic CUDD/BuDDy layout: one node
//! array, per-level unique subtables chained through the nodes, and a
//! fixed-size lossy computed table shared by the `ite`, `exists` and
//! `and_exists` kernels.
//!
//! * **Nodes store their variable, not their level.** A node's level is
//!   `level_of[var]`, so swapping two adjacent levels relabels nothing that
//!   keeps its structure: the two subtables trade places and only the nodes
//!   that must be rewritten are touched ([`Core::swap_adjacent`]).
//! * **Per-level unique subtables.** Each level hashes `(lo, hi)` into a
//!   power-of-two bucket array whose chains run through the nodes' `next`
//!   links. Collection and reordering walk the subtables, never the whole
//!   array, so both cost O(live + freed); after a collection every
//!   subtable shrinks to fit its survivors.
//! * **Lossy computed table.** A direct-mapped power-of-two array grown
//!   with the pool and reallocated to fit it whenever it is flushed. A
//!   collision simply overwrites: an evicted result is recomputed, and
//!   since the recomputation finds its nodes in the unique table it
//!   allocates nothing new between two collections.
//! * **Abort and retry.** Kernels count their steps and, every
//!   [`CHECK_INTERVAL`] steps, compare the pool with the armed live-node
//!   limit; past it they fail with [`Interrupted`] and unwind to the API
//!   boundary, where the manager collects (and may sift) before it retries
//!   the operation — CUDD's reordering-abort discipline.

/// Terminal node id for the constant 0 function. Id 0 is also the
/// end-of-chain marker of the unique subtables: no terminal is ever chained.
pub(crate) const ZERO: u32 = 0;
/// Terminal node id for the constant 1 function.
pub(crate) const ONE: u32 = 1;
/// Variable sentinel marking a slot freed by collection or reordering.
const FREE: u32 = u32::MAX;

/// Kernel steps (recursive calls that miss the short-circuits, plus node
/// constructions) between two checks of the live-node limit. It bounds how
/// far past the limit one operation can run before maintenance fires.
const CHECK_INTERVAL: u64 = 1024;

/// Smallest bucket array of a unique subtable.
const MIN_BUCKETS: usize = 16;
/// Smallest computed table (entries).
const MIN_CACHE: usize = 1 << 12;
/// Largest computed table (entries, 20 bytes each).
const MAX_CACHE: usize = 1 << 20;
/// Computed-table entries kept per live node: the table doubles once the
/// pool outgrows `len / CACHE_RATIO`.
const CACHE_RATIO: usize = 2;

/// Marker error unwinding a kernel that hit the armed live-node limit to
/// the API boundary, where the manager runs maintenance and retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interrupted;

pub(crate) type OpResult = Result<u32, Interrupted>;

/// One pool slot: the branch variable, the two children, and the next node
/// in the same unique-subtable chain.
#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: u32,
    hi: u32,
    next: u32,
}

/// One level's unique subtable: chain heads indexed by the top bits of the
/// `(lo, hi)` hash.
#[derive(Debug, Clone)]
struct Subtable {
    buckets: Vec<u32>,
    shift: u32,
    count: usize,
}

impl Subtable {
    fn with_buckets(len: usize) -> Subtable {
        Subtable {
            buckets: vec![ZERO; len],
            shift: 64 - len.trailing_zeros(),
            count: 0,
        }
    }

    #[inline]
    fn bucket(&self, lo: u32, hi: u32) -> usize {
        let key = ((lo as u64) << 32) | hi as u64;
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }
}

/// Computed-table operation tags (0 marks an empty slot).
const OP_ITE: u32 = 1;
const OP_EXISTS: u32 = 2;
const OP_AND_EXISTS: u32 = 3;

/// One computed-table slot: `[op, a, b, c, result]`.
type Entry = [u32; 5];

/// The direct-mapped lossy memo of all three kernels.
struct ComputedTable {
    entries: Vec<Entry>,
    shift: u32,
}

impl ComputedTable {
    fn with_len(len: usize) -> ComputedTable {
        ComputedTable {
            entries: vec![[0; 5]; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// Table length fitting a pool of `pool` live nodes.
    fn len_for(pool: usize) -> usize {
        pool.saturating_mul(CACHE_RATIO)
            .next_power_of_two()
            .clamp(MIN_CACHE, MAX_CACHE)
    }

    #[inline]
    fn slot(&self, op: u32, a: u32, b: u32, c: u32) -> usize {
        let h = (a as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add((((op as u64) << 32) | c as u64).wrapping_mul(0x1656_67B1_9E37_79F9));
        (h >> self.shift) as usize
    }

    #[inline]
    fn get(&self, op: u32, a: u32, b: u32, c: u32) -> Option<u32> {
        let e = &self.entries[self.slot(op, a, b, c)];
        (e[0] == op && e[1] == a && e[2] == b && e[3] == c).then_some(e[4])
    }

    #[inline]
    fn put(&mut self, op: u32, a: u32, b: u32, c: u32, r: u32) {
        let i = self.slot(op, a, b, c);
        self.entries[i] = [op, a, b, c, r];
    }

    /// Rehashes every entry into a table of `len` slots (colliding entries
    /// are dropped, as any lossy insert would).
    fn resize(&mut self, len: usize) {
        let old = std::mem::replace(self, ComputedTable::with_len(len));
        for e in old.entries {
            if e[0] != 0 {
                self.put(e[0], e[1], e[2], e[3], e[4]);
            }
        }
    }
}

/// The node pool, its unique subtables, the computed table and the
/// variable order.
pub(crate) struct Core {
    pub(crate) num_vars: usize,
    nodes: Vec<Node>,
    /// `level_of[var]` = position of `var` in the order (0 = topmost); one
    /// extra entry maps the terminals' pseudo-variable `num_vars` to the
    /// pseudo-level `num_vars` below every real one.
    level_of: Vec<u32>,
    /// `var_at[level]` = variable placed at that level.
    var_at: Vec<u32>,
    subtables: Vec<Subtable>,
    free: Vec<u32>,
    cache: ComputedTable,
    /// Live-pool size past which a kernel check fails with [`Interrupted`]
    /// (`usize::MAX` = disarmed).
    trip_limit: usize,
    /// Kernel steps since the limit was last armed.
    steps: u64,
    /// Largest live-pool size ever reached.
    peak_pool: usize,
}

impl Core {
    /// A pool over the order `var_at` (a permutation, validated by the
    /// caller).
    pub(crate) fn new(var_at: Vec<u32>) -> Core {
        let n = var_at.len();
        let mut level_of = vec![0u32; n + 1];
        for (level, &var) in var_at.iter().enumerate() {
            level_of[var as usize] = level as u32;
        }
        level_of[n] = n as u32;
        let terminal = |value| Node {
            var: n as u32,
            lo: value,
            hi: value,
            next: ZERO,
        };
        Core {
            num_vars: n,
            nodes: vec![terminal(ZERO), terminal(ONE)],
            level_of,
            var_at,
            subtables: vec![Subtable::with_buckets(MIN_BUCKETS); n],
            free: Vec::new(),
            cache: ComputedTable::with_len(MIN_CACHE),
            trip_limit: usize::MAX,
            steps: 0,
            peak_pool: 0,
        }
    }

    /// The level of variable `var`.
    #[inline]
    pub(crate) fn level_of(&self, var: usize) -> u32 {
        self.level_of[var]
    }

    /// The variable at `level`.
    #[inline]
    pub(crate) fn var_at(&self, level: usize) -> u32 {
        self.var_at[level]
    }

    /// The order as a slice: `var_at()[level]` is the variable there.
    pub(crate) fn order(&self) -> &[u32] {
        &self.var_at
    }

    /// Number of live non-terminal nodes (allocated minus freed).
    #[inline]
    pub(crate) fn pool_size(&self) -> usize {
        self.nodes.len() - 2 - self.free.len()
    }

    /// Number of pool slots ever allocated (live or freed).
    pub(crate) fn allocated_size(&self) -> usize {
        self.nodes.len() - 2
    }

    /// The largest live-pool size reached so far.
    pub(crate) fn peak_pool(&self) -> usize {
        self.peak_pool
    }

    /// Arms (or disarms, with `usize::MAX`) the live-node limit and resets
    /// the step counter.
    pub(crate) fn arm_trip(&mut self, limit: usize) {
        self.trip_limit = limit;
        self.steps = 0;
    }

    /// One kernel step: every [`CHECK_INTERVAL`] steps, fail if the pool is
    /// past the armed limit.
    #[inline]
    fn tick(&mut self) -> Result<(), Interrupted> {
        self.steps += 1;
        if self.steps.is_multiple_of(CHECK_INTERVAL) && self.pool_size() > self.trip_limit {
            return Err(Interrupted);
        }
        Ok(())
    }

    /// Returns `true` if `n` is a terminal or a live (not freed) node.
    #[inline]
    pub(crate) fn is_live(&self, n: u32) -> bool {
        self.nodes[n as usize].var != FREE
    }

    /// Checked node read: `(level, lo, hi)`. Every walk goes through here
    /// so a stale handle trips the assertion instead of silently reading a
    /// freed (possibly reused) slot.
    #[inline]
    pub(crate) fn node(&self, n: u32) -> (u32, u32, u32) {
        let node = self.nodes[n as usize];
        debug_assert!(
            node.var != FREE,
            "stale Bdd handle: node {n} was garbage-collected"
        );
        (self.level_of[node.var as usize], node.lo, node.hi)
    }

    /// The level `n` branches on (`num_vars` for the terminals).
    #[inline]
    pub(crate) fn level(&self, n: u32) -> u32 {
        let var = self.nodes[n as usize].var;
        debug_assert!(
            var != FREE,
            "stale Bdd handle: node {n} was garbage-collected"
        );
        self.level_of[var as usize]
    }

    /// Splits `n` at `level`: its children if it branches there, `(n, n)`
    /// if the level is unconstrained.
    #[inline]
    pub(crate) fn children_at(&self, n: u32, level: u32) -> (u32, u32) {
        let node = self.nodes[n as usize];
        if n > ONE && self.level_of[node.var as usize] == level {
            (node.lo, node.hi)
        } else {
            (n, n)
        }
    }

    /// The unique-table entry for `(level, lo, hi)`, if one exists.
    #[inline]
    fn unique_get(&self, level: u32, lo: u32, hi: u32) -> Option<u32> {
        let table = &self.subtables[level as usize];
        let mut n = table.buckets[table.bucket(lo, hi)];
        while n != ZERO {
            let node = &self.nodes[n as usize];
            if node.lo == lo && node.hi == hi {
                return Some(n);
            }
            n = node.next;
        }
        None
    }

    /// Allocates a node known to be absent and links it into its subtable.
    fn insert_new(&mut self, level: u32, lo: u32, hi: u32) -> u32 {
        debug_assert!(
            self.is_live(lo) && self.is_live(hi),
            "stale Bdd handle: child of a new node was garbage-collected"
        );
        let var = self.var_at[level as usize];
        let table = &mut self.subtables[level as usize];
        let b = table.bucket(lo, hi);
        let node = Node {
            var,
            lo,
            hi,
            next: table.buckets[b],
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                let id = self.nodes.len() as u32;
                assert!(id < FREE, "BDD node pool exhausted");
                self.nodes.push(node);
                id
            }
        };
        table.buckets[b] = id;
        table.count += 1;
        if table.count > table.buckets.len() {
            let len = table.buckets.len() * 2;
            self.rehash(level as usize, len);
        }
        self.peak_pool = self.peak_pool.max(self.pool_size());
        id
    }

    /// Rebuilds level `level`'s bucket array at `len` buckets.
    fn rehash(&mut self, level: usize, len: usize) {
        let old = std::mem::replace(&mut self.subtables[level], Subtable::with_buckets(len));
        let table = &mut self.subtables[level];
        table.count = old.count;
        for head in old.buckets {
            let mut n = head;
            while n != ZERO {
                let node = &mut self.nodes[n as usize];
                let next = node.next;
                let b = table.bucket(node.lo, node.hi);
                node.next = table.buckets[b];
                table.buckets[b] = n;
                n = next;
            }
        }
    }

    /// Unlinks `id` from its subtable chain (the node stays allocated).
    fn unique_unlink(&mut self, id: u32) {
        let node = self.nodes[id as usize];
        let level = self.level_of[node.var as usize] as usize;
        let table = &mut self.subtables[level];
        let b = table.bucket(node.lo, node.hi);
        table.count -= 1;
        if table.buckets[b] == id {
            table.buckets[b] = node.next;
            return;
        }
        let mut n = table.buckets[b];
        while n != ZERO {
            let next = self.nodes[n as usize].next;
            if next == id {
                self.nodes[n as usize].next = node.next;
                return;
            }
            n = next;
        }
        debug_assert!(false, "unique table out of sync: node {id} not chained");
    }

    /// Marks a slot free and hands it to the allocator.
    fn release(&mut self, id: u32) {
        self.nodes[id as usize] = Node {
            var: FREE,
            lo: ZERO,
            hi: ZERO,
            next: ZERO,
        };
        self.free.push(id);
    }

    /// Hash-consed node constructor with the `lo == hi` reduction; one
    /// kernel step.
    #[inline]
    pub(crate) fn mk(&mut self, level: u32, lo: u32, hi: u32) -> OpResult {
        if lo == hi {
            return Ok(lo);
        }
        self.tick()?;
        if let Some(id) = self.unique_get(level, lo, hi) {
            return Ok(id);
        }
        let id = self.insert_new(level, lo, hi);
        if self.pool_size() * CACHE_RATIO > self.cache.entries.len()
            && self.cache.entries.len() < MAX_CACHE
        {
            let len = self.cache.entries.len() * 2;
            self.cache.resize(len);
        }
        Ok(id)
    }

    /// [`mk`](Self::mk) without the limit — for bounded builders
    /// (variables, cubes, reordering) that must not unwind.
    pub(crate) fn mk_unchecked(&mut self, level: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        match self.unique_get(level, lo, hi) {
            Some(id) => id,
            None => self.insert_new(level, lo, hi),
        }
    }

    /// The memoised ITE kernel: `f·g + f̅·h`.
    pub(crate) fn ite_rec(&mut self, f: u32, g: u32, h: u32) -> OpResult {
        // Terminal short-circuits.
        if f == ONE {
            return Ok(g);
        }
        if f == ZERO {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == ONE && h == ZERO {
            return Ok(f);
        }
        self.tick()?;
        if let Some(r) = self.cache.get(OP_ITE, f, g, h) {
            return Ok(r);
        }
        let level = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = self.children_at(f, level);
        let (g0, g1) = self.children_at(g, level);
        let (h0, h1) = self.children_at(h, level);
        let lo = self.ite_rec(f0, g0, h0)?;
        let hi = self.ite_rec(f1, g1, h1)?;
        let r = self.mk(level, lo, hi)?;
        self.cache.put(OP_ITE, f, g, h, r);
        Ok(r)
    }

    /// Existential quantification `∃ cube. f` (memoised), with the
    /// cube-skipping normalisation above `f`'s support.
    pub(crate) fn exists_rec(&mut self, f: u32, mut cube: u32) -> OpResult {
        if f <= ONE {
            return Ok(f);
        }
        // Quantifying a variable above f's support is the identity.
        let level = self.level(f);
        while cube > ONE && self.level(cube) < level {
            cube = self.nodes[cube as usize].hi;
        }
        if cube == ONE {
            return Ok(f);
        }
        self.tick()?;
        if let Some(r) = self.cache.get(OP_EXISTS, f, cube, ZERO) {
            return Ok(r);
        }
        let (f0, f1) = self.children_at(f, level);
        let r = if self.level(cube) == level {
            let rest = self.nodes[cube as usize].hi;
            let lo = self.exists_rec(f0, rest)?;
            if lo == ONE {
                ONE
            } else {
                let hi = self.exists_rec(f1, rest)?;
                self.ite_rec(lo, ONE, hi)?
            }
        } else {
            let lo = self.exists_rec(f0, cube)?;
            let hi = self.exists_rec(f1, cube)?;
            self.mk(level, lo, hi)?
        };
        self.cache.put(OP_EXISTS, f, cube, ZERO, r);
        Ok(r)
    }

    /// The relational product `∃ cube. f · g` in one pass (memoised).
    pub(crate) fn and_exists_rec(&mut self, f: u32, g: u32, mut cube: u32) -> OpResult {
        if f == ZERO || g == ZERO {
            return Ok(ZERO);
        }
        if f == ONE {
            return self.exists_rec(g, cube);
        }
        if g == ONE || f == g {
            return self.exists_rec(f, cube);
        }
        let top = self.level(f).min(self.level(g));
        while cube > ONE && self.level(cube) < top {
            cube = self.nodes[cube as usize].hi;
        }
        if cube == ONE {
            return self.ite_rec(f, g, ZERO);
        }
        self.tick()?;
        // Conjunction is commutative: normalise the key.
        let (a, b) = if f > g { (g, f) } else { (f, g) };
        if let Some(r) = self.cache.get(OP_AND_EXISTS, a, b, cube) {
            return Ok(r);
        }
        let (f0, f1) = self.children_at(f, top);
        let (g0, g1) = self.children_at(g, top);
        let r = if self.level(cube) == top {
            let rest = self.nodes[cube as usize].hi;
            let lo = self.and_exists_rec(f0, g0, rest)?;
            if lo == ONE {
                ONE
            } else {
                let hi = self.and_exists_rec(f1, g1, rest)?;
                self.ite_rec(lo, ONE, hi)?
            }
        } else {
            let lo = self.and_exists_rec(f0, g0, cube)?;
            let hi = self.and_exists_rec(f1, g1, cube)?;
            self.mk(top, lo, hi)?
        };
        self.cache.put(OP_AND_EXISTS, a, b, cube, r);
        Ok(r)
    }

    // ------------------------------------------------------------------
    // Maintenance: collection, cache flushing, level swaps.
    // ------------------------------------------------------------------

    /// Drops every memoised result and reallocates the computed table to
    /// fit the current pool (reordering frees nodes without mark
    /// information, so selective purging is impossible).
    pub(crate) fn clear_cache(&mut self) {
        self.cache = ComputedTable::with_len(ComputedTable::len_for(self.pool_size()));
    }

    /// Mark-and-sweep collection from `roots`: the mark touches the live
    /// nodes, the sweep walks the subtable chains, so the cost is
    /// O(live + freed) plus a bitmap of one bit per slot. Each subtable
    /// then shrinks to fit its survivors, and computed-table entries that
    /// name a freed node are purged. Returns the number of nodes freed.
    pub(crate) fn gc(&mut self, roots: impl Iterator<Item = u32>) -> usize {
        let mut marked = vec![0u64; self.nodes.len().div_ceil(64)];
        let is_marked = |marked: &[u64], n: u32| marked[n as usize / 64] >> (n % 64) & 1 == 1;
        let mut stack: Vec<u32> = roots.filter(|&n| n > ONE).collect();
        while let Some(n) = stack.pop() {
            if is_marked(&marked, n) {
                continue;
            }
            marked[n as usize / 64] |= 1 << (n % 64);
            let node = self.nodes[n as usize];
            debug_assert!(node.var != FREE, "protected root {n} was collected");
            for c in [node.lo, node.hi] {
                if c > ONE && !is_marked(&marked, c) {
                    stack.push(c);
                }
            }
        }
        let before = self.pool_size();
        for level in 0..self.num_vars {
            let mut table =
                std::mem::replace(&mut self.subtables[level], Subtable::with_buckets(0));
            for b in 0..table.buckets.len() {
                let mut kept = ZERO;
                let mut n = table.buckets[b];
                while n != ZERO {
                    let next = self.nodes[n as usize].next;
                    if is_marked(&marked, n) {
                        self.nodes[n as usize].next = kept;
                        kept = n;
                    } else {
                        self.release(n);
                        table.count -= 1;
                    }
                    n = next;
                }
                table.buckets[b] = kept;
            }
            self.subtables[level] = table;
            let fit = self.subtables[level]
                .count
                .next_power_of_two()
                .max(MIN_BUCKETS);
            if fit < self.subtables[level].buckets.len() {
                self.rehash(level, fit);
            }
        }
        let dead = |n: u32| n > ONE && !is_marked(&marked, n);
        for e in self.cache.entries.iter_mut() {
            if e[0] != 0 && (dead(e[1]) || dead(e[2]) || dead(e[3]) || dead(e[4])) {
                e[0] = 0;
            }
        }
        before - self.pool_size()
    }

    /// Exact reference counts over the live pool (child links plus `pins`).
    /// Call right after [`gc`](Self::gc): dead nodes would contribute
    /// phantom references.
    pub(crate) fn compute_refs(&self, pins: impl Iterator<Item = (u32, usize)>) -> Vec<u32> {
        let mut refs = vec![0u32; self.nodes.len()];
        for table in &self.subtables {
            for &head in &table.buckets {
                let mut n = head;
                while n != ZERO {
                    let node = &self.nodes[n as usize];
                    refs[node.lo as usize] += 1;
                    refs[node.hi as usize] += 1;
                    n = node.next;
                }
            }
        }
        for (id, count) in pins {
            refs[id as usize] = refs[id as usize].saturating_add(count as u32);
        }
        refs
    }

    /// Live node count at `level`.
    pub(crate) fn level_count(&self, level: usize) -> usize {
        self.subtables[level].count
    }

    /// The in-place exchange of levels `l` and `l + 1`.
    ///
    /// Invariant: every node id denotes the same function before and after.
    /// The lower variable's nodes keep their structure, so their subtable
    /// simply moves up; upper nodes independent of the lower variable stay
    /// in their subtable as it moves down; upper nodes that depend on it are
    /// rewritten in place with fresh children one level down. Lower nodes
    /// left unreferenced are freed immediately (cascading into their
    /// children), keeping `refs` and the live count exact throughout.
    pub(crate) fn swap_adjacent(&mut self, l: usize, refs: &mut Vec<u32>) {
        let (lu, ll) = (l as u32, l as u32 + 1);
        let x = self.var_at[l];
        let y = self.var_at[l + 1];
        self.var_at.swap(l, l + 1);
        self.level_of[x as usize] = ll;
        self.level_of[y as usize] = lu;
        self.subtables.swap(l, l + 1);

        // 1. Pull the x nodes that branch on y out of x's subtable (now at
        //    level l + 1); the rest stay there unchanged.
        let mut dependent: Vec<u32> = Vec::new();
        let table = &mut self.subtables[l + 1];
        for b in 0..table.buckets.len() {
            let mut kept = ZERO;
            let mut n = table.buckets[b];
            while n != ZERO {
                let node = self.nodes[n as usize];
                if self.nodes[node.lo as usize].var == y || self.nodes[node.hi as usize].var == y {
                    dependent.push(n);
                } else {
                    self.nodes[n as usize].next = kept;
                    kept = n;
                }
                n = node.next;
            }
            table.buckets[b] = kept;
        }
        table.count -= dependent.len();

        // 2. Rewrite each dependent node in place:
        //    x ? (y ? f11 : f10) : (y ? f01 : f00)
        //      == y ? (x ? f11 : f01) : (x ? f10 : f00).
        let mut orphans: Vec<u32> = Vec::new();
        for &n in &dependent {
            let Node { lo: f0, hi: f1, .. } = self.nodes[n as usize];
            let mut split = |c: u32| {
                let node = self.nodes[c as usize];
                if c > ONE && node.var == y {
                    refs[c as usize] -= 1;
                    orphans.push(c);
                    (node.lo, node.hi)
                } else {
                    if c > ONE {
                        refs[c as usize] -= 1;
                    }
                    (c, c)
                }
            };
            let (f00, f01) = split(f0);
            let (f10, f11) = split(f1);
            let lo = self.swap_child(ll, f00, f10, refs);
            let hi = self.swap_child(ll, f01, f11, refs);
            debug_assert!(lo != hi, "dependent node reduced away during swap");
            for c in [lo, hi] {
                if c > ONE {
                    refs[c as usize] += 1;
                }
            }
            let table = &mut self.subtables[l];
            let b = table.bucket(lo, hi);
            self.nodes[n as usize] = Node {
                var: y,
                lo,
                hi,
                next: table.buckets[b],
            };
            table.buckets[b] = n;
            table.count += 1;
            if table.count > table.buckets.len() {
                let len = table.buckets.len() * 2;
                self.rehash(l, len);
            }
        }

        // 3. y nodes nothing references any more are dead — free them now
        //    so reference counts and the live size stay exact.
        for m in orphans {
            if self.is_live(m) && refs[m as usize] == 0 {
                self.unlink_dead(m, refs);
            }
        }
    }

    /// Hash-consed child construction for [`swap_adjacent`], counting the
    /// references a freshly allocated node holds.
    fn swap_child(&mut self, level: u32, lo: u32, hi: u32, refs: &mut Vec<u32>) -> u32 {
        if lo == hi {
            return lo;
        }
        if let Some(id) = self.unique_get(level, lo, hi) {
            return id;
        }
        let id = self.insert_new(level, lo, hi);
        if id as usize >= refs.len() {
            refs.resize(id as usize + 1, 0);
        }
        refs[id as usize] = 0;
        for c in [lo, hi] {
            if c > ONE {
                refs[c as usize] += 1;
            }
        }
        id
    }

    /// Frees a dead node, cascading into children whose counts hit zero.
    fn unlink_dead(&mut self, id: u32, refs: &mut [u32]) {
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let Node { lo, hi, .. } = self.nodes[n as usize];
            self.unique_unlink(n);
            self.release(n);
            for c in [lo, hi] {
                if c > ONE {
                    refs[c as usize] -= 1;
                    if refs[c as usize] == 0 {
                        stack.push(c);
                    }
                }
            }
        }
    }

    /// Checks the pool's structural invariants, panicking on the first
    /// violation: live nodes are reduced, reference only live
    /// strictly-deeper children and are chained exactly once, in their own
    /// level's subtable; the free list matches the freed slots; and the
    /// order arrays are inverse permutations.
    pub(crate) fn assert_invariants(&self) {
        let mut live = 0usize;
        for (i, node) in self.nodes.iter().enumerate().skip(2) {
            if node.var == FREE {
                continue;
            }
            live += 1;
            let level = self.level(i as u32);
            assert!(
                (level as usize) < self.num_vars,
                "node {i}: level {level} out of range"
            );
            assert!(
                node.lo != node.hi,
                "node {i}: redundant (lo == hi == {})",
                node.lo
            );
            for c in [node.lo, node.hi] {
                assert!(self.is_live(c), "node {i}: references freed child {c}");
                assert!(
                    self.level(c) > level,
                    "node {i}: child {c} not strictly below level {level}"
                );
            }
            assert_eq!(
                self.unique_get(level, node.lo, node.hi),
                Some(i as u32),
                "node {i}: unique table misses it or maps its key elsewhere"
            );
        }
        let chained: usize = self.subtables.iter().map(|t| t.count).sum();
        assert_eq!(
            chained, live,
            "unique subtables hold entries for dead nodes"
        );
        for table in &self.subtables {
            let mut walked = 0;
            for &head in &table.buckets {
                let mut n = head;
                while n != ZERO {
                    walked += 1;
                    n = self.nodes[n as usize].next;
                }
            }
            assert_eq!(walked, table.count, "subtable count out of sync");
        }
        assert_eq!(
            live + self.free.len(),
            self.nodes.len() - 2,
            "free list out of sync with freed slots"
        );
        for v in 0..self.num_vars {
            assert_eq!(
                self.var_at[self.level_of[v] as usize] as usize, v,
                "level_of/var_at are not inverse permutations at variable {v}"
            );
        }
    }
}
