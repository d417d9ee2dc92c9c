//! Minimal encoding-length merging (Algorithms 1 and 2 of the paper).
//!
//! Given two clusters' wildcard sequences `cs_x`, `cs_y` and their member
//! counts, [`min_encoding_length_increment`] computes the encoding-length
//! increment (Definition 3) of merging them under the monotonic `VARCHAR`
//! encoding model, and [`merge`] additionally reconstructs the merged
//! wildcard sequence by tracing the optimal alignment back.
//!
//! The dynamic program is the monotonic-encoder specialisation (Problem 3):
//! each cell only consults its three neighbours, so the cost is `O(n·m)`
//! instead of the `O(|F|·(N+M)·n²·m²)` of the general algorithm. A
//! brute-force reference for the *general* formulation on tiny inputs lives
//! in [`mod@reference`]; tests check the two agree on the paper's example and
//! other fixed cases, and that the DP — one state per cell, so not always
//! the optimum once gaps are involved — never lands below it.
//!
//! ### One recurrence, two drivers
//!
//! A cell is the paper's `(state, type)` plus the number of literals kept
//! in the pattern along the best path, which breaks cost ties in favour of
//! the alignment that keeps the most literals (equal-cost alignments exist
//! because a `VARCHAR` field's descriptor cost can exactly offset a demoted
//! literal, and the literal-rich pattern compresses better). The three are
//! packed into one `i64`, most significant first:
//!
//! ```text
//! | cost: 43 bits, signed | KEPT_MAX − kept: 20 bits | type: 1 bit (0 = isPattern, 1 = isRS) |
//! ```
//!
//! so the rule "lower cost, then more kept literals, and the diagonal wins
//! a full tie" is one integer `min` over the three candidates: the kept
//! field is stored complemented, and the diagonal is the only transition
//! that produces `isPattern`. Both sideways candidates are `isRS`, so when
//! they tie they are the same cell and only the traceback has to pick one
//! (it keeps the x side, as the table version did). Demoting an element
//! (Algorithm 2) adds a multiple of `COST_ONE` and sets the type bit;
//! keeping one subtracts `KEPT_ONE` and clears it; the low fields never
//! carry into the cost (`sweep` refuses inputs where they could).
//!
//! `cell` is that recurrence and `sweep` runs it row by row; a row needs
//! only the one above. Scoring a pair — what clustering does ~10⁴ times per
//! training — is a sweep over two rolling rows of `m + 1` cells (16 bytes
//! per column) in a `Rows` scratch the caller reuses; [`merge`] is the same
//! sweep, also recording one byte per interior cell (which neighbour won)
//! for the traceback: `n·m` bytes, once per merge. No `(n+1)·(m+1)` table of
//! states, kept counts or types exists outside the tests' oracle.
//!
//! ### Note on the paper's pseudo-code
//!
//! Algorithm 1 lines 16–19 set `type[i][j] = isRS` when the diagonal
//! (keep-in-pattern) transition is the unique minimum and `isPattern`
//! otherwise, which contradicts the semantics `UpdateState` relies on
//! (`isPattern` must mean "the previous aligned element stayed in the
//! pattern", so that the first later demotion pays the new-field descriptor
//! cost of `size_x + size_y`). We implement the semantically consistent
//! assignment: diagonal ⇒ `isPattern`, sideways ⇒ `isRS`.

use crate::cluster::PatElem;

/// Result of merging two wildcard sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The encoding-length increment of Definition 3 (may be negative:
    /// merging two clusters with identical structure removes duplicate
    /// length descriptors).
    pub increment: i64,
    /// The merged wildcard sequence (adjacent gaps coalesced).
    pub cs: Vec<PatElem>,
}

/// Element kind tracked per DP cell (the paper's `type` table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellType {
    IsPattern,
    IsRs,
}

/// Algorithm 2, the state transition, in the paper's plain form: what
/// [`demote`] packs, and what the brute-force [`mod@reference`] and the
/// tests' table oracle are written against.
///
/// `size_own` is the member count of the cluster whose element is being
/// demoted to a residual; `size_other` is the other cluster's member count.
#[inline]
fn update_state(
    cur_state: i64,
    cell_type: CellType,
    new_elem_is_gap: bool,
    size_own: i64,
    size_other: i64,
) -> i64 {
    let mut v = cur_state;
    if cell_type == CellType::IsPattern {
        // A new residual region starts: every record of the merged cluster
        // stores one more length descriptor.
        v += size_own + size_other;
    }
    if !new_elem_is_gap {
        // The demoted literal is stored by each record of its own cluster.
        v += size_own;
    } else {
        // A wildcard that is absorbed into the new region refunds the
        // descriptors its own cluster had already paid for it.
        v -= size_own;
    }
    v
}

/// Kernel code of a gap; a literal byte encodes as itself.
const GAP: u16 = 256;

/// Encode a wildcard sequence for the kernel (one integer compare per cell
/// instead of an enum match). Clusters do this once, when they are built.
pub(crate) fn encode(cs: &[PatElem]) -> Vec<u16> {
    cs.iter()
        .map(|e| match e {
            PatElem::Lit(b) => u16::from(*b),
            PatElem::Gap => GAP,
        })
        .collect()
}

/// Type bit of a packed cell: set = `isRS`, clear = `isPattern`.
const TYPE_RS: i64 = 1;
/// One kept literal, in the complemented kept field above the type bit.
const KEPT_ONE: i64 = 2;
/// Most literals one alignment can keep (20 bits).
const KEPT_MAX: usize = (1 << 20) - 1;
/// The cost occupies the bits from here up.
const COST_SHIFT: u32 = 21;
const COST_ONE: i64 = 1 << COST_SHIFT;
/// Cell (0, 0): cost 0, nothing kept, `isPattern`.
const START: i64 = KEPT_MAX as i64 * KEPT_ONE;

/// Which neighbour a cell took its value from; what the traceback stores.
const DIAG: u8 = 0;
const FROM_X: u8 = 1;
const FROM_Y: u8 = 2;

/// The two rolling rows of the recurrence. One instance serves any number
/// of evaluations of any size; clustering keeps one per training.
#[derive(Debug, Default)]
pub(crate) struct Rows {
    prev: Vec<i64>,
    cur: Vec<i64>,
}

/// Algorithm 2 for one cluster's elements, as the amounts to add to a
/// packed cell: `[element is a gap][cell is isRS]`.
fn steps(size_own: i64, size_other: i64) -> [[i64; 2]; 2] {
    // Leaving the pattern starts a residual region: every record of the
    // merged cluster stores one more length descriptor, and the cell
    // becomes `isRS` (its type bit is known to be clear).
    let open = (size_own + size_other) * COST_ONE + TYPE_RS;
    // A demoted literal is stored by each record of its own cluster; an
    // absorbed wildcard refunds the descriptors that cluster had paid.
    let own = size_own * COST_ONE;
    [[open + own, own], [open - own, -own]]
}

/// Demote one element into a residual region: cost per `step`, kept
/// literals unchanged, type `isRS`.
#[inline(always)]
fn demote(cell: i64, step: &[i64; 2]) -> i64 {
    if cell & TYPE_RS == 0 {
        cell + step[0]
    } else {
        cell + step[1]
    }
}

/// The cell recurrence: the best of demoting x's element (from `up`),
/// demoting y's (from `left`) and, where both are the same literal, keeping
/// it in the pattern (from `diag`), with the neighbour that won.
#[inline(always)]
fn cell(up: i64, left: i64, diag: Option<i64>, step_x: &[i64; 2], step_y: &[i64; 2]) -> (i64, u8) {
    // `left` is the one value carried from cell to cell along a row:
    // everything that does not need it is settled first.
    let from_x = demote(up, step_x);
    let kept = diag.map_or(i64::MAX, |d| (d & !TYPE_RS) - KEPT_ONE);
    let above = from_x.min(kept);
    let from_y = demote(left, step_y);
    let winner = if from_y < above {
        FROM_Y
    } else if kept < from_x {
        DIAG
    } else {
        FROM_X
    };
    (from_y.min(above), winner)
}

/// Algorithm 1 over two rolling rows: returns cell `(n, m)` and reports the
/// winning neighbour of every interior cell, row by row, to `from`.
///
/// # Panics
///
/// If the sequences or member counts are too large for the packed cell:
/// more than `KEPT_MAX` elements on the shorter side, or a worst-case
/// cost of 2⁴¹ or more (two 4097-element sequences at a million records a
/// side reach about 2³⁵).
fn sweep(
    x: &[u16],
    y: &[u16],
    size_x: usize,
    size_y: usize,
    scratch: &mut Rows,
    mut from: impl FnMut(u8),
) -> i64 {
    let (n, m) = (x.len(), y.len());
    // No step moves the cost by more than twice the merged cluster's size
    // (the extra step keeps the step table itself in range).
    let worst = 2 * (size_x as u128 + size_y as u128) * (n as u128 + m as u128 + 1);
    assert!(
        n.min(m) <= KEPT_MAX && worst < 1 << (62 - COST_SHIFT),
        "merge DP: {n} x {m} elements at sizes {size_x} + {size_y} overflow the packed cell"
    );
    let steps_x = steps(size_x as i64, size_y as i64);
    let steps_y = steps(size_y as i64, size_x as i64);

    // Row 0: consuming only y demotes its elements.
    let Rows { prev, cur } = scratch;
    prev.clear();
    prev.push(START);
    let mut left = START;
    for &yc in y {
        left = demote(left, &steps_y[usize::from(yc == GAP)]);
        prev.push(left);
    }
    cur.clear();
    cur.resize(m + 1, 0);

    for &xc in x {
        let step_x = &steps_x[usize::from(xc == GAP)];
        left = demote(prev[0], step_x);
        cur[0] = left;
        for ((&yc, above), out) in y.iter().zip(prev.windows(2)).zip(&mut cur[1..]) {
            let diag = (xc == yc && xc != GAP).then_some(above[0]);
            let step_y = &steps_y[usize::from(yc == GAP)];
            let (best, winner) = cell(above[1], left, diag, step_x, step_y);
            from(winner);
            *out = best;
            left = best;
        }
        std::mem::swap(prev, cur);
    }
    prev[m]
}

/// Score-only driver: the increment of merging two encoded sequences.
pub(crate) fn increment(
    x: &[u16],
    y: &[u16],
    size_x: usize,
    size_y: usize,
    scratch: &mut Rows,
) -> i64 {
    sweep(x, y, size_x, size_y, scratch, |_| {}) >> COST_SHIFT
}

/// Traceback driver: the increment and the merged wildcard sequence.
pub(crate) fn merge_encoded(
    x: &[u16],
    y: &[u16],
    size_x: usize,
    size_y: usize,
    scratch: &mut Rows,
) -> MergeOutcome {
    let (n, m) = (x.len(), y.len());
    let mut from = Vec::with_capacity(n * m);
    let last = sweep(x, y, size_x, size_y, scratch, |winner| from.push(winner));

    // Walk back from (n, m) to (0, 0); on a border only one side is left.
    // Gaps are coalesced as they are emitted.
    let mut cs = Vec::with_capacity(n.max(m));
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        let winner = match (i, j) {
            (_, 0) => FROM_X,
            (0, _) => FROM_Y,
            _ => from[(i - 1) * m + j - 1],
        };
        i -= usize::from(winner != FROM_Y);
        j -= usize::from(winner != FROM_X);
        if winner == DIAG {
            cs.push(PatElem::Lit(x[i] as u8));
        } else if cs.last() != Some(&PatElem::Gap) {
            cs.push(PatElem::Gap);
        }
    }
    cs.reverse();
    MergeOutcome {
        increment: last >> COST_SHIFT,
        cs,
    }
}

/// Algorithm 1: compute the minimal encoding-length increment of merging two
/// clusters, without building the merged sequence.
///
/// # Panics
///
/// If the inputs overflow the packed cell: a million elements on the
/// shorter side, or `2·(size_x + size_y)·(n + m + 1) ≥ 2⁴¹`.
pub fn min_encoding_length_increment(
    cs_x: &[PatElem],
    cs_y: &[PatElem],
    size_x: usize,
    size_y: usize,
) -> i64 {
    let (x, y) = (encode(cs_x), encode(cs_y));
    increment(&x, &y, size_x, size_y, &mut Rows::default())
}

/// Algorithm 1 plus traceback: compute the increment and the merged
/// wildcard sequence.
///
/// # Panics
///
/// As [`min_encoding_length_increment`].
pub fn merge(cs_x: &[PatElem], cs_y: &[PatElem], size_x: usize, size_y: usize) -> MergeOutcome {
    let (x, y) = (encode(cs_x), encode(cs_y));
    merge_encoded(&x, &y, size_x, size_y, &mut Rows::default())
}

/// Brute-force reference implementations used to validate the DP on tiny
/// inputs.
pub mod reference {
    use super::*;

    /// Exhaustively try every alignment of `cs_x` and `cs_y` (every way of
    /// interleaving "keep shared literal" / "demote x" / "demote y" moves)
    /// and return the minimal increment under the same cost model as
    /// the DP's private `update_state` transition. Exponential — only for
    /// sequences of length ≲ 12.
    pub fn exhaustive_increment(
        cs_x: &[PatElem],
        cs_y: &[PatElem],
        size_x: usize,
        size_y: usize,
    ) -> i64 {
        #[allow(clippy::too_many_arguments)] // mirrors the paper's recurrence state
        fn recurse(
            cs_x: &[PatElem],
            cs_y: &[PatElem],
            i: usize,
            j: usize,
            acc: i64,
            cell_type: CellType,
            sx: i64,
            sy: i64,
        ) -> i64 {
            if i == cs_x.len() && j == cs_y.len() {
                return acc;
            }
            let mut best = i64::MAX;
            if i < cs_x.len() {
                let gap = matches!(cs_x[i], PatElem::Gap);
                let v = update_state(acc, cell_type, gap, sx, sy);
                best = best.min(recurse(cs_x, cs_y, i + 1, j, v, CellType::IsRs, sx, sy));
            }
            if j < cs_y.len() {
                let gap = matches!(cs_y[j], PatElem::Gap);
                let v = update_state(acc, cell_type, gap, sy, sx);
                best = best.min(recurse(cs_x, cs_y, i, j + 1, v, CellType::IsRs, sx, sy));
            }
            if i < cs_x.len() && j < cs_y.len() {
                if let (PatElem::Lit(a), PatElem::Lit(b)) = (cs_x[i], cs_y[j]) {
                    if a == b {
                        best = best.min(recurse(
                            cs_x,
                            cs_y,
                            i + 1,
                            j + 1,
                            acc,
                            CellType::IsPattern,
                            sx,
                            sy,
                        ));
                    }
                }
            }
            best
        }
        recurse(
            cs_x,
            cs_y,
            0,
            0,
            0,
            CellType::IsPattern,
            size_x as i64,
            size_y as i64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn cs(text: &str) -> Vec<PatElem> {
        Cluster::cs_from_str(text)
    }

    #[test]
    fn identical_sequences_merge_with_shared_pattern() {
        let out = merge(&cs("abcdef"), &cs("abcdef"), 1, 1);
        assert_eq!(
            out.cs,
            cs("abcdef"),
            "identical sequences keep every literal in the pattern"
        );
        assert_eq!(out.increment, 0);
    }

    #[test]
    fn paper_example_ab3_star_2_and_ab_star_12() {
        // Example 2 / Figure 4: merging "ab3*2" and "ab*12".
        let out = merge(&cs("ab3*2"), &cs("ab*12"), 1, 1);
        // The merged pattern must keep the common subsequence "ab", a gap,
        // and the trailing "2" — i.e. "ab*2" (the '3' of x, the '1' of y and
        // both wildcards collapse into one field).
        assert_eq!(out.cs, cs("ab*2"));
    }

    #[test]
    fn merged_literals_form_a_common_subsequence() {
        let a = cs("V5company_charging-100-57accenter20");
        let b = cs("V5company_charging-100-72accenter11");
        let out = merge(&a, &b, 1, 1);
        // Every literal of the merged sequence must be a subsequence of both.
        let lits: Vec<u8> = out
            .cs
            .iter()
            .filter_map(|e| match e {
                PatElem::Lit(c) => Some(*c),
                PatElem::Gap => None,
            })
            .collect();
        for source in [&a, &b] {
            let mut it = source.iter().filter_map(|e| match e {
                PatElem::Lit(c) => Some(*c),
                PatElem::Gap => None,
            });
            for l in &lits {
                assert!(
                    it.any(|c| c == *l),
                    "merged literal {l} must appear in order in both inputs"
                );
            }
        }
        assert!(lits.len() >= b"V5company_charging-100-".len());
    }

    #[test]
    fn similar_clusters_have_lower_increment_than_dissimilar_ones() {
        let base = cs("user=alice action=login status=ok elapsed=12ms");
        let similar = cs("user=bob action=login status=ok elapsed=7ms");
        let dissimilar = cs("7f3a9c0e-22bb-4f6d-9a1e-55c2ab99d001");
        let eli_similar = min_encoding_length_increment(&base, &similar, 4, 4);
        let eli_dissimilar = min_encoding_length_increment(&base, &dissimilar, 4, 4);
        assert!(
            eli_similar < eli_dissimilar,
            "similar: {eli_similar}, dissimilar: {eli_dissimilar}"
        );
    }

    #[test]
    fn increment_scales_with_cluster_sizes() {
        let a = cs("abcXdef");
        let b = cs("abcYdef");
        let small = min_encoding_length_increment(&a, &b, 1, 1);
        let large = min_encoding_length_increment(&a, &b, 100, 100);
        assert!(
            large > small,
            "demoting a literal costs every member record"
        );
    }

    #[test]
    fn dp_matches_exhaustive_reference_on_small_inputs() {
        let cases = [
            ("ab3*2", "ab*12"),
            ("abc", "abc"),
            ("abc", "xyz"),
            ("a*b", "ab"),
            ("*a*", "aa"),
            ("log_12", "log_99"),
            ("", "abc"),
            ("", ""),
            ("a*", "*a"),
        ];
        for (x, y) in cases {
            for (sx, sy) in [(1usize, 1usize), (2, 3), (5, 1)] {
                let dp = min_encoding_length_increment(&cs(x), &cs(y), sx, sy);
                let brute = reference::exhaustive_increment(&cs(x), &cs(y), sx, sy);
                assert_eq!(dp, brute, "x={x:?} y={y:?} sizes=({sx},{sy})");
            }
        }
    }

    #[test]
    fn empty_sequences_merge_trivially() {
        let out = merge(&cs(""), &cs(""), 3, 4);
        assert_eq!(out.increment, 0);
        assert!(out.cs.is_empty());
        let out = merge(&cs("abc"), &cs(""), 2, 2);
        assert_eq!(out.cs, cs("*"));
    }

    #[test]
    fn merged_gaps_are_coalesced() {
        let out = merge(&cs("a*b*c"), &cs("axbyc"), 1, 1);
        // No two adjacent gaps in the output.
        for w in out.cs.windows(2) {
            assert!(
                !(matches!(w[0], PatElem::Gap) && matches!(w[1], PatElem::Gap)),
                "adjacent gaps must be coalesced: {:?}",
                out.cs
            );
        }
        assert_eq!(out.cs, cs("a*b*c"));
    }

    /// The table form of Algorithm 1 this module used before the packed
    /// kernel: full `(n+1)·(m+1)` state, kept, type and provenance tables and
    /// the tie-break spelled out. Kept as the oracle the kernel must
    /// reproduce, increment and merged sequence alike.
    fn table_merge(
        cs_x: &[PatElem],
        cs_y: &[PatElem],
        size_x: usize,
        size_y: usize,
    ) -> (i64, Vec<PatElem>) {
        #[derive(Clone, Copy)]
        enum From {
            Start,
            Diag,
            ConsumeX,
            ConsumeY,
        }
        let n = cs_x.len();
        let m = cs_y.len();
        let sx = size_x as i64;
        let sy = size_y as i64;
        let width = m + 1;
        let is_gap = |e: PatElem| matches!(e, PatElem::Gap);

        let mut state = vec![0i64; (n + 1) * width];
        let mut kept = vec![0u32; (n + 1) * width];
        let mut cell_type = vec![CellType::IsPattern; (n + 1) * width];
        let mut from = vec![From::Start; (n + 1) * width];

        // Initialization: consuming only one side demotes its elements.
        for i in 1..=n {
            let (idx, prev) = (i * width, (i - 1) * width);
            state[idx] = update_state(state[prev], cell_type[prev], is_gap(cs_x[i - 1]), sx, sy);
            cell_type[idx] = CellType::IsRs;
            from[idx] = From::ConsumeX;
        }
        for j in 1..=m {
            state[j] = update_state(state[j - 1], cell_type[j - 1], is_gap(cs_y[j - 1]), sy, sx);
            cell_type[j] = CellType::IsRs;
            from[j] = From::ConsumeY;
        }

        for i in 1..=n {
            let row = i * width;
            let prev_row = (i - 1) * width;
            let x_elem = cs_x[i - 1];
            for j in 1..=m {
                let y_elem = cs_y[j - 1];
                let (up, left) = (prev_row + j, row + j - 1);
                let from_x = update_state(state[up], cell_type[up], is_gap(x_elem), sx, sy);
                let from_y = update_state(state[left], cell_type[left], is_gap(y_elem), sy, sx);

                // Candidates as (cost, -kept) lexicographic minima.
                let mut best = from_x;
                let mut best_kept = kept[up];
                let mut best_from = From::ConsumeX;
                let mut best_type = CellType::IsRs;
                if from_y < best || (from_y == best && kept[left] > best_kept) {
                    best = from_y;
                    best_kept = kept[left];
                    best_from = From::ConsumeY;
                }
                if !is_gap(x_elem) && x_elem == y_elem {
                    let diag = state[prev_row + j - 1];
                    let diag_kept = kept[prev_row + j - 1] + 1;
                    // Prefer the diagonal on ties: keeping shared literals in
                    // the pattern is what drives compression.
                    if diag < best || (diag == best && diag_kept >= best_kept) {
                        best = diag;
                        best_kept = diag_kept;
                        best_from = From::Diag;
                        best_type = CellType::IsPattern;
                    }
                }
                state[row + j] = best;
                kept[row + j] = best_kept;
                cell_type[row + j] = best_type;
                from[row + j] = best_from;
            }
        }

        // Traceback from (n, m) to (0, 0).
        let mut rev: Vec<PatElem> = Vec::with_capacity(n.max(m));
        let (mut i, mut j) = (n, m);
        while i > 0 || j > 0 {
            match from[i * width + j] {
                From::Diag => {
                    rev.push(cs_x[i - 1]);
                    i -= 1;
                    j -= 1;
                }
                From::ConsumeX => {
                    rev.push(PatElem::Gap);
                    i -= 1;
                }
                From::ConsumeY => {
                    rev.push(PatElem::Gap);
                    j -= 1;
                }
                From::Start => break,
            }
        }
        rev.reverse();
        // Coalesce adjacent gaps.
        let mut cs = Vec::with_capacity(rev.len());
        for e in rev {
            if is_gap(e) && matches!(cs.last(), Some(PatElem::Gap)) {
                continue;
            }
            cs.push(e);
        }
        (state[n * width + m], cs)
    }

    /// A wildcard sequence as `merge` emits them: literals from a small
    /// alphabet (so alignments and ties are plentiful), gaps never adjacent.
    fn wildcard_sequence(max_len: usize) -> impl Strategy<Value = Vec<PatElem>> {
        vec(0u8..5, 0..max_len + 1).prop_map(|codes| {
            let mut cs: Vec<PatElem> = Vec::with_capacity(codes.len());
            for code in codes {
                match code {
                    0 if cs.last() != Some(&PatElem::Gap) => cs.push(PatElem::Gap),
                    0 => {}
                    c => cs.push(PatElem::Lit(b'a' + c % 3)),
                }
            }
            cs
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn kernel_reproduces_the_table_oracle(
            x in wildcard_sequence(24),
            y in wildcard_sequence(24),
            size_x in 1usize..40,
            size_y in 1usize..40,
        ) {
            let (increment, merged) = table_merge(&x, &y, size_x, size_y);
            prop_assert_eq!(
                min_encoding_length_increment(&x, &y, size_x, size_y),
                increment,
                "score-only driver, x={:?} y={:?} sizes=({}, {})", x, y, size_x, size_y
            );
            let out = merge(&x, &y, size_x, size_y);
            prop_assert_eq!(
                (out.increment, &out.cs),
                (increment, &merged),
                "traceback driver, x={:?} y={:?} sizes=({}, {})", x, y, size_x, size_y
            );
        }

        #[test]
        fn one_state_per_cell_never_undercuts_the_exhaustive_optimum(
            x in wildcard_sequence(7),
            y in wildcard_sequence(7),
            size_x in 1usize..7,
            size_y in 1usize..7,
        ) {
            // Algorithm 1 keeps the cheapest state of each cell, not one per
            // type, so with gaps it can land above the optimum ("ac*babb" and
            // "bb*cbc" at sizes 4 and 6: 54 against 44) but never below it,
            // which is what lets a bound on the optimum bound the DP.
            prop_assert!(
                min_encoding_length_increment(&x, &y, size_x, size_y)
                    >= reference::exhaustive_increment(&x, &y, size_x, size_y),
                "x={:?} y={:?} sizes=({}, {})", x, y, size_x, size_y
            );
        }
    }

    #[test]
    fn a_reused_scratch_gives_the_same_scores_as_a_fresh_one() {
        // Clustering evaluates pairs of every size through one `Rows`.
        let seqs = ["ab3*2", "", "user=alice action=login", "ab*12", "a", "*"];
        let mut scratch = Rows::default();
        for x in seqs {
            for y in seqs {
                let (ex, ey) = (encode(&cs(x)), encode(&cs(y)));
                assert_eq!(
                    increment(&ex, &ey, 3, 2, &mut scratch),
                    min_encoding_length_increment(&cs(x), &cs(y), 3, 2),
                    "x={x:?} y={y:?}"
                );
                assert_eq!(
                    merge_encoded(&ex, &ey, 3, 2, &mut scratch),
                    merge(&cs(x), &cs(y), 3, 2),
                    "x={x:?} y={y:?}"
                );
            }
        }
    }

    #[test]
    fn packed_cells_hold_at_the_largest_sequences_and_weights_training_uses() {
        // `max_cs_len` is capped at 4096 (plus the trailing gap of a
        // truncated record) and a weight cannot exceed the sample size; a
        // million is beyond any sample this crate can cluster. Tier-1 runs
        // this with overflow checks on.
        let weight = 1_000_000usize;
        let w = weight as i64;
        let long = |b: u8| {
            let mut cs = vec![PatElem::Lit(b); 4096];
            cs.push(PatElem::Gap);
            cs
        };
        // Identical: every literal kept, the two trailing gaps share a field.
        let same = merge(&long(b'a'), &long(b'a'), weight, weight);
        assert_eq!(same.cs, long(b'a'));
        assert_eq!(same.increment, 0);
        // Disjoint: one field for everything, every literal demoted, both
        // gaps refunded.
        let apart = merge(&long(b'a'), &long(b'b'), weight, weight);
        assert_eq!(apart.cs, cs("*"));
        assert_eq!(apart.increment, 2 * w + 2 * 4096 * w - 2 * w);
        assert_eq!(
            min_encoding_length_increment(&long(b'a'), &long(b'b'), weight, weight),
            apart.increment
        );
    }

    #[test]
    #[should_panic(expected = "overflow the packed cell")]
    fn sizes_beyond_the_packed_cell_are_refused_not_wrapped() {
        min_encoding_length_increment(&cs("abc"), &cs("abd"), usize::MAX / 2, 1);
    }
}
