//! Public dependency-declaration types: access types (including the paper's weak variants),
//! dependency declarations, wait modes and declared-footprint normalisation.

use weakdep_regions::{RangeUpdate, Region, RegionMap};

/// The access type of a dependency declaration, mirroring the contents of the OpenMP `depend`
/// clause plus the three weak variants proposed in §VI of the paper.
///
/// * `In` / `Out` / `InOut` — the task itself reads / writes / reads-and-writes the region.
/// * `WeakIn` / `WeakOut` / `WeakInOut` — the task does **not** touch the region itself; only its
///   (deeply nested) subtasks may. Weak accesses never defer the task's execution; they only link
///   the task's inner dependency domain to its parent's domain.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessType {
    /// Strong read (`depend(in: ...)`).
    In,
    /// Strong write (`depend(out: ...)`).
    Out,
    /// Strong read-write (`depend(inout: ...)`).
    InOut,
    /// Weak read (`depend(weakin: ...)`).
    WeakIn,
    /// Weak write (`depend(weakout: ...)`).
    WeakOut,
    /// Weak read-write (`depend(weakinout: ...)`).
    WeakInOut,
}

impl AccessType {
    /// `true` for the weak variants (the task does not access the data directly).
    pub fn is_weak(self) -> bool {
        matches!(self, AccessType::WeakIn | AccessType::WeakOut | AccessType::WeakInOut)
    }

    /// `true` if the access type implies a write for dependency-ordering purposes.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            AccessType::Out
                | AccessType::InOut
                | AccessType::WeakOut
                | AccessType::WeakInOut
        )
    }

    /// The strong counterpart of a weak type (identity for strong types).
    pub fn strengthened(self) -> AccessType {
        match self {
            AccessType::WeakIn => AccessType::In,
            AccessType::WeakOut => AccessType::Out,
            AccessType::WeakInOut => AccessType::InOut,
            other => other,
        }
    }

    /// A short human-readable name matching the paper's clause spelling.
    pub fn name(self) -> &'static str {
        match self {
            AccessType::In => "in",
            AccessType::Out => "out",
            AccessType::InOut => "inout",
            AccessType::WeakIn => "weakin",
            AccessType::WeakOut => "weakout",
            AccessType::WeakInOut => "weakinout",
        }
    }
}

/// One entry of a task's data footprint: a region with the write and weak flags of its access
/// type. A task's `depend` clause is collected as these, one per declaration, and
/// [`normalize_deps`] turns the list into the normalised footprint the engine links against:
/// disjoint regions, each with its combined access mode.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FootprintEntry {
    /// The declared region.
    pub region: Region,
    /// Whether the access implies a write.
    pub write: bool,
    /// Whether the access is weak (the task does not touch the data itself). After
    /// normalisation, only true if *every* overlapping declaration was weak.
    pub weak: bool,
}

impl FootprintEntry {
    /// The entry declaring `access` on `region`.
    pub fn new(access: AccessType, region: Region) -> Self {
        FootprintEntry { region, write: access.is_write(), weak: access.is_weak() }
    }
}

/// How the end of the task body relates to the completion of its children, per §IV–§V of the
/// paper.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum WaitMode {
    /// Plain OpenMP semantics: the task's dependencies are released when its body finishes,
    /// regardless of still-running children (each child lives in its own isolated domain).
    /// Codes that need ordering across nesting levels must call `taskwait` explicitly.
    #[default]
    None,
    /// The `wait` clause (§IV): a detached taskwait. The body returns (and its stack is
    /// released), but the task only completes — and releases all of its dependencies, at once —
    /// when all of its descendants have completed.
    Wait,
    /// The `weakwait` clause (§V): like `wait`, but dependencies are released *incrementally*:
    /// as soon as the body finishes, every fragment of the task's declared regions that is not
    /// covered by a live child access is released; the remaining fragments are handed over to the
    /// children and released as they finish. Equivalent to merging the task's inner dependency
    /// domain into its parent's.
    WeakWait,
}

/// Normalises a task's declared dependencies in place: overlapping declarations are
/// fragmented and combined (write wins over read, strong wins over weak), empty regions are
/// dropped, and the result is sorted by `(space, start)`.
///
/// The OpenMP specification leaves overlapping entries of a single `depend` clause undefined;
/// combining them with an upgrade rule is the conservative choice and what the Nanos6 runtime
/// does in practice.
pub fn normalize_deps(deps: &mut Vec<FootprintEntry>) {
    // Fast path for the overwhelmingly common declarations: pairwise strictly separated
    // regions. No fragmentation or combining can occur then, so sorting is all there is to do
    // and the general region-map machinery — several allocations per call, on the
    // task-creation hot path — is skipped entirely. Adjacent same-space regions fall through
    // to the slow path so equal-mode neighbours still coalesce.
    if deps.iter().all(|d| !d.region.is_empty()) {
        deps.sort_unstable_by_key(|d| (d.region.space, d.region.start));
        let separated = deps.windows(2).all(|pair| {
            pair[0].region.space != pair[1].region.space
                || pair[0].region.end < pair[1].region.start
        });
        if separated {
            return;
        }
    }

    // `(write, weak)` per fragment.
    let mut map: RegionMap<(bool, bool)> = RegionMap::new();
    for dep in deps.iter().filter(|d| !d.region.is_empty()) {
        map.update(&dep.region, |_, existing| match existing {
            Some(&(write, weak)) => RangeUpdate::Set((write || dep.write, weak && dep.weak)),
            None => RangeUpdate::Set((dep.write, dep.weak)),
        });
    }
    map.coalesce();
    deps.clear();
    deps.extend(map.iter().map(|(region, &(write, weak))| FootprintEntry { region, write, weak }));
    // The map iterates its spaces in hash order.
    deps.sort_unstable_by_key(|d| (d.region.space, d.region.start));
}

/// Whether `deps` is in the form [`normalize_deps`] produces: non-empty regions, sorted by
/// `(space, start)`, pairwise disjoint.
pub(crate) fn is_normalized(deps: &[FootprintEntry]) -> bool {
    deps.iter().all(|d| !d.region.is_empty())
        && deps.windows(2).all(|pair| {
            let (a, b) = (&pair[0].region, &pair[1].region);
            a.space < b.space || (a.space == b.space && a.end <= b.start)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakdep_regions::SpaceId;

    fn r(start: usize, end: usize) -> Region {
        Region::new(SpaceId(1), start, end)
    }

    #[test]
    fn access_type_predicates() {
        assert!(!AccessType::In.is_weak());
        assert!(!AccessType::In.is_write());
        assert!(AccessType::Out.is_write());
        assert!(AccessType::InOut.is_write());
        assert!(AccessType::WeakIn.is_weak());
        assert!(!AccessType::WeakIn.is_write());
        assert!(AccessType::WeakOut.is_weak());
        assert!(AccessType::WeakOut.is_write());
        assert!(AccessType::WeakInOut.is_weak());
        assert!(AccessType::WeakInOut.is_write());
        assert_eq!(AccessType::WeakInOut.strengthened(), AccessType::InOut);
        assert_eq!(AccessType::In.strengthened(), AccessType::In);
        assert_eq!(AccessType::WeakOut.name(), "weakout");
    }

    fn entry(region: Region, write: bool, weak: bool) -> FootprintEntry {
        FootprintEntry { region, write, weak }
    }

    #[test]
    fn normalize_disjoint_declarations() {
        let mut deps = vec![
            FootprintEntry::new(AccessType::In, r(0, 10)),
            FootprintEntry::new(AccessType::Out, r(20, 30)),
        ];
        normalize_deps(&mut deps);
        assert_eq!(deps, vec![entry(r(0, 10), false, false), entry(r(20, 30), true, false)]);
    }

    #[test]
    fn normalize_upgrades_overlaps() {
        // in + weakinout over the same range: the overlap becomes a strong write.
        let mut deps = vec![
            FootprintEntry::new(AccessType::In, r(0, 10)),
            FootprintEntry::new(AccessType::WeakInOut, r(5, 15)),
        ];
        normalize_deps(&mut deps);
        assert_eq!(
            deps,
            vec![
                entry(r(0, 5), false, false),
                entry(r(5, 10), true, false),
                entry(r(10, 15), true, true),
            ]
        );
    }

    #[test]
    fn normalize_merges_adjacent_equal_entries() {
        let mut deps = vec![
            FootprintEntry::new(AccessType::In, r(0, 10)),
            FootprintEntry::new(AccessType::In, r(10, 20)),
        ];
        normalize_deps(&mut deps);
        assert_eq!(deps, vec![entry(r(0, 20), false, false)]);
    }

    #[test]
    fn normalize_long_disjoint_clause_takes_fast_path() {
        // More entries than the historical fast-path bound, deliberately unsorted: the result
        // must be sorted and identical to what the general path would produce.
        let mut deps: Vec<FootprintEntry> = [4usize, 0, 2, 5, 1, 3]
            .iter()
            .map(|&i| FootprintEntry::new(AccessType::InOut, r(i * 20, i * 20 + 10)))
            .collect();
        normalize_deps(&mut deps);
        assert_eq!(deps.len(), 6);
        for (i, d) in deps.iter().enumerate() {
            assert_eq!(d.region, r(i * 20, i * 20 + 10));
            assert!(d.write && !d.weak);
        }
    }

    #[test]
    fn normalize_long_overlapping_clause_still_combines() {
        // Six entries where two overlap: the fast path must reject and the slow path combine.
        let mut deps: Vec<FootprintEntry> = (0..5)
            .map(|i| FootprintEntry::new(AccessType::In, r(i * 20, i * 20 + 10)))
            .collect();
        deps.push(FootprintEntry::new(AccessType::Out, r(5, 25)));
        normalize_deps(&mut deps);
        // [0,5) stays read-only; [5,25) combines into one write fragment (upgraded overlaps
        // coalesced with the write-only middle).
        assert!(deps.iter().any(|d| d.region == r(0, 5) && !d.write));
        assert!(deps.iter().any(|d| d.region == r(5, 25) && d.write));
        // Sorted output, no overlaps.
        for pair in deps.windows(2) {
            assert!(pair[0].region.end <= pair[1].region.start);
        }
    }

    #[test]
    fn normalize_drops_empty_regions() {
        let mut deps = vec![FootprintEntry::new(AccessType::InOut, r(5, 5))];
        normalize_deps(&mut deps);
        assert!(deps.is_empty());
    }

    #[test]
    fn weak_only_if_all_weak() {
        let mut deps = vec![
            FootprintEntry::new(AccessType::WeakIn, r(0, 10)),
            FootprintEntry::new(AccessType::WeakOut, r(0, 10)),
        ];
        normalize_deps(&mut deps);
        assert_eq!(deps, vec![entry(r(0, 10), true, true)]);
    }

    #[test]
    fn wait_mode_default_is_none() {
        assert_eq!(WaitMode::default(), WaitMode::None);
    }
}
