//! The crawl's process-wide label interner.
//!
//! Crawl records quote a small, fixed vocabulary — ad-slot ids, bidder and
//! sync organizations, cookie values — hundreds of thousands of times per
//! run. [`intern`] stores each distinct text once, as a leaked
//! `&'static str`, so copying a label into a bid or a sync event is a
//! pointer copy: no allocation, no reference count. Equal text always
//! resolves to the same address, which makes address-keyed memo maps over
//! labels exact.
//!
//! The table is append-only and never frees. Its size is bounded by the
//! vocabulary, which does not depend on the seed: the web ecosystem interns
//! every possible slot id of its ranked sites up front, and the org and
//! cookie labels are functions of fixed name lists and persona names.
//! Worker replies decoded by the `process` backend intern their labels too;
//! they come from this program's own workers and draw on the same vocabulary.
//!
//! Interning allocates with the allocation meter paused. Which shard meets
//! a label first is a scheduling accident; charging the table's growth to
//! that shard's window would make the memory ledger differ across `--jobs`
//! values and across repeated runs in one process.

use std::collections::hash_map::DefaultHasher;
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only intern table; it is never iterated, so no order reaches an output"
)]
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::RwLock;

#[expect(
    clippy::disallowed_types,
    reason = "lookup-only intern table; never iterated"
)]
type Table = HashSet<&'static str, BuildHasherDefault<DefaultHasher>>;

static LABELS: RwLock<Table> = RwLock::new(Table::with_hasher(BuildHasherDefault::new()));

/// Table capacity reserved by the first insert. A paper-scale run interns
/// about 4.4k labels, so the table never rehashes while the first run
/// fills it.
const INITIAL_CAPACITY: usize = 4096;

/// The interned copy of `text`: the same `&'static str` for equal text,
/// for the life of the process.
pub fn intern(text: &str) -> &'static str {
    if let Some(&label) = LABELS.read().unwrap_or_else(|p| p.into_inner()).get(text) {
        return label;
    }
    let _unmetered = alexa_obs::alloc::pause();
    let mut table = LABELS.write().unwrap_or_else(|p| p.into_inner());
    if let Some(&label) = table.get(text) {
        return label;
    }
    if table.capacity() == 0 {
        table.reserve(INITIAL_CAPACITY);
    }
    let label: &'static str = Box::leak(text.into());
    table.insert(label);
    label
}

/// Number of distinct labels interned so far.
pub fn len() -> usize {
    LABELS.read().unwrap_or_else(|p| p.into_inner()).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_text_interns_to_one_address() {
        let a = intern(&format!("label-test-{}", 1));
        let b = intern("label-test-1");
        assert_eq!(a, "label-test-1");
        assert!(std::ptr::eq(a, b));
        assert!(!std::ptr::eq(a, intern("label-test-2")));
    }

    #[test]
    fn interning_is_invisible_to_the_allocation_meter() {
        let text = format!("label-test-unmetered-{}", std::process::id());
        let before = alexa_obs::alloc::snapshot();
        let first = intern(&text);
        let again = intern(&text);
        assert_eq!(alexa_obs::alloc::snapshot(), before);
        assert!(std::ptr::eq(first, again));
        assert!(len() > 0);
    }
}
