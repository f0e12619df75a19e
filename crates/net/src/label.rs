//! The process-wide label interner: one table for every repeated
//! observation text.
//!
//! Observations quote a small, fixed vocabulary hundreds of thousands of
//! times per run: endpoint hosts ([`crate::Domain`]), ad-slot ids, bidder
//! and sync organizations, cookie values, crawled sites and creative
//! advertisers and products. [`Label::intern`] stores each distinct text
//! once and hands out a [`Label`]: a 4-byte id, so a bid carries two labels
//! in 8 bytes, a sync event three in 12 and a packet's host one in 4, and
//! copying a label is an integer copy. Equal text always interns to the
//! same id, so ids index dense per-label tables exactly.
//!
//! **Order is by text.** Ids are handed out in first-interned order, which
//! is a scheduling accident, so nothing ordered may come from them: `Ord`
//! compares the texts, and a `BTreeMap` keyed by labels (or by a type
//! holding one, such as `Domain`) iterates in text order.
//!
//! **Only seed-independent vocabularies go in.** The table is append-only
//! and never frees, and the vocabulary must not depend on the seed: the web
//! ecosystem interns every possible slot id of its ranked sites up front,
//! the ad server its whole creative catalogue, the org, cookie and host
//! labels are functions of fixed name lists and persona names. Texts that
//! differ from seed to seed (record values, transcripts) stay strings.
//! Id 0 is the empty text, so `Label::default()` prints as `""`.
//!
//! Reading a label's text takes no lock. The texts live in chunks of
//! `OnceLock` slots that double in size (1024, 2048, … entries), so every
//! `u32` id has a slot and a lookup is two acquire loads. A slot is filled
//! before its id is handed out, under the intern lock.
//!
//! Interning allocates with the allocation meter paused. Which shard meets
//! a label first is a scheduling accident; charging the table's growth to
//! that shard's window would make the memory ledger differ across `--jobs`
//! values and across repeated runs in one process.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only intern table; it is never iterated, so no order reaches an output"
)]
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::{OnceLock, RwLock};

/// An interned label: a dense id whose text is [`Label::as_str`].
///
/// `Debug` and `Display` print the text exactly as `&str` does, so a record
/// holding labels formats as if it held the strings. `Ord` compares the
/// texts, never the ids. The default label is the empty text.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Label(u32);

#[expect(
    clippy::disallowed_types,
    reason = "lookup-only intern table; never iterated"
)]
type Ids = HashMap<&'static str, Label, BuildHasherDefault<DefaultHasher>>;

/// Text → id. Writers hold its lock while they fill a text slot.
static IDS: RwLock<Ids> = RwLock::new(Ids::with_hasher(BuildHasherDefault::new()));

/// Entries in chunk 0; chunk `k` holds `FIRST_CHUNK << k`.
const FIRST_CHUNK: usize = 1 << FIRST_CHUNK_BITS;
const FIRST_CHUNK_BITS: u32 = 10;
/// Enough doubling chunks that every `u32` id has a slot.
const CHUNKS: usize = 33 - FIRST_CHUNK_BITS as usize;

type Chunk = Box<[OnceLock<&'static str>]>;

/// Id → text.
static TEXTS: [OnceLock<Chunk>; CHUNKS] = [const { OnceLock::new() }; CHUNKS];

/// Table capacity reserved by the first insert. A paper-scale run interns
/// about 5.2k labels; this reservation rounds up to room for 7,168, so the
/// table never rehashes while the first run fills it.
const INITIAL_CAPACITY: usize = 4096;

/// The chunk holding `id`, and the slot within it. Chunk `k` starts at id
/// `FIRST_CHUNK · (2^k − 1)`.
fn locate(id: u32) -> (usize, usize) {
    let n = id as usize / FIRST_CHUNK + 1;
    let chunk = n.ilog2() as usize;
    (chunk, id as usize - FIRST_CHUNK * ((1 << chunk) - 1))
}

impl Label {
    /// The label for `text`: the same id for equal text, for the life of
    /// the process.
    pub fn intern(text: &str) -> Label {
        if let Some(&label) = IDS.read().unwrap_or_else(|p| p.into_inner()).get(text) {
            return label;
        }
        let _unmetered = alexa_obs::alloc::pause();
        let mut ids = IDS.write().unwrap_or_else(|p| p.into_inner());
        if let Some(&label) = ids.get(text) {
            return label;
        }
        if ids.capacity() == 0 {
            ids.reserve(INITIAL_CAPACITY);
            insert(&mut ids, "");
            if text.is_empty() {
                return Label::default();
            }
        }
        insert(&mut ids, text)
    }

    /// The label's text. Takes no lock.
    pub fn as_str(self) -> &'static str {
        let (chunk, slot) = locate(self.0);
        TEXTS
            .get(chunk)
            .and_then(OnceLock::get)
            .and_then(|slots| slots.get(slot))
            .and_then(OnceLock::get)
            .copied()
            .unwrap_or_default()
    }

    /// The dense id: every label ever interned is below [`Label::count`],
    /// so a table indexed by `id` and sized by [`Label::count`] covers
    /// every label.
    pub fn id(self) -> usize {
        self.0 as usize
    }

    /// Number of distinct labels interned so far.
    pub fn count() -> usize {
        IDS.read().unwrap_or_else(|p| p.into_inner()).len()
    }
}

/// Give `text` the next id and fill its text slot. The caller holds the
/// write lock and has checked that `text` is new.
fn insert(ids: &mut Ids, text: &str) -> Label {
    // The vocabulary is a few thousand labels; four billion would not fit
    // in memory, so the id space never runs out.
    let label = Label(u32::try_from(ids.len()).unwrap_or(u32::MAX));
    let text: &'static str = Box::leak(text.into());
    let (chunk, slot) = locate(label.0);
    let cell = TEXTS.get(chunk).and_then(|cells| {
        cells
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect())
            .get(slot)
    });
    if let Some(cell) = cell {
        // The write lock is held and the id is fresh: the slot is empty.
        let _ = cell.set(text);
    }
    ids.insert(text, label);
    label
}

impl Ord for Label {
    fn cmp(&self, other: &Label) -> Ordering {
        if self.0 == other.0 {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Label) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_text_interns_to_one_id() {
        let a = Label::intern(&format!("label-test-{}", 1));
        let b = Label::intern("label-test-1");
        assert_eq!(a.as_str(), "label-test-1");
        assert_eq!(a, b);
        assert_ne!(a, Label::intern("label-test-2"));
        assert!(a.id() < Label::count());
    }

    #[test]
    fn interning_is_invisible_to_the_allocation_meter() {
        let text = "label-test-unmetered";
        let before = alexa_obs::alloc::snapshot();
        let first = Label::intern(text);
        let again = Label::intern(text);
        assert_eq!(alexa_obs::alloc::snapshot(), before);
        assert_eq!(first, again);
    }

    #[test]
    fn the_default_label_is_the_empty_text() {
        assert_eq!(Label::default().as_str(), "");
        assert_eq!(Label::intern(""), Label::default());
        assert_eq!(format!("{:?}", Label::default()), "\"\"");
    }

    #[test]
    fn chunks_tile_the_id_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        let (chunk, slot) = locate(u32::MAX);
        assert!(chunk < CHUNKS);
        assert!(slot < FIRST_CHUNK << chunk);
    }
}
