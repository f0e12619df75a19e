//! The process-wide intern tables: one table for every repeated
//! observation text, and the same table shape for the crawl's repeated
//! label tuples.
//!
//! Observations quote a small, fixed vocabulary hundreds of thousands of
//! times per run: endpoint hosts ([`crate::Domain`]), ad-slot ids, bidder
//! and sync organizations, cookie values, crawled sites and creative
//! advertisers and products. [`Label::intern`] stores each distinct text
//! once and hands out a [`Label`]: a 4-byte id, so a packet's host is 4
//! bytes and copying a label is an integer copy. Equal text always interns
//! to the same id, so ids index dense per-label tables exactly.
//!
//! The crawl repeats whole tuples of labels, too: a bid's (bidder, slot)
//! pair and a sync event's (from, to, user id) triple. An [`InternTable`]
//! of any `Copy` value type does for those tuples what the text table does
//! for texts, so a bid carries one 4-byte key and a sync event is one
//! 4-byte id (`alexa_adtech::BidKey`, `alexa_adtech::SyncObservation`).
//!
//! **Order is by text.** Ids are handed out in first-interned order, which
//! is a scheduling accident, so nothing ordered may come from them: `Ord`
//! compares the texts, and a `BTreeMap` keyed by labels (or by a type
//! holding one, such as `Domain`) iterates in text order.
//!
//! **What bounds the tables.** Every table is append-only and never
//! frees. The text table holds only seed-independent vocabularies: the web
//! ecosystem interns every possible slot id of its ranked sites up front,
//! the ad server its whole creative catalogue, the org, cookie and host
//! labels are functions of fixed name lists and persona names. Texts that
//! differ from seed to seed (record values, transcripts) stay strings. A
//! tuple table holds only tuples of those labels, so it is bounded by the
//! product of its columns' vocabularies, and a run adds at most the
//! distinct tuples its crawl observes (840 bid keys and 5,278 sync triples
//! at seed 7; another seed adds the pairs of the slots only it loads).
//! Text id 0 is the empty text, so `Label::default()` prints as `""`.
//!
//! Reading a value by id takes no lock. The values live in chunks of
//! `OnceLock` slots that double in size (1024, 2048, … entries), so every
//! `u32` id has a slot and a lookup is two acquire loads. A slot is filled
//! before its id is handed out, under the intern lock.
//!
//! Interning allocates with the allocation meter paused. Which shard meets
//! a value first is a scheduling accident; charging the table's growth to
//! that shard's window would make the memory ledger differ across `--jobs`
//! values and across repeated runs in one process.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only intern table; it is never iterated, so no order reaches an output"
)]
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash};
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
type Ids<T> = HashMap<T, u32, BuildHasherDefault<DefaultHasher>>;

/// Entries in chunk 0; chunk `k` holds `FIRST_CHUNK << k`.
const FIRST_CHUNK: usize = 1 << FIRST_CHUNK_BITS;
const FIRST_CHUNK_BITS: u32 = 10;
/// Enough doubling chunks that every `u32` id has a slot.
const CHUNKS: usize = 33 - FIRST_CHUNK_BITS as usize;

type Chunk<T> = Box<[OnceLock<T>]>;

/// A process-wide, append-only table handing out dense `u32` ids for
/// values of `T`: equal values get one id for the life of the process, and
/// [`InternTable::get`] reads a value back without a lock.
///
/// Declare one as a `static` per value type and wrap its ids in a newtype
/// that resolves through it.
pub struct InternTable<T: 'static> {
    /// Value → id. Writers hold its lock while they fill a value slot.
    ids: RwLock<Ids<T>>,
    /// Id → value.
    values: [OnceLock<Chunk<T>>; CHUNKS],
    /// Capacity the first insert reserves, so a paper-scale run fills the
    /// table without rehashing.
    initial_capacity: usize,
    /// The value given id 0 before any other, if any.
    first: Option<T>,
}

/// The chunk holding `id`, and the slot within it. Chunk `k` starts at id
/// `FIRST_CHUNK · (2^k − 1)`.
fn locate(id: u32) -> (usize, usize) {
    let n = id as usize / FIRST_CHUNK + 1;
    let chunk = n.ilog2() as usize;
    (chunk, id as usize - FIRST_CHUNK * ((1 << chunk) - 1))
}

impl<T: Copy + Eq + Hash + Send + Sync + 'static> InternTable<T> {
    /// An empty table whose first insert reserves room for
    /// `initial_capacity` values and, when `first` is set, gives it id 0.
    pub const fn new(initial_capacity: usize, first: Option<T>) -> InternTable<T> {
        InternTable {
            ids: RwLock::new(Ids::with_hasher(BuildHasherDefault::new())),
            values: [const { OnceLock::new() }; CHUNKS],
            initial_capacity,
            first,
        }
    }

    /// The id of the value `key` stands for, storing `make(key)` under a
    /// fresh id the first time. `make` must return a value that borrows as
    /// `key` (so a text table can store a leaked copy of a borrowed `&str`).
    pub fn intern<Q>(&self, key: &Q, make: impl FnOnce(&Q) -> T) -> u32
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(&id) = self.ids.read().unwrap_or_else(|p| p.into_inner()).get(key) {
            return id;
        }
        let _unmetered = alexa_obs::alloc::pause();
        let mut ids = self.ids.write().unwrap_or_else(|p| p.into_inner());
        if ids.capacity() == 0 {
            ids.reserve(self.initial_capacity);
            if let Some(first) = self.first {
                self.insert(&mut ids, first);
            }
        }
        match ids.get(key) {
            Some(&id) => id,
            None => self.insert(&mut ids, make(key)),
        }
    }

    /// The value with id `id`, if one was interned. Takes no lock.
    pub fn get(&self, id: u32) -> Option<T> {
        let (chunk, slot) = locate(id);
        self.values
            .get(chunk)
            .and_then(OnceLock::get)
            .and_then(|slots| slots.get(slot))
            .and_then(OnceLock::get)
            .copied()
    }

    /// Number of distinct values interned so far: every id is below it.
    pub fn len(&self) -> usize {
        self.ids.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Give `value` the next id and fill its slot. The caller holds the
    /// write lock and has checked that `value` is new.
    fn insert(&self, ids: &mut Ids<T>, value: T) -> u32 {
        // The tables hold thousands of values; four billion would not fit
        // in memory, so the id space never runs out.
        let id = u32::try_from(ids.len()).unwrap_or(u32::MAX);
        let (chunk, slot) = locate(id);
        let cell = self.values.get(chunk).and_then(|cells| {
            cells
                .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect())
                .get(slot)
        });
        if let Some(cell) = cell {
            // The write lock is held and the id is fresh: the slot is empty.
            let _ = cell.set(value);
        }
        ids.insert(value, id);
        id
    }
}

/// Text → id and id → text for every [`Label`]. A paper-scale run interns
/// about 5.2k labels; reserving 4096 rounds up to room for 7,168, so the
/// table never rehashes while the first run fills it.
static TEXTS: InternTable<&'static str> = InternTable::new(4096, Some(""));

impl Label {
    /// The label for `text`: the same id for equal text, for the life of
    /// the process.
    pub fn intern(text: &str) -> Label {
        Label(TEXTS.intern(text, |t| Box::leak(t.into())))
    }

    /// The label's text. Takes no lock.
    pub fn as_str(self) -> &'static str {
        TEXTS.get(self.0).unwrap_or_default()
    }

    /// The dense id: every label ever interned is below [`Label::count`],
    /// so a table indexed by `id` and sized by [`Label::count`] covers
    /// every label.
    pub fn id(self) -> usize {
        self.0 as usize
    }

    /// Number of distinct labels interned so far.
    pub fn count() -> usize {
        TEXTS.len()
    }
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
    fn tuple_tables_hand_out_dense_ids_unmetered() {
        static PAIRS: InternTable<(Label, Label)> = InternTable::new(4, None);
        let pair = |a: &str, b: &str| (Label::intern(a), Label::intern(b));
        let (ab, ba) = (
            pair("label-test-a", "label-test-b"),
            pair("label-test-b", "label-test-a"),
        );
        assert!(PAIRS.is_empty());
        let mut ids = Vec::with_capacity(2_000);
        let before = alexa_obs::alloc::snapshot();
        let never = Label(u32::MAX);
        ids.extend((0..2_000).map(|i| PAIRS.intern(&(Label(i), never), |&p| p)));
        assert_eq!(
            alexa_obs::alloc::snapshot(),
            before,
            "two chunks, unmetered"
        );
        assert_eq!(ids, (0..2_000).collect::<Vec<u32>>(), "ids are dense");
        let first = PAIRS.intern(&ab, |&p| p);
        assert_eq!(PAIRS.intern(&ab, |&p| p), first);
        assert_ne!(PAIRS.intern(&ba, |&p| p), first);
        assert_eq!(PAIRS.get(first), Some(ab));
        assert_eq!(PAIRS.get(1_500), Some((Label(1_500), never)));
        assert_eq!(PAIRS.get(u32::MAX), None);
        assert_eq!(PAIRS.len(), 2_002);
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
