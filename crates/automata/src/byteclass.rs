//! Sets of bytes used as transition labels.
//!
//! A [`ByteClass`] is a subset of the 256 possible byte values, stored as a
//! 256-bit bitmap. Labelling NFA transitions with byte classes instead of
//! individual bytes keeps the machines built by the decision procedure small:
//! a character class such as `[0-9]` or `\S` is a single edge rather than
//! tens or hundreds of parallel edges. All set operations are O(1) in the
//! number of 64-bit words.

use std::fmt;

/// A set of byte values, used as the label of a non-epsilon NFA transition.
///
/// # Examples
///
/// ```
/// use dprle_automata::ByteClass;
///
/// let digits = ByteClass::range(b'0', b'9');
/// assert!(digits.contains(b'7'));
/// assert!(!digits.contains(b'a'));
/// assert_eq!(digits.len(), 10);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ByteClass {
    words: [u64; 4],
}

impl ByteClass {
    /// The empty set of bytes.
    pub const EMPTY: ByteClass = ByteClass { words: [0; 4] };

    /// The full alphabet Σ (all 256 byte values).
    pub const FULL: ByteClass = ByteClass {
        words: [u64::MAX; 4],
    };

    /// Creates an empty byte class.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// The four 64-bit words of the underlying 256-bit membership bitmap,
    /// low bytes first. A stable representation for hashing.
    pub fn words(&self) -> [u64; 4] {
        self.words
    }

    /// The class whose bitmap is `words` (the inverse of
    /// [`ByteClass::words`]).
    pub(crate) fn from_words(words: [u64; 4]) -> Self {
        ByteClass { words }
    }

    /// Creates the class containing exactly `b`.
    pub fn singleton(b: u8) -> Self {
        let mut c = Self::EMPTY;
        c.insert(b);
        c
    }

    /// Creates the class containing the inclusive range `lo..=hi`.
    ///
    /// An empty class is returned when `lo > hi`.
    pub fn range(lo: u8, hi: u8) -> Self {
        let mut c = Self::EMPTY;
        let mut b = lo;
        while b <= hi {
            c.insert(b);
            if b == u8::MAX {
                break;
            }
            b += 1;
        }
        c
    }

    /// Creates a class from an iterator of bytes.
    pub fn from_bytes<I: IntoIterator<Item = u8>>(bytes: I) -> Self {
        let mut c = Self::EMPTY;
        for b in bytes {
            c.insert(b);
        }
        c
    }

    /// Adds `b` to the class. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, b: u8) -> bool {
        let (w, bit) = (b as usize / 64, b as usize % 64);
        let fresh = self.words[w] & (1 << bit) == 0;
        self.words[w] |= 1 << bit;
        fresh
    }

    /// Removes `b` from the class. Returns `true` if it was present.
    pub fn remove(&mut self, b: u8) -> bool {
        let (w, bit) = (b as usize / 64, b as usize % 64);
        let present = self.words[w] & (1 << bit) != 0;
        self.words[w] &= !(1 << bit);
        present
    }

    /// Tests whether `b` is a member of the class.
    pub fn contains(&self, b: u8) -> bool {
        let (w, bit) = (b as usize / 64, b as usize % 64);
        self.words[w] & (1 << bit) != 0
    }

    /// The number of bytes in the class.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Tests whether the class is empty.
    pub fn is_empty(&self) -> bool {
        self.words == [0; 4]
    }

    /// Tests whether the class contains every byte value.
    pub fn is_full(&self) -> bool {
        self.words == [u64::MAX; 4]
    }

    /// Set union.
    pub fn union(&self, other: &ByteClass) -> ByteClass {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
        ByteClass { words }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &ByteClass) -> ByteClass {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words.iter()) {
            *w &= o;
        }
        ByteClass { words }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &ByteClass) -> ByteClass {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words.iter()) {
            *w &= !o;
        }
        ByteClass { words }
    }

    /// Set complement with respect to the full byte alphabet.
    pub fn complement(&self) -> ByteClass {
        let mut words = self.words;
        for w in words.iter_mut() {
            *w = !*w;
        }
        ByteClass { words }
    }

    /// Tests whether `self` and `other` share no bytes.
    pub fn is_disjoint(&self, other: &ByteClass) -> bool {
        self.intersect(other).is_empty()
    }

    /// Tests whether every byte of `self` is in `other`.
    pub fn is_subset(&self, other: &ByteClass) -> bool {
        self.difference(other).is_empty()
    }

    /// The smallest byte in the class, if any.
    ///
    /// Used to extract concrete witness strings from automata.
    pub fn min_byte(&self) -> Option<u8> {
        for (i, w) in self.words.iter().enumerate() {
            if *w != 0 {
                return Some((i * 64 + w.trailing_zeros() as usize) as u8);
            }
        }
        None
    }

    /// Prefers a printable ASCII representative, falling back to the smallest
    /// byte. Witness strings read better when they use printable bytes.
    pub fn pick_representative(&self) -> Option<u8> {
        // Prefer lowercase letters, then digits, then any printable, then any.
        for range in [(b'a', b'z'), (b'0', b'9'), (b' ', b'~')] {
            let printable = self.intersect(&ByteClass::range(range.0, range.1));
            if let Some(b) = printable.min_byte() {
                return Some(b);
            }
        }
        self.min_byte()
    }

    /// Iterates over the member bytes in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            class: self,
            next: 0,
            done: false,
        }
    }
}

/// Iterator over the bytes of a [`ByteClass`] in increasing order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    class: &'a ByteClass,
    next: u8,
    done: bool,
}

impl Iterator for Iter<'_> {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.done {
            return None;
        }
        loop {
            let b = self.next;
            if b == u8::MAX {
                self.done = true;
            } else {
                self.next = b + 1;
            }
            if self.class.contains(b) {
                return Some(b);
            }
            if self.done {
                return None;
            }
        }
    }
}

impl<'a> IntoIterator for &'a ByteClass {
    type Item = u8;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<u8> for ByteClass {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Self::from_bytes(iter)
    }
}

impl Extend<u8> for ByteClass {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        for b in iter {
            self.insert(b);
        }
    }
}

impl From<u8> for ByteClass {
    fn from(b: u8) -> Self {
        ByteClass::singleton(b)
    }
}

fn write_byte(f: &mut fmt::Formatter<'_>, b: u8) -> fmt::Result {
    match b {
        b'\\' => write!(f, "\\\\"),
        b'-' => write!(f, "\\-"),
        b']' => write!(f, "\\]"),
        b'\n' => write!(f, "\\n"),
        b'\r' => write!(f, "\\r"),
        b'\t' => write!(f, "\\t"),
        0x20..=0x7e => write!(f, "{}", b as char),
        _ => write!(f, "\\x{b:02x}"),
    }
}

impl fmt::Display for ByteClass {
    /// Renders the class in character-class syntax, e.g. `[0-9a-f]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_full() {
            return write!(f, ".");
        }
        if self.is_empty() {
            return write!(f, "[]");
        }
        if self.len() == 1 {
            return write_byte(f, self.min_byte().expect("nonempty"));
        }
        write!(f, "[")?;
        // Emit maximal runs as ranges.
        let mut run: Option<(u8, u8)> = None;
        let flush = |f: &mut fmt::Formatter<'_>, run: (u8, u8)| -> fmt::Result {
            let (lo, hi) = run;
            write_byte(f, lo)?;
            if hi > lo {
                if hi - lo > 1 {
                    write!(f, "-")?;
                }
                write_byte(f, hi)?;
            }
            Ok(())
        };
        for b in self.iter() {
            run = match run {
                Some((lo, hi)) if b == hi + 1 => Some((lo, b)),
                Some(r) => {
                    flush(f, r)?;
                    Some((b, b))
                }
                None => Some((b, b)),
            };
        }
        if let Some(r) = run {
            flush(f, r)?;
        }
        write!(f, "]")
    }
}

impl fmt::Debug for ByteClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteClass({self})")
    }
}

/// Computes the *minterms* of a collection of byte classes: the coarsest
/// partition of the alphabet such that every input class is a union of
/// partition blocks.
///
/// Determinization and minimization iterate over minterms instead of over all
/// 256 bytes, which keeps the effective alphabet proportional to the number
/// of distinct classes actually used by the machines.
///
/// Classes that are empty are ignored. The returned blocks are pairwise
/// disjoint, nonempty, and their union equals the union of the inputs.
pub fn minterms<'a, I: IntoIterator<Item = &'a ByteClass>>(classes: I) -> Vec<ByteClass> {
    let (mut blocks, mut spare) = (Vec::new(), Vec::new());
    for class in classes {
        refine_minterms(&mut blocks, &mut spare, class);
    }
    blocks
}

/// One step of [`minterms`]: splits every block of `blocks` into its parts
/// inside and outside `class` (inside first, empty parts dropped), then
/// appends what `class` covers beyond them. The refined partition is built
/// in `spare` and the two buffers swap, so refining a whole sequence of
/// classes reuses two allocations.
pub(crate) fn refine_minterms(
    blocks: &mut Vec<ByteClass>,
    spare: &mut Vec<ByteClass>,
    class: &ByteClass,
) {
    if class.is_empty() {
        return;
    }
    let mut rest = *class;
    spare.clear();
    for block in blocks.iter() {
        let inside = block.intersect(&rest);
        let outside = block.difference(&rest);
        if !inside.is_empty() {
            spare.push(inside);
        }
        if !outside.is_empty() {
            spare.push(outside);
        }
        rest = rest.difference(block);
    }
    if !rest.is_empty() {
        spare.push(rest);
    }
    std::mem::swap(blocks, spare);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        assert!(ByteClass::EMPTY.is_empty());
        assert!(ByteClass::FULL.is_full());
        assert_eq!(ByteClass::EMPTY.len(), 0);
        assert_eq!(ByteClass::FULL.len(), 256);
        assert_eq!(ByteClass::FULL.complement(), ByteClass::EMPTY);
        assert_eq!(ByteClass::new(), ByteClass::default());
    }

    #[test]
    fn singleton_and_range() {
        let c = ByteClass::singleton(b'x');
        assert!(c.contains(b'x'));
        assert_eq!(c.len(), 1);
        let r = ByteClass::range(b'a', b'f');
        assert_eq!(r.len(), 6);
        assert!(r.contains(b'c'));
        assert!(!r.contains(b'g'));
        assert!(ByteClass::range(b'z', b'a').is_empty());
        // Full-range edge case including 0xff.
        assert!(ByteClass::range(0, 255).is_full());
    }

    #[test]
    fn insert_remove() {
        let mut c = ByteClass::new();
        assert!(c.insert(7));
        assert!(!c.insert(7));
        assert!(c.remove(7));
        assert!(!c.remove(7));
        assert!(c.is_empty());
    }

    #[test]
    fn boolean_algebra() {
        let a = ByteClass::range(b'0', b'9');
        let b = ByteClass::range(b'5', b'z');
        assert_eq!(a.union(&b).len(), 10 + (b'z' - b'5' + 1) as usize - 5);
        assert_eq!(a.intersect(&b), ByteClass::range(b'5', b'9'));
        assert_eq!(a.difference(&b), ByteClass::range(b'0', b'4'));
        assert!(a.intersect(&b).is_subset(&a));
        assert!(a.intersect(&b).is_subset(&b));
        assert!(a.is_disjoint(&a.complement()));
        assert_eq!(a.union(&a.complement()), ByteClass::FULL);
    }

    #[test]
    fn iteration_order() {
        let c = ByteClass::from_bytes([b'z', b'a', b'm']);
        let v: Vec<u8> = c.iter().collect();
        assert_eq!(v, vec![b'a', b'm', b'z']);
        // Iterator must terminate when 0xff is a member.
        let edge = ByteClass::from_bytes([0u8, 255u8]);
        assert_eq!(edge.iter().collect::<Vec<_>>(), vec![0, 255]);
    }

    #[test]
    fn min_and_representative() {
        assert_eq!(ByteClass::EMPTY.min_byte(), None);
        let c = ByteClass::from_bytes([0x01, b'q']);
        assert_eq!(c.min_byte(), Some(0x01));
        assert_eq!(c.pick_representative(), Some(b'q'));
        let np = ByteClass::singleton(0x01);
        assert_eq!(np.pick_representative(), Some(0x01));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ByteClass::FULL.to_string(), ".");
        assert_eq!(ByteClass::EMPTY.to_string(), "[]");
        assert_eq!(ByteClass::singleton(b'a').to_string(), "a");
        assert_eq!(ByteClass::range(b'0', b'9').to_string(), "[0-9]");
        assert_eq!(ByteClass::from_bytes([b'a', b'b']).to_string(), "[ab]");
        assert_eq!(ByteClass::singleton(0).to_string(), "\\x00");
    }

    #[test]
    fn minterms_partition() {
        let a = ByteClass::range(b'0', b'9');
        let b = ByteClass::range(b'5', b'f');
        let blocks = minterms([&a, &b]);
        assert_eq!(blocks.len(), 3);
        let mut union = ByteClass::EMPTY;
        for (i, x) in blocks.iter().enumerate() {
            for y in blocks.iter().skip(i + 1) {
                assert!(x.is_disjoint(y));
            }
            // Every block is entirely inside or outside each input.
            for input in [&a, &b] {
                assert!(x.is_subset(input) || x.is_disjoint(input));
            }
            union = union.union(x);
        }
        assert_eq!(union, a.union(&b));
    }

    #[test]
    fn minterms_ignores_empty_and_dedups() {
        assert!(minterms([&ByteClass::EMPTY]).is_empty());
        let a = ByteClass::range(b'a', b'c');
        let blocks = minterms([&a, &a, &ByteClass::EMPTY]);
        assert_eq!(blocks, vec![a]);
    }
}
