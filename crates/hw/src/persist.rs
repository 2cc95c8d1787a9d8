//! Session-state persistence primitives.
//!
//! The serve plane evicts idle predictor sessions to disk and restores
//! them transparently on the next frame (DESIGN.md §12). That requires
//! every piece of predictor state to round-trip through a byte codec
//! *exactly* — a restored session must continue bit-identically to one
//! that was never interrupted.
//!
//! This module provides the three building blocks:
//!
//! * [`StateSink`] / [`StateSource`] — a little-endian LEB128 varint
//!   codec (single-byte fast path below `0x80`, ten-byte maximum,
//!   zigzag for signed values). The format is deliberately
//!   wire-compatible with `ibp-trace`'s trace-v2 varints, but the code
//!   is independent: `ibp-hw` sits at the bottom of the crate graph and
//!   depends on nothing.
//! * [`Persist`] — the component contract: save, load, seal, resident
//!   bytes and storage rows. `load_state` restores into an
//!   *already-configured* instance (same geometry as the saved one);
//!   configuration is carried by the enclosing container, not the blob.
//! * [`StateVisitor`] / [`StateVisitorMut`] — the walks (save, load,
//!   seal, resident bytes, storage report) over the components a
//!   predictor declares once, each named by a [`Part`].
//! * [`SparseDelta`] — the copy-on-write overlay map used by sealed
//!   tables: a small open-addressing map from slot index to
//!   `Option<T>` (`None` records an invalidation that shadows the
//!   shared base tier).

use crate::bitspec::{ComponentClass, StorageReport};
use std::fmt;

/// Longest legal varint: 10 bytes covers all 64 bits.
const MAX_VARINT_BYTES: usize = 10;

/// Why a state blob failed to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistError {
    /// The blob ended mid-value.
    Truncated,
    /// A varint ran past 10 bytes or overflowed 64 bits.
    BadVarint,
    /// A value was syntactically fine but semantically impossible
    /// (e.g. a 2-bit counter above 3).
    Corrupt(&'static str),
    /// The blob was saved from a differently-configured instance.
    Mismatch(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "state blob truncated"),
            PersistError::BadVarint => write!(f, "malformed varint in state blob"),
            PersistError::Corrupt(what) => write!(f, "corrupt state blob: {what}"),
            PersistError::Mismatch(what) => write!(f, "state blob configuration mismatch: {what}"),
        }
    }
}

/// Serializer half of the persist codec: appends to a caller-owned
/// buffer so nested blobs compose without copies.
pub struct StateSink<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> StateSink<'a> {
    /// Wraps a buffer; written values append to it.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self { out }
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.out.push(u8::from(v));
    }

    /// Writes an unsigned LEB128 varint.
    pub fn u64(&mut self, mut v: u64) {
        // Single-byte fast path: the overwhelmingly common case for
        // counters, slot indices, and small lengths.
        if v < 0x80 {
            self.out.push(v as u8);
            return;
        }
        while v >= 0x80 {
            self.out.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.out.push(v as u8);
    }

    /// Writes a `usize` as a varint.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a `u32` as a varint.
    pub fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    /// Writes a signed value zigzag-encoded.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.out.extend_from_slice(b);
    }

    /// Bytes written so far (including any the buffer held before).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// Deserializer half: a cursor over a saved blob.
pub struct StateSource<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateSource<'a> {
    /// Wraps a blob; reads advance a cursor from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the cursor has consumed the whole blob.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        let b = *self.buf.get(self.pos).ok_or(PersistError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a bool; anything but 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Corrupt("bool out of range")),
        }
    }

    /// Reads an unsigned LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let first = self.u8()?;
        if first < 0x80 {
            return Ok(u64::from(first));
        }
        let mut v = u64::from(first & 0x7F);
        let mut shift = 7u32;
        for _ in 1..MAX_VARINT_BYTES {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                // Tenth byte may only contribute the final bit.
                return Err(PersistError::BadVarint);
            }
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
        }
        Err(PersistError::BadVarint)
    }

    /// Reads a varint as `usize`.
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt("usize overflow"))
    }

    /// Reads a varint as `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        u32::try_from(self.u64()?).map_err(|_| PersistError::Corrupt("u32 out of range"))
    }

    /// Reads a zigzag-encoded signed value.
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a length-prefixed byte string, borrowing from the blob.
    // ibp-lint: allow(L007, "slice bounds are checked against remaining() just above")
    pub fn bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let len = self.usize()?;
        if self.remaining() < len {
            return Err(PersistError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Reads a varint and requires it to equal `want` — the standard
    /// guard for geometry fields (table length, history depth) that
    /// must match the instance being restored into.
    pub fn expect_u64(&mut self, want: u64, what: &'static str) -> Result<(), PersistError> {
        if self.u64()? == want {
            Ok(())
        } else {
            Err(PersistError::Mismatch(what))
        }
    }
}

/// The contract of one predictor component: a table, a register, a
/// counter.
///
/// `save_state` must emit a deterministic, canonical byte sequence (two
/// equal states produce equal bytes); `load_state` restores into an
/// instance that was constructed with the *same configuration* as the
/// saved one, and fails with [`PersistError::Mismatch`] otherwise.
pub trait Persist {
    /// Appends this value's dynamic state to `out`.
    fn save_state(&self, out: &mut StateSink<'_>);

    /// Restores dynamic state previously written by
    /// [`save_state`](Self::save_state).
    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError>;

    /// Freezes the contents into an `Arc`-shared base tier with a
    /// copy-on-write overlay; behaviour must not change.
    fn seal(&mut self) {}

    /// Heap bytes this instance pays for (only the overlay once sealed).
    fn resident_bytes(&self) -> usize {
        0
    }

    /// Appends the storage rows `part` declares, counted from the live
    /// allocation (one field per row for a register).
    fn report_rows(&self, part: Part<'_>, r: &mut StorageReport) {
        part.emit_rows(1, r);
    }
}

/// One declared storage row of a component: `width` bits per field of
/// one class, named `suffix`. A zero width declares no row (a field this
/// configuration leaves out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub class: ComponentClass,
    pub width: u64,
    pub suffix: &'static str,
}

/// How a predictor names one declared component: a static name, an
/// optional index within its family (`T3`, `o7`) and its storage rows.
/// Nothing here allocates; only [`emit_rows`](Self::emit_rows) formats
/// full names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Part<'a> {
    pub name: &'static str,
    pub index: Option<usize>,
    pub rows: &'a [Row],
}

impl Part<'_> {
    /// A part with no name and no rows: state that occupies no storage
    /// (telemetry, configuration guards).
    pub const BARE: Part<'static> = Part {
        name: "",
        index: None,
        rows: &[],
    };

    /// Appends one storage row per declared non-zero-width row, each of
    /// `count` fields, named `name[index][.suffix]`.
    pub fn emit_rows(&self, count: u64, r: &mut StorageReport) {
        for row in self.rows.iter().filter(|row| row.width > 0) {
            let index = self.index.map(|i| i.to_string()).unwrap_or_default();
            let dot = if row.suffix.is_empty() { "" } else { "." };
            let name = format!("{}{index}{dot}{}", self.name, row.suffix);
            r.table(&name, row.class, count, row.width);
        }
    }
}

/// A walk over declared components by shared reference: saving,
/// resident bytes and the storage report. Any
/// `FnMut(Part, &dyn Persist)` closure is one.
pub trait StateVisitor {
    /// Visits one declared component.
    fn visit_part(&mut self, part: Part<'_>, component: &dyn Persist);
}

impl<F: FnMut(Part<'_>, &dyn Persist)> StateVisitor for F {
    fn visit_part(&mut self, part: Part<'_>, component: &dyn Persist) {
        self(part, component);
    }
}

/// A walk over declared components by mutable reference: loading and
/// sealing. Any `FnMut(Part, &mut dyn Persist)` closure is one.
pub trait StateVisitorMut {
    /// Visits one declared component.
    fn visit_part_mut(&mut self, part: Part<'_>, component: &mut dyn Persist);

    /// A check across the components visited so far. Only
    /// [`LoadVisitor`] acts on it: a blob that breaks it is corrupt.
    fn reject_unless(&mut self, holds: bool, what: &'static str) {
        let _ = (holds, what);
    }
}

impl<F: FnMut(Part<'_>, &mut dyn Persist)> StateVisitorMut for F {
    fn visit_part_mut(&mut self, part: Part<'_>, component: &mut dyn Persist) {
        self(part, component);
    }
}

/// Loads each component in declaration order, stopping at the first
/// error.
pub struct LoadVisitor<'s, 'a> {
    src: &'s mut StateSource<'a>,
    result: Result<(), PersistError>,
}

impl<'s, 'a> LoadVisitor<'s, 'a> {
    /// Loads from `src`.
    pub fn new(src: &'s mut StateSource<'a>) -> Self {
        Self {
            src,
            result: Ok(()),
        }
    }

    /// The first error the walk met, if any.
    pub fn finish(self) -> Result<(), PersistError> {
        self.result
    }
}

impl StateVisitorMut for LoadVisitor<'_, '_> {
    fn visit_part_mut(&mut self, _part: Part<'_>, component: &mut dyn Persist) {
        if self.result.is_ok() {
            self.result = component.load_state(self.src);
        }
    }

    fn reject_unless(&mut self, holds: bool, what: &'static str) {
        if self.result.is_ok() && !holds {
            self.result = Err(PersistError::Corrupt(what));
        }
    }
}

/// A configuration value a declaration writes into the blob and requires
/// to match on load (else [`PersistError::Mismatch`] naming the second
/// field): the geometry guard that keeps a blob out of a
/// differently-configured instance.
#[derive(Debug, Clone, Copy)]
pub struct Guard(pub u64, pub &'static str);

impl Persist for Guard {
    fn save_state(&self, out: &mut StateSink<'_>) {
        out.u64(self.0);
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        src.expect_u64(self.0, self.1)
    }
}

/// Scalars (counters, PRNG state, table payloads) persist as one varint.
macro_rules! persist_scalar {
    ($($t:ident),*) => {$(
        impl Persist for $t {
            fn save_state(&self, out: &mut StateSink<'_>) {
                out.$t(*self);
            }

            fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
                *self = src.$t()?;
                Ok(())
            }
        }

        impl PersistElem for $t {
            fn save_elem(&self, out: &mut StateSink<'_>) {
                out.$t(*self);
            }

            fn load_elem(src: &mut StateSource<'_>) -> Result<Self, PersistError> {
                src.$t()
            }
        }
    )*};
}

persist_scalar!(u64, u32);

/// A history of full values (an idealized model's exact path), oldest
/// first.
impl Persist for std::collections::VecDeque<u64> {
    fn save_state(&self, out: &mut StateSink<'_>) {
        out.usize(self.len());
        for &v in self.iter() {
            out.u64(v);
        }
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        self.clear();
        for _ in 0..src.usize()? {
            self.push_back(src.u64()?);
        }
        Ok(())
    }
}

/// Writes the occupied slots of a sparse table: their count, then each
/// slot's absolute index (ascending) and entry.
pub fn save_sparse<E>(
    slots: &[Option<E>],
    out: &mut StateSink<'_>,
    mut save: impl FnMut(&E, &mut StateSink<'_>),
) {
    out.usize(slots.iter().filter(|e| e.is_some()).count());
    for (idx, entry) in slots.iter().enumerate() {
        if let Some(e) = entry {
            out.usize(idx);
            save(e, out);
        }
    }
}

/// Reads a table written by [`save_sparse`] into `slots`, which keeps
/// its length. Slot indices must ascend strictly and stay in range.
pub fn load_sparse<E>(
    slots: &mut [Option<E>],
    src: &mut StateSource<'_>,
    mut load: impl FnMut(&mut StateSource<'_>) -> Result<E, PersistError>,
) -> Result<(), PersistError> {
    slots.iter_mut().for_each(|e| *e = None);
    let mut prev: Option<usize> = None;
    for _ in 0..src.usize()? {
        let idx = src.usize()?;
        if prev.is_some_and(|p| idx <= p) {
            return Err(PersistError::Corrupt("sparse slot out of order"));
        }
        prev = Some(idx);
        let slot = slots
            .get_mut(idx)
            .ok_or(PersistError::Corrupt("sparse slot out of range"))?;
        *slot = Some(load(src)?);
    }
    Ok(())
}

/// A dense table of optional entries, persisted sparsely: only occupied
/// slots are written. Never sealed: the tables stored this way mutate
/// on nearly every update, so an overlay would converge to a full copy.
impl<E: PersistElem> Persist for Vec<Option<E>> {
    fn save_state(&self, out: &mut StateSink<'_>) {
        save_sparse(self, out, E::save_elem);
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        load_sparse(self, src, E::load_elem)
    }

    fn resident_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<Option<E>>()
    }

    fn report_rows(&self, part: Part<'_>, r: &mut StorageReport) {
        part.emit_rows(self.len() as u64, r);
    }
}

/// A table element that knows how to serialize itself, letting generic
/// containers ([`DirectMapped`](crate::DirectMapped),
/// [`SetAssociative`](crate::SetAssociative)) persist their payloads.
pub trait PersistElem: Sized {
    /// Appends this element to `out`.
    fn save_elem(&self, out: &mut StateSink<'_>);

    /// Reads one element.
    fn load_elem(src: &mut StateSource<'_>) -> Result<Self, PersistError>;
}

/// Vacant-slot sentinel: slot indices are table positions, which are
/// bounded far below `u32::MAX` (the largest table is `2^20` entries).
const VACANT: u32 = u32::MAX;

/// A small open-addressing map from table slot index to `Option<T>`,
/// used as the copy-on-write overlay over a shared base tier.
///
/// A present key *shadows* the base slot entirely: `Some(v)` overrides
/// it with `v`, `None` records an invalidation. Linear probing over a
/// power-of-two array with the same SplitMix64 finalizer as
/// `ibp-exec`'s `FastMap`; no deletions are needed (an overlay only
/// accretes), which keeps probing tombstone-free.
#[derive(Debug, Clone)]
pub struct SparseDelta<T> {
    /// Slot keys; `VACANT` marks an empty probe slot.
    keys: Vec<u32>,
    vals: Vec<Option<T>>,
    len: usize,
    mask: usize,
}

impl<T> Default for SparseDelta<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SparseDelta<T> {
    /// Creates an empty overlay (no allocation until first write).
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
            mask: 0,
        }
    }

    /// Number of overlaid slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is overlaid.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes held by the overlay (the per-session marginal cost of
    /// a sealed table).
    pub fn resident_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<Option<T>>()
    }

    #[inline]
    fn hash(key: u32) -> u64 {
        // SplitMix64 finalizer: full avalanche so the masked low bits
        // depend on every key bit.
        let mut h = u64::from(key);
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    /// The overlay entry for `key`: `None` = not overlaid,
    /// `Some(None)` = invalidated, `Some(Some(v))` = overridden.
    #[inline]
    // ibp-lint: allow(L007, "probe cursor is masked by the power-of-two capacity")
    pub fn get(&self, key: u32) -> Option<&Option<T>> {
        if self.len == 0 {
            return None;
        }
        let mut i = (Self::hash(key) as usize) & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(&self.vals[i]);
            }
            if k == VACANT {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Returns a mutable reference to the overlay entry for `key`,
    /// inserting `default()` first when the key is not yet overlaid —
    /// the copy-on-write materialization step.
    // ibp-lint: allow(L007, "delta words were recorded against this table's own length")
    pub fn materialize_with(&mut self, key: u32, default: impl FnOnce() -> Option<T>) -> &mut Option<T> {
        debug_assert_ne!(key, VACANT, "slot index out of range");
        if self.keys.is_empty() || self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mut i = (Self::hash(key) as usize) & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return &mut self.vals[i];
            }
            if k == VACANT {
                self.keys[i] = key;
                self.vals[i] = default();
                self.len += 1;
                return &mut self.vals[i];
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Overlays `key` with `value`, replacing any existing overlay
    /// entry and returning it.
    pub fn set(&mut self, key: u32, value: Option<T>) -> Option<Option<T>> {
        let slot = self.materialize_with(key, || None);
        // Distinguish "freshly materialized" from "replaced": the
        // caller-visible contract only needs the old overlay value, and
        // a fresh materialization starts as None, so a plain replace is
        // correct for both.
        Some(std::mem::replace(slot, value))
    }

    /// Iterates `(slot, overlay entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Option<T>)> {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(k, _)| **k != VACANT)
            .map(|(k, v)| (*k, v))
    }

    // ibp-lint: allow(L007, "copy loop is bounded by the old length, <= the new length")
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(8);
        // ibp-lint: allow(L008, "episodic table resize: amortized and absent at steady state")
        let old_keys = std::mem::replace(&mut self.keys, vec![VACANT; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, {
            // ibp-lint: allow(L008, "episodic table resize: amortized and absent at steady state")
            let mut v = Vec::with_capacity(new_cap);
            v.resize_with(new_cap, || None);
            v
        });
        self.mask = new_cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k == VACANT {
                continue;
            }
            let mut i = (Self::hash(k) as usize) & self.mask;
            while self.keys[i] != VACANT {
                i = (i + 1) & self.mask;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_u64(values: &[u64]) {
        let mut buf = Vec::new();
        let mut sink = StateSink::new(&mut buf);
        for &v in values {
            sink.u64(v);
        }
        let mut src = StateSource::new(&buf);
        for &v in values {
            assert_eq!(src.u64().unwrap(), v);
        }
        assert!(src.is_exhausted());
    }

    #[test]
    fn varint_round_trips_edge_values() {
        round_trip_u64(&[
            0,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ]);
    }

    #[test]
    fn varint_single_byte_fast_path() {
        let mut buf = Vec::new();
        StateSink::new(&mut buf).u64(0x7F);
        assert_eq!(buf, vec![0x7F]);
        buf.clear();
        StateSink::new(&mut buf).u64(0x80);
        assert_eq!(buf, vec![0x80, 0x01]);
    }

    #[test]
    fn varint_rejects_overlong_and_overflow() {
        // Eleven continuation bytes: too long.
        let bad = [0x80u8; 11];
        assert_eq!(StateSource::new(&bad).u64(), Err(PersistError::BadVarint));
        // Tenth byte with more than the final bit set: overflow.
        let mut overflow = vec![0xFFu8; 9];
        overflow.push(0x02);
        assert_eq!(
            StateSource::new(&overflow).u64(),
            Err(PersistError::BadVarint)
        );
        // u64::MAX itself is fine (tenth byte == 1).
        let mut buf = Vec::new();
        StateSink::new(&mut buf).u64(u64::MAX);
        assert_eq!(buf.len(), 10);
        assert_eq!(StateSource::new(&buf).u64(), Ok(u64::MAX));
    }

    #[test]
    fn signed_zigzag_round_trips() {
        let mut buf = Vec::new();
        let mut sink = StateSink::new(&mut buf);
        let values = [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789];
        for &v in &values {
            sink.i64(v);
        }
        let mut src = StateSource::new(&buf);
        for &v in &values {
            assert_eq!(src.i64().unwrap(), v);
        }
    }

    #[test]
    fn bytes_and_bools_round_trip() {
        let mut buf = Vec::new();
        let mut sink = StateSink::new(&mut buf);
        sink.bool(true);
        sink.bytes(b"delta");
        sink.bool(false);
        sink.bytes(b"");
        let mut src = StateSource::new(&buf);
        assert!(src.bool().unwrap());
        assert_eq!(src.bytes().unwrap(), b"delta");
        assert!(!src.bool().unwrap());
        assert_eq!(src.bytes().unwrap(), b"");
        assert!(src.is_exhausted());
    }

    #[test]
    fn truncated_reads_error() {
        let mut buf = Vec::new();
        StateSink::new(&mut buf).bytes(b"abcdef");
        let cut = &buf[..buf.len() - 2];
        assert_eq!(StateSource::new(cut).bytes(), Err(PersistError::Truncated));
        assert_eq!(StateSource::new(&[]).u8(), Err(PersistError::Truncated));
    }

    #[test]
    fn expect_u64_guards_geometry() {
        let mut buf = Vec::new();
        StateSink::new(&mut buf).u64(2046);
        assert!(StateSource::new(&buf).expect_u64(2046, "len").is_ok());
        assert_eq!(
            StateSource::new(&buf).expect_u64(2048, "len"),
            Err(PersistError::Mismatch("len"))
        );
    }

    #[test]
    fn sparse_delta_overlay_semantics() {
        let mut d: SparseDelta<u64> = SparseDelta::new();
        assert!(d.is_empty());
        assert!(d.get(3).is_none());
        d.set(3, Some(30));
        d.set(7, None); // invalidation overlay
        assert_eq!(d.get(3), Some(&Some(30)));
        assert_eq!(d.get(7), Some(&None));
        assert!(d.get(5).is_none());
        assert_eq!(d.len(), 2);
        // Replace keeps len stable.
        d.set(3, Some(31));
        assert_eq!(d.get(3), Some(&Some(31)));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn sparse_delta_materialize_copies_once() {
        let mut d: SparseDelta<u64> = SparseDelta::new();
        let v = d.materialize_with(9, || Some(99));
        assert_eq!(*v, Some(99));
        *v = Some(100);
        // Second materialization sees the overlay, not the default.
        assert_eq!(*d.materialize_with(9, || Some(1)), Some(100));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn sparse_delta_survives_growth() {
        let mut d: SparseDelta<u64> = SparseDelta::new();
        for k in 0..1000u32 {
            d.set(k, Some(u64::from(k) * 3));
        }
        assert_eq!(d.len(), 1000);
        for k in 0..1000u32 {
            assert_eq!(d.get(k), Some(&Some(u64::from(k) * 3)), "key {k}");
        }
        let mut seen: Vec<u32> = d.iter().map(|(k, _)| k).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
        assert!(d.resident_bytes() > 0);
    }
}
