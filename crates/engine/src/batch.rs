//! Flat row batches: the in-stage intermediate representation.
//!
//! Inside a stage every operator output is a [`Batch`]: one `Vec<Value>`
//! holding equal-width rows back to back, plus the width and the row
//! count (kept separately so zero-width rows still count). Kernels append
//! to it instead of allocating one [`Row`] per tuple. [`Row`]s appear only
//! at a stage's boundary: base-table partitions and store segments come
//! in as `&[Row]` (an [`Input::Rows`]), and the coordinator turns the
//! stage root's batch into rows once, for the store or the query result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ftpde_store::value::{Row, Value};

/// Equal-width rows stored row-major in one flat buffer.
///
/// An empty batch's width is only advisory (a scan of an empty partition
/// cannot know it); every row of a non-empty batch has exactly
/// [`Batch::width`] values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    values: Vec<Value>,
    width: usize,
    len: usize,
}

impl Batch {
    /// An empty batch of `width`-value rows.
    pub(crate) fn new(width: usize) -> Self {
        Batch { values: Vec::new(), width, len: 0 }
    }

    /// An empty batch with room for `rows` rows.
    pub(crate) fn with_capacity(width: usize, rows: usize) -> Self {
        Batch { values: Vec::with_capacity(width * rows), width, len: 0 }
    }

    /// Copies `rows` into a batch (mainly for tests and callers holding
    /// rows; the engine itself never converts in this direction).
    pub fn from_rows(rows: &[Row]) -> Self {
        let mut batch = Batch::with_capacity(Input::Rows(rows).width(), rows.len());
        for r in rows {
            batch.push(r);
        }
        batch
    }

    /// Values per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    /// The rows in order.
    pub fn rows(&self) -> RowIter<'_> {
        RowIter::Flat { values: &self.values, width: self.width, left: self.len }
    }

    /// Appends one row.
    pub(crate) fn push(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.width, "row width");
        self.values.extend_from_slice(row);
        self.len += 1;
    }

    /// Appends `left ++ right` if `keep` accepts the concatenated row:
    /// the row is built in place and truncated away on reject, so a
    /// rejected candidate costs no allocation.
    pub(crate) fn push_concat_if(
        &mut self,
        left: &[Value],
        right: &[Value],
        keep: impl FnOnce(&[Value]) -> bool,
    ) {
        debug_assert_eq!(left.len() + right.len(), self.width, "row width");
        let start = self.values.len();
        self.values.extend_from_slice(left);
        self.values.extend_from_slice(right);
        if keep(&self.values[start..]) {
            self.len += 1;
        } else {
            self.values.truncate(start);
        }
    }

    /// Appends one row assembled from an iterator of exactly
    /// [`Batch::width`] values.
    pub(crate) fn push_iter(&mut self, row: impl IntoIterator<Item = Value>) {
        let start = self.values.len();
        self.values.extend(row);
        debug_assert_eq!(self.values.len() - start, self.width, "row width");
        self.len += 1;
    }

    /// Converts the batch into boundary rows, one allocation per row.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows().map(Row::from).collect()
    }
}

/// An operator input: an in-stage [`Batch`] or boundary rows (a base-table
/// partition or a store segment).
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// The output of an operator of the same stage.
    Batch(&'a Batch),
    /// Rows from the catalog or the fault-tolerant store.
    Rows(&'a [Row]),
}

impl<'a> Input<'a> {
    /// Number of rows.
    pub fn len(self) -> usize {
        match self {
            Input::Batch(b) => b.len(),
            Input::Rows(r) => r.len(),
        }
    }

    /// `true` iff the input holds no rows.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Values per row (0 for an empty row slice, see [`Batch`]).
    pub fn width(self) -> usize {
        match self {
            Input::Batch(b) => b.width(),
            Input::Rows(r) => r.first().map_or(0, |r| r.len()),
        }
    }

    /// The `i`-th row.
    pub fn row(self, i: usize) -> &'a [Value] {
        match self {
            Input::Batch(b) => b.row(i),
            Input::Rows(r) => &r[i],
        }
    }

    /// The rows in order.
    pub fn rows(self) -> RowIter<'a> {
        match self {
            Input::Batch(b) => b.rows(),
            Input::Rows(r) => RowIter::Boxed(r.iter()),
        }
    }
}

/// Iterator over the rows of an [`Input`].
#[derive(Debug, Clone)]
pub enum RowIter<'a> {
    /// Rows of a flat batch.
    Flat {
        /// The values not yet yielded.
        values: &'a [Value],
        /// Values per row.
        width: usize,
        /// Rows not yet yielded.
        left: usize,
    },
    /// Boundary rows.
    Boxed(std::slice::Iter<'a, Row>),
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        match self {
            RowIter::Flat { values, width, left } => {
                if *left == 0 {
                    return None;
                }
                *left -= 1;
                let (row, rest) = values.split_at(*width);
                *values = rest;
                Some(row)
            }
            RowIter::Boxed(it) => it.next().map(|r| &**r),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            RowIter::Flat { left, .. } => *left,
            RowIter::Boxed(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// A multiplicative hasher for the integer keys of the join and
/// aggregation tables: one rotate, xor and multiply per 8-byte word
/// instead of SipHash's rounds. Keys are engine data, not attacker input,
/// so DoS resistance buys nothing here. `finish` rotates the well-mixed
/// high bits of the product down to where the table takes its bucket
/// index from.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl IntHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(Self::K);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A hash map keyed by integers (or integer slices) under [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use ftpde_store::value::int_row;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn rows_round_trip_through_a_batch() {
        let rows = vec![int_row(&[1, 2]), int_row(&[3, 4]), int_row(&[5, 6])];
        let batch = Batch::from_rows(&rows);
        assert_eq!((batch.len(), batch.width()), (3, 2));
        assert_eq!(batch.row(1), &[Value::Int(3), Value::Int(4)][..]);
        assert_eq!(batch.rows().len(), 3);
        assert_eq!(batch.into_rows(), rows);
    }

    #[test]
    fn zero_width_rows_keep_their_count() {
        let rows: Vec<Row> = vec![int_row(&[]); 5];
        let batch = Batch::from_rows(&rows);
        assert_eq!((batch.len(), batch.width()), (5, 0));
        assert!(batch.rows().all(<[Value]>::is_empty));
        assert_eq!(batch.rows().count(), 5);
        assert_eq!(batch.into_rows(), rows);
        assert_eq!(Input::Rows(&rows).rows().count(), 5);
    }

    #[test]
    fn rejected_concatenation_leaves_no_trace() {
        let mut batch = Batch::new(3);
        batch.push_concat_if(&[Value::Int(1)], &[Value::Int(2), Value::Int(3)], |r| {
            r[2] == Value::Int(3)
        });
        batch.push_concat_if(&[Value::Int(4)], &[Value::Int(5), Value::Int(6)], |_| false);
        assert_eq!(batch.into_rows(), vec![int_row(&[1, 2, 3])]);
    }

    #[test]
    fn int_hasher_agrees_between_owned_and_borrowed_keys() {
        let build = BuildHasherDefault::<IntHasher>::default();
        let hash = |k: &dyn Fn(&mut IntHasher)| {
            let mut h = build.build_hasher();
            k(&mut h);
            h.finish()
        };
        let owned = vec![3i64, -7, 1 << 40];
        assert_eq!(hash(&|h| owned.hash(h)), hash(&|h| owned[..].hash(h)));
        assert_ne!(hash(&|h| 1i64.hash(h)), hash(&|h| 2i64.hash(h)));
    }
}
