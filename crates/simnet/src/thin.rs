//! [`ThinVec`]: a growable vector one pointer wide.

use std::fmt;
use std::ops::Deref;

/// A `Vec` that takes one pointer inline instead of three: null while
/// empty, else a boxed `Vec`.
///
/// Message fields that are usually short and travel hop to hop — a walk's
/// visited set and frontier, its candidate slots — are stored in every
/// pending event of the simulator and every frame of a daemon's loopback
/// queue, so their inline width is paid per message in flight. The extra
/// indirection is paid only by a non-empty vector, and moving one moves a
/// pointer: nothing is reallocated from hop to hop.
///
/// ```
/// use simnet::ThinVec;
/// assert_eq!(std::mem::size_of::<ThinVec<u32>>(), 8);
/// let mut v: ThinVec<u32> = (1..=3).collect();
/// v.push(4);
/// assert_eq!(v.pop(), Some(4));
/// assert!(v.contains(&2));
/// assert_eq!(v.into_vec(), vec![1, 2, 3]);
/// ```
#[derive(Clone)]
// The extra box is the point: it is what makes the inline part one pointer.
#[allow(clippy::box_collection)]
pub struct ThinVec<T>(Option<Box<Vec<T>>>);

impl<T> ThinVec<T> {
    /// An empty vector; allocates nothing.
    pub const fn new() -> Self {
        ThinVec(None)
    }

    /// Appends `value`, allocating the box on the first push.
    pub fn push(&mut self, value: T) {
        self.0.get_or_insert_with(Box::default).push(value);
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        self.0.as_mut()?.pop()
    }

    /// Keeps only the elements `keep` holds to.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        if let Some(v) = self.0.as_mut() {
            v.retain(keep);
        }
    }

    /// The elements as an owned `Vec`, without copying them.
    pub fn into_vec(self) -> Vec<T> {
        self.0.map(|b| *b).unwrap_or_default()
    }
}

impl<T> Default for ThinVec<T> {
    fn default() -> Self {
        ThinVec::new()
    }
}

impl<T> Deref for ThinVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }
}

/// Equal when the elements are: a vector emptied by `pop` keeps its box
/// but equals a new one.
impl<T: PartialEq> PartialEq for ThinVec<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T> From<Vec<T>> for ThinVec<T> {
    fn from(v: Vec<T>) -> Self {
        ThinVec((!v.is_empty()).then(|| Box::new(v)))
    }
}

impl<T> FromIterator<T> for ThinVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<T>>().into()
    }
}

impl<T: fmt::Debug> fmt::Debug for ThinVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_vector_reads_as_empty() {
        let mut v: ThinVec<u64> = ThinVec::new();
        assert!(v.is_empty());
        assert_eq!(v.pop(), None);
        assert_eq!(&v[..], &[] as &[u64]);
        assert_eq!(ThinVec::from(Vec::<u64>::new()), v);
        assert_eq!(v.into_vec(), Vec::<u64>::new());
    }

    #[test]
    fn behaves_as_the_vec_it_wraps() {
        let mut v: ThinVec<u8> = vec![3, 1, 2].into();
        v.push(0);
        assert_eq!(&v[..], &[3, 1, 2, 0]);
        assert_eq!(format!("{v:?}"), "[3, 1, 2, 0]");
        assert_eq!(v.clone(), v);
        while v.pop().is_some() {}
        assert_eq!(v, ThinVec::new());
    }
}
