//! What a distance filter emits for each accepted point.
//!
//! Both arms of a hybrid-LSH query end in the same step S3, a distance
//! filter `d(p, q) <= r`: the LSH arm runs it over the deduplicated
//! candidates, the linear arm over every point. rNNR reporting keeps
//! only the accepted ids; top-k ranking also keeps the distance the
//! filter already computed. Every filter in this crate is therefore
//! written once, generic over [`Hit`], and the caller picks what it
//! keeps by the output vector's element type.

use crate::dataset::PointId;

/// One accepted point of a distance filter.
///
/// [`PointId`] drops the distance; `(PointId, f64)` keeps it. Both
/// instantiations of a filter accept the same ids in the same order,
/// and each kept distance is bit-identical to the metric's
/// `distance()` on the same point. For `PointId` the distance is dead
/// code, so the ids-only filter compiles to the loop it always was.
pub trait Hit: Copy + Default + Send + Sync + 'static {
    /// The hit for point `id` at distance `dist`.
    fn new(id: PointId, dist: f64) -> Self;

    /// The accepted point's id.
    fn id(self) -> PointId;

    /// The same hit for point `id` instead (a shard- or segment-local
    /// row relabelled to its global id).
    fn with_id(self, id: PointId) -> Self;
}

impl Hit for PointId {
    #[inline]
    fn new(id: PointId, _dist: f64) -> Self {
        id
    }

    #[inline]
    fn id(self) -> PointId {
        self
    }

    #[inline]
    fn with_id(self, id: PointId) -> Self {
        id
    }
}

impl Hit for (PointId, f64) {
    #[inline]
    fn new(id: PointId, dist: f64) -> Self {
        (id, dist)
    }

    #[inline]
    fn id(self) -> PointId {
        self.0
    }

    #[inline]
    fn with_id(self, id: PointId) -> Self {
        (id, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_drop_the_distance_and_pairs_keep_it() {
        assert_eq!(<PointId as Hit>::new(7, 2.5), 7);
        assert_eq!(<(PointId, f64) as Hit>::new(7, 2.5), (7, 2.5));
        assert_eq!(Hit::id((7u32, 2.5)), 7);
        assert_eq!((7u32, 2.5).with_id(3), (3, 2.5));
        assert_eq!(7u32.with_id(3), 3);
    }
}
