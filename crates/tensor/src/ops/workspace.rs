//! Reusable scratch-buffer arena for the kernel layer.
//!
//! The training hot loop calls conv forward/backward thousands of times
//! per epoch; allocating fresh im2col/col2im matrices and GEMM packing
//! panels on every call dominated the allocator profile of the seed
//! implementation. A [`Workspace`] owns those buffers and hands them out
//! by name: the first step of a layer grows each slot to its steady-state
//! size, and every later step reuses the same memory.
//!
//! Buffers move **out** of the arena while in use (`take`) and back in
//! when done (`give`), so several buffers can be live at once without
//! fighting the borrow checker — including across nested calls (the conv
//! path takes its column buffer, then the GEMM underneath takes its
//! packing panels from the same workspace).
//!
//! The arena counts every allocation event (slot creation or capacity
//! growth). After warm-up a workspace can be [frozen](Workspace::freeze):
//! any further growth trips a debug assertion and still increments the
//! counter, which is how the zero-allocation-per-step guarantee of the
//! conv path is enforced in tests.

use std::any::Any;
use std::cell::RefCell;
use std::mem::size_of;

/// Named scratch-buffer arena with allocation accounting.
///
/// One pool serves every element type the kernel layer needs (`f32`
/// panels and column matrices, `i8` quantized columns, `i32`
/// accumulators): a slot is keyed by its name *and* its element type, so
/// `take::<i8>("x", ..)` and `take::<f32>("x", ..)` are two independent
/// buffers.
///
/// # Example
///
/// ```
/// use alf_tensor::ops::Workspace;
///
/// let mut ws = Workspace::new();
/// let mut buf: Vec<f32> = ws.take("cols", 128);
/// buf[0] = 1.0;
/// ws.give("cols", buf);
/// assert_eq!(ws.alloc_events(), 1);
///
/// // Steady state: same slot, same size — no new allocation.
/// let buf: Vec<f32> = ws.take("cols", 128);
/// ws.give("cols", buf);
/// assert_eq!(ws.alloc_events(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    slots: Vec<Slot>,
    alloc_events: u64,
    frozen: bool,
}

#[derive(Debug)]
struct Slot {
    name: &'static str,
    /// A `Vec<T>`, empty while the buffer is taken out; `T` is part of
    /// the slot's identity and is recovered by downcast.
    buf: Box<dyn Any + Send + Sync>,
    /// Largest capacity ever observed for this slot, in bytes. The
    /// buffer itself is moved out while in use, so the high-water mark
    /// must be recorded here rather than read off `buf`.
    cap_bytes: usize,
}

impl Slot {
    fn vec_mut<T: 'static>(&mut self) -> &mut Vec<T> {
        self.buf
            .downcast_mut()
            .expect("slot was matched by element type")
    }
}

impl Workspace {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    fn position<T: 'static>(&self, name: &'static str) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.name == name && s.buf.is::<Vec<T>>())
    }

    /// Takes the named buffer of element type `T` out of the arena,
    /// resized to `len` elements. Contents are unspecified (previous
    /// contents are preserved up to the common length — the conv backward
    /// pass relies on re-taking the column buffer its forward pass
    /// filled — and new elements are `T::default()`).
    ///
    /// Counts an allocation event when the slot is new or must grow; in a
    /// [frozen](Workspace::freeze) workspace growth additionally trips a
    /// debug assertion.
    pub fn take<T: Copy + Default + Send + Sync + 'static>(
        &mut self,
        name: &'static str,
        len: usize,
    ) -> Vec<T> {
        let idx = match self.position::<T>(name) {
            Some(i) => i,
            None => {
                self.note_alloc(name, len);
                self.slots.push(Slot {
                    name,
                    buf: Box::new(Vec::<T>::with_capacity(len)),
                    cap_bytes: 0,
                });
                self.slots.len() - 1
            }
        };
        let mut buf = std::mem::take(self.slots[idx].vec_mut::<T>());
        if buf.capacity() < len {
            self.note_grow(name, buf.capacity(), len);
            buf.reserve(len - buf.len());
        }
        buf.resize(len, T::default());
        let slot = &mut self.slots[idx];
        slot.cap_bytes = slot.cap_bytes.max(buf.capacity() * size_of::<T>());
        buf
    }

    /// Returns a buffer to the arena, normally one previously obtained
    /// from [`Workspace::take`]. A buffer whose slot does not exist is
    /// adopted (slot created, counted as an allocation event) — this is
    /// what lets a cloned layer, whose clone carried live cached buffers
    /// but a fresh workspace, donate them back on its first step.
    pub fn give<T: Send + Sync + 'static>(&mut self, name: &'static str, buf: Vec<T>) {
        let bytes = buf.capacity() * size_of::<T>();
        match self.position::<T>(name) {
            Some(i) => {
                let slot = &mut self.slots[i];
                slot.cap_bytes = slot.cap_bytes.max(bytes);
                *slot.vec_mut() = buf;
            }
            None => {
                self.note_alloc(name, buf.capacity());
                self.slots.push(Slot {
                    name,
                    buf: Box::new(buf),
                    cap_bytes: bytes,
                });
            }
        }
    }

    /// Number of allocation events (slot creations + capacity growths)
    /// since construction.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// High-water mark of the arena in bytes: the sum over all slots of
    /// the largest capacity each has ever reached. Buffers move out of the
    /// arena while in use, so this is tracked per slot rather than summed
    /// from resident buffers; it is what the profiler reports as scratch
    /// footprint.
    pub fn high_water_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.cap_bytes).sum()
    }

    /// Marks the workspace as warmed up: any further buffer growth trips
    /// a debug assertion (and is still counted), turning per-step
    /// allocation churn into a loud failure in tests.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Re-allows growth after [`Workspace::freeze`].
    pub fn thaw(&mut self) {
        self.frozen = false;
    }

    /// Whether the workspace is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    fn note_alloc(&mut self, name: &'static str, len: usize) {
        self.alloc_events += 1;
        debug_assert!(
            !self.frozen,
            "workspace frozen but slot '{name}' created ({len} elements)"
        );
    }

    fn note_grow(&mut self, name: &'static str, from: usize, to: usize) {
        self.alloc_events += 1;
        debug_assert!(
            !self.frozen,
            "workspace frozen but slot '{name}' grew {from} -> {to} elements"
        );
    }
}

/// A `Clone` that yields a fresh, empty workspace.
///
/// Workspaces hold scratch state only, so cloning a layer that owns one
/// must not duplicate megabytes of dead buffers; the clone warms up its
/// own arena on first use.
impl Clone for Workspace {
    fn clone(&self) -> Self {
        Self::new()
    }
}

thread_local! {
    static THREAD_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's shared scratch workspace.
///
/// The tensor-level convenience entry points ([`matmul`](crate::ops::matmul)
/// and friends, [`conv2d`](crate::ops::conv2d)) use this so repeated calls
/// reuse packing and column buffers without threading a workspace through
/// every signature. Do **not** call it reentrantly from inside `f` — the
/// kernel layer instead passes the already-borrowed workspace down
/// explicitly.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WS.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_roundtrip_preserves_contents() {
        let mut ws = Workspace::new();
        let mut a = ws.take::<f32>("a", 4);
        a.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        ws.give("a", a);
        let a = ws.take::<f32>("a", 4);
        assert_eq!(a, vec![1.0, 2.0, 3.0, 4.0]);
        ws.give("a", a);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let mut ws = Workspace::new();
        for name in ["x", "y"] {
            let b = ws.take::<f32>(name, 256);
            ws.give(name, b);
        }
        let warmup = ws.alloc_events();
        ws.freeze();
        for _ in 0..10 {
            for name in ["x", "y"] {
                let b = ws.take::<f32>(name, 256);
                ws.give(name, b);
            }
        }
        assert_eq!(ws.alloc_events(), warmup);
    }

    #[test]
    fn shrinking_then_regrowing_within_capacity_is_free() {
        let mut ws = Workspace::new();
        let b = ws.take::<f32>("x", 512);
        ws.give("x", b);
        let events = ws.alloc_events();
        let b = ws.take::<f32>("x", 64);
        ws.give("x", b);
        let b = ws.take::<f32>("x", 512);
        ws.give("x", b);
        assert_eq!(ws.alloc_events(), events);
    }

    #[test]
    fn growth_counts_an_event() {
        let mut ws = Workspace::new();
        let b = ws.take::<f32>("x", 16);
        ws.give("x", b);
        assert_eq!(ws.alloc_events(), 1);
        let b = ws.take::<f32>("x", 1024);
        ws.give("x", b);
        assert_eq!(ws.alloc_events(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "workspace frozen")]
    fn frozen_growth_trips_debug_assertion() {
        let mut ws = Workspace::new();
        let b = ws.take::<f32>("x", 8);
        ws.give("x", b);
        ws.freeze();
        let _ = ws.take::<f32>("x", 8192);
    }

    #[test]
    fn give_adopts_unknown_buffers() {
        let mut ws = Workspace::new();
        ws.give("adopted", vec![1.0f32; 4]);
        assert_eq!(ws.alloc_events(), 1);
        let b = ws.take::<f32>("adopted", 4);
        assert_eq!(b, vec![1.0; 4]);
        ws.give("adopted", b);
        assert_eq!(ws.alloc_events(), 1);
    }

    #[test]
    fn high_water_tracks_peak_capacity() {
        let mut ws = Workspace::new();
        assert_eq!(ws.high_water_bytes(), 0);
        let b = ws.take::<f32>("x", 100);
        // Live buffers count even while taken out.
        assert!(ws.high_water_bytes() >= 100 * 4);
        ws.give("x", b);
        let b = ws.take::<f32>("x", 10); // shrinking never lowers the mark
        ws.give("x", b);
        assert!(ws.high_water_bytes() >= 100 * 4);
    }

    #[test]
    fn one_pool_serves_every_element_type() {
        fn cycle<T: Copy + Default + Send + Sync + 'static>(ws: &mut Workspace, mark: T) {
            let mut b: Vec<T> = ws.take("shared", 64);
            b[0] = mark;
            ws.give("shared", b);
        }
        let mut ws = Workspace::new();
        cycle(&mut ws, 1.5f32);
        cycle(&mut ws, -5i8);
        cycle(&mut ws, 7i32);
        // Same name, three element types: three slots, none aliasing.
        assert_eq!(ws.alloc_events(), 3);
        let hw = ws.high_water_bytes();
        assert!(hw >= 64 * (4 + 1 + 4), "{hw}");
        assert!(hw < 2 * 64 * (4 + 1 + 4), "bytes, not elements: {hw}");

        // Steady state is allocation-free for each type, contents survive.
        ws.freeze();
        cycle(&mut ws, 1.5f32);
        cycle(&mut ws, -5i8);
        cycle(&mut ws, 7i32);
        assert_eq!(ws.alloc_events(), 3);
        assert_eq!(ws.take::<f32>("shared", 64)[0], 1.5);
        assert_eq!(ws.take::<i8>("shared", 64)[0], -5);
        assert_eq!(ws.take::<i32>("shared", 64)[0], 7);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn frozen_growth_trips_for_each_element_type() {
        fn grows_when_frozen<T: Copy + Default + Send + Sync + 'static>() -> bool {
            let mut ws = Workspace::new();
            let b: Vec<T> = ws.take("x", 8);
            ws.give("x", b);
            ws.freeze();
            let grow = std::panic::AssertUnwindSafe(move || drop(ws.take::<T>("x", 8192)));
            std::panic::catch_unwind(grow).is_err()
        }
        assert!(grows_when_frozen::<f32>());
        assert!(grows_when_frozen::<i8>());
        assert!(grows_when_frozen::<i32>());
    }

    #[test]
    fn clone_is_fresh() {
        let mut ws = Workspace::new();
        let b = ws.take::<f32>("x", 1000);
        ws.give("x", b);
        let clone = ws.clone();
        assert_eq!(clone.alloc_events(), 0);
    }
}
