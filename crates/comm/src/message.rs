//! Message payloads and the in-flight packet representation.
//!
//! Every message is rows of `f64`, in one of three forms: a `Vec<f64>`
//! the sender gives away, an `Arc` of one it goes on sharing, or a
//! `SharedRows` view of part of a shared buffer. A shared payload is
//! charged exactly the bytes of its content — the cost model prices what
//! would cross a wire, and on a wire a shared buffer is sent in full every
//! time. Sharing only spares the simulator's host the copies: a tree
//! broadcast's relay hands each child the buffer it received instead of
//! a fresh clone of it.
//!
//! `SharedRows` extends that to *part* of a buffer: the large-message
//! schedules of [`collectives`](crate::collectives) move blocks of a
//! row-major `f64` buffer, and a block is sent as the buffer's `Arc` plus
//! the element ranges it stands for, charged `8` bytes per element in
//! those ranges and nothing for the rest.

use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

/// Types that can be sent between ranks.
///
/// `payload_bytes` is the number charged to the β term of the cost model —
/// the wire size of the payload, not of Rust bookkeeping.
pub trait Payload: Send + 'static {
    /// Wire size in bytes.
    fn payload_bytes(&self) -> usize;
}

impl Payload for Vec<f64> {
    fn payload_bytes(&self) -> usize {
        8 * self.len()
    }
}

/// A shared payload costs what its content costs (see the
/// [module docs](self)).
impl<P: Payload + Sync> Payload for Arc<P> {
    fn payload_bytes(&self) -> usize {
        (**self).payload_bytes()
    }
}

/// Up to two element ranges of a shared `f64` buffer, charged as the
/// elements in the ranges (see the [module docs](self)). Two ranges
/// because a run of consecutive blocks may wrap around the end of the
/// buffer; `tail` is empty when it does not.
#[derive(Debug, Clone)]
pub(crate) struct SharedRows {
    pub buf: Arc<Vec<f64>>,
    pub head: Range<usize>,
    pub tail: Range<usize>,
}

impl Payload for SharedRows {
    fn payload_bytes(&self) -> usize {
        8 * (self.head.len() + self.tail.len())
    }
}

/// A typed message in flight.
pub(crate) struct Packet {
    pub src: u32,
    pub tag: u64,
    pub bytes: usize,
    /// Sender's simulated clock at the start of the transmission.
    pub depart: f64,
    pub data: Box<dyn Any + Send>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting() {
        assert_eq!(vec![0.0f64; 3].payload_bytes(), 24);
    }

    #[test]
    fn shared_payload_is_charged_its_content() {
        let owned = vec![0.5f64; 7];
        let shared = Arc::new(owned.clone());
        assert_eq!(shared.payload_bytes(), owned.payload_bytes());
        // A second handle on the same buffer is a second full payload.
        assert_eq!(Arc::clone(&shared).payload_bytes(), 56);
        assert_eq!(Arc::new(Arc::new(vec![0.0f64; 2])).payload_bytes(), 16);
        assert_eq!(Arc::new(Vec::<f64>::new()).payload_bytes(), 0);
    }

    #[test]
    fn a_view_is_charged_its_ranges_not_its_buffer() {
        let buf = Arc::new(vec![0.0f64; 100]);
        let view = SharedRows {
            buf: Arc::clone(&buf),
            head: 90..100,
            tail: 0..5,
        };
        assert_eq!(view.payload_bytes(), 8 * 15);
        let nothing = SharedRows {
            buf,
            head: 7..7,
            tail: 0..0,
        };
        assert_eq!(nothing.payload_bytes(), 0);
    }

    #[test]
    fn packet_roundtrips_through_any() {
        let p = Packet {
            src: 3,
            tag: 7,
            bytes: 16,
            depart: 0.5,
            data: Box::new(vec![1.0f64, 2.0]),
        };
        let v = p.data.downcast::<Vec<f64>>().unwrap();
        assert_eq!(*v, vec![1.0, 2.0]);
    }
}
