//! D006 fixture: immutable statics, constants, `'static` lifetimes and test
//! scaffolding are not process-global mutable state. Linted anywhere it
//! must stay clean.

use std::sync::Mutex;

static GEAR: [u64; 4] = [1, 2, 3, 4];

static NAME: &str = "a static Mutex<u64> named in a string";

const LIMIT: usize = 64;

// A comment about `static COUNTER: AtomicU64` is not code.

pub struct Owner {
    state: Mutex<u64>,
}

pub fn label() -> &'static str {
    NAME
}

pub fn boxed(f: impl Fn() + Send + 'static) -> Box<dyn Fn() + Send + 'static> {
    Box::new(f)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    static CALLS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static SEEN: std::cell::Cell<u32> = std::cell::Cell::new(0);
    }
}
