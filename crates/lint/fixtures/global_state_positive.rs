//! D006 fixture: process-global mutable state. Linted as any module other
//! than the configured global-state modules, every item below must fire.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex, OnceLock, RwLock};

static COUNTER: AtomicU64 = AtomicU64::new(0);

static REGISTRY: Mutex<Vec<String>> = Mutex::new(Vec::new());

static INDEX: LazyLock<RwLock<HashMap<u64, String>>> = LazyLock::new(Default::default);

static CONFIG: OnceLock<String> = OnceLock::new();

static mut LEGACY: u64 = 0;

static SLOTS: [Option<Mutex<u64>>; 4] = [None, None, None, None];

thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new());
}

pub fn bump() -> u64 {
    COUNTER.fetch_add(1, Ordering::Relaxed)
}
