//! Span tracing: RAII duration guards feeding per-thread buffers.
//!
//! Entering a span pushes onto a thread-local stack (establishing the
//! parent link); dropping the guard pops it and appends a finished
//! [`SpanRecord`] to the thread's buffer. Buffers are registered with
//! a global collector: live threads (the rayon shim's parked workers
//! among them) keep theirs registered, and a thread that exits (a
//! scoped thread, a server worker at shutdown) flushes its records
//! into a retired pool on the way out, so nothing is lost and the
//! registry does not grow with dead threads.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A span field value: numeric or string.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldVal {
    /// Any numeric field (counts, indices, sizes).
    Num(f64),
    /// A label field (model name, policy name, device).
    Str(String),
}

macro_rules! fieldval_from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldVal {
            fn from(v: $t) -> Self {
                FieldVal::Num(v as f64)
            }
        }
    )*};
}
fieldval_from_num!(f64, f32, usize, u64, u32, i64, i32);

impl From<&str> for FieldVal {
    fn from(v: &str) -> Self {
        FieldVal::Str(v.to_string())
    }
}

impl From<String> for FieldVal {
    fn from(v: String) -> Self {
        FieldVal::Str(v)
    }
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique id (process-wide, monotonically assigned).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Small sequential id of the recording thread.
    pub thread: u64,
    /// Span name (e.g. `train.epoch`).
    pub name: String,
    /// Key/value fields attached at entry.
    pub fields: Vec<(String, FieldVal)>,
    /// Start time in microseconds since the trace origin.
    pub start_us: f64,
    /// Wall-clock duration in microseconds.
    pub dur_us: f64,
}

static ORIGIN: OnceLock<Instant> = OnceLock::new();
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static LIVE: Mutex<Vec<Arc<Mutex<Vec<SpanRecord>>>>> = Mutex::new(Vec::new());
static RETIRED: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Microseconds since the process's trace origin (first observability
/// activity).
pub fn now_us() -> f64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

struct ThreadCtx {
    tid: u64,
    stack: Vec<u64>,
    buf: Arc<Mutex<Vec<SpanRecord>>>,
}

impl ThreadCtx {
    fn new() -> Self {
        let buf = Arc::new(Mutex::new(Vec::new()));
        LIVE.lock().expect("span buffer registry poisoned").push(Arc::clone(&buf));
        Self { tid: NEXT_THREAD.fetch_add(1, Ordering::Relaxed), stack: Vec::new(), buf }
    }
}

impl Drop for ThreadCtx {
    // Thread exit: move this thread's records to the retired pool and
    // deregister the buffer. The move happens under the buffer's lock,
    // so a concurrent `take_spans` finds the records either still in
    // the buffer or already retired, never in between. Only this
    // buffer-then-pool nesting exists (`take_spans` holds one lock at
    // a time), so drain and exit cannot deadlock.
    fn drop(&mut self) {
        match self.buf.lock() {
            Ok(mut b) => {
                if let Ok(mut retired) = RETIRED.lock() {
                    retired.append(&mut b);
                }
            }
            Err(_) => return,
        }
        if let Ok(mut live) = LIVE.lock() {
            live.retain(|b| !Arc::ptr_eq(b, &self.buf));
        }
    }
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    tid: u64,
    name: String,
    fields: Vec<(String, FieldVal)>,
    start_us: f64,
}

/// RAII guard recording one span from construction to drop. Obtained
/// via the [`span!`](crate::span!) macro (or [`SpanGuard::enter`]);
/// inert when recording is disabled.
pub struct SpanGuard(Option<OpenSpan>);

impl SpanGuard {
    /// A guard that records nothing (disabled path).
    pub fn noop() -> Self {
        SpanGuard(None)
    }

    /// Opens a span now. Prefer the [`span!`](crate::span!) macro,
    /// which skips the field allocation when recording is off.
    pub fn enter(name: &str, fields: Vec<(String, FieldVal)>) -> Self {
        if !crate::enabled() {
            return Self::noop();
        }
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let ctx = ctx.get_or_insert_with(ThreadCtx::new);
            let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
            let parent = ctx.stack.last().copied();
            ctx.stack.push(id);
            SpanGuard(Some(OpenSpan {
                id,
                parent,
                tid: ctx.tid,
                name: name.to_string(),
                fields,
                start_us: now_us(),
            }))
        })
    }

    /// The span's id, if recording.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|o| o.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_us = now_us();
        CTX.with(|cell| {
            let mut slot = cell.borrow_mut();
            let Some(ctx) = slot.as_mut() else { return };
            // Well-nested guards pop in LIFO order; tolerate a
            // mis-nested drop by removing the id wherever it sits.
            if ctx.stack.last() == Some(&open.id) {
                ctx.stack.pop();
            } else {
                ctx.stack.retain(|&s| s != open.id);
            }
            if let Ok(mut buf) = ctx.buf.lock() {
                buf.push(SpanRecord {
                    id: open.id,
                    parent: open.parent,
                    thread: open.tid,
                    name: open.name,
                    fields: open.fields,
                    start_us: open.start_us,
                    dur_us: end_us - open.start_us,
                });
            };
        });
    }
}

/// Drains every finished span recorded so far (all threads), ordered
/// by start time. Spans still open stay with their guards and appear
/// in a later drain.
pub fn take_spans() -> Vec<SpanRecord> {
    // Live buffers first, retired pool last: a thread exiting during
    // the drain retires its records before its buffer leaves the
    // registry, so they are in one place or the other when each is read.
    let buffers: Vec<Arc<Mutex<Vec<SpanRecord>>>> =
        LIVE.lock().expect("span buffer registry poisoned").clone();
    let mut out = Vec::new();
    for buf in buffers {
        if let Ok(mut b) = buf.lock() {
            out.append(&mut b);
        }
    }
    out.append(&mut RETIRED.lock().expect("retired span pool poisoned"));
    out.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
    out
}

/// Reserves a fresh process-wide span id without opening a guard.
/// Pair with [`submit`] to record externally timed spans that link to
/// each other through `parent`.
pub fn next_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Appends an externally synthesized span to the calling thread's
/// buffer (no-op when recording is off). The serving pipeline uses
/// this for per-stage request spans it timed itself — each stage is
/// measured exactly once and then emitted as a record, instead of
/// being double-measured by a RAII guard. The record's `thread` field
/// is overwritten with the calling thread's id so synthesized and
/// guard-recorded spans share one timeline.
pub fn submit(mut rec: SpanRecord) {
    if !crate::enabled() {
        return;
    }
    CTX.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ctx = slot.get_or_insert_with(ThreadCtx::new);
        rec.thread = ctx.tid;
        if let Ok(mut buf) = ctx.buf.lock() {
            buf.push(rec);
        };
    });
}

/// Opens a [`SpanGuard`]: `span!("name")` or
/// `span!("name", key = value, label = "x")`. Field keys become JSON
/// keys in the trace export; values are anything `Into<FieldVal>`
/// (numbers or strings). Evaluates to a no-op guard — without
/// touching the field expressions' results — when recording is off.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::span::SpanGuard::enter(
                $name,
                vec![$((stringify!($k).to_string(), $crate::span::FieldVal::from($v))),*],
            )
        } else {
            $crate::span::SpanGuard::noop()
        }
    };
}
