//! The worker pool: admission, fairness, deadlines, degraded modes, restart.

use crate::error::ServeError;
use pathix_core::{
    CancelToken, GraphUpdate, PathDb, PathDbConfig, QueryError, QueryOptions, QueryResult,
    UpdateStats,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Answer limit under which an unbound query still counts as a point lookup
/// for fairness classification (it terminates after a handful of pairs).
/// Bound lookups are point lookups in cost, not only in answer size: the
/// binding is pushed into the index, so they do frontier-sized work.
const POINT_LIMIT: usize = 16;

/// Serving-tier limits and defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads executing requests (normalized to at least 1).
    pub workers: usize,
    /// Per-class submission queue bound; admission sheds beyond it.
    pub queue_capacity: usize,
    /// Bound on queued + executing requests across both classes.
    pub max_in_flight: usize,
    /// Deadline applied to requests submitted without an explicit budget
    /// (`None` = no implicit deadline).
    pub default_deadline: Option<Duration>,
    /// Backoff hint carried by [`ServeError::Overloaded`].
    pub overload_retry_after: Duration,
    /// Backoff hint carried by [`ServeError::ReadOnly`].
    pub read_only_retry_after: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            max_in_flight: 256,
            default_deadline: None,
            overload_retry_after: Duration::from_millis(10),
            read_only_retry_after: Duration::from_millis(100),
        }
    }
}

/// The tier's serving state, reported by [`Server::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reads and writes flow.
    Normal,
    /// Reads serve off the last published snapshot; writes are rejected
    /// with [`ServeError::ReadOnly`]. Entered when an apply latches a
    /// backend failure / writer poisoning, or when the sticky
    /// `flush_failed` flag is observed. Left only via [`Server::reopen`].
    ReadOnly,
    /// The server is draining; all requests are rejected.
    ShuttingDown,
}

const MODE_NORMAL: u8 = 0;
const MODE_READ_ONLY: u8 = 1;
const MODE_SHUTTING_DOWN: u8 = 2;

fn mode_from(raw: u8) -> Mode {
    match raw {
        MODE_READ_ONLY => Mode::ReadOnly,
        MODE_SHUTTING_DOWN => Mode::ShuttingDown,
        _ => Mode::Normal,
    }
}

/// Monotonic counters accumulated since the server started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeCounters {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Queries that completed with an answer.
    pub queries_ok: u64,
    /// Writes that were applied and acknowledged.
    pub writes_ok: u64,
    /// Requests shed by admission control ([`ServeError::Overloaded`]).
    pub shed_overload: u64,
    /// Writes rejected because the tier was read-only.
    pub rejected_read_only: u64,
    /// Requests that ran out of deadline (queued or mid-stream).
    pub deadline_exceeded: u64,
    /// Requests cancelled by their submitter.
    pub cancelled: u64,
    /// Queries that failed with a database error.
    pub query_errors: u64,
    /// Writes that failed with a database error.
    pub write_errors: u64,
    /// High-water mark of queued + executing requests.
    pub max_in_flight: u64,
}

#[derive(Default)]
struct CounterCells {
    submitted: AtomicU64,
    queries_ok: AtomicU64,
    writes_ok: AtomicU64,
    shed_overload: AtomicU64,
    rejected_read_only: AtomicU64,
    deadline_exceeded: AtomicU64,
    cancelled: AtomicU64,
    query_errors: AtomicU64,
    write_errors: AtomicU64,
    max_in_flight: AtomicU64,
}

impl CounterCells {
    fn snapshot(&self) -> ServeCounters {
        ServeCounters {
            submitted: self.submitted.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            writes_ok: self.writes_ok.load(Ordering::Relaxed),
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            rejected_read_only: self.rejected_read_only.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            query_errors: self.query_errors.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            max_in_flight: self.max_in_flight.load(Ordering::Relaxed),
        }
    }
}

/// One health probe: mode, load, epoch and the sticky durability flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    /// The serving mode at probe time.
    pub mode: Mode,
    /// Requests waiting in the submission queues.
    pub queue_depth: usize,
    /// Requests currently executing on workers.
    pub executing: usize,
    /// The published snapshot's epoch.
    pub epoch: u64,
    /// The storage layer's sticky flush-failure flag (see
    /// `StorageStats::flush_failed`); `true` implies read-only mode.
    pub flush_failed: bool,
    /// Monotonic counters since start.
    pub counters: ServeCounters,
}

/// A completed query: the answer plus serving-side timing.
#[derive(Debug)]
pub struct QueryReply {
    /// The materialized answer.
    pub result: QueryResult,
    /// Time the request spent queued before a worker picked it up.
    pub queued_for: Duration,
    /// When the worker finished (for open-loop latency measurement against
    /// the scheduled arrival time).
    pub finished_at: Instant,
}

/// An acknowledged write: the apply statistics plus serving-side timing.
#[derive(Debug)]
pub struct WriteReply {
    /// The database's apply statistics.
    pub stats: UpdateStats,
    /// Time the request spent queued before a worker picked it up.
    pub queued_for: Duration,
    /// When the worker finished.
    pub finished_at: Instant,
}

/// A handle on one in-flight request: await the reply, or cancel it.
///
/// ```
/// use pathix_core::{GraphUpdate, PathDb, PathDbConfig, QueryOptions};
/// use pathix_datagen::paper_example_graph;
/// use pathix_serve::{QueryTicket, ServeConfig, Server, WriteTicket};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let db = Arc::new(PathDb::build(paper_example_graph(), PathDbConfig::with_k(2)));
/// let server = Server::new(db, ServeConfig::default());
///
/// // Submitting does not block; the tickets are redeemed in any order.
/// let write: WriteTicket =
///     server.submit_write(vec![GraphUpdate::insert_named("sue", "knows", "tim")]).unwrap();
/// let read: QueryTicket = server.submit_query("worksFor", QueryOptions::new()).unwrap();
/// assert_eq!(read.wait().unwrap().result.len(), 6);
/// let ack = write.wait_timeout(Duration::from_secs(30)).expect("acknowledged well in time");
/// assert_eq!(ack.unwrap().stats.inserted, 1);
/// ```
#[derive(Debug)]
pub struct Ticket<T> {
    receiver: Receiver<Result<T, ServeError>>,
    token: CancelToken,
}

impl<T> Ticket<T> {
    /// Requests cooperative cancellation; the worker aborts at the next
    /// batch boundary and replies [`ServeError::Cancelled`].
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Blocks until the reply arrives.
    pub fn wait(self) -> Result<T, ServeError> {
        self.receiver.recv().unwrap_or(Err(ServeError::WorkerLost))
    }

    /// Blocks up to `timeout`; `None` means the reply has not arrived yet
    /// (the request keeps running and the ticket stays valid).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, ServeError>> {
        match self.receiver.recv_timeout(timeout) {
            Ok(reply) => Some(reply),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }
}

/// Ticket for a submitted query.
pub type QueryTicket = Ticket<QueryReply>;
/// Ticket for a submitted write.
pub type WriteTicket = Ticket<WriteReply>;

/// Fairness class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Point lookups (bound source/target or tiny limit) and write batches.
    Point,
    /// Unbound scans that may stream large answers.
    Scan,
}

fn classify(options: &QueryOptions) -> Class {
    let tiny_limit = options.limit_value().is_some_and(|l| l <= POINT_LIMIT);
    if options.bound_source().is_some() || options.bound_target().is_some() || tiny_limit {
        Class::Point
    } else {
        Class::Scan
    }
}

enum Work {
    Query {
        text: String,
        options: QueryOptions,
        reply: SyncSender<Result<QueryReply, ServeError>>,
    },
    Write {
        updates: Vec<GraphUpdate>,
        reply: SyncSender<Result<WriteReply, ServeError>>,
    },
}

struct Job {
    work: Work,
    token: CancelToken,
    submitted: Instant,
}

/// Everything behind the queue mutex.
struct QueueState {
    point: VecDeque<Job>,
    scan: VecDeque<Job>,
    /// Alternation bit: when both classes have waiters, which goes next.
    prefer_point: bool,
    executing: usize,
    /// Cancellation handles of currently executing requests, so shutdown can
    /// interrupt long streams instead of waiting them out.
    executing_tokens: HashMap<u64, CancelToken>,
    next_execution_id: u64,
}

impl QueueState {
    fn depth(&self) -> usize {
        self.point.len() + self.scan.len()
    }

    /// Pops the next job, alternating between classes whenever both have
    /// waiters so a flood of expensive scans cannot starve point lookups
    /// (and vice versa).
    fn pop_fair(&mut self) -> Option<Job> {
        let from_point = match (self.point.is_empty(), self.scan.is_empty()) {
            (true, true) => return None,
            (false, true) => true,
            (true, false) => false,
            (false, false) => self.prefer_point,
        };
        self.prefer_point = !from_point;
        if from_point {
            self.point.pop_front()
        } else {
            self.scan.pop_front()
        }
    }
}

struct Shared {
    /// Swappable so a future in-place reopen can install a recovered
    /// database; workers clone the `Arc` per request.
    db: RwLock<Arc<PathDb>>,
    config: ServeConfig,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    mode: AtomicU8,
    counters: CounterCells,
}

impl Shared {
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn db_handle(&self) -> Arc<PathDb> {
        self.db.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    fn mode(&self) -> Mode {
        mode_from(self.mode.load(Ordering::Acquire))
    }

    /// Normal → ReadOnly; never downgrades a shutdown.
    fn enter_read_only(&self) {
        let _ = self.mode.compare_exchange(
            MODE_NORMAL,
            MODE_READ_ONLY,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }
}

/// A worker-pool serving tier over one [`PathDb`].
///
/// Requests are submitted as queries or write batches and return a
/// [`Ticket`]; a fixed pool of worker threads drains a bounded two-class
/// queue (point lookups + writes vs unbound scans, alternating when both
/// wait). See the crate docs for the full robustness contract.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a worker pool over an already-open database.
    ///
    /// ```
    /// use pathix_core::{PathDb, PathDbConfig};
    /// use pathix_datagen::paper_example_graph;
    /// use pathix_serve::{Mode, ServeConfig, Server};
    /// use std::sync::Arc;
    ///
    /// let db = Arc::new(PathDb::build(paper_example_graph(), PathDbConfig::with_k(2)));
    /// let server = Server::new(Arc::clone(&db), ServeConfig { workers: 2, ..ServeConfig::default() });
    /// assert!(Arc::ptr_eq(&server.db(), &db)); // every request reads this database
    /// let health = server.health();
    /// assert_eq!((health.mode, health.queue_depth, health.executing), (Mode::Normal, 0, 0));
    /// assert_eq!(health.epoch, db.epoch());
    /// server.shutdown().unwrap(); // drains, joins the workers, closes the database
    /// ```
    pub fn new(db: Arc<PathDb>, config: ServeConfig) -> Server {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            db: RwLock::new(db),
            config: ServeConfig {
                workers,
                queue_capacity: config.queue_capacity.max(1),
                max_in_flight: config.max_in_flight.max(1),
                ..config
            },
            queue: Mutex::new(QueueState {
                point: VecDeque::new(),
                scan: VecDeque::new(),
                prefer_point: true,
                executing: 0,
                executing_tokens: HashMap::new(),
                next_execution_id: 0,
            }),
            work_ready: Condvar::new(),
            mode: AtomicU8::new(MODE_NORMAL),
            counters: CounterCells::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pathix-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .unwrap_or_else(|e| panic!("spawning serve worker {i}: {e}"))
            })
            .collect();
        Server {
            shared,
            workers: handles,
        }
    }

    /// The kill-anywhere restart path: recovers the database from its
    /// durable state (checkpoint + WAL replay via [`PathDb::open`]) and
    /// resumes serving with a fresh worker pool in [`Mode::Normal`].
    ///
    /// The crashed server must be dropped (or [`Server::shutdown`]) first;
    /// recovery reads the same on-disk paths the dead instance wrote.
    pub fn reopen(db_config: PathDbConfig, config: ServeConfig) -> Result<Server, ServeError> {
        let db = PathDb::open(db_config).map_err(ServeError::Query)?;
        Ok(Server::new(Arc::new(db), config))
    }

    /// The served database (every request runs against it).
    pub fn db(&self) -> Arc<PathDb> {
        self.shared.db_handle()
    }

    /// The current serving mode.
    pub fn mode(&self) -> Mode {
        self.shared.mode()
    }

    /// Submits a query with the config's default deadline.
    pub fn submit_query(
        &self,
        text: &str,
        options: QueryOptions,
    ) -> Result<QueryTicket, ServeError> {
        self.submit_query_with_deadline(text, options, self.shared.config.default_deadline)
    }

    /// Submits a query with an explicit deadline budget (`None` = no
    /// deadline). The budget covers queueing *and* execution: a request that
    /// expires while queued is answered [`ServeError::DeadlineExceeded`]
    /// without running.
    pub fn submit_query_with_deadline(
        &self,
        text: &str,
        options: QueryOptions,
        budget: Option<Duration>,
    ) -> Result<QueryTicket, ServeError> {
        let token = match budget {
            Some(budget) => CancelToken::with_budget(budget),
            None => CancelToken::new(),
        };
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let class = classify(&options);
        self.admit(
            Job {
                work: Work::Query {
                    text: text.to_string(),
                    options,
                    reply: tx,
                },
                token: token.clone(),
                submitted: Instant::now(),
            },
            class,
            false,
        )?;
        Ok(Ticket {
            receiver: rx,
            token,
        })
    }

    /// Submits a write batch. Writes ride the point-lookup queue (they are
    /// small and latency-sensitive) and are rejected up front in read-only
    /// mode.
    pub fn submit_write(&self, updates: Vec<GraphUpdate>) -> Result<WriteTicket, ServeError> {
        let token = CancelToken::new();
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.admit(
            Job {
                work: Work::Write { updates, reply: tx },
                token: token.clone(),
                submitted: Instant::now(),
            },
            Class::Point,
            true,
        )?;
        Ok(Ticket {
            receiver: rx,
            token,
        })
    }

    /// Submit + wait convenience for queries.
    ///
    /// ```
    /// use pathix_core::{PathDb, PathDbConfig, QueryError, QueryOptions};
    /// use pathix_datagen::paper_example_graph;
    /// use pathix_serve::{ServeConfig, ServeError, Server};
    /// use std::sync::Arc;
    ///
    /// let db = Arc::new(PathDb::build(paper_example_graph(), PathDbConfig::with_k(2)));
    /// let server = Server::new(Arc::clone(&db), ServeConfig::default());
    ///
    /// let reply = server.query("supervisor/worksFor-", QueryOptions::new()).unwrap();
    /// assert!(reply.result.contains_named(&db, "kim", "sue"));
    /// assert_eq!(reply.result.len(), 1);
    /// assert!(reply.finished_at.elapsed() >= std::time::Duration::ZERO);
    /// assert_eq!(server.health().counters.queries_ok, 1);
    ///
    /// // The database's own errors come back wrapped, not as a shed.
    /// let err = server.query("noSuchLabel", QueryOptions::new()).unwrap_err();
    /// assert!(matches!(err, ServeError::Query(QueryError::Bind(_))), "{err}");
    /// assert!(!err.is_transient());
    /// ```
    pub fn query(&self, text: &str, options: QueryOptions) -> Result<QueryReply, ServeError> {
        self.submit_query(text, options)?.wait()
    }

    /// Submit + wait convenience for writes.
    ///
    /// ```
    /// use pathix_core::{GraphUpdate, PathDb, PathDbConfig, QueryOptions};
    /// use pathix_serve::{ServeConfig, Server};
    /// use std::sync::Arc;
    ///
    /// // Grown from empty, entirely through the tier.
    /// let db = Arc::new(PathDb::empty(PathDbConfig::with_k(2)).unwrap());
    /// let server = Server::new(db, ServeConfig::default());
    /// let ack = server
    ///     .write(vec![
    ///         GraphUpdate::insert_named("ada", "knows", "jan"),
    ///         GraphUpdate::insert_named("jan", "knows", "kim"),
    ///         GraphUpdate::insert_named("ada", "knows", "jan"), // duplicate
    ///     ])
    ///     .unwrap();
    /// assert_eq!((ack.stats.inserted, ack.stats.no_ops, ack.stats.epoch), (2, 1, 1));
    ///
    /// // An acknowledged write is visible to every later read.
    /// let reply = server.query("knows/knows", QueryOptions::new()).unwrap();
    /// assert!(reply.result.contains_named(&server.db(), "ada", "kim"));
    /// assert_eq!(server.health().epoch, 1);
    /// ```
    pub fn write(&self, updates: Vec<GraphUpdate>) -> Result<WriteReply, ServeError> {
        self.submit_write(updates)?.wait()
    }

    fn admit(&self, job: Job, class: Class, is_write: bool) -> Result<(), ServeError> {
        let shared = &self.shared;
        match shared.mode() {
            Mode::ShuttingDown => return Err(ServeError::ShuttingDown),
            Mode::ReadOnly if is_write => {
                shared
                    .counters
                    .rejected_read_only
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::ReadOnly {
                    retry_after: shared.config.read_only_retry_after,
                });
            }
            _ => {}
        }
        let mut queue = shared.lock_queue();
        let in_flight = queue.depth() + queue.executing;
        let class_len = match class {
            Class::Point => queue.point.len(),
            Class::Scan => queue.scan.len(),
        };
        if in_flight >= shared.config.max_in_flight || class_len >= shared.config.queue_capacity {
            drop(queue);
            shared
                .counters
                .shed_overload
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                queue_depth: in_flight,
                retry_after: shared.config.overload_retry_after,
            });
        }
        match class {
            Class::Point => queue.point.push_back(job),
            Class::Scan => queue.scan.push_back(job),
        }
        let now_in_flight = (queue.depth() + queue.executing) as u64;
        drop(queue);
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .max_in_flight
            .fetch_max(now_in_flight, Ordering::Relaxed);
        shared.work_ready.notify_one();
        Ok(())
    }

    /// Probes the tier: mode, load, epoch and durability. Observing the
    /// sticky `flush_failed` flag degrades the tier to read-only on the
    /// spot, so the transition does not wait for the next failing write.
    pub fn health(&self) -> Health {
        let shared = &self.shared;
        let db = shared.db_handle();
        let flush_failed = db.stats().storage.flush_failed;
        if flush_failed {
            shared.enter_read_only();
        }
        let (queue_depth, executing) = {
            let queue = shared.lock_queue();
            (queue.depth(), queue.executing)
        };
        Health {
            mode: shared.mode(),
            queue_depth,
            executing,
            epoch: db.epoch(),
            flush_failed,
            counters: shared.counters.snapshot(),
        }
    }

    /// Stops accepting work, cancels everything queued or executing, joins
    /// the workers and (best-effort) closes the database cleanly. A `drop`
    /// does the same minus the close — the "kill" path of the chaos
    /// harness.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.stop();
        let db = self.shared.db_handle();
        db.close().map_err(ServeError::Query)
    }

    fn stop(&mut self) {
        self.shared
            .mode
            .store(MODE_SHUTTING_DOWN, Ordering::Release);
        let abandoned = {
            let mut queue = self.shared.lock_queue();
            for token in queue.executing_tokens.values() {
                token.cancel();
            }
            let mut abandoned: Vec<Job> = queue.point.drain(..).collect();
            abandoned.extend(queue.scan.drain(..));
            abandoned
        };
        self.shared.work_ready.notify_all();
        for job in abandoned {
            job.token.cancel();
            match job.work {
                Work::Query { reply, .. } => {
                    let _ = reply.send(Err(ServeError::ShuttingDown));
                }
                Work::Write { reply, .. } => {
                    let _ = reply.send(Err(ServeError::ShuttingDown));
                }
            }
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let queue = self.shared.lock_queue();
        f.debug_struct("Server")
            .field("mode", &self.shared.mode())
            .field("workers", &self.shared.config.workers)
            .field("queue_depth", &queue.depth())
            .field("executing", &queue.executing)
            .finish_non_exhaustive()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (job, execution_id) = {
            let mut queue = shared.lock_queue();
            loop {
                if shared.mode() == Mode::ShuttingDown {
                    return;
                }
                if let Some(job) = queue.pop_fair() {
                    queue.executing += 1;
                    let id = queue.next_execution_id;
                    queue.next_execution_id += 1;
                    queue.executing_tokens.insert(id, job.token.clone());
                    break (job, id);
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        run_job(shared, job);
        let mut queue = shared.lock_queue();
        queue.executing -= 1;
        queue.executing_tokens.remove(&execution_id);
    }
}

fn run_job(shared: &Shared, job: Job) {
    let queued_for = job.submitted.elapsed();
    // A request whose budget drained while it was queued is answered
    // without executing: the worker slot goes to a request that can still
    // make its deadline.
    if job.token.deadline_exceeded() {
        shared
            .counters
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        send_error(job.work, ServeError::DeadlineExceeded);
        return;
    }
    if job.token.cancel_requested() {
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        send_error(job.work, ServeError::Cancelled);
        return;
    }
    let db = shared.db_handle();
    match job.work {
        Work::Query {
            text,
            options,
            reply,
        } => {
            let options = options.cancel_token(job.token.clone());
            let outcome = match db.run(&text, options) {
                Ok(result) => {
                    shared.counters.queries_ok.fetch_add(1, Ordering::Relaxed);
                    Ok(QueryReply {
                        result,
                        queued_for,
                        finished_at: Instant::now(),
                    })
                }
                Err(QueryError::DeadlineExceeded) => {
                    shared
                        .counters
                        .deadline_exceeded
                        .fetch_add(1, Ordering::Relaxed);
                    Err(ServeError::DeadlineExceeded)
                }
                Err(QueryError::Cancelled) => {
                    shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    Err(ServeError::Cancelled)
                }
                Err(e) => {
                    shared.counters.query_errors.fetch_add(1, Ordering::Relaxed);
                    Err(ServeError::Query(e))
                }
            };
            let _ = reply.send(outcome);
        }
        Work::Write { updates, reply } => {
            // Re-check: the tier may have degraded while this write queued.
            if shared.mode() != Mode::Normal {
                shared
                    .counters
                    .rejected_read_only
                    .fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(Err(ServeError::ReadOnly {
                    retry_after: shared.config.read_only_retry_after,
                }));
                return;
            }
            let outcome = match db.apply(&updates) {
                Ok(stats) => {
                    shared.counters.writes_ok.fetch_add(1, Ordering::Relaxed);
                    Ok(WriteReply {
                        stats,
                        queued_for,
                        finished_at: Instant::now(),
                    })
                }
                Err(e) => {
                    // A poisoned writer or a latched backend failure is a
                    // dead write path: degrade to read-only serving instead
                    // of failing every future request. Validation errors
                    // (`InvalidUpdate`) are the caller's problem and leave
                    // the tier healthy.
                    if matches!(e, QueryError::WriterPoisoned | QueryError::Backend(_)) {
                        shared.enter_read_only();
                    }
                    shared.counters.write_errors.fetch_add(1, Ordering::Relaxed);
                    Err(ServeError::Query(e))
                }
            };
            let _ = reply.send(outcome);
        }
    }
}

fn send_error(work: Work, error: ServeError) {
    match work {
        Work::Query { reply, .. } => {
            let _ = reply.send(Err(error));
        }
        Work::Write { reply, .. } => {
            let _ = reply.send(Err(error));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_core::{NodeId, PathDbConfig};
    use pathix_datagen::paper_example_graph;

    fn example_server(config: ServeConfig) -> Server {
        let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
        Server::new(Arc::new(db), config)
    }

    #[test]
    fn classification_separates_point_lookups_from_scans() {
        use pathix_core::NodeId;
        assert_eq!(classify(&QueryOptions::new()), Class::Scan);
        assert_eq!(classify(&QueryOptions::new().limit(1000)), Class::Scan);
        assert_eq!(classify(&QueryOptions::new().limit(1)), Class::Point);
        assert_eq!(
            classify(&QueryOptions::new().source(NodeId(0))),
            Class::Point
        );
        assert_eq!(
            classify(&QueryOptions::new().target(NodeId(0))),
            Class::Point
        );
    }

    #[test]
    fn pop_fair_alternates_when_both_classes_wait() {
        let mk = |tag: usize| Job {
            work: Work::Query {
                text: format!("q{tag}"),
                options: QueryOptions::new(),
                reply: std::sync::mpsc::sync_channel(1).0,
            },
            token: CancelToken::new(),
            submitted: Instant::now(),
        };
        let mut q = QueueState {
            point: VecDeque::from([mk(0), mk(1)]),
            scan: VecDeque::from([mk(10), mk(11)]),
            prefer_point: true,
            executing: 0,
            executing_tokens: HashMap::new(),
            next_execution_id: 0,
        };
        let texts: Vec<String> = std::iter::from_fn(|| q.pop_fair())
            .map(|j| match j.work {
                Work::Query { text, .. } => text,
                Work::Write { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(texts, ["q0", "q10", "q1", "q11"]);
    }

    #[test]
    fn queries_and_writes_round_trip() {
        let server = example_server(ServeConfig::default());
        let reply = server.query("knows", QueryOptions::new()).unwrap();
        assert!(!reply.result.pairs().is_empty());
        let write = server
            .write(vec![GraphUpdate::insert_named("zan", "mentors", "sue")])
            .unwrap();
        assert_eq!(write.stats.inserted, 1);
        let mentors = server.query("mentors", QueryOptions::new()).unwrap();
        assert_eq!(mentors.result.len(), 1);
        let health = server.health();
        assert_eq!(health.mode, Mode::Normal);
        assert_eq!(health.counters.queries_ok, 2);
        assert_eq!(health.counters.writes_ok, 1);
        assert!(!health.flush_failed);
        server.shutdown().unwrap();
    }

    #[test]
    fn expired_deadline_is_rejected_without_running() {
        let server = example_server(ServeConfig::default());
        let pulled = server.db().pairs_pulled_total();
        // Unbound, and the bound shapes the index answers by probes.
        let shapes = [
            QueryOptions::new(),
            QueryOptions::new().source(NodeId(0)),
            QueryOptions::new().target(NodeId(1)),
            QueryOptions::new()
                .source(NodeId(0))
                .target(NodeId(1))
                .exists(),
        ];
        for (i, options) in shapes.into_iter().enumerate() {
            let err = server
                .submit_query_with_deadline("knows", options, Some(Duration::ZERO))
                .unwrap()
                .wait()
                .unwrap_err();
            assert_eq!(err, ServeError::DeadlineExceeded);
            assert_eq!(server.health().counters.deadline_exceeded, i as u64 + 1);
        }
        assert_eq!(server.db().pairs_pulled_total(), pulled);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let mut server = example_server(ServeConfig::default());
        server.stop();
        assert_eq!(
            server
                .submit_query("knows", QueryOptions::new())
                .unwrap_err(),
            ServeError::ShuttingDown
        );
        assert!(matches!(
            server.submit_write(vec![]).unwrap_err(),
            ServeError::ShuttingDown
        ));
    }

    #[test]
    fn invalid_update_errors_do_not_degrade_the_tier() {
        let server = example_server(ServeConfig::default());
        let db = server.db();
        let bogus = GraphUpdate::InsertEdge {
            src: pathix_core::NodeId(u32::MAX),
            label: pathix_core::LabelId(0),
            dst: pathix_core::NodeId(0),
        };
        let err = server.write(vec![bogus]).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Query(QueryError::InvalidUpdate(_))
        ));
        assert_eq!(server.mode(), Mode::Normal);
        drop(db);
        server.shutdown().unwrap();
    }
}
