//! XtremWeb-HEP server model.
//!
//! XtremWeb-HEP runs each task as a single copy and relies on worker
//! keep-alive messages for fault tolerance: when a worker has been silent
//! for `worker_timeout` (15 minutes by default), the server reassigns its
//! task to another worker (§4.1.3). This detection latency — up to the
//! timeout per failure, possibly repeatedly for an unlucky task — is the
//! XWHEP-side mechanism behind the tail effect of §2.2.

use super::{Assignment, CompleteOutcome, LostOutcome, ServerProgress};
use crate::config::XwhepConfig;
use crate::ids::{AssignmentId, WorkerId};
use botwork::TaskId;
use simcore::IdMap;
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    NotSubmitted,
    Ready,
    Running,
    Done,
}

#[derive(Debug)]
struct TaskRec {
    nops: f64,
    state: TaskState,
    /// Live assignment ids (at most 2: the original plus one cloud
    /// duplicate under the Reschedule strategy).
    live: Vec<AssignmentId>,
    dispatched: bool,
    /// Closed by cross-server cancellation rather than a result.
    canceled: bool,
}

#[derive(Debug)]
struct AssignRec {
    task: TaskId,
    #[allow(dead_code)]
    worker: WorkerId,
    is_cloud: bool,
    /// Superseded (task finished elsewhere): a later result is stale.
    superseded: bool,
}

/// The XtremWeb-HEP scheduler state for one Bag of Tasks.
#[derive(Debug)]
pub struct XwhepServer {
    cfg: XwhepConfig,
    reschedule: bool,
    tasks: Vec<TaskRec>,
    ready_q: VecDeque<TaskId>,
    assignments: IdMap<AssignRec>,
    next_aid: u64,
    /// Tasks in first-dispatch order; scanned to pick the longest-running
    /// task when building a cloud duplicate.
    dup_scan: Vec<TaskId>,
    // Counters for progress().
    submitted: u32,
    completed: u32,
    dispatched: u32,
    ready_count: u32,
    /// Tasks in [`TaskState::Running`], maintained incrementally so
    /// `progress()` — called every monitoring tick — is O(1) instead of a
    /// scan over the whole bag.
    running_count: u32,
}

impl XwhepServer {
    /// Creates a server able to hold `capacity` tasks.
    pub fn new(cfg: XwhepConfig, reschedule: bool, capacity: usize) -> Self {
        let mut tasks = Vec::with_capacity(capacity);
        tasks.resize_with(capacity, || TaskRec {
            nops: 0.0,
            state: TaskState::NotSubmitted,
            live: Vec::new(),
            dispatched: false,
            canceled: false,
        });
        XwhepServer {
            cfg,
            reschedule,
            tasks,
            ready_q: VecDeque::new(),
            assignments: IdMap::default(),
            next_aid: 0,
            dup_scan: Vec::new(),
            submitted: 0,
            completed: 0,
            dispatched: 0,
            ready_count: 0,
            running_count: 0,
        }
    }

    fn rec(&self, task: TaskId) -> &TaskRec {
        &self.tasks[task.0 as usize]
    }

    fn rec_mut(&mut self, task: TaskId) -> &mut TaskRec {
        &mut self.tasks[task.0 as usize]
    }

    /// Submits a task.
    ///
    /// # Panics
    /// Panics if the task id is out of capacity or already submitted.
    pub fn submit(&mut self, task: TaskId, nops: f64) {
        let rec = self.rec_mut(task);
        assert_eq!(
            rec.state,
            TaskState::NotSubmitted,
            "task {task} submitted twice"
        );
        rec.nops = nops;
        rec.state = TaskState::Ready;
        self.ready_q.push_back(task);
        self.ready_count += 1;
        self.submitted += 1;
    }

    fn make_assignment(&mut self, task: TaskId, worker: WorkerId, is_cloud: bool) -> Assignment {
        let aid = AssignmentId(self.next_aid);
        self.next_aid += 1;
        let rec = self.rec_mut(task);
        rec.live.push(aid);
        let nops = rec.nops;
        if !rec.dispatched {
            rec.dispatched = true;
            self.dispatched += 1;
            self.dup_scan.push(task);
        }
        self.assignments.insert(
            aid.0,
            AssignRec {
                task,
                worker,
                is_cloud,
                superseded: false,
            },
        );
        Assignment {
            aid,
            task,
            nops,
            deadline: None,
        }
    }

    /// A worker pulls work: first the ready queue; for cloud workers under
    /// Reschedule, a duplicate of the longest-running task.
    pub fn request_work(
        &mut self,
        worker: WorkerId,
        is_cloud: bool,
        _now: simcore::SimTime,
    ) -> Option<Assignment> {
        // Pending tasks first.
        while let Some(task) = self.ready_q.pop_front() {
            if self.rec(task).state != TaskState::Ready {
                continue; // canceled while queued
            }
            self.ready_count -= 1;
            self.rec_mut(task).state = TaskState::Running;
            self.running_count += 1;
            return Some(self.make_assignment(task, worker, is_cloud));
        }
        self.ready_count = 0;
        // Cloud duplicate of a running task (Reschedule strategy).
        if is_cloud && self.reschedule {
            if let Some(task) = self.pick_duplicate_candidate(worker) {
                return Some(self.make_assignment(task, worker, true));
            }
        }
        None
    }

    /// Oldest running task with no live cloud assignment.
    fn pick_duplicate_candidate(&mut self, _worker: WorkerId) -> Option<TaskId> {
        let mut i = 0;
        while i < self.dup_scan.len() {
            let task = self.dup_scan[i];
            let rec = self.rec(task);
            if rec.state != TaskState::Running {
                // Completed or requeued; requeued tasks re-enter via the
                // ready queue, so it is safe to drop them from the scan and
                // re-add on next dispatch.
                self.dup_scan.swap_remove(i);
                continue;
            }
            let has_cloud_copy = rec.live.iter().any(|aid| self.assignments[&aid.0].is_cloud);
            if !has_cloud_copy {
                return Some(task);
            }
            i += 1;
        }
        None
    }

    /// A worker returns a result for `aid`.
    pub fn complete(&mut self, aid: AssignmentId, _now: simcore::SimTime) -> CompleteOutcome {
        let Some(arec) = self.assignments.remove(&aid.0) else {
            return CompleteOutcome::Stale;
        };
        if arec.superseded {
            return CompleteOutcome::Stale;
        }
        let task = arec.task;
        let rec = self.rec_mut(task);
        if rec.state == TaskState::Done {
            rec.live.retain(|a| *a != aid);
            return CompleteOutcome::Stale;
        }
        rec.state = TaskState::Done;
        self.running_count -= 1;
        // Supersede every other live assignment of this task; `aid`'s own
        // record was removed above, so the lookup passes it over.
        let others = std::mem::take(&mut self.rec_mut(task).live);
        for other in others {
            if let Some(o) = self.assignments.get_mut(&other.0) {
                o.superseded = true;
            }
        }
        self.completed += 1;
        CompleteOutcome::TaskCompleted(task)
    }

    /// The node running `aid` went down; XtremWeb-HEP will notice after
    /// `worker_timeout` of keep-alive silence.
    pub fn worker_lost(&mut self, _aid: AssignmentId) -> LostOutcome {
        LostOutcome::DetectAfter(self.cfg.worker_timeout)
    }

    /// Failure-detection timer fired for `aid`: requeue its task unless a
    /// result arrived in the meantime. Returns `true` if a task was
    /// requeued.
    pub fn failure_detected(&mut self, aid: AssignmentId) -> bool {
        let Some(arec) = self.assignments.remove(&aid.0) else {
            return false; // completed (or already superseded and reaped)
        };
        if arec.superseded {
            return false;
        }
        let task = arec.task;
        let rec = self.rec_mut(task);
        rec.live.retain(|a| *a != aid);
        if rec.state == TaskState::Done {
            return false;
        }
        if rec.live.is_empty() {
            debug_assert_eq!(rec.state, TaskState::Running);
            rec.state = TaskState::Ready;
            self.running_count -= 1;
            self.ready_q.push_back(task);
            self.ready_count += 1;
            true
        } else {
            // A duplicate is still running; no requeue needed.
            false
        }
    }

    /// Cancels a task completed elsewhere (Cloud-Duplication merge).
    pub fn cancel_task(&mut self, task: TaskId) {
        match self.rec(task).state {
            TaskState::Done | TaskState::NotSubmitted => return,
            TaskState::Ready => {
                // Entry stays in ready_q; request_work skips non-Ready.
                self.ready_count = self.ready_count.saturating_sub(1);
            }
            TaskState::Running => self.running_count -= 1,
        }
        let rec = self.rec_mut(task);
        rec.state = TaskState::Done;
        rec.canceled = true;
        let others = std::mem::take(&mut rec.live);
        for aid in others {
            if let Some(o) = self.assignments.get_mut(&aid.0) {
                o.superseded = true;
            }
        }
    }

    /// Bookkeeping snapshot. O(1): every counter is maintained at its
    /// state transition.
    pub fn progress(&self) -> ServerProgress {
        ServerProgress {
            submitted: self.submitted,
            completed: self.completed,
            dispatched: self.dispatched,
            ready: self.ready_count,
            running: self.running_count,
        }
    }

    /// True if the ready queue is non-empty.
    pub fn has_ready_work(&self) -> bool {
        self.ready_count > 0
    }

    /// True if the task is done or canceled.
    pub fn task_closed(&self, task: TaskId) -> bool {
        self.rec(task).state == TaskState::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn server(reschedule: bool, n: usize) -> XwhepServer {
        let mut s = XwhepServer::new(XwhepConfig::default(), reschedule, n);
        for i in 0..n {
            s.submit(TaskId(i as u32), 1000.0);
        }
        s
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn assigns_then_completes() {
        let mut s = server(false, 2);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        assert_eq!(a.task, TaskId(0));
        assert_eq!(a.deadline, None);
        let b = s.request_work(WorkerId(1), false, T0).expect("work");
        assert_eq!(b.task, TaskId(1));
        assert!(s.request_work(WorkerId(2), false, T0).is_none());
        assert_eq!(
            s.complete(a.aid, T0),
            CompleteOutcome::TaskCompleted(TaskId(0))
        );
        let p = s.progress();
        assert_eq!(p.completed, 1);
        assert_eq!(p.running, 1);
        assert_eq!(p.dispatched, 2);
        assert_eq!(p.ready, 0);
    }

    #[test]
    fn failure_detection_requeues() {
        let mut s = server(false, 1);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        assert_eq!(
            s.worker_lost(a.aid),
            LostOutcome::DetectAfter(simcore::SimDuration::from_secs(900))
        );
        assert!(s.failure_detected(a.aid), "task must requeue");
        assert!(s.has_ready_work());
        let b = s.request_work(WorkerId(1), false, T0).expect("reassigned");
        assert_eq!(b.task, TaskId(0));
        assert_ne!(b.aid, a.aid);
    }

    #[test]
    fn detection_after_completion_is_noop() {
        let mut s = server(false, 1);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        s.complete(a.aid, T0);
        assert!(!s.failure_detected(a.aid));
        assert!(!s.has_ready_work());
    }

    #[test]
    fn double_completion_is_stale() {
        let mut s = server(false, 1);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        assert_eq!(
            s.complete(a.aid, T0),
            CompleteOutcome::TaskCompleted(TaskId(0))
        );
        assert_eq!(s.complete(a.aid, T0), CompleteOutcome::Stale);
    }

    #[test]
    fn cloud_duplicate_under_reschedule() {
        let mut s = server(true, 1);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        // Regular worker gets nothing (queue empty, not cloud).
        assert!(s.request_work(WorkerId(1), false, T0).is_none());
        // Cloud worker gets a duplicate of the running task.
        let d = s.request_work(WorkerId(2), true, T0).expect("duplicate");
        assert_eq!(d.task, TaskId(0));
        assert_ne!(d.aid, a.aid);
        // Only one cloud duplicate per task.
        assert!(s.request_work(WorkerId(3), true, T0).is_none());
        // First result wins; the other becomes stale.
        assert_eq!(
            s.complete(d.aid, T0),
            CompleteOutcome::TaskCompleted(TaskId(0))
        );
        assert_eq!(s.complete(a.aid, T0), CompleteOutcome::Stale);
        assert_eq!(s.progress().completed, 1);
    }

    #[test]
    fn no_duplicates_without_reschedule() {
        let mut s = server(false, 1);
        let _a = s.request_work(WorkerId(0), false, T0).expect("work");
        assert!(s.request_work(WorkerId(2), true, T0).is_none());
    }

    #[test]
    fn duplicate_failure_does_not_requeue_while_original_lives() {
        let mut s = server(true, 1);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        let d = s.request_work(WorkerId(1), true, T0).expect("dup");
        s.worker_lost(d.aid);
        assert!(!s.failure_detected(d.aid), "original still running");
        assert_eq!(
            s.complete(a.aid, T0),
            CompleteOutcome::TaskCompleted(TaskId(0))
        );
    }

    #[test]
    fn cancel_task_makes_assignments_stale() {
        let mut s = server(false, 2);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        s.cancel_task(a.task);
        assert!(s.task_closed(a.task));
        assert_eq!(s.complete(a.aid, T0), CompleteOutcome::Stale);
        // Canceling a queued task removes it from dispatch.
        s.cancel_task(TaskId(1));
        assert!(s.request_work(WorkerId(1), false, T0).is_none());
        // Canceled tasks do not count as completed.
        assert_eq!(s.progress().completed, 0);
    }

    #[test]
    fn requeued_task_can_be_reassigned_to_cloud() {
        let mut s = server(true, 1);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        s.worker_lost(a.aid);
        s.failure_detected(a.aid);
        let b = s.request_work(WorkerId(9), true, T0).expect("ready first");
        assert_eq!(b.task, TaskId(0));
    }

    #[test]
    fn progress_counts_queue() {
        let s = server(false, 5);
        let p = s.progress();
        assert_eq!(p.submitted, 5);
        assert_eq!(p.ready, 5);
        assert_eq!(p.dispatched, 0);
        assert_eq!(p.running, 0);
    }
}
