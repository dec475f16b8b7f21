//! Condor-like middleware model (the paper's third candidate, §2.2).
//!
//! Two behaviours distinguish Condor-style best-effort execution from the
//! XtremWeb-HEP model:
//!
//! * **Signaled preemption** — on grids used through a best-effort queue
//!   (§2.1: OAR kills best-effort jobs when a regular job arrives) and in
//!   Condor pools, eviction is an explicit signal, so the server learns of
//!   the loss after a short notice instead of a long keep-alive timeout.
//! * **Checkpoint/restart** — Condor's standard universe checkpoints a
//!   job periodically; a preempted task resumes from its last checkpoint
//!   on the next worker instead of restarting from zero.
//!
//! Both directly attack the tail effect's middleware component, which
//! makes this model the natural ablation point for the paper's claim that
//! the tail is driven by recovery latency.

use super::{Assignment, CompleteOutcome, LostOutcome, ServerProgress};
use crate::config::CondorConfig;
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
    /// Work left to do (decreases when checkpoints survive a preemption).
    remaining_nops: f64,
    state: TaskState,
    live: Vec<AssignmentId>,
    dispatched: bool,
}

#[derive(Debug)]
struct AssignRec {
    task: TaskId,
    #[allow(dead_code)]
    worker: WorkerId,
    is_cloud: bool,
    superseded: bool,
    /// Work credited to checkpoints if the worker dies (set by
    /// `worker_lost` from the simulator's executed-work report).
    checkpointed_nops: f64,
}

/// The Condor scheduler state for one Bag of Tasks.
#[derive(Debug)]
pub struct CondorServer {
    cfg: CondorConfig,
    reschedule: bool,
    tasks: Vec<TaskRec>,
    ready_q: VecDeque<TaskId>,
    assignments: IdMap<AssignRec>,
    next_aid: u64,
    dup_scan: Vec<TaskId>,
    submitted: u32,
    completed: u32,
    dispatched: u32,
    ready_count: u32,
    /// Tasks in [`TaskState::Running`], maintained incrementally so
    /// `progress()` — called every monitoring tick — is O(1) instead of a
    /// scan over the whole bag.
    running_count: u32,
}

impl CondorServer {
    /// Creates a server able to hold `capacity` tasks.
    pub fn new(cfg: CondorConfig, reschedule: bool, capacity: usize) -> Self {
        let mut tasks = Vec::with_capacity(capacity);
        tasks.resize_with(capacity, || TaskRec {
            remaining_nops: 0.0,
            state: TaskState::NotSubmitted,
            live: Vec::new(),
            dispatched: false,
        });
        CondorServer {
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
        rec.remaining_nops = nops;
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
        let nops = rec.remaining_nops;
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
                checkpointed_nops: 0.0,
            },
        );
        Assignment {
            aid,
            task,
            nops,
            deadline: None,
        }
    }

    /// A worker pulls work (ready tasks first; cloud duplicates under
    /// Reschedule). Resumed tasks carry only their *remaining* work.
    pub fn request_work(
        &mut self,
        worker: WorkerId,
        is_cloud: bool,
        _now: simcore::SimTime,
    ) -> Option<Assignment> {
        while let Some(task) = self.ready_q.pop_front() {
            if self.rec(task).state != TaskState::Ready {
                continue;
            }
            self.ready_count -= 1;
            self.rec_mut(task).state = TaskState::Running;
            self.running_count += 1;
            return Some(self.make_assignment(task, worker, is_cloud));
        }
        self.ready_count = 0;
        if is_cloud && self.reschedule {
            if let Some(task) = self.pick_duplicate_candidate(worker) {
                return Some(self.make_assignment(task, worker, true));
            }
        }
        None
    }

    fn pick_duplicate_candidate(&mut self, _worker: WorkerId) -> Option<TaskId> {
        let mut i = 0;
        while i < self.dup_scan.len() {
            let task = self.dup_scan[i];
            let rec = self.rec(task);
            if rec.state != TaskState::Running {
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

    /// A worker returns a result.
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
        rec.remaining_nops = 0.0;
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

    /// The node running `aid` was preempted or died having executed
    /// `executed_nops` of work. With checkpointing, whole checkpoint
    /// periods survive; the signal reaches the server after the (short)
    /// preemption notice.
    pub fn worker_lost(&mut self, aid: AssignmentId, executed_nops: f64) -> LostOutcome {
        if let Some(rec) = self.assignments.get_mut(&aid.0) {
            if self.cfg.checkpointing {
                rec.checkpointed_nops = executed_nops.max(0.0);
            }
        }
        LostOutcome::DetectAfter(self.cfg.preempt_notice)
    }

    /// Preemption signal delivered: requeue the task with its remaining
    /// work (checkpoint credited). Returns `true` if a task was requeued.
    pub fn failure_detected(&mut self, aid: AssignmentId) -> bool {
        let Some(arec) = self.assignments.remove(&aid.0) else {
            return false;
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
        // Credit the checkpointed work (keep at least a sliver so the
        // resumed task is never zero-length).
        rec.remaining_nops = (rec.remaining_nops - arec.checkpointed_nops).max(1.0);
        if rec.live.is_empty() {
            debug_assert_eq!(rec.state, TaskState::Running);
            rec.state = TaskState::Ready;
            self.running_count -= 1;
            self.ready_q.push_back(task);
            self.ready_count += 1;
            true
        } else {
            false
        }
    }

    /// Cancels a task completed elsewhere (Cloud-Duplication merge).
    pub fn cancel_task(&mut self, task: TaskId) {
        match self.rec(task).state {
            TaskState::Done | TaskState::NotSubmitted => return,
            TaskState::Ready => {
                self.ready_count = self.ready_count.saturating_sub(1);
            }
            TaskState::Running => self.running_count -= 1,
        }
        let rec = self.rec_mut(task);
        rec.state = TaskState::Done;
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

    const T0: SimTime = SimTime::ZERO;

    fn server(checkpointing: bool) -> CondorServer {
        let cfg = CondorConfig {
            checkpointing,
            ..CondorConfig::default()
        };
        let mut s = CondorServer::new(cfg, false, 1);
        s.submit(TaskId(0), 10_000.0);
        s
    }

    #[test]
    fn preemption_notice_is_short() {
        let mut s = server(true);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        match s.worker_lost(a.aid, 0.0) {
            LostOutcome::DetectAfter(d) => {
                assert!(d <= simcore::SimDuration::from_secs(30), "notice {d:?}")
            }
            LostOutcome::AwaitDeadline => panic!("Condor preemption is signaled"),
        }
    }

    #[test]
    fn checkpoint_survives_preemption() {
        let mut s = server(true);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        assert_eq!(a.nops, 10_000.0);
        // The worker executed 6000 nops before eviction.
        s.worker_lost(a.aid, 6000.0);
        assert!(s.failure_detected(a.aid), "task requeued");
        // The resumed assignment carries only the remaining 4000 nops.
        let b = s.request_work(WorkerId(1), false, T0).expect("resume");
        assert_eq!(b.task, TaskId(0));
        assert_eq!(b.nops, 4000.0);
    }

    #[test]
    fn without_checkpointing_work_restarts() {
        let mut s = server(false);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        s.worker_lost(a.aid, 6000.0);
        s.failure_detected(a.aid);
        let b = s.request_work(WorkerId(1), false, T0).expect("restart");
        assert_eq!(b.nops, 10_000.0, "no checkpoint: full restart");
    }

    #[test]
    fn checkpoint_never_exceeds_remaining() {
        let mut s = server(true);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        // Report more executed work than the task has (clock skew etc.).
        s.worker_lost(a.aid, 1e9);
        s.failure_detected(a.aid);
        let b = s.request_work(WorkerId(1), false, T0).expect("resume");
        assert!(b.nops >= 1.0, "resumed work must stay positive");
    }

    #[test]
    fn completes_and_supersedes() {
        let mut s = server(true);
        let a = s.request_work(WorkerId(0), false, T0).expect("work");
        assert_eq!(
            s.complete(a.aid, T0),
            CompleteOutcome::TaskCompleted(TaskId(0))
        );
        assert_eq!(s.complete(a.aid, T0), CompleteOutcome::Stale);
        assert_eq!(s.progress().completed, 1);
    }

    #[test]
    fn reschedule_duplicates_for_cloud() {
        let cfg = CondorConfig::default();
        let mut s = CondorServer::new(cfg, true, 1);
        s.submit(TaskId(0), 5000.0);
        let _a = s.request_work(WorkerId(0), false, T0).expect("work");
        let d = s.request_work(WorkerId(1), true, T0).expect("cloud dup");
        assert_eq!(d.task, TaskId(0));
        assert!(s.request_work(WorkerId(2), true, T0).is_none());
    }
}
