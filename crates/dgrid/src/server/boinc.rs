//! BOINC server model.
//!
//! BOINC tolerates volatility with replication and deadlines instead of
//! failure detection (§4.1.3): each workunit is created with
//! `target_nresult` replicas, completes when `min_quorum` results arrive
//! (validation always succeeds in the paper's simulations), two replicas
//! never go to the same worker, and a replica that has produced no result
//! within `delay_bound` (24 h) triggers a replacement replica. A replica
//! lost to a node failure therefore stalls its workunit for *up to a day*
//! — the BOINC-side mechanism behind the tail effect, and the reason the
//! paper's BOINC tails are heavier than XtremWeb-HEP's (Fig. 2).

use super::{Assignment, CompleteOutcome, LostOutcome, ServerProgress};
use crate::config::BoincConfig;
use crate::ids::{AssignmentId, WorkerId};
use botwork::TaskId;
use simcore::IdMap;
use std::collections::VecDeque;

#[derive(Debug)]
struct Wu {
    nops: f64,
    submitted: bool,
    done: bool,
    /// Closed by cross-server cancellation rather than quorum.
    canceled: bool,
    /// Valid results received.
    results: u32,
    /// Replicas waiting in the ready queue.
    ready: u32,
    /// Outstanding assignments.
    live: Vec<AssignmentId>,
    /// Workers this workunit has ever been assigned to
    /// (`one_result_per_user_per_wu`).
    seen: Vec<WorkerId>,
    dispatched: bool,
}

#[derive(Debug)]
struct BAssign {
    task: TaskId,
    worker: WorkerId,
    is_cloud: bool,
    /// The simulator observed the node die; the server itself only acts on
    /// the deadline, but the record is flagged so the expired deadline can
    /// reap it.
    dead: bool,
    /// Workunit completed elsewhere; a late result is stale.
    superseded: bool,
}

/// The BOINC scheduler state for one Bag of Tasks (one workunit per task).
#[derive(Debug)]
pub struct BoincServer {
    cfg: BoincConfig,
    reschedule: bool,
    wus: Vec<Wu>,
    /// One entry per ready replica.
    ready_q: VecDeque<TaskId>,
    assignments: IdMap<BAssign>,
    next_aid: u64,
    dup_scan: Vec<TaskId>,
    /// Replicas lost with their node, indexed by worker: when the host
    /// reconnects, its lost results are re-issued immediately
    /// (`resend_lost_results`, enabled on production BOINC projects —
    /// without it every lost replica stalls its workunit for the full
    /// `delay_bound`).
    lost_by_worker: IdMap<Vec<AssignmentId>>,
    submitted: u32,
    completed: u32,
    dispatched: u32,
    ready_count: u32,
    /// Workunits currently counted as running (`submitted && !done` with at
    /// least one live replica), maintained incrementally so `progress()` —
    /// called every monitoring tick — is O(1) instead of a scan over all
    /// workunits. Every `live`/`done` mutation goes through
    /// [`BoincServer::mutate_wu`] to keep this exact.
    running_count: u32,
}

/// The predicate behind [`BoincServer::progress`]'s `running` column.
fn counts_as_running(wu: &Wu) -> bool {
    wu.submitted && !wu.done && !wu.live.is_empty()
}

impl BoincServer {
    /// Creates a server able to hold `capacity` workunits.
    pub fn new(cfg: BoincConfig, reschedule: bool, capacity: usize) -> Self {
        assert!(cfg.min_quorum >= 1 && cfg.target_nresult >= cfg.min_quorum);
        let mut wus = Vec::with_capacity(capacity);
        wus.resize_with(capacity, || Wu {
            nops: 0.0,
            submitted: false,
            done: false,
            canceled: false,
            results: 0,
            ready: 0,
            live: Vec::new(),
            seen: Vec::new(),
            dispatched: false,
        });
        BoincServer {
            cfg,
            reschedule,
            wus,
            ready_q: VecDeque::new(),
            assignments: IdMap::default(),
            next_aid: 0,
            dup_scan: Vec::new(),
            lost_by_worker: IdMap::default(),
            submitted: 0,
            completed: 0,
            dispatched: 0,
            ready_count: 0,
            running_count: 0,
        }
    }

    /// Mutates a workunit while keeping `running_count` in sync with the
    /// [`counts_as_running`] predicate.
    fn mutate_wu<R>(&mut self, task: TaskId, f: impl FnOnce(&mut Wu) -> R) -> R {
        let wu = &mut self.wus[task.0 as usize];
        let before = counts_as_running(wu);
        let out = f(wu);
        let after = counts_as_running(wu);
        if before != after {
            if after {
                self.running_count += 1;
            } else {
                self.running_count -= 1;
            }
        }
        out
    }

    fn wu(&self, task: TaskId) -> &Wu {
        &self.wus[task.0 as usize]
    }

    fn wu_mut(&mut self, task: TaskId) -> &mut Wu {
        &mut self.wus[task.0 as usize]
    }

    /// Submits a workunit: `target_nresult` replicas enter the ready queue.
    ///
    /// # Panics
    /// Panics if the task id is out of capacity or already submitted.
    pub fn submit(&mut self, task: TaskId, nops: f64) {
        let n = self.cfg.target_nresult;
        let wu = self.wu_mut(task);
        assert!(!wu.submitted, "workunit {task} submitted twice");
        wu.submitted = true;
        wu.nops = nops;
        wu.ready = n;
        for _ in 0..n {
            self.ready_q.push_back(task);
        }
        self.ready_count += n;
        self.submitted += 1;
    }

    fn make_assignment(&mut self, task: TaskId, worker: WorkerId, is_cloud: bool) -> Assignment {
        let aid = AssignmentId(self.next_aid);
        self.next_aid += 1;
        let deadline = self.cfg.delay_bound;
        let (nops, newly_dispatched) = self.mutate_wu(task, |wu| {
            wu.live.push(aid);
            wu.seen.push(worker);
            let newly = !wu.dispatched;
            wu.dispatched = true;
            (wu.nops, newly)
        });
        if newly_dispatched {
            self.dispatched += 1;
            self.dup_scan.push(task);
        }
        self.assignments.insert(
            aid.0,
            BAssign {
                task,
                worker,
                is_cloud,
                dead: false,
                superseded: false,
            },
        );
        Assignment {
            aid,
            task,
            nops,
            deadline: Some(deadline),
        }
    }

    /// A worker pulls work. Lost results of a reconnecting host are
    /// re-issued first (`resend_lost_results`); then ready replicas are
    /// matched (skipping workunits this worker already holds a replica
    /// of); cloud workers under Reschedule finally receive an extra
    /// replica of a running workunit.
    pub fn request_work(
        &mut self,
        worker: WorkerId,
        is_cloud: bool,
        _now: simcore::SimTime,
    ) -> Option<Assignment> {
        if self.cfg.resend_lost_results {
            if let Some(task) = self.pop_resend(worker) {
                return Some(self.make_resend_assignment(task, worker, is_cloud));
            }
        }
        let mut budget = self.ready_q.len();
        while budget > 0 {
            let Some(task) = self.ready_q.pop_front() else {
                break;
            };
            budget -= 1;
            let one_per_worker = self.cfg.one_result_per_worker;
            let wu = self.wu(task);
            if wu.done || wu.ready == 0 {
                continue; // stale queue entry
            }
            if one_per_worker && wu.seen.contains(&worker) {
                self.ready_q.push_back(task); // someone else can take it
                continue;
            }
            self.wu_mut(task).ready -= 1;
            self.ready_count -= 1;
            return Some(self.make_assignment(task, worker, is_cloud));
        }
        if is_cloud && self.reschedule {
            if let Some(task) = self.pick_duplicate_candidate(worker) {
                return Some(self.make_assignment(task, worker, true));
            }
        }
        None
    }

    /// Pops a resendable lost replica for a reconnecting worker: the old
    /// assignment record is reaped and its workunit returned so a fresh
    /// assignment can replace it.
    fn pop_resend(&mut self, worker: WorkerId) -> Option<TaskId> {
        let mut lost = self.lost_by_worker.remove(&u64::from(worker.0))?;
        while let Some(aid) = lost.pop() {
            let Some(rec) = self.assignments.get(&aid.0) else {
                continue; // reaped at its deadline meanwhile
            };
            if !rec.dead || rec.superseded {
                continue;
            }
            let task = rec.task;
            if self.wu(task).done {
                continue;
            }
            // Reap the dead record; the fresh assignment replaces it (the
            // worker stays in `seen`, this is the same result re-sent).
            self.assignments.remove(&aid.0);
            self.mutate_wu(task, |wu| wu.live.retain(|a| *a != aid));
            if !lost.is_empty() {
                self.lost_by_worker.insert(u64::from(worker.0), lost);
            }
            return Some(task);
        }
        None
    }

    /// Creates the replacement assignment for a re-sent lost result
    /// (bypasses the one-result-per-worker check: it is the same result).
    fn make_resend_assignment(
        &mut self,
        task: TaskId,
        worker: WorkerId,
        is_cloud: bool,
    ) -> Assignment {
        let aid = AssignmentId(self.next_aid);
        self.next_aid += 1;
        let deadline = self.cfg.delay_bound;
        let nops = self.mutate_wu(task, |wu| {
            wu.live.push(aid);
            wu.nops
        });
        self.assignments.insert(
            aid.0,
            BAssign {
                task,
                worker,
                is_cloud,
                dead: false,
                superseded: false,
            },
        );
        Assignment {
            aid,
            task,
            nops,
            deadline: Some(deadline),
        }
    }

    /// Oldest running workunit without a live cloud replica that this
    /// worker has not seen.
    fn pick_duplicate_candidate(&mut self, worker: WorkerId) -> Option<TaskId> {
        let mut i = 0;
        while i < self.dup_scan.len() {
            let task = self.dup_scan[i];
            let wu = self.wu(task);
            if wu.done {
                self.dup_scan.swap_remove(i);
                continue;
            }
            if wu.live.is_empty() {
                i += 1; // waiting on a deadline replacement; skip
                continue;
            }
            let seen = self.cfg.one_result_per_worker && wu.seen.contains(&worker);
            let has_cloud_copy = wu.live.iter().any(|aid| self.assignments[&aid.0].is_cloud);
            if !seen && !has_cloud_copy {
                return Some(task);
            }
            i += 1;
        }
        None
    }

    fn close_wu(&mut self, task: TaskId, canceled: bool) {
        let (stale_ready, live) = self.mutate_wu(task, |wu| {
            wu.done = true;
            wu.canceled = canceled;
            let stale = wu.ready;
            wu.ready = 0;
            (stale, std::mem::take(&mut wu.live))
        });
        self.ready_count -= stale_ready;
        for aid in live {
            if let Some(rec) = self.assignments.get_mut(&aid.0) {
                rec.superseded = true;
            }
        }
    }

    /// A worker returns a result.
    pub fn complete(&mut self, aid: AssignmentId, _now: simcore::SimTime) -> CompleteOutcome {
        let Some(rec) = self.assignments.remove(&aid.0) else {
            return CompleteOutcome::Stale;
        };
        if rec.superseded {
            return CompleteOutcome::Stale;
        }
        let task = rec.task;
        let done = self.mutate_wu(task, |wu| {
            wu.live.retain(|a| *a != aid);
            wu.done
        });
        if done {
            return CompleteOutcome::Stale;
        }
        let wu = self.wu_mut(task);
        wu.results += 1;
        if wu.results >= self.cfg.min_quorum {
            self.close_wu(task, false);
            self.completed += 1;
            CompleteOutcome::TaskCompleted(task)
        } else {
            CompleteOutcome::Accepted
        }
    }

    /// The node running `aid` went down. BOINC schedules nothing — the
    /// replica's deadline will issue a replacement — but the result is
    /// remembered as lost so it can be re-sent if its host reconnects.
    pub fn worker_lost(&mut self, aid: AssignmentId) -> LostOutcome {
        if let Some(rec) = self.assignments.get_mut(&aid.0) {
            rec.dead = true;
            self.lost_by_worker
                .entry(u64::from(rec.worker.0))
                .or_default()
                .push(aid);
        }
        LostOutcome::AwaitDeadline
    }

    /// Deadline expired for `aid`: if no result has been received, issue a
    /// replacement replica. A live (slow) replica may still return a valid
    /// result later. Returns `true` if a replacement entered the queue.
    pub fn deadline_expired(&mut self, aid: AssignmentId) -> bool {
        let (task, reap, worker) = match self.assignments.get(&aid.0) {
            None => return false, // result already returned
            Some(rec) if rec.superseded => {
                let task = rec.task;
                self.assignments.remove(&aid.0);
                self.mutate_wu(task, |wu| wu.live.retain(|a| *a != aid));
                return false;
            }
            Some(rec) => (rec.task, rec.dead, rec.worker),
        };
        if reap {
            // The replica died with its node: reap it, and release the
            // worker for future replicas of this workunit. The
            // one-result-per-worker rule only guards *live or returned*
            // results; keeping vanished nodes burned forever would make
            // workunits permanently unassignable on small worker pools.
            self.assignments.remove(&aid.0);
            self.mutate_wu(task, |wu| {
                wu.live.retain(|a| *a != aid);
                if let Some(pos) = wu.seen.iter().position(|w| *w == worker) {
                    wu.seen.swap_remove(pos);
                }
            });
        }
        let wu = self.wu_mut(task);
        if wu.done {
            return false;
        }
        wu.ready += 1;
        self.ready_q.push_back(task);
        self.ready_count += 1;
        true
    }

    /// Cancels a workunit completed elsewhere (Cloud-Duplication merge).
    pub fn cancel_task(&mut self, task: TaskId) {
        if self.wu(task).submitted && !self.wu(task).done {
            self.close_wu(task, true);
        }
    }

    /// Bookkeeping snapshot (workunit granularity). O(1): every counter is
    /// maintained at its state transition.
    pub fn progress(&self) -> ServerProgress {
        ServerProgress {
            submitted: self.submitted,
            completed: self.completed,
            dispatched: self.dispatched,
            ready: self.ready_count,
            running: self.running_count,
        }
    }

    /// True if at least one replica is waiting in the queue.
    pub fn has_ready_work(&self) -> bool {
        self.ready_count > 0
    }

    /// True if the workunit reached quorum or was canceled.
    pub fn task_closed(&self, task: TaskId) -> bool {
        self.wu(task).done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    const T0: SimTime = SimTime::ZERO;

    fn server(n: usize) -> BoincServer {
        let mut s = BoincServer::new(BoincConfig::default(), false, n);
        for i in 0..n {
            s.submit(TaskId(i as u32), 1000.0);
        }
        s
    }

    #[test]
    fn submit_creates_target_nresult_replicas() {
        let s = server(2);
        assert_eq!(s.progress().ready, 6);
        assert!(s.has_ready_work());
    }

    #[test]
    fn quorum_of_two_completes() {
        let mut s = server(1);
        let a = s.request_work(WorkerId(0), false, T0).expect("r1");
        let b = s.request_work(WorkerId(1), false, T0).expect("r2");
        let c = s.request_work(WorkerId(2), false, T0).expect("r3");
        assert!(s.request_work(WorkerId(3), false, T0).is_none());
        assert_eq!(s.complete(a.aid, T0), CompleteOutcome::Accepted);
        assert_eq!(
            s.complete(b.aid, T0),
            CompleteOutcome::TaskCompleted(TaskId(0))
        );
        // The third, straggling replica is now stale.
        assert_eq!(s.complete(c.aid, T0), CompleteOutcome::Stale);
        assert_eq!(s.progress().completed, 1);
    }

    #[test]
    fn one_result_per_worker_enforced() {
        let mut s = server(1);
        let _a = s.request_work(WorkerId(0), false, T0).expect("r1");
        // Same worker cannot take a second replica of the same workunit.
        assert!(s.request_work(WorkerId(0), false, T0).is_none());
        // A different worker can.
        assert!(s.request_work(WorkerId(1), false, T0).is_some());
    }

    #[test]
    fn one_result_per_worker_skips_to_other_workunits() {
        let mut s = server(2);
        let a = s.request_work(WorkerId(0), false, T0).expect("wu0 r1");
        assert_eq!(a.task, TaskId(0));
        // Worker 0 already holds wu0; next request must serve wu0 replicas
        // to others but can give worker 0 a wu1 replica.
        let b = s.request_work(WorkerId(0), false, T0).expect("wu1 r1");
        assert_eq!(b.task, TaskId(1));
    }

    #[test]
    fn deadline_issues_replacement_for_dead_replica() {
        let mut s = server(1);
        let a = s.request_work(WorkerId(0), false, T0).expect("r1");
        let ready_before = s.progress().ready;
        assert_eq!(s.worker_lost(a.aid), LostOutcome::AwaitDeadline);
        // Nothing happens until the deadline.
        assert_eq!(s.progress().ready, ready_before);
        assert!(s.deadline_expired(a.aid));
        assert_eq!(s.progress().ready, ready_before + 1);
        // The replacement can go to a new worker.
        let r = s.request_work(WorkerId(5), false, T0).expect("replacement");
        assert_eq!(r.task, TaskId(0));
    }

    #[test]
    fn resend_lost_results_reissues_on_reconnect() {
        let mut s = server(1);
        let a = s.request_work(WorkerId(0), false, T0).expect("r1");
        s.worker_lost(a.aid);
        // The host reconnects: its lost result is re-sent immediately,
        // with a fresh assignment id.
        let r = s.request_work(WorkerId(0), false, T0).expect("resend");
        assert_eq!(r.task, TaskId(0));
        assert_ne!(r.aid, a.aid);
        // The stale record is gone; its deadline is a no-op.
        assert!(!s.deadline_expired(a.aid));
        // The re-sent result completes normally.
        assert_eq!(s.complete(r.aid, T0), CompleteOutcome::Accepted);
    }

    #[test]
    fn without_resend_lost_replicas_wait_for_deadline() {
        let cfg = BoincConfig {
            resend_lost_results: false,
            ..BoincConfig::default()
        };
        let mut s = BoincServer::new(cfg, false, 1);
        s.submit(TaskId(0), 1000.0);
        let a = s.request_work(WorkerId(0), false, T0).expect("r1");
        s.worker_lost(a.aid);
        // Reconnect: nothing is re-sent (the paper-simulator behaviour).
        assert!(s.request_work(WorkerId(0), false, T0).is_none());
        // Only the deadline issues a replacement.
        assert!(s.deadline_expired(a.aid));
        assert!(s.request_work(WorkerId(0), false, T0).is_some());
    }

    #[test]
    fn reaped_dead_replica_releases_its_worker() {
        // One workunit, pool of one worker: the node dies, the deadline
        // reaps the replica, and the *same* worker (back up) must be
        // eligible again — otherwise small pools deadlock forever.
        let mut s = server(1);
        let a = s.request_work(WorkerId(0), false, T0).expect("r1");
        s.worker_lost(a.aid);
        assert!(s.deadline_expired(a.aid));
        let r = s
            .request_work(WorkerId(0), false, T0)
            .expect("released worker can retry");
        assert_eq!(r.task, TaskId(0));
        // A live (merely slow) replica keeps its worker burned.
        let b = s.request_work(WorkerId(1), false, T0).expect("r2");
        assert!(s.deadline_expired(b.aid));
        assert!(
            s.request_work(WorkerId(1), false, T0).is_none(),
            "slow replica still live: worker 1 stays burned"
        );
    }

    #[test]
    fn deadline_after_result_is_noop() {
        let mut s = server(1);
        let a = s.request_work(WorkerId(0), false, T0).expect("r1");
        s.complete(a.aid, T0);
        assert!(!s.deadline_expired(a.aid));
    }

    #[test]
    fn slow_replica_past_deadline_still_counts() {
        let mut s = server(1);
        let a = s.request_work(WorkerId(0), false, T0).expect("r1");
        let b = s.request_work(WorkerId(1), false, T0).expect("r2");
        // Replica a misses its deadline but its node is alive (just slow).
        assert!(s.deadline_expired(a.aid));
        // Its late result is still accepted toward quorum.
        assert_eq!(s.complete(a.aid, T0), CompleteOutcome::Accepted);
        assert_eq!(
            s.complete(b.aid, T0),
            CompleteOutcome::TaskCompleted(TaskId(0))
        );
    }

    #[test]
    fn cloud_duplicate_under_reschedule() {
        let mut s = BoincServer::new(BoincConfig::default(), true, 1);
        s.submit(TaskId(0), 1000.0);
        let _a = s.request_work(WorkerId(0), false, T0).expect("r1");
        let _b = s.request_work(WorkerId(1), false, T0).expect("r2");
        let _c = s.request_work(WorkerId(2), false, T0).expect("r3");
        // Queue exhausted; a cloud worker gets an extra replica.
        let d = s.request_work(WorkerId(10), true, T0).expect("cloud dup");
        assert_eq!(d.task, TaskId(0));
        // Only one live cloud replica per workunit.
        assert!(s.request_work(WorkerId(11), true, T0).is_none());
    }

    #[test]
    fn cloud_duplicate_respects_one_per_worker() {
        let mut s = BoincServer::new(BoincConfig::default(), true, 1);
        s.submit(TaskId(0), 1000.0);
        let _ = s.request_work(WorkerId(0), false, T0).expect("r1");
        // Cloud worker 0 (same id) already seen: no duplicate for it.
        assert!(s.request_work(WorkerId(0), true, T0).is_none());
    }

    #[test]
    fn cancel_supersedes_live_replicas() {
        let mut s = server(1);
        let a = s.request_work(WorkerId(0), false, T0).expect("r1");
        s.cancel_task(TaskId(0));
        assert!(s.task_closed(TaskId(0)));
        assert_eq!(s.complete(a.aid, T0), CompleteOutcome::Stale);
        assert_eq!(s.progress().completed, 0);
        assert_eq!(s.progress().ready, 0);
    }

    #[test]
    fn progress_counts() {
        let mut s = server(2);
        let a = s.request_work(WorkerId(0), false, T0).expect("r1");
        let p = s.progress();
        assert_eq!(p.submitted, 2);
        assert_eq!(p.dispatched, 1);
        assert_eq!(p.ready, 5);
        assert_eq!(p.running, 1);
        let b = s.request_work(WorkerId(1), false, T0).expect("r2");
        s.complete(a.aid, T0);
        s.complete(b.aid, T0);
        let p = s.progress();
        assert_eq!(p.completed, 1);
        assert_eq!(p.running, 0);
        // wu0's third replica is a stale queue entry now.
        assert_eq!(p.ready, 3);
    }

    #[test]
    #[should_panic(expected = "submitted twice")]
    fn double_submit_panics() {
        let mut s = server(1);
        s.submit(TaskId(0), 1.0);
    }
}
