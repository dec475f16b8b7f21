//! Cloud resource provisioning strategies (§3.5) and their combination
//! naming scheme.
//!
//! A strategy combination is written `<trigger>-<provisioning>-<deployment>`
//! as in the paper's Figs. 4–5: e.g. `9A-G-D` starts cloud workers when
//! 90% of tasks have been *assigned*, starts them all at once (*Greedy*),
//! and runs them against a dedicated cloud server (*Cloud Duplication*).

use std::fmt;

/// When to start cloud workers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// `9C`: completed tasks reach `threshold` of BoT size (0.9 in the
    /// paper).
    CompletionThreshold(f64),
    /// `9A`: tasks assigned to workers reach `threshold` of BoT size.
    AssignmentThreshold(f64),
    /// `D`: execution variance `var(x) = tc(x) − ta(x)` doubles compared
    /// to the maximum observed during the first half of the execution.
    ExecutionVariance,
    /// `P` (anticipative, this library's implementation of the paper's
    /// future work, §7: "anticipate when a BoT is likely to produce a
    /// tail"): fire when the recent completion rate falls below
    /// `fraction` of the average rate so far, once at least half the BoT
    /// is complete. Reacts to the rate collapse that *precedes* the 90%
    /// mark instead of waiting for it.
    RateDrop {
        /// Rate-collapse threshold in `(0, 1)` (e.g. 0.5 = fire when the
        /// recent rate halves).
        fraction: f64,
    },
}

impl Trigger {
    /// The paper's three trigger variants at the default 90% threshold.
    pub const PAPER: [Trigger; 3] = [
        Trigger::CompletionThreshold(0.9),
        Trigger::AssignmentThreshold(0.9),
        Trigger::ExecutionVariance,
    ];

    /// The threshold (or rate-drop fraction) the trigger carries, if any.
    pub(crate) fn threshold(&self) -> Option<f64> {
        match *self {
            Trigger::CompletionThreshold(t)
            | Trigger::AssignmentThreshold(t)
            | Trigger::RateDrop { fraction: t } => Some(t),
            Trigger::ExecutionVariance => None,
        }
    }

    fn code(&self) -> String {
        match self {
            Trigger::CompletionThreshold(t) => format!("{}C", (t * 10.0).round() as u32),
            Trigger::AssignmentThreshold(t) => format!("{}A", (t * 10.0).round() as u32),
            Trigger::ExecutionVariance => "D".to_string(),
            Trigger::RateDrop { fraction } => format!("{}P", (fraction * 10.0).round() as u32),
        }
    }
}

/// How many cloud workers to start.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Provisioning {
    /// `G`: start `S` workers at once (`S` = provisioned credits in
    /// CPU·hours); idle cloud workers stop immediately to release credits.
    Greedy,
    /// `C`: start only as many workers as the credits can sustain for the
    /// estimated remaining time.
    Conservative,
}

impl Provisioning {
    /// Both variants.
    pub const ALL: [Provisioning; 2] = [Provisioning::Greedy, Provisioning::Conservative];

    fn code(&self) -> char {
        match self {
            Provisioning::Greedy => 'G',
            Provisioning::Conservative => 'C',
        }
    }
}

/// How cloud workers obtain work (mirrors the middleware-side
/// `dgrid::Deployment`; kept separate so this crate stays independent of
/// the simulator).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeployMode {
    /// `F`: cloud workers compete with regular workers, undifferentiated.
    Flat,
    /// `R`: the DG scheduler serves cloud workers first, duplicating
    /// running tasks if needed.
    Reschedule,
    /// `D`: uncompleted tasks are duplicated to a dedicated cloud server.
    CloudDuplication,
}

impl DeployMode {
    /// All three variants.
    pub const ALL: [DeployMode; 3] = [
        DeployMode::Flat,
        DeployMode::Reschedule,
        DeployMode::CloudDuplication,
    ];

    fn code(&self) -> char {
        match self {
            DeployMode::Flat => 'F',
            DeployMode::Reschedule => 'R',
            DeployMode::CloudDuplication => 'D',
        }
    }
}

/// A full strategy combination, e.g. `9C-C-R` — the combination §4.3
/// selects as "a good compromise between Tail Removal Efficiency,
/// credits consumption and ease of implementation".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrategyCombo {
    /// Trigger strategy.
    pub trigger: Trigger,
    /// Provisioning strategy.
    pub provisioning: Provisioning,
    /// Deployment strategy.
    pub deployment: DeployMode,
}

impl StrategyCombo {
    /// The paper's recommended default: `9C-C-R`.
    pub fn paper_default() -> Self {
        StrategyCombo {
            trigger: Trigger::CompletionThreshold(0.9),
            provisioning: Provisioning::Conservative,
            deployment: DeployMode::Reschedule,
        }
    }

    /// All 18 combinations evaluated in §4.2 (3 triggers × 2 provisioning
    /// × 3 deployments).
    pub fn all() -> Vec<StrategyCombo> {
        let mut v = Vec::with_capacity(18);
        for trigger in Trigger::PAPER {
            for provisioning in Provisioning::ALL {
                for deployment in DeployMode::ALL {
                    v.push(StrategyCombo {
                        trigger,
                        provisioning,
                        deployment,
                    });
                }
            }
        }
        v
    }

    /// Parses a combination name like `"9A-G-D"`.
    pub fn parse(name: &str) -> Option<StrategyCombo> {
        let mut parts = name.split('-');
        let t = parts.next()?;
        let p = parts.next()?;
        let d = parts.next()?;
        if parts.next().is_some() {
            return None;
        }
        let trigger = if t == "D" {
            Trigger::ExecutionVariance
        } else {
            let (digits, kind) = t.split_at(t.len().checked_sub(1)?);
            let tenths: f64 = digits.parse().ok()?;
            match kind {
                "C" => Trigger::CompletionThreshold(tenths / 10.0),
                "A" => Trigger::AssignmentThreshold(tenths / 10.0),
                "P" => Trigger::RateDrop {
                    fraction: tenths / 10.0,
                },
                _ => return None,
            }
        };
        let provisioning = match p {
            "G" => Provisioning::Greedy,
            "C" => Provisioning::Conservative,
            _ => return None,
        };
        let deployment = match d {
            "F" => DeployMode::Flat,
            "R" => DeployMode::Reschedule,
            "D" => DeployMode::CloudDuplication,
            _ => return None,
        };
        Some(StrategyCombo {
            trigger,
            provisioning,
            deployment,
        })
    }
}

impl Default for StrategyCombo {
    /// The paper's recommended combination,
    /// [`StrategyCombo::paper_default`] (`9C-C-R`).
    fn default() -> Self {
        Self::paper_default()
    }
}

impl fmt::Display for StrategyCombo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-{}-{}",
            self.trigger.code(),
            self.provisioning.code(),
            self.deployment.code()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(StrategyCombo::paper_default().to_string(), "9C-C-R");
        let combo = StrategyCombo {
            trigger: Trigger::AssignmentThreshold(0.9),
            provisioning: Provisioning::Greedy,
            deployment: DeployMode::CloudDuplication,
        };
        assert_eq!(combo.to_string(), "9A-G-D");
        let combo = StrategyCombo {
            trigger: Trigger::ExecutionVariance,
            provisioning: Provisioning::Conservative,
            deployment: DeployMode::Flat,
        };
        assert_eq!(combo.to_string(), "D-C-F");
    }

    #[test]
    fn all_has_18_unique_names() {
        let all = StrategyCombo::all();
        assert_eq!(all.len(), 18);
        let mut names: Vec<String> = all.iter().map(|c| c.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn parse_roundtrips() {
        for combo in StrategyCombo::all() {
            let name = combo.to_string();
            let parsed = StrategyCombo::parse(&name).expect("parses");
            assert_eq!(parsed.to_string(), name);
        }
        // Ablation threshold: 80%.
        let c = StrategyCombo::parse("8C-G-F").expect("parses");
        assert_eq!(c.trigger, Trigger::CompletionThreshold(0.8));
        assert_eq!(c.to_string(), "8C-G-F");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "9C", "9C-G", "9X-G-F", "9C-Z-F", "9C-G-Q", "9C-G-F-X"] {
            assert!(StrategyCombo::parse(bad).is_none(), "{bad} should fail");
        }
    }
}
