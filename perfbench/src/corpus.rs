//! The generated inputs shared by the served workloads: a policy corpus
//! over the 20 Table-A tasks × several users' trusted contexts, and the
//! calls each task really makes.

use std::collections::{HashMap, HashSet};

use conseca_agent::{build_trusted_context, PolicyMode};
use conseca_core::{Policy, PolicyGenerator, TrajectoryPolicy, TrustedContext};
use conseca_llm::TemplatePolicyModel;
use conseca_shell::{default_registry, parse_command, ApiCall};
use conseca_workloads::{all_tasks, golden_examples, run_task_once, Env};

use crate::probes::TimedModel;

/// The tenant every workload bills to.
pub const TENANT: &str = "bench";

/// Users whose trusted contexts key the corpus.
pub const CORPUS_USERS: [&str; 4] = ["alice", "bob", "carol", "dave"];

/// One policy key of the corpus.
pub struct Key {
    /// Index into [`Corpus::calls`].
    pub task: usize,
    pub description: &'static str,
    pub context: TrustedContext,
}

pub struct Corpus {
    pub keys: Vec<Key>,
    /// The generated policy of each key.
    pub policies: Vec<Policy>,
    /// Per task: the calls a `NoPolicy` run of its scripted planner made.
    pub calls: Vec<Vec<ApiCall>>,
}

impl Corpus {
    /// Generates the corpus through the (timed) template model. Every
    /// third key also carries a sliding-window rate limit on its task's
    /// most frequent API, so served checks exercise trajectory state.
    pub fn generate() -> Corpus {
        let registry = default_registry();
        let tasks = all_tasks();
        let calls: Vec<Vec<ApiCall>> = tasks
            .iter()
            .map(|task| {
                let report = run_task_once(task.id, 0, PolicyMode::NoPolicy, false).report;
                report
                    .executed_commands
                    .iter()
                    .chain(&report.denied_commands)
                    .map(|line| parse_command(line, &registry).expect("harvested command parses"))
                    .collect()
            })
            .collect();
        let env = Env::build();
        let mut generator = PolicyGenerator::new(TimedModel(TemplatePolicyModel::new()), &registry)
            .with_golden_examples(golden_examples());
        let mut keys = Vec::new();
        let mut policies = Vec::new();
        for (task_index, task) in tasks.iter().enumerate() {
            for user in CORPUS_USERS {
                let context = build_trusted_context(&env.vfs, &env.mail, user);
                let (policy, _) = generator.set_policy(task.description, &context);
                let mut policy = (*policy).clone();
                if keys.len() % 3 == 0 {
                    let api = most_frequent_api(&calls[task_index]);
                    policy.set_trajectory(TrajectoryPolicy::new().limit_in_window(
                        &api,
                        2,
                        4,
                        "bursts of the same call are throttled",
                    ));
                }
                keys.push(Key { task: task_index, description: task.description, context });
                policies.push(policy);
            }
        }
        Corpus { keys, policies, calls }
    }

    /// `count` distinct policy variants per key for reload/install churn:
    /// variant `v` of key `k` carries a per-task action budget unique to
    /// (k, v), so every variant has its own fingerprint (a revoke by
    /// fingerprint then retires exactly one key's snapshot).
    pub fn variants(&self, count: usize) -> Vec<Vec<Policy>> {
        let variants: Vec<Vec<Policy>> = self
            .policies
            .iter()
            .enumerate()
            .map(|(k, base)| {
                (0..count)
                    .map(|v| {
                        let mut policy = base.clone();
                        let trajectory = policy.trajectory.clone().budget(1000 + k * count + v);
                        policy.set_trajectory(trajectory);
                        policy
                    })
                    .collect()
            })
            .collect();
        let distinct: HashSet<u64> = variants.iter().flatten().map(Policy::fingerprint).collect();
        assert_eq!(distinct.len(), self.keys.len() * count, "variant fingerprints collide");
        variants
    }
}

fn most_frequent_api(calls: &[ApiCall]) -> String {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for call in calls {
        *counts.entry(call.name.as_str()).or_default() += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
        .map(|(api, _)| api.to_owned())
        .unwrap_or_else(|| "ls".to_owned())
}
