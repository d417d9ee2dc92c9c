//! Drain-style online log template mining.
//!
//! Drain (He et al., ICWS 2017) groups log lines with a fixed-depth parse
//! tree: lines are first bucketed by token count, then by their first few
//! tokens (treating tokens containing digits as wildcards), and finally
//! matched against the bucket's templates with a token-similarity threshold.
//! LogReducer and Logzip both rely on a parser of this family; this is the
//! from-scratch substitute used by [`crate::logreducer`].
//!
//! Reached only through [`crate::logreducer`], so by `repro table5`.

use std::collections::HashMap;

use crate::template::{tokenize, Template};

/// Parameters of the miner.
#[derive(Debug, Clone)]
pub struct DrainConfig {
    /// Number of leading tokens used as tree keys.
    pub tree_depth: usize,
    /// Similarity threshold above which a line joins an existing template.
    pub similarity_threshold: f64,
    /// Maximum number of templates per leaf bucket.
    pub max_templates_per_bucket: usize,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            tree_depth: 2,
            similarity_threshold: 0.5,
            max_templates_per_bucket: 16,
        }
    }
}

/// The online miner: feed lines, get template ids back.
#[derive(Debug)]
pub struct DrainMiner {
    config: DrainConfig,
    /// All templates, indexed by id.
    templates: Vec<Template>,
    /// Leaf buckets: key → template ids.
    buckets: HashMap<String, Vec<usize>>,
}

impl DrainMiner {
    /// Create a miner with the given configuration.
    pub fn new(config: DrainConfig) -> Self {
        DrainMiner {
            config,
            templates: Vec::new(),
            buckets: HashMap::new(),
        }
    }

    /// Create a miner with default parameters.
    pub fn with_defaults() -> Self {
        Self::new(DrainConfig::default())
    }

    /// All mined templates.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// Number of mined templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Bucket key of a line: token count plus the first `tree_depth` tokens,
    /// with digit-bearing tokens generalised to `<*>` (Drain's heuristic that
    /// tokens containing digits are likely variables).
    fn bucket_key(&self, tokens: &[&str]) -> String {
        let mut key = format!("{}|", tokens.len());
        for tok in tokens.iter().take(self.config.tree_depth) {
            if tok.chars().any(|c| c.is_ascii_digit()) {
                key.push_str("<*>|");
            } else {
                key.push_str(tok);
                key.push('|');
            }
        }
        key
    }

    /// Process one line and return the id of the template it was assigned to.
    pub fn observe(&mut self, line: &str) -> usize {
        let tokens = tokenize(line);
        let key = self.bucket_key(&tokens);
        let bucket = self.buckets.entry(key).or_default();

        // Find the most similar template in the bucket.
        let mut best: Option<(usize, f64)> = None;
        for &id in bucket.iter() {
            let sim = self.templates[id].similarity(&tokens);
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((id, sim));
            }
        }
        match best {
            Some((id, sim)) if sim >= self.config.similarity_threshold => {
                self.templates[id].absorb(&tokens);
                id
            }
            _ if bucket.len() >= self.config.max_templates_per_bucket => {
                // Bucket full: absorb into the closest template anyway.
                // pbc-allow(panic): a full bucket has at least one template, so one was scored
                let id = best.map(|(id, _)| id).expect("bucket is non-empty");
                self.templates[id].absorb(&tokens);
                id
            }
            _ => {
                let id = self.templates.len();
                self.templates.push(Template::from_tokens(&tokens));
                bucket.push(id);
                id
            }
        }
    }

    /// Mine templates from a corpus, returning the per-line template ids.
    pub fn mine(lines: &[String], config: DrainConfig) -> (Self, Vec<usize>) {
        let mut miner = DrainMiner::new(config);
        let assignments = lines.iter().map(|l| miner.observe(l)).collect();
        (miner, assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdfs_like_lines(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| match i % 3 {
                0 => format!(
                    "081109 203518 143 INFO dfs.DataNode$DataXceiver: Receiving block blk_{} src: /10.250.{}.{}:54106",
                    -1608999687 + i as i64,
                    i % 255,
                    (i * 7) % 255
                ),
                1 => format!(
                    "081109 203518 35 INFO dfs.FSNamesystem: BLOCK* NameSystem.allocateBlock: /mnt/hadoop/mapred/system/job_{}/job.jar. blk_{}",
                    200811092030 + i as i64,
                    -1608999687 + i as i64
                ),
                _ => format!(
                    "081109 203519 143 INFO dfs.DataNode$PacketResponder: PacketResponder {} for block blk_{} terminating",
                    i % 3,
                    -1608999687 + i as i64
                ),
            })
            .collect()
    }

    #[test]
    fn mining_recovers_a_small_template_set() {
        let lines = hdfs_like_lines(300);
        let (miner, assignments) = DrainMiner::mine(&lines, DrainConfig::default());
        assert!(
            miner.template_count() <= 10,
            "300 lines from 3 formats should give few templates, got {}",
            miner.template_count()
        );
        assert_eq!(assignments.len(), lines.len());
        // Lines of the same format map to the same template.
        assert_eq!(assignments[0], assignments[3]);
        assert_eq!(assignments[1], assignments[4]);
        assert_eq!(assignments[2], assignments[5]);
    }

    #[test]
    fn templates_reconstruct_their_lines() {
        let lines = hdfs_like_lines(90);
        let (miner, assignments) = DrainMiner::mine(&lines, DrainConfig::default());
        for (line, &tid) in lines.iter().zip(assignments.iter()) {
            let template = &miner.templates()[tid];
            let tokens = tokenize(line);
            let vars = template
                .extract(&tokens)
                .unwrap_or_else(|| panic!("line must fit its template: {line}"));
            assert_eq!(&template.reconstruct(&vars), line);
        }
    }

    #[test]
    fn variable_positions_are_detected() {
        let lines = hdfs_like_lines(60);
        let (miner, _) = DrainMiner::mine(&lines, DrainConfig::default());
        // Every mined template should contain both constants and variables.
        for t in miner.templates() {
            assert!(
                t.constant_count() > 0,
                "template lost all constants: {}",
                t.display()
            );
            assert!(
                t.variable_count() > 0,
                "template has no variables: {}",
                t.display()
            );
        }
    }

    #[test]
    fn dissimilar_lines_get_separate_templates() {
        let mut miner = DrainMiner::with_defaults();
        let a = miner.observe("ERROR disk /dev/sda1 is full");
        let b = miner.observe("user login from 10.0.0.1 succeeded after 2 attempts");
        assert_ne!(a, b);
        assert_eq!(miner.template_count(), 2);
    }

    #[test]
    fn bucket_capacity_is_respected() {
        let config = DrainConfig {
            max_templates_per_bucket: 2,
            similarity_threshold: 0.99,
            ..DrainConfig::default()
        };
        let mut miner = DrainMiner::new(config);
        // Same token count and prefix, but all-different tails → would want
        // many templates; capacity forces absorption.
        for i in 0..20 {
            miner.observe(&format!("svc call endpoint{} latency{}", i, i * 3));
        }
        assert!(miner.template_count() <= 3);
    }

    #[test]
    fn empty_line_is_handled() {
        let mut miner = DrainMiner::with_defaults();
        let id = miner.observe("");
        assert_eq!(miner.template_count(), 1);
        let id2 = miner.observe("");
        assert_eq!(id, id2);
    }
}
