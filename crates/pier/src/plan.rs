//! Distributed query plans.
//!
//! A plan is a chain of *stages*. Each stage executes at the DHT node that
//! owns its `site` key: it scans the local fragment of a published table,
//! optionally filters it, joins it with the tuple stream arriving from the
//! previous stage, projects, and ships the output to the next stage — or
//! streams it back to the query node after the last stage. This is exactly
//! the shape of the paper's Figures 2 (distributed symmetric-hash-join
//! keyword query) and 3 (single-site InvertedCache query).

use crate::expr::Expr;
use crate::schema::TableDef;
use crate::value::Value;
use pier_dht::{Contact, Key};
use serde::{Deserialize, Serialize};

/// Globally unique query identifier: issuing node + local sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct QueryId {
    pub origin: u32,
    pub seq: u32,
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}-{}", self.origin, self.seq)
    }
}

/// The local relation a stage scans: all tuples of `table` published under
/// the exact index key `key`.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ScanSpec {
    pub table: String,
    pub key: Key,
}

/// Join columns for stages past the first: `incoming` indexes the tuple
/// stream from the previous stage, `scanned` indexes the local relation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct JoinCols {
    pub incoming: usize,
    pub scanned: usize,
}

/// One pipeline stage.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Stage {
    /// DHT key whose owner executes this stage.
    pub site: Key,
    pub scan: ScanSpec,
    /// Filter over scanned tuples (before any join).
    pub filter: Option<Expr>,
    /// `None` for the first stage; `Some` for join stages.
    pub join: Option<JoinCols>,
    /// Projection over the stage output row: the scanned tuple for the
    /// first stage, `incoming ++ scanned` for join stages.
    pub project: Vec<usize>,
}

/// A complete distributed query.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct QueryPlan {
    pub id: QueryId,
    pub stages: Vec<Stage>,
    /// Results stream directly to this node (the paper exempts answers from
    /// DHT routing).
    pub collector: Contact,
    /// Stop after this many result tuples.
    pub limit: Option<u32>,
}

/// Plan construction/validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    Empty,
    FirstStageHasJoin,
    LaterStageMissingJoin(usize),
    BadColumn { stage: usize, what: &'static str, col: usize, width: usize },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Empty => write!(f, "plan has no stages"),
            PlanError::FirstStageHasJoin => write!(f, "first stage cannot join"),
            PlanError::LaterStageMissingJoin(i) => write!(f, "stage {i} needs join columns"),
            PlanError::BadColumn { stage, what, col, width } => {
                write!(f, "stage {stage}: {what} column {col} out of range (width {width})")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl QueryPlan {
    /// Validate stage structure and column references. `widths[i]` must be
    /// the arity of stage `i`'s scanned relation.
    pub fn validate(&self, scan_widths: &[usize]) -> Result<(), PlanError> {
        if self.stages.is_empty() {
            return Err(PlanError::Empty);
        }
        let mut incoming_width = 0usize;
        for (i, stage) in self.stages.iter().enumerate() {
            let scan_width = scan_widths[i];
            match (&stage.join, i) {
                (Some(_), 0) => return Err(PlanError::FirstStageHasJoin),
                (None, j) if j > 0 => return Err(PlanError::LaterStageMissingJoin(i)),
                (Some(jc), _) => {
                    if jc.incoming >= incoming_width {
                        return Err(PlanError::BadColumn {
                            stage: i,
                            what: "join.incoming",
                            col: jc.incoming,
                            width: incoming_width,
                        });
                    }
                    if jc.scanned >= scan_width {
                        return Err(PlanError::BadColumn {
                            stage: i,
                            what: "join.scanned",
                            col: jc.scanned,
                            width: scan_width,
                        });
                    }
                }
                (None, _) => {}
            }
            if let Some(f) = &stage.filter {
                if let Some(c) = f.max_col() {
                    if c >= scan_width {
                        return Err(PlanError::BadColumn {
                            stage: i,
                            what: "filter",
                            col: c,
                            width: scan_width,
                        });
                    }
                }
            }
            let out_base =
                if stage.join.is_some() { incoming_width + scan_width } else { scan_width };
            for &c in &stage.project {
                if c >= out_base {
                    return Err(PlanError::BadColumn {
                        stage: i,
                        what: "project",
                        col: c,
                        width: out_base,
                    });
                }
            }
            incoming_width = stage.project.len();
        }
        Ok(())
    }

    /// Encoded size of the plan (what `Install` messages cost on the wire).
    pub fn encoded_size(&self) -> usize {
        pier_codec::encoded_size(self).expect("plans always serialize")
    }
}

/// Builder for the common case: an equality-key join chain over published
/// tables (the paper's keyword plans are instances of this).
pub struct JoinChainBuilder {
    id: QueryId,
    collector: Contact,
    stages: Vec<Stage>,
    limit: Option<u32>,
}

impl JoinChainBuilder {
    pub fn new(id: QueryId, collector: Contact) -> Self {
        JoinChainBuilder { id, collector, stages: Vec::new(), limit: None }
    }

    /// First stage: scan `table` at `index value = key_value`, project.
    pub fn scan(
        mut self,
        table: &TableDef,
        key_value: &Value,
        filter: Option<Expr>,
        project: Vec<usize>,
    ) -> Self {
        assert!(self.stages.is_empty(), "scan must be the first stage");
        let key = table.publish_key_for(key_value);
        self.stages.push(Stage {
            site: key,
            scan: ScanSpec { table: table.name.clone(), key },
            filter,
            join: None,
            project,
        });
        self
    }

    /// Append a join stage against `table` at `key_value`.
    pub fn join(
        mut self,
        table: &TableDef,
        key_value: &Value,
        join: JoinCols,
        filter: Option<Expr>,
        project: Vec<usize>,
    ) -> Self {
        assert!(!self.stages.is_empty(), "join requires a preceding stage");
        let key = table.publish_key_for(key_value);
        self.stages.push(Stage {
            site: key,
            scan: ScanSpec { table: table.name.clone(), key },
            filter,
            join: Some(join),
            project,
        });
        self
    }

    pub fn limit(mut self, n: u32) -> Self {
        self.limit = Some(n);
        self
    }

    pub fn build(self) -> QueryPlan {
        QueryPlan { id: self.id, stages: self.stages, collector: self.collector, limit: self.limit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, FieldType, Schema};
    use pier_netsim::NodeId;

    fn inverted() -> TableDef {
        TableDef::new(
            "inverted",
            Schema::new(vec![
                Field::new("keyword", FieldType::Str),
                Field::new("fileID", FieldType::Key),
            ]),
            0,
        )
    }

    fn collector() -> Contact {
        Contact::for_node(NodeId::new(9))
    }

    fn two_term_plan() -> QueryPlan {
        let inv = inverted();
        JoinChainBuilder::new(QueryId { origin: 9, seq: 1 }, collector())
            .scan(&inv, &Value::Str("led".into()), None, vec![1])
            .join(
                &inv,
                &Value::Str("zeppelin".into()),
                JoinCols { incoming: 0, scanned: 1 },
                None,
                vec![0],
            )
            .build()
    }

    #[test]
    fn builder_produces_valid_chain() {
        let plan = two_term_plan();
        assert_eq!(plan.stages.len(), 2);
        plan.validate(&[2, 2]).expect("valid");
        // Stage sites differ (different keywords hash apart).
        assert_ne!(plan.stages[0].site, plan.stages[1].site);
        assert_eq!(plan.stages[0].site, plan.stages[0].scan.key);
    }

    #[test]
    fn validation_catches_structure_errors() {
        let mut plan = two_term_plan();
        plan.stages[1].join = None;
        assert_eq!(plan.validate(&[2, 2]), Err(PlanError::LaterStageMissingJoin(1)));

        let mut plan2 = two_term_plan();
        plan2.stages[0].join = Some(JoinCols { incoming: 0, scanned: 0 });
        assert_eq!(plan2.validate(&[2, 2]), Err(PlanError::FirstStageHasJoin));

        let empty = QueryPlan {
            id: QueryId { origin: 0, seq: 0 },
            stages: vec![],
            collector: collector(),
            limit: None,
        };
        assert_eq!(empty.validate(&[]), Err(PlanError::Empty));
    }

    #[test]
    fn validation_catches_bad_columns() {
        let mut plan = two_term_plan();
        plan.stages[0].project = vec![5];
        assert!(matches!(
            plan.validate(&[2, 2]),
            Err(PlanError::BadColumn { stage: 0, what: "project", .. })
        ));

        let mut plan2 = two_term_plan();
        plan2.stages[1].join = Some(JoinCols { incoming: 3, scanned: 1 });
        assert!(matches!(
            plan2.validate(&[2, 2]),
            Err(PlanError::BadColumn { stage: 1, what: "join.incoming", .. })
        ));

        let mut plan3 = two_term_plan();
        plan3.stages[0].filter = Some(Expr::contains(9, "x"));
        assert!(matches!(
            plan3.validate(&[2, 2]),
            Err(PlanError::BadColumn { stage: 0, what: "filter", .. })
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let plan = two_term_plan();
        let bytes = pier_codec::to_bytes(&plan).unwrap();
        assert_eq!(bytes.len(), plan.encoded_size());
        let back: QueryPlan = pier_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, plan);
    }

    /// Exact wire sizes of the paper's two plan shapes, so a change to the
    /// plan or expression encoding cannot move `Install` bytes unseen.
    #[test]
    fn plan_wire_sizes_are_pinned() {
        let cache = TableDef::new(
            "inverted_cache",
            Schema::new(vec![
                Field::new("keyword", FieldType::Str),
                Field::new("fileID", FieldType::Key),
                Field::new("fulltext", FieldType::Str),
            ]),
            0,
        );
        let filter = Expr::And(vec![Expr::contains(2, "zeppelin"), Expr::contains(2, "stairway")]);
        let single_site = JoinChainBuilder::new(QueryId { origin: 9, seq: 1 }, collector())
            .scan(&cache, &Value::Str("led".into()), Some(filter), vec![1])
            .build();
        assert_eq!(single_site.encoded_size(), 117);

        let inv = inverted();
        let chain = ["zeppelin", "stairway"].iter().fold(
            JoinChainBuilder::new(QueryId { origin: 9, seq: 2 }, collector()).scan(
                &inv,
                &Value::Str("led".into()),
                None,
                vec![1],
            ),
            |b, t| {
                b.join(
                    &inv,
                    &Value::Str((*t).into()),
                    JoinCols { incoming: 0, scanned: 1 },
                    None,
                    vec![0],
                )
            },
        );
        let chain = chain.build();
        assert_eq!(chain.stages.len(), 3);
        assert_eq!(chain.encoded_size(), 195);
    }

    #[test]
    fn install_message_is_sub_kilobyte() {
        // The paper reports ~850 bytes per InvertedCache query message; our
        // compact plans should be of that order, not kilobytes.
        let plan = two_term_plan();
        assert!(plan.encoded_size() < 400, "got {}", plan.encoded_size());
    }
}
