//! Basic blocks and execution-time intervals.

use std::fmt;

use crate::error::CfgError;

/// Identifier of a basic block within one control-flow graph.
///
/// Ids are dense indices assigned by the [`CfgBuilder`] in insertion order.
///
/// [`CfgBuilder`]: crate::CfgBuilder
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

impl BlockId {
    /// The underlying dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A `[min, max]` execution-time interval for one basic block, as produced by
/// standard WCET estimation tools (the paper's `eminb`/`emaxb`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecInterval {
    /// Best-case execution time of the block.
    pub min: f64,
    /// Worst-case execution time of the block.
    pub max: f64,
}

impl ExecInterval {
    /// Creates a validated interval.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::BadInterval`] (with a placeholder block id `b0`)
    /// if `min` or `max` is negative or non-finite, or `min > max`.
    ///
    /// ```
    /// use fnpr_cfg::ExecInterval;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let iv = ExecInterval::new(15.0, 25.0)?;
    /// assert_eq!(iv.width(), 10.0);
    /// assert!(ExecInterval::new(25.0, 15.0).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(min: f64, max: f64) -> Result<Self, CfgError> {
        if !(min.is_finite() && max.is_finite()) || min < 0.0 || min > max {
            return Err(CfgError::BadInterval {
                block: BlockId(0),
                min,
                max,
            });
        }
        Ok(Self { min, max })
    }

    /// An interval with identical bounds (a block with fixed cost).
    ///
    /// # Errors
    ///
    /// As [`ExecInterval::new`].
    pub fn exact(cost: f64) -> Result<Self, CfgError> {
        Self::new(cost, cost)
    }

    /// The interval width `max - min`.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.max - self.min
    }

    /// Interval addition: `[a,b] + [c,d] = [a+c, b+d]` (sequential
    /// composition of execution times).
    #[must_use]
    pub fn plus(&self, other: ExecInterval) -> ExecInterval {
        ExecInterval {
            min: self.min + other.min,
            max: self.max + other.max,
        }
    }

    /// Scales the interval by iteration counts: executing the block between
    /// `min_iterations` and `max_iterations` times.
    #[must_use]
    pub fn repeated(&self, min_iterations: u64, max_iterations: u64) -> ExecInterval {
        ExecInterval {
            min: self.min * min_iterations as f64,
            max: self.max * max_iterations as f64,
        }
    }
}

/// A basic block: a maximal straight-line instruction sequence with one entry
/// and one exit, annotated with its execution-time interval.
///
/// Memory accesses (needed for CRPD analysis) are deliberately *not* stored
/// here — `fnpr-cache` associates access sets with block ids externally, so
/// the graph substrate stays independent of the cache model.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// The block's id within its graph.
    pub id: BlockId,
    /// Execution-time interval of one traversal of the block.
    pub exec: ExecInterval,
    /// Optional human-readable label (used by the DOT exporter and traces).
    pub label: Option<String>,
}

impl BasicBlock {
    /// Creates a block (normally done through [`CfgBuilder::block`]).
    ///
    /// [`CfgBuilder::block`]: crate::CfgBuilder::block
    #[must_use]
    pub fn new(id: BlockId, exec: ExecInterval) -> Self {
        Self {
            id,
            exec,
            label: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_validation() {
        assert!(ExecInterval::new(0.0, 0.0).is_ok());
        assert!(ExecInterval::new(5.0, 5.0).is_ok());
        assert!(ExecInterval::new(-1.0, 5.0).is_err());
        assert!(ExecInterval::new(6.0, 5.0).is_err());
        assert!(ExecInterval::new(f64::NAN, 5.0).is_err());
        assert!(ExecInterval::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn interval_arithmetic() {
        let a = ExecInterval::new(15.0, 25.0).unwrap();
        let b = ExecInterval::new(5.0, 10.0).unwrap();
        assert_eq!(
            a.plus(b),
            ExecInterval {
                min: 20.0,
                max: 35.0
            }
        );
        assert_eq!(
            a.repeated(2, 4),
            ExecInterval {
                min: 30.0,
                max: 100.0
            }
        );
        assert_eq!(
            a.repeated(0, 1),
            ExecInterval {
                min: 0.0,
                max: 25.0
            }
        );
        assert_eq!(a.width(), 10.0);
    }

    #[test]
    fn block_display_and_label() {
        let block = BasicBlock {
            label: Some("loop_header".into()),
            ..BasicBlock::new(BlockId(3), ExecInterval::exact(7.0).unwrap())
        };
        assert_eq!(block.id.to_string(), "b3");
        assert_eq!(block.label.as_deref(), Some("loop_header"));
        assert_eq!(block.id.index(), 3);
    }
}
