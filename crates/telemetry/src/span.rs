//! Batch-lifecycle spans: the protocol stages a CAM batch passes through.

/// One interval in the life of a batch. Each stage measures the time from
/// the end of the previous stage:
///
/// ```text
/// GPU doorbell ──Pickup──▶ poller ──Dispatch──▶ worker ──Submit──▶ SQ
///      SQ ──Complete──▶ last CQE ──Retire──▶ region-4 retire
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Doorbell write (region 3) → polling-thread pickup.
    Pickup,
    /// Pickup → worker dequeues its work item.
    Dispatch,
    /// Worker dequeue → final SQE staged and queue-pair doorbell rung.
    Submit,
    /// Doorbell rung → last NVMe completion reaped.
    Complete,
    /// Last completion → batch retired through region 4.
    Retire,
}

impl Stage {
    /// Every stage, in protocol order.
    pub const ALL: [Stage; 5] = [
        Stage::Pickup,
        Stage::Dispatch,
        Stage::Submit,
        Stage::Complete,
        Stage::Retire,
    ];

    /// Stable label used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Pickup => "pickup",
            Stage::Dispatch => "dispatch",
            Stage::Submit => "submit",
            Stage::Complete => "complete",
            Stage::Retire => "retire",
        }
    }

    /// Dense index (position in [`Stage::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_densely_indexed() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["pickup", "dispatch", "submit", "complete", "retire"]
        );
    }
}
