//! Processor model selection.

/// Parameters of the out-of-order model (Section 7 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OooParams {
    /// Issue width (the paper uses 4).
    pub issue_width: u32,
    /// Instruction window (reorder buffer) size (the paper uses 64).
    pub window: u32,
    /// Number of load/store units (the paper uses 2).
    pub load_store_units: u32,
}

impl OooParams {
    /// The paper's aggressive four-wide configuration.
    pub fn paper() -> Self {
        OooParams { issue_width: 4, window: 64, load_store_units: 2 }
    }
}

impl Default for OooParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Which processor timing model drives the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ProcessorModel {
    /// Single-issue pipelined in-order core (the paper's medium-speed SimOS
    /// model, used for most results).
    #[default]
    InOrder,
    /// Multiple-issue out-of-order core (the paper's slowest, most detailed
    /// model, used in Section 7).
    OutOfOrder(OooParams),
}

impl ProcessorModel {
    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            ProcessorModel::InOrder => "InOrder",
            ProcessorModel::OutOfOrder(_) => "OOO",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ooo_parameters() {
        let p = OooParams::paper();
        assert_eq!(p.issue_width, 4);
        assert_eq!(p.window, 64);
        assert_eq!(p.load_store_units, 2);
    }

    #[test]
    fn default_model_is_in_order() {
        assert_eq!(ProcessorModel::default(), ProcessorModel::InOrder);
        assert_eq!(ProcessorModel::default().label(), "InOrder");
    }

    #[test]
    fn ooo_label() {
        assert_eq!(ProcessorModel::OutOfOrder(OooParams::paper()).label(), "OOO");
    }
}
