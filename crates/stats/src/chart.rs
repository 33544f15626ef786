//! Stacked bar charts in the paper's style.

/// One stacked bar: a label plus named, ordered components.
#[derive(Clone, Debug, PartialEq)]
pub struct Bar {
    label: String,
    components: Vec<(String, f64)>,
}

impl Bar {
    /// Creates an empty bar.
    pub fn new(label: impl Into<String>) -> Self {
        Bar { label: label.into(), components: Vec::new() }
    }

    /// Appends a component (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not finite.
    pub fn with(mut self, name: impl Into<String>, value: f64) -> Self {
        assert!(value.is_finite() && value >= 0.0, "component values must be finite and >= 0");
        self.components.push((name.into(), value));
        self
    }

    /// The bar's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The ordered components.
    pub fn components(&self) -> &[(String, f64)] {
        &self.components
    }

    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.components.iter().map(|(_, v)| v).sum()
    }

    /// Returns the value of the named component, if present.
    pub fn component(&self, name: &str) -> Option<f64> {
        self.components.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    fn scaled(&self, factor: f64) -> Bar {
        Bar {
            label: self.label.clone(),
            components: self.components.iter().map(|(n, v)| (n.clone(), v * factor)).collect(),
        }
    }
}

/// A chart of stacked bars, rendered the way the paper prints its figures:
/// the first bar is typically normalized to 100.
#[derive(Clone, Debug, PartialEq)]
pub struct BarChart {
    title: String,
    bars: Vec<Bar>,
}

impl BarChart {
    /// Creates an empty chart.
    pub fn new(title: impl Into<String>) -> Self {
        BarChart { title: title.into(), bars: Vec::new() }
    }

    /// Appends a bar (builder style).
    pub fn with_bar(mut self, bar: Bar) -> Self {
        self.bars.push(bar);
        self
    }

    /// Appends a bar in place.
    pub fn push(&mut self, bar: Bar) {
        self.bars.push(bar);
    }

    /// The chart title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The bars, in insertion order.
    pub fn bars(&self) -> &[Bar] {
        &self.bars
    }

    /// A copy rescaled so the *first* bar totals 100 (the paper's
    /// convention). A chart whose first bar totals zero is returned
    /// unchanged.
    pub fn normalized_to_first(&self) -> BarChart {
        let Some(first) = self.bars.first() else { return self.clone() };
        let total = first.total();
        if total == 0.0 {
            return self.clone();
        }
        let factor = 100.0 / total;
        BarChart {
            title: self.title.clone(),
            bars: self.bars.iter().map(|b| b.scaled(factor)).collect(),
        }
    }

    /// The symbols used to draw stacked components, by component position.
    const PALETTE: [char; 8] = ['#', '=', '+', '-', 'o', 'x', '*', '~'];

    /// Renders horizontal stacked bars as ASCII art. `width` is the
    /// character width corresponding to the largest bar total.
    ///
    /// Each component position is drawn with a symbol from a fixed
    /// palette; a legend line follows the chart.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn render(&self, width: usize) -> String {
        assert!(width > 0, "chart width must be nonzero");
        let max_total = self.bars.iter().map(Bar::total).fold(0.0_f64, f64::max);
        let label_w = self.bars.iter().map(|b| b.label.len()).max().unwrap_or(0).max(5);
        let mut out = format!("== {} ==\n", self.title);
        for bar in &self.bars {
            let mut row = String::new();
            for ((_, value), &ch) in bar.components.iter().zip(Self::PALETTE.iter().cycle()) {
                let cells = if max_total > 0.0 {
                    (value / max_total * width as f64).round() as usize
                } else {
                    0
                };
                row.extend(std::iter::repeat_n(ch, cells));
            }
            out.push_str(&format!(
                "{:<label_w$} |{:<width$}| {:7.1}\n",
                bar.label,
                row,
                bar.total()
            ));
        }
        if let Some(bar) = self.bars.first() {
            let legend: Vec<String> = bar
                .components
                .iter()
                .zip(Self::PALETTE.iter().cycle())
                .map(|((n, _), ch)| format!("{ch}={n}"))
                .collect();
            out.push_str(&format!("legend: {}\n", legend.join(" ")));
        }
        out
    }

    /// Emits the chart as CSV: `label,component,value` rows with a header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("label,component,value\n");
        for bar in &self.bars {
            for (name, value) in &bar.components {
                out.push_str(&format!("{},{},{}\n", bar.label, name, value));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> BarChart {
        BarChart::new("t")
            .with_bar(Bar::new("a").with("CPU", 20.0).with("Stall", 30.0))
            .with_bar(Bar::new("b").with("CPU", 20.0).with("Stall", 5.0))
    }

    #[test]
    fn totals_sum_components() {
        let c = chart();
        assert_eq!(c.bars()[0].total(), 50.0);
        assert_eq!(c.bars()[1].total(), 25.0);
    }

    #[test]
    fn normalization_scales_all_bars_by_first() {
        let n = chart().normalized_to_first();
        assert_eq!(n.bars()[0].total(), 100.0);
        assert_eq!(n.bars()[1].total(), 50.0);
        assert_eq!(n.bars()[1].component("CPU"), Some(40.0));
    }

    #[test]
    fn normalizing_empty_or_zero_chart_is_identity() {
        let empty = BarChart::new("e");
        assert_eq!(empty.normalized_to_first(), empty);
        let zero = BarChart::new("z").with_bar(Bar::new("a").with("x", 0.0));
        assert_eq!(zero.normalized_to_first(), zero);
    }

    #[test]
    fn component_lookup() {
        let b = Bar::new("x").with("CPU", 1.0).with("L2Hit", 2.0);
        assert_eq!(b.component("L2Hit"), Some(2.0));
        assert_eq!(b.component("nope"), None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_component_rejected() {
        let _ = Bar::new("x").with("CPU", -1.0);
    }

    #[test]
    fn render_contains_labels_and_totals() {
        let s = chart().render(40);
        assert!(s.contains("== t =="));
        assert!(s.contains("a "));
        assert!(s.contains("50.0"));
        assert!(s.contains("legend: #=CPU ==Stall"));
    }

    #[test]
    fn render_bar_lengths_are_proportional() {
        let s = chart().render(40);
        let lines: Vec<&str> = s.lines().collect();
        let count = |l: &str, ch: char| l.chars().filter(|&c| c == ch).count();
        // Bar "a": 20/50 and 30/50 of 40 cells.
        assert_eq!(count(lines[1], '#'), 16);
        assert_eq!(count(lines[1], '='), 24);
        // Bar "b" is half the size.
        assert_eq!(count(lines[2], '#'), 16);
        assert_eq!(count(lines[2], '='), 4);
    }

    #[test]
    fn csv_round_trips_values() {
        let csv = chart().to_csv();
        assert!(csv.starts_with("label,component,value\n"));
        assert!(csv.contains("a,CPU,20\n"));
        assert!(csv.contains("b,Stall,5\n"));
        assert_eq!(csv.lines().count(), 5);
    }

    #[test]
    fn push_appends_like_with_bar() {
        let mut c = BarChart::new("t");
        c.push(Bar::new("only").with("x", 1.0));
        assert_eq!(c.bars().len(), 1);
    }
}
