//! SVG rendering of stacked bar charts and line charts.
//!
//! The ASCII charts are for terminals; this renderer writes the same
//! [`BarChart`] (and the observability layer's [`LineChart`]) as
//! self-contained SVG files for papers and READMEs. No external
//! dependencies: the SVG is assembled by hand.

use crate::chart::BarChart;
use crate::line::LineChart;

/// Palette for stacked components (colorblind-safe Okabe-Ito subset).
const COLORS: [&str; 8] =
    ["#0072B2", "#E69F00", "#009E73", "#D55E00", "#CC79A7", "#56B4E9", "#F0E442", "#999999"];

const BAR_HEIGHT: f64 = 22.0;
const BAR_GAP: f64 = 8.0;
const LABEL_WIDTH: f64 = 130.0;
const VALUE_WIDTH: f64 = 60.0;
const PLOT_WIDTH: f64 = 420.0;
const TOP: f64 = 40.0;
const LEGEND_HEIGHT: f64 = 26.0;

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Renders a chart as a standalone SVG document.
///
/// # Example
///
/// ```
/// use csim_stats::{svg, Bar, BarChart};
/// let chart = BarChart::new("demo")
///     .with_bar(Bar::new("Base").with("CPU", 30.0).with("Stall", 70.0));
/// let doc = svg::render(&chart);
/// assert!(doc.starts_with("<svg"));
/// assert!(doc.contains("Base"));
/// ```
pub fn render(chart: &BarChart) -> String {
    let bars = chart.bars();
    let max_total = bars.iter().map(|b| b.total()).fold(0.0_f64, f64::max).max(1e-12);
    let height = TOP + bars.len() as f64 * (BAR_HEIGHT + BAR_GAP) + LEGEND_HEIGHT + 10.0;
    let width = LABEL_WIDTH + PLOT_WIDTH + VALUE_WIDTH + 20.0;

    let mut out = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\" font-family=\"sans-serif\" font-size=\"12\">\n"
    );
    out.push_str(&format!(
        "  <text x=\"10\" y=\"20\" font-size=\"14\" font-weight=\"bold\">{}</text>\n",
        escape(chart.title())
    ));

    for (i, bar) in bars.iter().enumerate() {
        let y = TOP + i as f64 * (BAR_HEIGHT + BAR_GAP);
        out.push_str(&format!(
            "  <text x=\"{:.0}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>\n",
            LABEL_WIDTH - 6.0,
            y + BAR_HEIGHT * 0.72,
            escape(bar.label())
        ));
        let mut x = LABEL_WIDTH;
        for ((name, value), color) in bar.components().iter().zip(COLORS.iter().cycle()) {
            let w = value / max_total * PLOT_WIDTH;
            if w > 0.0 {
                out.push_str(&format!(
                    "  <rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{BAR_HEIGHT:.0}\" \
                     fill=\"{color}\"><title>{}: {:.1}</title></rect>\n",
                    escape(name),
                    value
                ));
            }
            x += w;
        }
        out.push_str(&format!(
            "  <text x=\"{:.1}\" y=\"{:.1}\">{:.1}</text>\n",
            x + 6.0,
            y + BAR_HEIGHT * 0.72,
            bar.total()
        ));
    }

    if let Some(first) = bars.first() {
        let y = TOP + bars.len() as f64 * (BAR_HEIGHT + BAR_GAP) + 14.0;
        let mut x = LABEL_WIDTH;
        for ((name, _), color) in first.components().iter().zip(COLORS.iter().cycle()) {
            out.push_str(&format!(
                "  <rect x=\"{x:.1}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\n",
                y - 9.0,
            ));
            out.push_str(&format!(
                "  <text x=\"{:.1}\" y=\"{y:.1}\">{}</text>\n",
                x + 14.0,
                escape(name)
            ));
            x += 14.0 + 7.0 * name.len() as f64 + 18.0;
        }
    }

    out.push_str("</svg>\n");
    out
}

/// Renders the chart to a file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_file(chart: &BarChart, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, render(chart))
}

const LINE_PLOT_W: f64 = 520.0;
const LINE_PLOT_H: f64 = 220.0;
const LINE_LEFT: f64 = 64.0;
const LINE_TOP: f64 = 36.0;
const LINE_BOTTOM: f64 = 46.0;
const TICKS: usize = 5;

/// A tick label: enough digits to tell ticks apart, no trailing noise.
fn tick_label(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e9 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders a line chart as a standalone SVG document: one polyline per
/// series in the shared Okabe-Ito palette, x/y axes with ticks and grid
/// lines, and a legend.
///
/// # Example
///
/// ```
/// use csim_stats::{svg, LineChart, Series};
/// let chart = LineChart::new("IPC per epoch")
///     .with_axes("epoch", "IPC")
///     .with_series(Series::new("ipc").with(0.0, 0.4).with(1.0, 0.6));
/// let doc = svg::render_lines(&chart);
/// assert!(doc.starts_with("<svg"));
/// assert!(doc.contains("polyline"));
/// ```
pub fn render_lines(chart: &LineChart) -> String {
    let width = LINE_LEFT + LINE_PLOT_W + 24.0;
    let height = LINE_TOP + LINE_PLOT_H + LINE_BOTTOM + 18.0 * chart.series().len() as f64;
    let mut out = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\" font-family=\"sans-serif\" font-size=\"11\">\n"
    );
    out.push_str(&format!(
        "  <text x=\"10\" y=\"20\" font-size=\"14\" font-weight=\"bold\">{}</text>\n",
        escape(chart.title())
    ));
    let Some(((x0, x1), (y0, y1))) = chart.ranges() else {
        out.push_str("  <text x=\"10\" y=\"40\">(no data)</text>\n</svg>\n");
        return out;
    };
    let sx = |x: f64| LINE_LEFT + (x - x0) / (x1 - x0) * LINE_PLOT_W;
    let sy = |y: f64| LINE_TOP + LINE_PLOT_H - (y - y0) / (y1 - y0) * LINE_PLOT_H;

    // Axes, ticks and horizontal grid lines.
    out.push_str(&format!(
        "  <rect x=\"{LINE_LEFT}\" y=\"{LINE_TOP}\" width=\"{LINE_PLOT_W}\" \
         height=\"{LINE_PLOT_H}\" fill=\"none\" stroke=\"#333333\"/>\n"
    ));
    for t in 0..=TICKS {
        let frac = t as f64 / TICKS as f64;
        let (xv, yv) = (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0));
        let (px, py) = (sx(xv), sy(yv));
        if t > 0 && t < TICKS {
            out.push_str(&format!(
                "  <line x1=\"{LINE_LEFT}\" y1=\"{py:.1}\" x2=\"{:.1}\" y2=\"{py:.1}\" \
                 stroke=\"#dddddd\"/>\n",
                LINE_LEFT + LINE_PLOT_W
            ));
        }
        out.push_str(&format!(
            "  <text x=\"{px:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>\n",
            LINE_TOP + LINE_PLOT_H + 16.0,
            tick_label(xv)
        ));
        out.push_str(&format!(
            "  <text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>\n",
            LINE_LEFT - 6.0,
            py + 4.0,
            tick_label(yv)
        ));
    }
    if !chart.x_label().is_empty() {
        out.push_str(&format!(
            "  <text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>\n",
            LINE_LEFT + LINE_PLOT_W / 2.0,
            LINE_TOP + LINE_PLOT_H + 34.0,
            escape(chart.x_label())
        ));
    }
    if !chart.y_label().is_empty() {
        out.push_str(&format!(
            "  <text x=\"14\" y=\"{:.1}\" text-anchor=\"middle\" \
             transform=\"rotate(-90 14 {:.1})\">{}</text>\n",
            LINE_TOP + LINE_PLOT_H / 2.0,
            LINE_TOP + LINE_PLOT_H / 2.0,
            escape(chart.y_label())
        ));
    }

    // One polyline per series, plus a legend row each.
    for (idx, (series, color)) in chart.series().iter().zip(COLORS.iter().cycle()).enumerate() {
        if !series.points().is_empty() {
            let pts: Vec<String> = series
                .points()
                .iter()
                .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
                .collect();
            out.push_str(&format!(
                "  <polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" \
                 stroke-width=\"1.6\"/>\n",
                pts.join(" ")
            ));
        }
        let ly = LINE_TOP + LINE_PLOT_H + LINE_BOTTOM + 18.0 * idx as f64;
        out.push_str(&format!(
            "  <line x1=\"{LINE_LEFT}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" \
             stroke=\"{color}\" stroke-width=\"3\"/>\n",
            ly - 4.0,
            LINE_LEFT + 18.0,
            ly - 4.0
        ));
        out.push_str(&format!(
            "  <text x=\"{:.1}\" y=\"{ly:.1}\">{}</text>\n",
            LINE_LEFT + 24.0,
            escape(series.name())
        ));
    }

    out.push_str("</svg>\n");
    out
}

/// Renders a line chart to a file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_lines_file(
    chart: &LineChart,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    std::fs::write(path, render_lines(chart))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chart::Bar;

    fn chart() -> BarChart {
        BarChart::new("t <1>")
            .with_bar(Bar::new("a&b").with("CPU", 25.0).with("Stall", 75.0))
            .with_bar(Bar::new("c").with("CPU", 25.0).with("Stall", 25.0))
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let doc = render(&chart());
        assert!(doc.starts_with("<svg"));
        assert!(doc.trim_end().ends_with("</svg>"));
        assert_eq!(doc.matches("<rect").count(), 4 + 2); // 4 segments + 2 legend swatches
    }

    #[test]
    fn special_characters_are_escaped() {
        let doc = render(&chart());
        assert!(doc.contains("t &lt;1&gt;"));
        assert!(doc.contains("a&amp;b"));
        assert!(!doc.contains("a&b<"));
    }

    #[test]
    fn widths_are_proportional() {
        let doc = render(&chart());
        // First bar total 100 spans the full plot width; second bar's
        // stall segment is a quarter of it.
        assert!(doc.contains("width=\"105.0\"")); // 25/100 * 420
        assert!(doc.contains("width=\"315.0\"")); // 75/100 * 420
    }

    #[test]
    fn empty_chart_renders_without_panic() {
        let doc = render(&BarChart::new("empty"));
        assert!(doc.contains("empty"));
    }

    fn line_chart() -> LineChart {
        use crate::line::Series;
        LineChart::new("ipc <t>")
            .with_axes("epoch", "IPC")
            .with_series(Series::new("a&b").with(0.0, 0.2).with(1.0, 0.8).with(2.0, 0.5))
            .with_series(Series::new("flat").with(0.0, 0.4).with(2.0, 0.4))
    }

    #[test]
    fn line_svg_draws_one_polyline_per_series() {
        let doc = render_lines(&line_chart());
        assert!(doc.starts_with("<svg"));
        assert!(doc.trim_end().ends_with("</svg>"));
        assert_eq!(doc.matches("<polyline").count(), 2);
        assert!(doc.contains("ipc &lt;t&gt;"));
        assert!(doc.contains("a&amp;b"));
        assert!(doc.contains(">epoch</text>"));
        assert!(doc.contains(">IPC</text>"));
    }

    #[test]
    fn line_svg_scales_points_into_the_plot_box() {
        let doc = render_lines(&line_chart());
        // y max 0.8 maps to the plot top, y floor 0 to the bottom.
        assert!(doc.contains("324.0,36.0"), "peak point must touch the top: {doc}");
        // x max 2.0 maps to the right edge (64 + 520).
        assert!(doc.contains("584.0,"), "last point must touch the right edge");
    }

    #[test]
    fn empty_line_chart_renders_placeholder() {
        let doc = render_lines(&LineChart::new("empty"));
        assert!(doc.contains("(no data)"));
        assert!(doc.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn line_write_file_round_trips() {
        let dir = std::env::temp_dir().join("csim_svg_line_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lines.svg");
        write_lines_file(&line_chart(), &path).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("polyline"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_file_round_trips() {
        let dir = std::env::temp_dir().join("csim_svg_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chart.svg");
        write_file(&chart(), &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("</svg>"));
        std::fs::remove_file(path).ok();
    }
}
